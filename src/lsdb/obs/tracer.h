// Structured tracing: one JSON object per line (JSONL) per event.
//
// Two event families:
//   * query spans  — one line per served query, carrying the query id,
//     kind, structure, wall latency in ns, the per-query metric deltas
//     (disk reads, segment comps, bbox/bucket comps), and the worker id;
//   * buffer-pool events — hit / miss / eviction, tagged with
//     the pool's name and sampled 1-in-N (configurable) because pools see
//     orders of magnitude more events than queries.
//
// Cost model: a Tracer starts disabled. The disabled path is a single
// relaxed atomic load (`enabled()`), which callers check before building
// an event — no formatting, no locking, no branches beyond the one test.
// When enabled, events are formatted into a stack buffer and appended to
// the sink under a mutex; tracing is for debugging and sampling, not for
// the steady-state hot path, so a mutex is acceptable there.
//
// The sink is either a file the tracer owns (OpenFile) or a caller-owned
// std::ostream (AttachStream, used by tests). Lines are flushed on Close()
// and on destruction.

#ifndef LSDB_OBS_TRACER_H_
#define LSDB_OBS_TRACER_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

#include "lsdb/util/mutex.h"
#include "lsdb/util/status.h"
#include "lsdb/util/thread_annotations.h"

namespace lsdb {

/// One served query, ready to serialize. All strings must be UTF-8; they
/// are JSON-escaped on emission.
struct QuerySpan {
  uint64_t query_id = 0;
  const char* kind = "";       ///< "point" / "window" / "nearest" / ...
  const char* structure = "";  ///< "R*" / "R+" / "PMR".
  uint64_t latency_ns = 0;
  uint64_t disk_reads = 0;     ///< Delta attributed to this query.
  uint64_t segment_comps = 0;
  uint64_t bbox_comps = 0;
  uint64_t bucket_comps = 0;
  uint32_t worker = 0;

  /// Optional query-path introspection block (see lsdb/introspect/). When
  /// `has_introspect` is set, the span line carries the descent shape —
  /// nodes visited / pruned, false-positive leaf and bucket reads, max
  /// depth — captured by the profiler for this one query.
  bool has_introspect = false;
  uint64_t nodes_visited = 0;
  uint64_t nodes_pruned = 0;
  uint64_t false_leaf_reads = 0;
  uint64_t false_bucket_reads = 0;
  uint32_t max_depth = 0;
};

/// Buffer-pool event kinds (see BufferPool for emission points).
enum class PoolEvent : uint8_t { kHit, kMiss, kEviction };
const char* PoolEventName(PoolEvent e);

struct TracerOptions {
  /// Emit every Nth buffer-pool event per pool-event counter; 1 = all,
  /// 0 disables pool events entirely. Query spans are never sampled.
  uint64_t pool_event_sample_every = 100;
  /// Byte budget for the sink; 0 = unlimited. Once the budget is reached
  /// further lines are dropped (and counted in lines_dropped()) instead of
  /// growing the trace without bound — long soak runs stay disk-safe.
  uint64_t max_bytes = 0;
};

class Tracer {
 public:
  Tracer() = default;  ///< Disabled; enabled() is false until opened.
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens `path` for writing (truncating) and enables the tracer.
  Status OpenFile(const std::string& path,
                  const TracerOptions& options = TracerOptions())
      LSDB_EXCLUDES(mu_);
  /// Attaches a caller-owned stream (which must outlive the tracer or a
  /// Close()) and enables the tracer.
  void AttachStream(std::ostream* out,
                    const TracerOptions& options = TracerOptions())
      LSDB_EXCLUDES(mu_);
  /// Flushes buffered lines to the sink without disabling. Safe to call
  /// from any thread, and when never opened (no-op).
  void Flush() LSDB_EXCLUDES(mu_);
  /// Flushes and disables; safe to call when never opened.
  void Close() LSDB_EXCLUDES(mu_);

  /// The near-zero disabled path: callers test this before assembling an
  /// event. One relaxed atomic load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Emits a "span" line for one query. No-op when disabled.
  void EmitQuerySpan(const QuerySpan& span) LSDB_EXCLUDES(mu_);

  /// Emits a "pool" line for a buffer-pool event, subject to 1-in-N
  /// sampling. No-op when disabled. `sampled_every` is recorded on the
  /// line so consumers can rescale counts.
  void EmitPoolEvent(const char* pool_name, PoolEvent event)
      LSDB_EXCLUDES(mu_);

  /// Emits a "health" line for a service-level state change — breaker
  /// opened / closed — tagged with the structure it concerns. Never
  /// sampled (these are rare and always interesting). No-op when disabled.
  void EmitHealthEvent(const char* structure, const char* event)
      LSDB_EXCLUDES(mu_);

  /// Emits an "admission" line for an overload-layer outcome — a shed
  /// (by reason), a timeout, or a cancellation — tagged with the structure
  /// the request targeted. Sampled 1-in-N with the pool-event knob (its
  /// own counter): sheds arrive in bursts precisely when the service is
  /// overloaded, the worst moment to amplify I/O. No-op when disabled.
  void EmitAdmissionEvent(const char* structure, const char* event)
      LSDB_EXCLUDES(mu_);

  /// Lines written so far (post-sampling).
  uint64_t lines_emitted() const {
    return lines_emitted_.load(std::memory_order_relaxed);
  }

  /// Lines dropped because the sink hit its max_bytes budget.
  uint64_t lines_dropped() const {
    return lines_dropped_.load(std::memory_order_relaxed);
  }

  /// Appends a JSON-escaped copy of `s` to *out (quotes not included).
  static void JsonEscape(const char* s, std::string* out);

 private:
  void WriteLine(const std::string& line) LSDB_EXCLUDES(mu_);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> pool_event_seq_{0};  ///< Pre-sampling event count.
  std::atomic<uint64_t> admission_event_seq_{0};
  std::atomic<uint64_t> lines_emitted_{0};
  std::atomic<uint64_t> lines_dropped_{0};

  /// Guards the sink and options below. A copying BufferPool emits with
  /// its mutex held, so pool -> tracer nests on that single-threaded path,
  /// never the reverse (the tracer calls nothing that could take a pool
  /// lock). Zero-copy pools, which serve every service query, emit
  /// holding no lock.
  Mutex mu_{"Tracer.mu"};
  TracerOptions options_ LSDB_GUARDED_BY(mu_);
  /// Bytes appended to the current sink.
  uint64_t bytes_written_ LSDB_GUARDED_BY(mu_) = 0;
  /// Owned sink (OpenFile).
  std::ofstream file_ LSDB_GUARDED_BY(mu_);
  /// Active sink; &file_ or caller-owned.
  std::ostream* out_ LSDB_GUARDED_BY(mu_) = nullptr;
};

}  // namespace lsdb

#endif  // LSDB_OBS_TRACER_H_
