// Plumbing shared by the benchmark's workloads: the in-memory span log,
// quantiles, the resident-memory probe, direct (single-thread) query
// replay with answer checks, and the metric map printed as JSON.
//
// Everything here drives lsdb through its public headers only.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lsdb/data/polygonal_map.h"
#include "lsdb/index/spatial_index.h"
#include "lsdb/service/query_service.h"
#include "lsdb/service/request.h"
#include "lsdb/storage/buffer_pool.h"
#include "lsdb/util/counters.h"

namespace perfbench {

/// steady_clock, in nanoseconds.
uint64_t NowNs();

/// Resident set size of this process in bytes (/proc/self/statm).
uint64_t RssBytes();

/// Returns freed heap to the OS so a following RssBytes() delta measures
/// what the next step keeps resident, not what an earlier step freed.
void TrimHeap();

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// -- Spans --------------------------------------------------------------

/// One timed call into a layer. Ids are 1-based positions in the log; a
/// parent of 0 means a root span.
struct Span {
  const char* name = "";  ///< Static string.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t parent = 0;
  int64_t request = -1;  ///< Stream index of the request, -1 for none.
};

/// Spans stay in memory while the workload runs and are written out once
/// at exit. Not thread-safe: concurrent phases record into thread-local
/// vectors and Append() them after joining.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Records a finished span; returns its id (0 when the log is off).
  uint32_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint32_t parent = 0, int64_t request = -1);
  /// Opens a span now; Close() stamps its end.
  uint32_t Open(const char* name, uint32_t parent = 0);
  void Close(uint32_t id);
  void Append(const std::vector<Span>& more);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed self time in microseconds, where a span's self
  /// time is its length minus the part of it its children cover.
  std::map<std::string, double> SelfTimeUs() const;

  /// Writes `header` (one JSON object), up to `max_spans` spans as JSON
  /// lines, then `trailer` (one JSON object). Returns false on IO error.
  bool WriteJsonl(const std::string& path, const std::string& header,
                  const std::string& trailer, size_t max_spans) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

// -- Queries ------------------------------------------------------------

inline constexpr const char* kStructureKeys[] = {"rstar", "rplus", "pmr"};
/// Layer names of the three structures (R* lives in src/lsdb/rtree).
inline constexpr const char* kLayerKeys[] = {"rtree", "rplus", "pmr"};

/// A single-thread replay of a whole stream on one structure, made while
/// the service is idle so the structure's own (plain, non-atomic)
/// counters are safe to read. Each request runs directly on the index the
/// way the service's executor runs it, so SameResponse can compare them.
struct DirectPass {
  std::vector<lsdb::QueryResponse> responses;
  lsdb::MetricCounters counts;    ///< Structure-owned counter delta.
  std::vector<double> call_ns;    ///< Per request, in stream order.
  uint64_t total_ns = 0;
  uint64_t failed = 0;            ///< Non-OK statuses.
};
DirectPass ReplayDirect(lsdb::SpatialIndex* idx,
                        const std::vector<lsdb::QueryRequest>& stream,
                        SpanLog* spans, uint32_t parent);

/// Checks that the three structures agree on every request: the same hit
/// id sets for point, incident and window queries and the same nearest
/// distance. On a mismatch fills *why with the first differing request.
bool CrossCheck(const std::vector<lsdb::QueryRequest>& stream,
                const DirectPass (&passes)[3], std::string* why);

/// "R* request 17 (window)" — names a request in error messages.
std::string DescribeRequest(int which, size_t i, lsdb::QueryType type);

/// Lifetime counters of one buffer pool, read through its accessors.
struct PoolCounts {
  uint64_t hits = 0, misses = 0, evictions = 0, pin_waits = 0;
};
PoolCounts ReadPool(const lsdb::BufferPool* pool);
PoolCounts operator-(const PoolCounts& a, const PoolCounts& b);

/// Adds storage.{hit_ratio,misses_per_query,evictions_per_query}.<key>
/// (and fetches_per_query unless key is "seg") from a pool delta over
/// `queries` queries.
void AddPoolMetrics(const std::string& key, const PoolCounts& d,
                    double queries, Metrics* out);

/// Median SegmentTable::Get time over `ids`, on one thread and on
/// `threads` threads at once; every Get is one span.
void MeasureSegmentGets(lsdb::SegmentTable* table,
                        const std::vector<lsdb::SegmentId>& ids,
                        uint32_t threads, SpanLog* spans, uint32_t parent,
                        Metrics* out);

/// Every distinct hit id of a replay, for the segment-table measurement.
std::vector<lsdb::SegmentId> HitIds(const DirectPass& pass);

/// Per-layer metrics every serve workload derives from a warm direct pass
/// and an introspected pass: <layer>.query_us_1t, <layer>.<kind>_us_1t,
/// <layer>.nodes_per_query, <layer>.false_read_rate.
void AddDirectTimings(int which, const std::vector<lsdb::QueryRequest>& stream,
                      const DirectPass& warm, Metrics* out);
void AddProfileMetrics(lsdb::QueryService* svc, Metrics* out);

/// Adds the three end-to-end Table 2 counts (mean over the structures of
/// per-query counts) and the per-layer node/segment count metrics from
/// three cold replays of the same stream.
void AddReplayCounts(const DirectPass (&passes)[3], size_t queries,
                     Metrics* e2e, Metrics* layer);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
