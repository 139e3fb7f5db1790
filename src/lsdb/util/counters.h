// Metric counters for the paper's three measured quantities.
//
// The SIGMOD'92 study reports, per query workload and per structure:
//   * disk accesses        — buffer-pool read misses + dirty write-backs,
//   * segment comparisons  — accesses to the disk-resident segment table,
//   * bounding box / bucket computations — entry rectangles examined in
//     R-tree nodes, or quadtree block regions computed.
//
// Counters stay plain (non-atomic): the paper harness is single-threaded,
// matching the original study. Concurrent serving (lsdb/service) instead
// installs a ScopedCounterSink per worker thread, which redirects every
// increment made by that thread into a thread-private MetricCounters that
// the service merges after the batch. With no sink installed, increments go
// to the structure-owned counters exactly as before. Those counters have a
// single writer: any caller that runs queries on one structure from several
// threads must install a sink on each (nothing else serializes them — the
// zero-copy page path takes no lock).

#ifndef LSDB_UTIL_COUNTERS_H_
#define LSDB_UTIL_COUNTERS_H_

#include <cstdint>
#include <string>

namespace lsdb {

/// Aggregate metrics accumulated by one index structure (and its attached
/// storage). Snapshot-and-diff around a workload to get per-workload costs.
struct MetricCounters {
  uint64_t disk_reads = 0;    ///< Buffer-pool read misses.
  uint64_t disk_writes = 0;   ///< Dirty page write-backs (evict or flush).
  uint64_t page_fetches = 0;  ///< Logical page requests (hit or miss).
  uint64_t segment_comps = 0; ///< Segment-table accesses ("segment comps").
  uint64_t bbox_comps = 0;    ///< R-tree entry rectangles examined.
  uint64_t bucket_comps = 0;  ///< Quadtree block regions computed/tested.

  /// Total potential disk activity as reported in the paper's tables.
  uint64_t disk_accesses() const { return disk_reads + disk_writes; }

  /// Per-field saturating subtract (clamps to 0 instead of wrapping when a
  /// counter was reset between the two snapshots being diffed).
  MetricCounters operator-(const MetricCounters& rhs) const;
  MetricCounters& operator+=(const MetricCounters& rhs);

  std::string ToString() const;
};

namespace internal {
/// Active per-thread redirect target (null = no redirect). Owned by
/// ScopedCounterSink; never touch directly outside counters.h.
inline thread_local MetricCounters* tls_counter_sink = nullptr;
}  // namespace internal

/// Resolves the counter target for the calling thread: the thread's active
/// sink if a ScopedCounterSink is installed, else `fallback` (which may be
/// null, meaning "drop the increment").
inline MetricCounters* CounterSink(MetricCounters* fallback) {
  MetricCounters* t = internal::tls_counter_sink;
  return t != nullptr ? t : fallback;
}

/// Reference flavour for structures that own their counters by value.
inline MetricCounters& CounterSink(MetricCounters& fallback) {
  return *CounterSink(&fallback);
}

/// RAII redirect: while alive, every metric increment performed by the
/// constructing thread — across all indexes, buffer pools, and segment
/// tables it touches — is accumulated into `local` instead of the
/// structure-owned counters. Scopes nest (the innermost wins) and must be
/// destroyed on the thread that created them.
class ScopedCounterSink {
 public:
  explicit ScopedCounterSink(MetricCounters* local)
      : prev_(internal::tls_counter_sink) {
    internal::tls_counter_sink = local;
  }
  ~ScopedCounterSink() { internal::tls_counter_sink = prev_; }

  ScopedCounterSink(const ScopedCounterSink&) = delete;
  ScopedCounterSink& operator=(const ScopedCounterSink&) = delete;

 private:
  MetricCounters* prev_;
};

}  // namespace lsdb

#endif  // LSDB_UTIL_COUNTERS_H_
