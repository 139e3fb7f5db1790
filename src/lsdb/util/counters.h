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
// gives each query a QueryContext (util/query_context.h) whose `counters`
// receive every increment its thread makes; the service merges them after
// the query. With no counters installed, increments go to the
// structure-owned counters exactly as before. Those counters have a single
// writer: any caller that runs queries on one structure from several
// threads must install counters on each (nothing else serializes them —
// the zero-copy page path takes no lock).

#ifndef LSDB_UTIL_COUNTERS_H_
#define LSDB_UTIL_COUNTERS_H_

#include <cstdint>
#include <string>

#include "lsdb/util/query_context.h"

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

/// Resolves the counter target for the calling thread: the counters of
/// its installed QueryContext if any, else `fallback` (which may be null,
/// meaning "drop the increment").
inline MetricCounters* CounterSink(MetricCounters* fallback) {
  MetricCounters* t = internal::tls_query_context.counters;
  return t != nullptr ? t : fallback;
}

/// Reference flavour for structures that own their counters by value.
inline MetricCounters& CounterSink(MetricCounters& fallback) {
  return *CounterSink(&fallback);
}

}  // namespace lsdb

#endif  // LSDB_UTIL_COUNTERS_H_
