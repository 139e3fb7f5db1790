// Hot-page heatmap: per-page access counters for a serving index.
//
// A PageHeatMap is attached to a BufferPool (or MmapPageFile) after the
// structure is frozen; every logical page access — pool hit, pool miss, or
// zero-copy mmap reference — bumps a sharded relaxed atomic. Off by
// default: an unattached pool pays one null-pointer test per access.
//
// Shards exist purely to keep concurrent workers off the same cache lines;
// any thread may touch any shard (the shard is the thread's round-robin
// ThisThreadShard() index, as for util/sharded_counter.h), and Merge()
// folds them into a plain per-page vector for reporting.

#ifndef LSDB_INTROSPECT_PAGE_HEAT_H_
#define LSDB_INTROSPECT_PAGE_HEAT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lsdb/storage/page_file.h"

namespace lsdb {
namespace introspect {

class PageHeatMap {
 public:
  /// Tracks pages [0, page_count). Accesses to pages at or beyond
  /// page_count land in overflow() instead of being lost (a file can grow
  /// after attachment; heat for grown pages is not per-page attributed).
  explicit PageHeatMap(uint32_t page_count, uint32_t shards = 8);

  /// One logical access to `id`. Relaxed atomic add; callable from any
  /// thread concurrently with Merge().
  void Touch(PageId id);

  uint32_t page_count() const { return page_count_; }
  uint64_t total() const;
  uint64_t overflow() const;

  /// Per-page counts, indexed by page id.
  std::vector<uint64_t> Merge() const;

  struct RankEntry {
    PageId page = 0;
    uint64_t count = 0;
  };
  /// Pages with nonzero heat, hottest first (ties broken by page id so the
  /// report is deterministic for a deterministic workload).
  std::vector<RankEntry> Ranked() const;

  /// Human-readable rank-ordered report of the `top_n` hottest pages with
  /// cumulative share of all accesses.
  std::string RankedReport(size_t top_n) const;

  /// Machine-readable summary (totals, hottest pages, skew).
  std::string ToJson(size_t top_n) const;

 private:
  uint32_t ShardForThisThread() const;

  uint32_t page_count_;
  uint32_t shard_count_;
  // shard-major layout: shard s, page p lives at s * page_count_ + p.
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::unique_ptr<std::atomic<uint64_t>[]> overflow_;
};

}  // namespace introspect
}  // namespace lsdb

#endif  // LSDB_INTROSPECT_PAGE_HEAT_H_
