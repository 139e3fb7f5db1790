#include "lsdb/introspect/page_heat.h"

#include <algorithm>
#include <cstdio>

#include "lsdb/util/sharded_counter.h"

namespace lsdb {
namespace introspect {

PageHeatMap::PageHeatMap(uint32_t page_count, uint32_t shards)
    : page_count_(page_count), shard_count_(shards == 0 ? 1 : shards) {
  const size_t cells = static_cast<size_t>(shard_count_) * page_count_;
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(cells);
  for (size_t i = 0; i < cells; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  overflow_ = std::make_unique<std::atomic<uint64_t>[]>(shard_count_);
  for (uint32_t i = 0; i < shard_count_; ++i) {
    overflow_[i].store(0, std::memory_order_relaxed);
  }
}

uint32_t PageHeatMap::ShardForThisThread() const {
  return ThisThreadShard() % shard_count_;
}

void PageHeatMap::Touch(PageId id) {
  const uint32_t shard = ShardForThisThread();
  if (id >= page_count_) {
    overflow_[shard].fetch_add(1, std::memory_order_relaxed);
    return;
  }
  counts_[static_cast<size_t>(shard) * page_count_ + id].fetch_add(
      1, std::memory_order_relaxed);
}

uint64_t PageHeatMap::total() const {
  uint64_t sum = 0;
  const size_t cells = static_cast<size_t>(shard_count_) * page_count_;
  for (size_t i = 0; i < cells; ++i) {
    sum += counts_[i].load(std::memory_order_relaxed);
  }
  return sum + overflow();
}

uint64_t PageHeatMap::overflow() const {
  uint64_t sum = 0;
  for (uint32_t i = 0; i < shard_count_; ++i) {
    sum += overflow_[i].load(std::memory_order_relaxed);
  }
  return sum;
}

std::vector<uint64_t> PageHeatMap::Merge() const {
  std::vector<uint64_t> out(page_count_, 0);
  for (uint32_t s = 0; s < shard_count_; ++s) {
    const size_t base = static_cast<size_t>(s) * page_count_;
    for (uint32_t p = 0; p < page_count_; ++p) {
      out[p] += counts_[base + p].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::vector<PageHeatMap::RankEntry> PageHeatMap::Ranked() const {
  const std::vector<uint64_t> merged = Merge();
  std::vector<RankEntry> out;
  for (uint32_t p = 0; p < merged.size(); ++p) {
    if (merged[p] > 0) {
      out.push_back(RankEntry{p, merged[p]});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RankEntry& a, const RankEntry& b) {
              if (a.count != b.count) {
                return a.count > b.count;
              }
              return a.page < b.page;
            });
  return out;
}

std::string PageHeatMap::RankedReport(size_t top_n) const {
  const std::vector<RankEntry> ranked = Ranked();
  uint64_t grand = 0;
  for (const RankEntry& e : ranked) {
    grand += e.count;
  }
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%zu pages touched, %llu accesses (top %zu shown)\n",
                ranked.size(), static_cast<unsigned long long>(grand),
                std::min(top_n, ranked.size()));
  out += buf;
  uint64_t cum = 0;
  for (size_t i = 0; i < ranked.size() && i < top_n; ++i) {
    cum += ranked[i].count;
    std::snprintf(buf, sizeof(buf),
                  "  #%-3zu page %-6u %10llu accesses  cum %5.1f%%\n", i + 1,
                  ranked[i].page,
                  static_cast<unsigned long long>(ranked[i].count),
                  grand == 0 ? 0.0
                             : 100.0 * static_cast<double>(cum) /
                                   static_cast<double>(grand));
    out += buf;
  }
  return out;
}

std::string PageHeatMap::ToJson(size_t top_n) const {
  const std::vector<RankEntry> ranked = Ranked();
  uint64_t grand = 0;
  for (const RankEntry& e : ranked) {
    grand += e.count;
  }
  // Skew: share of all accesses landing on the hottest 10% of touched
  // pages — the number that tells us whether a small cache can win.
  const size_t hot_n = std::max<size_t>(1, ranked.size() / 10);
  uint64_t hot_sum = 0;
  for (size_t i = 0; i < ranked.size() && i < hot_n; ++i) {
    hot_sum += ranked[i].count;
  }
  std::string out;
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "{\"pages\":%u,\"pages_touched\":%zu,\"accesses\":%llu,"
      "\"overflow\":%llu,\"top_decile_share\":%.4f,\"top\":[",
      page_count_, ranked.size(), static_cast<unsigned long long>(grand),
      static_cast<unsigned long long>(overflow()),
      grand == 0 ? 0.0
                 : static_cast<double>(hot_sum) / static_cast<double>(grand));
  out += buf;
  for (size_t i = 0; i < ranked.size() && i < top_n; ++i) {
    std::snprintf(buf, sizeof(buf), "%s{\"page\":%u,\"count\":%llu}",
                  i == 0 ? "" : ",", ranked[i].page,
                  static_cast<unsigned long long>(ranked[i].count));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace introspect
}  // namespace lsdb
