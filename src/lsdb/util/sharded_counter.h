// Per-thread sharded event counter.
//
// Hot read paths that many workers run at once (zero-copy page fetches,
// fault-injector pass-through reads) count events on every call. One shared
// atomic would bounce its cache line between cores on each increment, which
// is the contention those paths exist to avoid. A ShardedCounter spreads
// the count over cache-line-padded slots, one per thread as far as the
// shard count allows, and sums them on read.
//
// Slots are picked by a per-thread index handed out round-robin the first
// time a thread increments any sharded counter, so up to kShards
// concurrently counting threads never share a slot. Reads are relaxed and
// may miss increments racing with them; a quiescent read is exact.

#ifndef LSDB_UTIL_SHARDED_COUNTER_H_
#define LSDB_UTIL_SHARDED_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace lsdb {

/// This thread's shard index: assigned once per thread, round-robin.
inline uint32_t ThisThreadShard() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

class ShardedCounter {
 public:
  static constexpr uint32_t kShards = 16;

  /// One event from any thread; lands in the calling thread's slot.
  void Add(uint64_t n = 1) {
    slots_[ThisThreadShard() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// One event from a caller that every other writer of this counter is
  /// serialized against (by a lock it holds): a plain load and store, with
  /// no locked read-modify-write.
  void AddSerialized(uint64_t n = 1) {
    std::atomic<uint64_t>& v = slots_[0].v;
    v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kShards];
};

}  // namespace lsdb

#endif  // LSDB_UTIL_SHARDED_COUNTER_H_
