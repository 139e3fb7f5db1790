// LRU buffer pool over a PageFile.
//
// Reproduces the paper's experimental storage setup: a pool of N frames
// (default 16) of page_size bytes (default 1K) with least-recently-used
// replacement. Every *miss* increments `disk_reads`, every dirty page
// written back on eviction or flush increments `disk_writes`; their sum is
// the paper's "disk accesses" metric.
//
// Access style: callers Fetch() a pinned PageRef, copy data in/out, and
// drop the ref promptly (RAII unpin). Holding at most a couple of pins at a
// time keeps the pool functional even at the smallest configurations used
// in the Figure 6 sweep.
//
// Thread safety (added for the concurrent query service): any number of
// threads may Fetch/Release concurrently. A pool is copying or zero-copy
// for its whole life, fixed by its backend at construction:
//
//  * Copying (LRU frames): all frame state is guarded by one mutex, and
//    page IO happens under it, which keeps the replacement order — and
//    therefore the paper's disk-access counts — exactly the
//    single-threaded LRU semantics. When every frame is pinned, a Fetch
//    whose calling thread holds *all* the pins fails immediately with
//    ResourceExhausted (waiting would self-deadlock; this preserves the
//    single-threaded behaviour), otherwise it blocks on a condition
//    variable until another thread releases a pin (bounded by
//    kExhaustedWaitMs). A PageRef must be released on the thread that
//    fetched it; frame contents are stable while pinned, so readers never
//    need the mutex for data().
//  * Zero-copy (frozen snapshot sections): Fetch takes no lock at all. The
//    pages are immutable, the backend's atomic first-touch claim decides
//    which fetch counts as the miss, and the pool's counters and
//    attachments (retry policy, tracer, heat map) are atomics.
//
// Metric counters: the MetricCounters passed at construction have a single
// writer. Threads that fetch concurrently must each install a
// ScopedCounterSink (util/counters.h) so their increments land in private
// counters; the query service always does.

#ifndef LSDB_STORAGE_BUFFER_POOL_H_
#define LSDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lsdb/storage/page_file.h"
#include "lsdb/util/counters.h"
#include "lsdb/util/mutex.h"
#include "lsdb/util/sharded_counter.h"
#include "lsdb/util/status.h"
#include "lsdb/util/thread_annotations.h"

namespace lsdb {

class Tracer;
enum class PoolEvent : uint8_t;  // full definition in lsdb/obs/tracer.h
namespace introspect {
class PageHeatMap;  // full definition in lsdb/introspect/page_heat.h
}

class BufferPool {
 public:
  /// Upper bound on how long a Fetch/New waits for another thread to
  /// release a pin before giving up with ResourceExhausted.
  static constexpr int kExhaustedWaitMs = 1000;

  /// Slice of the exhausted wait between cancel-token polls: a query
  /// cancelled from another thread while parked on frame exhaustion
  /// unblocks within this bound (deadline expiry is exact — the wait
  /// never sleeps past the installed token's deadline).
  static constexpr int kCancelPollMs = 10;

  /// Default bounded-retry policy for transient kIoError from the backing
  /// file: total attempts per IO, and the linear backoff unit between them
  /// (attempt k sleeps k * backoff_us). Deterministic — no jitter.
  static constexpr uint32_t kDefaultIoAttempts = 3;
  static constexpr uint32_t kDefaultIoBackoffUs = 100;

  /// `metrics` may be null (counters dropped). The pool does not own either
  /// pointer; both must outlive it.
  BufferPool(PageFile* file, uint32_t frame_count, MetricCounters* metrics);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII pinned page handle. Movable; unpins on destruction.
  ///
  /// Over a zero-copy backend a ref holds a borrowed pointer straight into
  /// the backend's mapping instead of a pinned frame: data() serves it,
  /// Release() has nothing to unpin, and MarkDirty() is a contract
  /// violation (snapshot sections are immutable).
  class PageRef {
   public:
    PageRef() = default;
    PageRef(BufferPool* pool, uint32_t frame, PageId id)
        : pool_(pool), frame_(frame), id_(id) {}
    /// Direct (zero-copy) ref: no pool pin, data lives in the mapping.
    PageRef(const uint8_t* direct, PageId id) : id_(id), direct_(direct) {}
    PageRef(PageRef&& o) noexcept { *this = std::move(o); }
    PageRef& operator=(PageRef&& o) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;
    ~PageRef() { Release(); }

    bool valid() const { return pool_ != nullptr || direct_ != nullptr; }
    PageId id() const { return id_; }
    // tsa-escape: frame contents are stable while this ref's pin is held
    // (eviction skips pinned frames), so data() deliberately reads the
    // frame buffer without pool_->mu_; taking the lock here would put a
    // mutex acquisition on every node access in query descent.
    uint8_t* data() LSDB_NO_THREAD_SAFETY_ANALYSIS;
    // tsa-escape: same pin-stability argument as the mutable overload.
    const uint8_t* data() const LSDB_NO_THREAD_SAFETY_ANALYSIS;
    /// Marks the page dirty; it will be written back before reuse.
    void MarkDirty();
    /// Explicit early unpin.
    void Release();

   private:
    BufferPool* pool_ = nullptr;
    uint32_t frame_ = 0;
    PageId id_ = kInvalidPageId;
    const uint8_t* direct_ = nullptr;  ///< Set iff this is a zero-copy ref.
  };

  /// Pins page `id`, reading it from the file on a miss.
  [[nodiscard]] StatusOr<PageRef> Fetch(PageId id) LSDB_EXCLUDES(mu_);
  /// Allocates a new zeroed page and pins it (already marked dirty).
  [[nodiscard]] StatusOr<PageRef> New() LSDB_EXCLUDES(mu_);
  /// Writes back all dirty pages (counts as disk writes).
  [[nodiscard]] Status FlushAll() LSDB_EXCLUDES(mu_);
  /// Drops page `id` from the pool (must be unpinned; dirty data is
  /// discarded) and frees it in the file.
  [[nodiscard]] Status Free(PageId id) LSDB_EXCLUDES(mu_);

  uint32_t frame_count() const { return frame_count_; }
  uint32_t page_size() const { return file_->page_size(); }
  PageFile* file() { return file_; }
  const MetricCounters* metrics() const { return metrics_; }

  /// Number of currently pinned frames (diagnostics / tests).
  uint32_t pinned_frames() const LSDB_EXCLUDES(mu_);

  // -- Observability ------------------------------------------------------
  // Lifetime pool behaviour, tracked independently of MetricCounters (the
  // paper's metrics are untouched; these exist for cache-behaviour reports
  // and the obs subsystem). Hit/miss/retry/checksum counts are relaxed
  // atomics, exact once the pool is quiescent; evictions and pin waits
  // exist only on the copying path and are guarded by the pool mutex.

  /// Fetches served from a resident frame (zero-copy: from a page already
  /// touched).
  uint64_t hits() const { return hits_.value(); }
  /// Fetches that had to read the page from the file (zero-copy: the
  /// page's first touch).
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Pages pushed out of the pool to make room (LRU victims).
  uint64_t evictions() const LSDB_EXCLUDES(mu_);
  /// Times a Fetch/New had to wait for another thread to release a pin.
  uint64_t pin_waits() const LSDB_EXCLUDES(mu_);
  /// hits / (hits + misses); 0 when no fetches have happened yet. New()
  /// calls are neither hits nor misses (they never read the file).
  double hit_ratio() const;
  /// Transient-IO retries performed (reads + write-backs, all attempts
  /// after the first).
  uint64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }
  /// Pages that failed CRC verification on miss (each surfaced to the
  /// caller as Status::Corruption).
  uint64_t checksum_failures() const {
    return checksum_failures_.load(std::memory_order_relaxed);
  }

  /// Overrides the transient-IO retry policy. `max_attempts` >= 1 is the
  /// total tries per IO (1 = no retry); `backoff_us` the linear backoff
  /// unit. Both fields are published together as one atomic, so a live
  /// change applies whole to the next IO that reads it.
  void SetRetryPolicy(uint32_t max_attempts, uint32_t backoff_us);

  /// Attaches `tracer` (not owned; may be null to detach) so pool events —
  /// hit / miss / eviction / pin_wait — are emitted as sampled JSONL
  /// lines tagged with `pool_name`, which must outlive the pool (a string
  /// literal in practice). With no tracer attached (the default, and
  /// always the case in the sequential paper harness) the cost is one
  /// null-pointer test.
  void SetTracer(Tracer* tracer, const char* pool_name);

  /// Attaches `heat` (not owned; may be null to detach) so every logical
  /// page access — copying or zero-copy, hit or miss — bumps its per-page
  /// counter. Safe while the pool serves; unattached (the default) the
  /// cost is one null-pointer test per fetch.
  void SetPageHeat(introspect::PageHeatMap* heat) {
    heat_.store(heat, std::memory_order_release);
  }

 private:
  struct Frame {
    std::vector<uint8_t> buf;
    PageId page = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    std::list<uint32_t>::iterator lru_pos;  // valid iff in lru_
    bool in_lru = false;
  };

  struct RetryPolicy {
    uint32_t max_attempts;
    uint32_t backoff_us;
  };

  /// Zero-copy fetch path: borrows the page pointer from the backend's
  /// MapPage() instead of copying into a frame, without taking mu_.
  /// Hit/miss/disk-access counting mirrors the copying path (first touch =
  /// miss).
  [[nodiscard]] StatusOr<PageRef> FetchZeroCopy(PageId id);
  /// Finds a frame for a new page: free frame, LRU-evicted victim, or —
  /// when all frames are pinned by *other* threads — waits for a release.
  /// May drop mu_ while waiting (CondVar), but holds it on entry and exit.
  [[nodiscard]] StatusOr<uint32_t> GetVictimFrame() LSDB_REQUIRES(mu_);
  /// Reads page `id` from the file with bounded transient-IO retries, then
  /// verifies its stored CRC-32C; a mismatch is Status::Corruption. Called
  /// with mu_ held (page IO is serialized by design; see file comment).
  [[nodiscard]] Status ReadPageVerified(PageId id, uint8_t* buf)
      LSDB_REQUIRES(mu_);
  /// Computes and stamps the page checksum, then writes with bounded
  /// transient-IO retries. Called with mu_ held.
  [[nodiscard]] Status WritePageStamped(PageId id, const uint8_t* buf)
      LSDB_REQUIRES(mu_);
  void PinLocked(uint32_t frame) LSDB_REQUIRES(mu_);
  void Unpin(uint32_t frame) LSDB_EXCLUDES(mu_);
  uint32_t SelfPinsLocked() const LSDB_REQUIRES(mu_);
  /// Emits `e` to the attached tracer, if any. Needs no lock: the copying
  /// path calls it with mu_ held, the zero-copy path without.
  void TraceEvent(PoolEvent e) const;
  RetryPolicy retry_policy() const;

  PageFile* file_;
  MetricCounters* metrics_;
  const uint32_t frame_count_;  ///< Immutable after construction.
  /// file_->zero_copy(), fixed for the pool's life: Fetch dispatches on it
  /// without a virtual call.
  const bool zero_copy_;

  mutable Mutex mu_{"BufferPool.mu"};
  CondVar frame_released_;

  std::vector<Frame> frames_ LSDB_GUARDED_BY(mu_);
  std::unordered_map<PageId, uint32_t> page_to_frame_ LSDB_GUARDED_BY(mu_);
  /// front = least recently used, unpinned only
  std::list<uint32_t> lru_ LSDB_GUARDED_BY(mu_);
  std::vector<uint32_t> free_frames_ LSDB_GUARDED_BY(mu_);
  uint32_t total_pins_ LSDB_GUARDED_BY(mu_) = 0;
  /// Outstanding pins per thread, for self-deadlock detection when the
  /// pool is exhausted.
  std::unordered_map<std::thread::id, uint32_t> pins_by_thread_
      LSDB_GUARDED_BY(mu_);

  // Observability (see accessor docs). Copying-path writers hold mu_ and
  // update hits_/misses_ with a plain load and store; zero-copy writers
  // hold nothing and use atomic adds. A pool never runs both paths.
  ShardedCounter hits_;  ///< Per-thread slots: every zero-copy hit bumps it.
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> io_retries_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  uint64_t evictions_ LSDB_GUARDED_BY(mu_) = 0;
  uint64_t pin_waits_ LSDB_GUARDED_BY(mu_) = 0;
  /// RetryPolicy packed as max_attempts << 32 | backoff_us.
  std::atomic<uint64_t> retry_policy_{
      uint64_t{kDefaultIoAttempts} << 32 | kDefaultIoBackoffUs};
  /// Not owned; null = no tracing. pool_name_ is stored before tracer_ is
  /// published.
  std::atomic<Tracer*> tracer_{nullptr};
  std::atomic<const char*> pool_name_{""};
  /// Not owned; null = off.
  std::atomic<introspect::PageHeatMap*> heat_{nullptr};
};

}  // namespace lsdb

#endif  // LSDB_STORAGE_BUFFER_POOL_H_
