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
// Serving state: a pool is writable until Freeze(), which writes back every
// dirty frame and then refuses every write until Thaw(). A frozen pool
// whose backend lends its pages (PageFile::lends_pages(): MemPageFile, and
// zero-copy snapshot sections) serves them zero-copy; one whose backend
// cannot (PosixPageFile, the harness's pool-copy snapshot sections) keeps
// its LRU frames and their exact accounting. A pool over a read-only
// backend is frozen for its whole life, and over a zero-copy snapshot
// section it is zero-copy from construction. The paper harness never
// freezes, so its 16-frame LRU accounting is untouched.
//
// Threading contract — lent pages: any thread; frames: one thread.
// Freeze() and Thaw() must not run concurrently with any other call.
//
//  * Zero-copy (frozen pools over lending backends): any number of threads
//    may Fetch at once, and Fetch takes no lock at all. Nothing writes the
//    pages while the pool is frozen, the backend's atomic first-touch
//    claim decides which fetch counts as the miss, and the pool's counters
//    and attachments (retry policy, tracer, heat map) are atomics. The
//    frames keep their clean copies for Thaw() to resume from. Every query
//    of the query service reads this way.
//  * Copying (LRU frames): builds, the paper harness and direct users of
//    on-disk pools fetch from one thread. Frame state is guarded by one
//    mutex and page IO happens under it, so the replacement order — and
//    therefore the paper's disk-access counts — is exactly the
//    single-threaded LRU; the mutex also lets stats readers (evictions(),
//    pinned_frames()) run on another thread. When every frame is pinned,
//    Fetch and New fail at once with ResourceExhausted: nothing waits for
//    a pin to be released. Frame contents are stable while pinned, so
//    readers never need the mutex for data().
//
// Metric counters: the MetricCounters passed at construction have a single
// writer. Threads that fetch concurrently must each install their own
// counters in a QueryContext (util/query_context.h) so their increments
// land in private counters; the query service always does.

#ifndef LSDB_STORAGE_BUFFER_POOL_H_
#define LSDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
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
  /// On the zero-copy path a ref holds a pointer lent by the backend
  /// instead of a pinned frame: data() serves it, Release() has nothing to
  /// unpin, and writing through it or MarkDirty() is a contract violation
  /// (the pool is frozen).
  class PageRef {
   public:
    PageRef() = default;
    PageRef(BufferPool* pool, uint32_t frame, PageId id)
        : pool_(pool), frame_(frame), id_(id) {}
    /// Direct (zero-copy) ref: no pool pin, data lives in the backend.
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
  /// Fails while frozen.
  [[nodiscard]] StatusOr<PageRef> New() LSDB_EXCLUDES(mu_);
  /// Writes back all dirty pages (counts as disk writes).
  [[nodiscard]] Status FlushAll() LSDB_EXCLUDES(mu_);
  /// Drops page `id` from the pool (must be unpinned; dirty data is
  /// discarded) and frees it in the file. Fails while frozen.
  [[nodiscard]] Status Free(PageId id) LSDB_EXCLUDES(mu_);

  /// Enters read-only serving (see the file comment): writes back every
  /// dirty frame, then refuses writes and, over a lending backend, serves
  /// zero-copy. Fails with InvalidArgument, changing nothing, while any
  /// frame is pinned; a failed write-back is returned as is.
  [[nodiscard]] Status Freeze() LSDB_EXCLUDES(mu_);
  /// Leaves read-only serving: back to the LRU frames, which still hold
  /// clean copies because nothing was written while frozen. A pool over a
  /// read-only backend stays as it was built.
  void Thaw();
  /// True while writes are refused (after Freeze(), or always over a
  /// read-only backend).
  bool frozen() const { return frozen_.load(std::memory_order_relaxed); }
  /// InvalidArgument while frozen, else OK. Callers that write through a
  /// fetched ref (WriteSuperblock, SegmentTable::Append) check it before
  /// they fetch.
  [[nodiscard]] Status CheckWritable() const;
  /// True when the backend rejects every write (snapshot sections).
  bool read_only() const { return file_->read_only(); }

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
  // atomics, exact once the pool is quiescent; evictions exist only on the
  // copying path and are guarded by the pool mutex.

  /// Fetches served from a resident frame (zero-copy: from a page already
  /// touched).
  uint64_t hits() const { return hits_.value(); }
  /// Fetches that had to read the page from the file (zero-copy: the
  /// page's first touch since it was last written).
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Pages pushed out of the pool to make room (LRU victims).
  uint64_t evictions() const LSDB_EXCLUDES(mu_);
  /// Always 0: no Fetch/New waits for a pin. Kept because perfbench still
  /// reports it as `storage.pin_waits`.
  uint64_t pin_waits() const { return 0; }
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
  /// hit / miss / eviction — are emitted as sampled JSONL lines tagged
  /// with `pool_name`, which must outlive the pool (a string literal in
  /// practice). With no tracer attached (the default, and always the case
  /// in the sequential paper harness) the cost is one null-pointer test.
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
  /// Writes back every dirty frame (counts as disk writes).
  [[nodiscard]] Status FlushLocked() LSDB_REQUIRES(mu_);
  /// Finds a frame for a new page: a free frame or the LRU-evicted victim;
  /// ResourceExhausted when every frame is pinned.
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
  /// Emits `e` to the attached tracer, if any. Needs no lock: the copying
  /// path calls it with mu_ held, the zero-copy path without.
  void TraceEvent(PoolEvent e) const;
  RetryPolicy retry_policy() const;

  PageFile* file_;
  MetricCounters* metrics_;
  const uint32_t frame_count_;  ///< Immutable after construction.
  /// Serving state (see the file comment). Written only by the
  /// constructor, Freeze() and Thaw(), which run alone; Fetch dispatches
  /// on zero_copy_ without a virtual call.
  std::atomic<bool> frozen_;
  std::atomic<bool> zero_copy_;

  /// Guards the frame state of the copying path (see the file comment).
  mutable Mutex mu_{"BufferPool.mu"};

  std::vector<Frame> frames_ LSDB_GUARDED_BY(mu_);
  std::unordered_map<PageId, uint32_t> page_to_frame_ LSDB_GUARDED_BY(mu_);
  /// front = least recently used, unpinned only
  std::list<uint32_t> lru_ LSDB_GUARDED_BY(mu_);
  std::vector<uint32_t> free_frames_ LSDB_GUARDED_BY(mu_);
  uint32_t total_pins_ LSDB_GUARDED_BY(mu_) = 0;

  // Observability (see accessor docs). Copying-path writers hold mu_ and
  // update hits_/misses_ with a plain load and store; zero-copy writers
  // hold nothing and use atomic adds. A pool never runs both paths at
  // once: Freeze() and Thaw() switch between them while no fetch runs.
  ShardedCounter hits_;  ///< Per-thread slots: every zero-copy hit bumps it.
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> io_retries_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  uint64_t evictions_ LSDB_GUARDED_BY(mu_) = 0;
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
