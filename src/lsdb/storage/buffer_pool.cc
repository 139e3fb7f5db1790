#include "lsdb/storage/buffer_pool.h"

#include <cassert>
#include <chrono>
#include <cstring>
#include <utility>

#include "lsdb/introspect/page_heat.h"
#include "lsdb/obs/tracer.h"
#include "lsdb/service/cancel.h"
#include "lsdb/util/crc32c.h"

namespace lsdb {

namespace {
/// Sentinel returned by GetVictimFrame after a wait: the caller must
/// re-check the page map (another thread may have loaded the page, or
/// released a pin on it) before searching for a victim again.
constexpr uint32_t kRetryFrame = 0xffffffffu;

/// Increment of a counter whose writers all hold the pool mutex (the
/// copying path): a plain load and store, no locked read-modify-write.
void BumpLocked(std::atomic<uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// Linear backoff before retry `attempt` + 1: attempt * backoff_us.
void Backoff(uint32_t backoff_us, uint32_t attempt) {
  if (backoff_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(backoff_us * attempt));
  }
}
}  // namespace

BufferPool::BufferPool(PageFile* file, uint32_t frame_count,
                       MetricCounters* metrics)
    : file_(file),
      metrics_(metrics),
      frame_count_(frame_count),
      zero_copy_(file->zero_copy()) {
  assert(frame_count >= 1);  // NOLINT(lsdb-assert-on-disk): constructor option validation
  frames_.resize(frame_count);
  free_frames_.reserve(frame_count);
  for (uint32_t i = 0; i < frame_count; ++i) {
    frames_[i].buf.resize(file_->page_size());
    free_frames_.push_back(frame_count - 1 - i);
  }
}

BufferPool::~BufferPool() {
  // Best-effort flush; errors cannot be reported from a destructor.
  FlushAll().IgnoreError();
}

BufferPool::PageRef& BufferPool::PageRef::operator=(PageRef&& o) noexcept {
  if (this != &o) {
    // Unpin whatever this ref currently holds before adopting the source's
    // pin, otherwise assigning over a valid ref leaks its pin permanently.
    Release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    id_ = o.id_;
    direct_ = o.direct_;
    o.pool_ = nullptr;
    o.direct_ = nullptr;
  }
  return *this;
}

uint8_t* BufferPool::PageRef::data() {
  // No lock: the frame buffer is stable while this ref's pin is held, and
  // a direct ref points into an immutable mapping. Callers of the mutable
  // overload on a direct ref get the pointer but must not write through
  // it — the mapping is PROT_READ and the index is frozen; writes are
  // already rejected at the MarkDirty/Write layer.
  assert(valid());  // NOLINT(lsdb-assert-on-disk): PageRef handle validity, in-memory
  if (direct_ != nullptr) return const_cast<uint8_t*>(direct_);
  return pool_->frames_[frame_].buf.data();
}

const uint8_t* BufferPool::PageRef::data() const {
  assert(valid());  // NOLINT(lsdb-assert-on-disk): PageRef handle validity, in-memory
  if (direct_ != nullptr) return direct_;
  return pool_->frames_[frame_].buf.data();
}

void BufferPool::PageRef::MarkDirty() {
  assert(valid());  // NOLINT(lsdb-assert-on-disk): PageRef handle validity, in-memory
  // Dirtying a zero-copy ref is a programming error (frozen section); the
  // backend would reject the write-back anyway, so catch it at the source.
  assert(direct_ == nullptr);  // NOLINT(lsdb-assert-on-disk): caller contract, in-memory handle
  MutexLock lk(pool_->mu_);
  pool_->frames_[frame_].dirty = true;
}

void BufferPool::PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
  direct_ = nullptr;
}

uint32_t BufferPool::SelfPinsLocked() const {
  auto it = pins_by_thread_.find(std::this_thread::get_id());
  return it == pins_by_thread_.end() ? 0 : it->second;
}

void BufferPool::PinLocked(uint32_t frame) {
  ++frames_[frame].pin_count;
  ++total_pins_;
  ++pins_by_thread_[std::this_thread::get_id()];
}

Status BufferPool::ReadPageVerified(PageId id, uint8_t* buf) {
  const RetryPolicy retry = retry_policy();
  for (uint32_t attempt = 1;; ++attempt) {
    uint32_t stored = 0;
    const Status s = file_->Read(id, buf, &stored);
    if (s.ok()) {
      if (crc32c::Compute(buf, file_->page_size()) != stored) {
        checksum_failures_.fetch_add(1, std::memory_order_relaxed);
        return Status::Corruption("page " + std::to_string(id) +
                                  " failed checksum verification");
      }
      return s;
    }
    // Only transient-looking IO errors are worth retrying; corruption and
    // argument errors are final.
    if (!s.IsIoError() || attempt >= retry.max_attempts) return s;
    // A cancelled or deadline-expired query gives up instead of burning
    // its remaining budget in backoff sleeps.
    if (CancelToken* tok = ThreadCancelToken()) {
      LSDB_RETURN_IF_ERROR(tok->StatusNow());
    }
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    Backoff(retry.backoff_us, attempt);
  }
}

Status BufferPool::WritePageStamped(PageId id, const uint8_t* buf) {
  const uint32_t crc = crc32c::Compute(buf, file_->page_size());
  const RetryPolicy retry = retry_policy();
  for (uint32_t attempt = 1;; ++attempt) {
    const Status s = file_->Write(id, buf, crc);
    if (s.ok() || !s.IsIoError() || attempt >= retry.max_attempts) {
      return s;
    }
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    Backoff(retry.backoff_us, attempt);
  }
}

StatusOr<uint32_t> BufferPool::GetVictimFrame() {
  if (!free_frames_.empty()) {
    const uint32_t f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  if (!lru_.empty()) {
    const uint32_t f = lru_.front();
    lru_.pop_front();
    Frame& fr = frames_[f];
    fr.in_lru = false;
    assert(fr.pin_count == 0);  // NOLINT(lsdb-assert-on-disk): eviction invariant on the in-memory frame table
    if (fr.dirty) {
      const Status s = WritePageStamped(fr.page, fr.buf.data());
      if (!s.ok()) {
        // Re-insert the frame at the LRU head. Leaving it out would leak
        // it — still mapped in page_to_frame_ but never evictable again —
        // and a few failed write-backs would wedge the whole pool.
        fr.lru_pos = lru_.insert(lru_.begin(), f);
        fr.in_lru = true;
        return s;
      }
      if (MetricCounters* m = CounterSink(metrics_)) ++m->disk_writes;
      fr.dirty = false;
    }
    page_to_frame_.erase(fr.page);
    fr.page = kInvalidPageId;
    ++evictions_;
    TraceEvent(PoolEvent::kEviction);
    return f;
  }
  // Every frame is pinned. If the calling thread holds all the pins,
  // waiting could never succeed — fail as the single-threaded pool did.
  if (SelfPinsLocked() == total_pins_) {
    return Status::ResourceExhausted("all buffer frames pinned");
  }
  // Another thread holds pins; block until one is released (bounded, so a
  // cross-thread pin cycle degrades to an error instead of a hang). The
  // wait honors the calling query's cancel token: it never sleeps past
  // the token's deadline, and it is sliced so a cross-thread Cancel() is
  // observed within one poll interval instead of parking the thread for
  // the full exhaustion timeout.
  ++pin_waits_;
  TraceEvent(PoolEvent::kPinWait);
  CancelToken* tok = ThreadCancelToken();
  const auto give_up = CancelToken::Clock::now() +
                       std::chrono::milliseconds(kExhaustedWaitMs);
  for (;;) {
    if (tok != nullptr) {
      LSDB_RETURN_IF_ERROR(tok->StatusNow());
    }
    auto slice = CancelToken::Clock::now() +
                 std::chrono::milliseconds(kCancelPollMs);
    if (slice > give_up) slice = give_up;
    if (tok != nullptr && tok->has_deadline() && tok->deadline() < slice) {
      slice = tok->deadline();
    }
    const bool have_frame = frame_released_.WaitUntil(
        mu_, slice,
        [this]() LSDB_REQUIRES(mu_) {
          return !free_frames_.empty() || !lru_.empty();
        });
    if (have_frame) return kRetryFrame;
    if (CancelToken::Clock::now() >= give_up) {
      return Status::ResourceExhausted(
          "timed out waiting for a buffer frame to be unpinned");
    }
  }
}

void BufferPool::Unpin(uint32_t frame) {
  MutexLock lk(mu_);
  Frame& fr = frames_[frame];
  assert(fr.pin_count > 0);  // NOLINT(lsdb-assert-on-disk): Unpin caller contract
  --total_pins_;
  auto it = pins_by_thread_.find(std::this_thread::get_id());
  if (it != pins_by_thread_.end() && --it->second == 0) {
    pins_by_thread_.erase(it);
  }
  if (--fr.pin_count == 0) {
    fr.lru_pos = lru_.insert(lru_.end(), frame);
    fr.in_lru = true;
    frame_released_.NotifyOne();
  }
}

StatusOr<BufferPool::PageRef> BufferPool::Fetch(PageId id) {
  if (zero_copy_) return FetchZeroCopy(id);
  MutexLock lk(mu_);
  if (introspect::PageHeatMap* heat = heat_.load(std::memory_order_acquire)) {
    heat->Touch(id);
  }
  if (MetricCounters* m = CounterSink(metrics_)) ++m->page_fetches;
  for (;;) {
    auto it = page_to_frame_.find(id);
    if (it != page_to_frame_.end()) {
      const uint32_t f = it->second;
      Frame& fr = frames_[f];
      if (fr.in_lru) {
        lru_.erase(fr.lru_pos);
        fr.in_lru = false;
      }
      PinLocked(f);
      hits_.AddSerialized();
      TraceEvent(PoolEvent::kHit);
      return PageRef(this, f, id);
    }
    auto victim = GetVictimFrame();
    if (!victim.ok()) return victim.status();
    if (*victim == kRetryFrame) continue;  // waited: re-check the page map
    const uint32_t f = *victim;
    Frame& fr = frames_[f];
    const Status s = ReadPageVerified(id, fr.buf.data());
    if (!s.ok()) {
      free_frames_.push_back(f);
      frame_released_.NotifyOne();
      return s;
    }
    if (MetricCounters* m = CounterSink(metrics_)) ++m->disk_reads;
    fr.page = id;
    fr.dirty = false;
    PinLocked(f);
    page_to_frame_[id] = f;
    BumpLocked(misses_);
    TraceEvent(PoolEvent::kMiss);
    return PageRef(this, f, id);
  }
}

StatusOr<BufferPool::PageRef> BufferPool::FetchZeroCopy(PageId id) {
  // No frame, no pin, no lock: the backend hands out a borrowed pointer
  // into its immutable mapping, and MapPage()'s atomic claim decides the
  // one first touch per page. Counting mirrors the copying path — every
  // fetch is a page_fetch; the page's first touch (when it is
  // checksum-verified and genuinely faulted in) is the miss / disk_read,
  // later touches are hits. Metric increments go to the caller's
  // ScopedCounterSink when one is installed (see the file comment).
  if (introspect::PageHeatMap* heat = heat_.load(std::memory_order_acquire)) {
    heat->Touch(id);
  }
  if (MetricCounters* m = CounterSink(metrics_)) ++m->page_fetches;
  const RetryPolicy retry = retry_policy();
  for (uint32_t attempt = 1;; ++attempt) {
    auto mapped = file_->MapPage(id);
    if (mapped.ok()) {
      if (mapped->first_touch) {
        if (MetricCounters* m = CounterSink(metrics_)) ++m->disk_reads;
        misses_.fetch_add(1, std::memory_order_relaxed);
        TraceEvent(PoolEvent::kMiss);
      } else {
        hits_.Add();
        TraceEvent(PoolEvent::kHit);
      }
      return PageRef(mapped->data, id);
    }
    const Status s = mapped.status();
    if (s.IsCorruption()) {
      checksum_failures_.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
    if (!s.IsIoError() || attempt >= retry.max_attempts) return s;
    // Same as the copying path: a cancelled or deadline-expired query
    // stops retrying and surfaces its breaker-neutral status.
    if (CancelToken* tok = ThreadCancelToken()) {
      LSDB_RETURN_IF_ERROR(tok->StatusNow());
    }
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    Backoff(retry.backoff_us, attempt);
  }
}

StatusOr<BufferPool::PageRef> BufferPool::New() {
  MutexLock lk(mu_);
  if (MetricCounters* m = CounterSink(metrics_)) ++m->page_fetches;
  auto alloc = file_->Allocate();
  if (!alloc.ok()) return alloc.status();
  const PageId id = *alloc;
  for (;;) {
    auto victim = GetVictimFrame();
    if (!victim.ok()) {
      // Undo the allocation; the page was never used, and the original
      // victim-frame error is the one worth surfacing.
      file_->Free(id).IgnoreError();
      return victim.status();
    }
    if (*victim == kRetryFrame) continue;
    const uint32_t f = *victim;
    Frame& fr = frames_[f];
    std::memset(fr.buf.data(), 0, fr.buf.size());
    fr.page = id;
    fr.dirty = true;  // a new page must eventually reach the file
    PinLocked(f);
    page_to_frame_[id] = f;
    return PageRef(this, f, id);
  }
}

Status BufferPool::FlushAll() {
  MutexLock lk(mu_);
  for (Frame& fr : frames_) {
    if (fr.page != kInvalidPageId && fr.dirty) {
      LSDB_RETURN_IF_ERROR(WritePageStamped(fr.page, fr.buf.data()));
      if (MetricCounters* m = CounterSink(metrics_)) ++m->disk_writes;
      fr.dirty = false;
    }
  }
  return Status::OK();
}

Status BufferPool::Free(PageId id) {
  MutexLock lk(mu_);
  auto it = page_to_frame_.find(id);
  if (it != page_to_frame_.end()) {
    Frame& fr = frames_[it->second];
    if (fr.pin_count != 0) {
      return Status::InvalidArgument("freeing a pinned page");
    }
    if (fr.in_lru) {
      lru_.erase(fr.lru_pos);
      fr.in_lru = false;
    }
    fr.page = kInvalidPageId;
    fr.dirty = false;
    free_frames_.push_back(it->second);
    page_to_frame_.erase(it);
    frame_released_.NotifyOne();
  }
  return file_->Free(id);
}

uint64_t BufferPool::evictions() const {
  MutexLock lk(mu_);
  return evictions_;
}

uint64_t BufferPool::pin_waits() const {
  MutexLock lk(mu_);
  return pin_waits_;
}

double BufferPool::hit_ratio() const {
  const uint64_t h = hits();
  const uint64_t total = h + misses();
  return total == 0 ? 0.0
                    : static_cast<double>(h) / static_cast<double>(total);
}

BufferPool::RetryPolicy BufferPool::retry_policy() const {
  const uint64_t packed = retry_policy_.load(std::memory_order_relaxed);
  return RetryPolicy{static_cast<uint32_t>(packed >> 32),
                     static_cast<uint32_t>(packed)};
}

void BufferPool::SetRetryPolicy(uint32_t max_attempts, uint32_t backoff_us) {
  const uint64_t attempts = max_attempts < 1 ? 1 : max_attempts;
  retry_policy_.store(attempts << 32 | backoff_us, std::memory_order_relaxed);
}

void BufferPool::SetTracer(Tracer* tracer, const char* pool_name) {
  pool_name_.store(pool_name, std::memory_order_relaxed);
  tracer_.store(tracer, std::memory_order_release);
}

void BufferPool::TraceEvent(PoolEvent e) const {
  // The tracer does its own sampling and locking; on the copying path the
  // lock order is pool -> tracer, never the reverse.
  Tracer* tracer = tracer_.load(std::memory_order_acquire);
  if (tracer != nullptr && tracer->enabled()) {
    tracer->EmitPoolEvent(pool_name_.load(std::memory_order_relaxed), e);
  }
}

uint32_t BufferPool::pinned_frames() const {
  MutexLock lk(mu_);
  uint32_t n = 0;
  for (const Frame& fr : frames_) {
    if (fr.page != kInvalidPageId && fr.pin_count > 0) ++n;
  }
  return n;
}

}  // namespace lsdb
