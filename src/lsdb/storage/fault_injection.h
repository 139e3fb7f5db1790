// Deterministic storage fault injection.
//
// FaultInjectingPageFile is a PageFile decorator that sits between the
// BufferPool and a real backend and injects failures according to a seeded
// FaultPlan: transient and permanent read/write kIoError, bit-flip
// corruption, torn writes, and fixed per-operation latency. Every fault
// kind is counted, and all randomness comes from the repo's deterministic
// Rng, so a given (plan, operation sequence) always produces the same
// faults — tests and the CI fault suite are exactly reproducible.
//
// Placement matters: the injector corrupts data *below* the BufferPool's
// checksum layer. Bit flips and torn writes therefore alter stored bytes
// while leaving the stored CRC-32C trailer intact, which is precisely how
// real silent media corruption presents — the pool's verify-on-miss catches
// it and surfaces Status::Corruption.
//
// A decorator starts transparent (empty plan, pure pass-through). Services
// build their structures through it, then arm a plan once frozen, so build
// determinism and the paper metrics are never affected. While no plan is
// armed and no page is marked dead, every operation is a lock-free
// pass-through: one atomic flag decides it, so a transparent injector adds
// no lock to the zero-copy serving path.

#ifndef LSDB_STORAGE_FAULT_INJECTION_H_
#define LSDB_STORAGE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <unordered_set>

#include "lsdb/storage/page_file.h"
#include "lsdb/util/mutex.h"
#include "lsdb/util/random.h"
#include "lsdb/util/sharded_counter.h"
#include "lsdb/util/status.h"
#include "lsdb/util/thread_annotations.h"

namespace lsdb {

/// Seeded description of what to inject. All rates are independent
/// per-operation probabilities in [0, 1].
struct FaultPlan {
  uint64_t seed = 0x1f5dbfau;
  /// Read fails with kIoError; a retry redraws (usually succeeds).
  double read_transient_rate = 0.0;
  /// Read fails with kIoError and the page is remembered as dead: every
  /// later read of it fails too (media gone bad).
  double read_permanent_rate = 0.0;
  /// Write fails with kIoError; a retry redraws.
  double write_transient_rate = 0.0;
  /// Write fails with kIoError and the page is remembered as unwritable.
  double write_permanent_rate = 0.0;
  /// Silent corruption: one random bit of the page flips. On reads the
  /// returned buffer is corrupted; on writes the stored bytes are. The
  /// stored checksum is *not* recomputed, so the pool detects it.
  double bitflip_rate = 0.0;
  /// Torn write: only the first half of the page reaches storage, the rest
  /// stays zero/stale; the checksum still describes the full intended page.
  double torn_write_rate = 0.0;
  /// Fixed delay added to every read and write, simulating a slow device.
  uint32_t latency_us = 0;

  bool active() const {
    return read_transient_rate > 0 || read_permanent_rate > 0 ||
           write_transient_rate > 0 || write_permanent_rate > 0 ||
           bitflip_rate > 0 || torn_write_rate > 0 || latency_us > 0;
  }
};

/// Per-fault counters. Monotonic over the decorator's lifetime; readable
/// concurrently with serving traffic.
struct FaultStats {
  /// Read attempts seen (incl. failed). Sharded per thread: every serving
  /// read bumps it, pass-through or not.
  ShardedCounter reads;
  std::atomic<uint64_t> writes{0};  ///< Write attempts seen (incl. failed).
  std::atomic<uint64_t> transient_read_faults{0};
  std::atomic<uint64_t> permanent_read_faults{0};
  std::atomic<uint64_t> transient_write_faults{0};
  std::atomic<uint64_t> permanent_write_faults{0};
  std::atomic<uint64_t> bitflips{0};
  std::atomic<uint64_t> torn_writes{0};

  uint64_t total_faults() const {
    return transient_read_faults.load() + permanent_read_faults.load() +
           transient_write_faults.load() + permanent_write_faults.load() +
           bitflips.load() + torn_writes.load();
  }
};

/// PageFile decorator injecting faults per a FaultPlan. Does not own the
/// base file, which must outlive it. Thread-safe. The plan, RNG, and dead
/// page sets are guarded by a mutex, taken only while armed (an active
/// plan or a dead page), so an armed plan draws its faults in one seeded
/// sequence. Unarmed, operations go straight to the base without locking;
/// zero-copy pools call MapPage() concurrently, without any pool lock
/// above the decorator.
class FaultInjectingPageFile : public PageFile {
 public:
  explicit FaultInjectingPageFile(PageFile* base)
      : PageFile(base->page_size()), base_(base), rng_(FaultPlan().seed) {}

  using PageFile::Read;
  using PageFile::Write;

  /// Installs (and re-seeds) the fault plan. An all-zero plan restores
  /// pass-through behaviour; dead-page memory is cleared either way.
  void set_plan(const FaultPlan& plan) LSDB_EXCLUDES(mu_);
  /// By value: the plan may be swapped live.
  FaultPlan plan() const LSDB_EXCLUDES(mu_);

  /// Forces every read of `id` to fail permanently — a deterministic
  /// "this page died" switch for tests and demos.
  void FailPage(PageId id) LSDB_EXCLUDES(mu_);
  /// While on, every read fails with kIoError (whole device dead). Counted
  /// as permanent read faults. Checked before the armed flag, so it works
  /// on an injector that never had a plan.
  void FailAllReads(bool on) {
    fail_all_reads_.store(on, std::memory_order_relaxed);
  }

  const FaultStats& stats() const { return stats_; }
  PageFile* base() { return base_; }

  uint32_t page_count() const override { return base_->page_count(); }
  uint32_t live_page_count() const override {
    return base_->live_page_count();
  }
  bool read_only() const override { return base_->read_only(); }
  bool zero_copy() const override { return base_->zero_copy(); }
  [[nodiscard]] Status Read(PageId id, void* buf, uint32_t* checksum)
      override LSDB_EXCLUDES(mu_);
  [[nodiscard]] Status Write(PageId id, const void* buf, uint32_t checksum)
      override LSDB_EXCLUDES(mu_);
  /// Same read-fault ladder as Read() over the base's zero-copy view.
  /// Bit flips are the one fault that cannot be injected here: the view is
  /// a borrowed pointer into a read-only mapping, so there is no buffer to
  /// corrupt — flipped-byte coverage for snapshots comes from corrupting
  /// the file itself (see the hostile-snapshot tests).
  [[nodiscard]] StatusOr<MappedPage> MapPage(PageId id)
      override LSDB_EXCLUDES(mu_);
  [[nodiscard]] StatusOr<PageId> Allocate() override { return base_->Allocate(); }
  [[nodiscard]] Status Free(PageId id) override { return base_->Free(id); }

 private:
  /// Read-fault ladder shared by Read() and MapPage() while armed, under
  /// one lock: dead page, then the plan's permanent and transient draws,
  /// then (when `bitflip` is non-null) the bit-flip draw. Returns the
  /// injected error, or OK with the plan's latency in *latency_us for the
  /// caller to sleep outside the lock.
  [[nodiscard]] Status DrawReadFault(PageId id, bool* bitflip,
                                     uint32_t* latency_us) LSDB_EXCLUDES(mu_);
  /// Recomputes armed_ after the plan or a dead-page set changed.
  void UpdateArmedLocked() LSDB_REQUIRES(mu_);

  PageFile* base_;
  /// Guards the plan, RNG, and dead-page sets. Sits below the BufferPool
  /// mutex in the lock hierarchy (pool IO calls into the decorator), but
  /// the decorator never calls back up, so the order is acyclic.
  mutable Mutex mu_{"FaultInjectingPageFile.mu"};
  FaultPlan plan_ LSDB_GUARDED_BY(mu_);
  Rng rng_ LSDB_GUARDED_BY(mu_);
  std::unordered_set<PageId> dead_read_pages_ LSDB_GUARDED_BY(mu_);
  std::unordered_set<PageId> dead_write_pages_ LSDB_GUARDED_BY(mu_);
  /// plan_.active() or a dead page exists. Written under mu_, read without
  /// it: false means every operation passes straight through.
  std::atomic<bool> armed_{false};
  std::atomic<bool> fail_all_reads_{false};
  FaultStats stats_;
};

}  // namespace lsdb

#endif  // LSDB_STORAGE_FAULT_INJECTION_H_
