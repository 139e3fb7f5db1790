#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/service/cancel.h"
#include "lsdb/service/circuit_breaker.h"
#include "lsdb/storage/buffer_pool.h"
#include "lsdb/storage/fault_injection.h"
#include "lsdb/storage/mmap_page_file.h"
#include "lsdb/storage/page_file.h"
#include "lsdb/storage/superblock.h"
#include "lsdb/util/crc32c.h"
#include "lsdb/util/query_context.h"
#include "lsdb/util/random.h"
#include "test_util.h"

namespace lsdb {
namespace {

using testing::Ids;
using testing::RandomSegments;
using testing::Sorted;

TEST(MemPageFileTest, AllocateReadWrite) {
  MemPageFile f(256);
  auto p0 = f.Allocate();
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(*p0, 0u);
  std::vector<uint8_t> buf(256, 0xAB);
  ASSERT_TRUE(f.Write(*p0, buf.data()).ok());
  std::vector<uint8_t> rd(256);
  ASSERT_TRUE(f.Read(*p0, rd.data()).ok());
  EXPECT_EQ(rd, buf);
}

TEST(MemPageFileTest, AllocatedPagesAreZeroed) {
  MemPageFile f(128);
  auto p = f.Allocate();
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> rd(128, 0xFF);
  ASSERT_TRUE(f.Read(*p, rd.data()).ok());
  EXPECT_TRUE(std::all_of(rd.begin(), rd.end(),
                          [](uint8_t b) { return b == 0; }));
}

TEST(MemPageFileTest, FreeListReuse) {
  MemPageFile f(128);
  auto a = f.Allocate();
  auto b = f.Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(f.live_page_count(), 2u);
  ASSERT_TRUE(f.Free(*a).ok());
  EXPECT_EQ(f.live_page_count(), 1u);
  auto c = f.Allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // freed page reused
  EXPECT_EQ(f.page_count(), 2u);
}

TEST(MemPageFileTest, InvalidAccessRejected) {
  MemPageFile f(128);
  std::vector<uint8_t> buf(128);
  EXPECT_FALSE(f.Read(0, buf.data()).ok());
  auto p = f.Allocate();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(f.Free(*p).ok());
  EXPECT_FALSE(f.Read(*p, buf.data()).ok());
  EXPECT_FALSE(f.Free(*p).ok());
}

TEST(PosixPageFileTest, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/lsdb_posix_pages.bin";
  auto file = PosixPageFile::Create(path, 512);
  ASSERT_TRUE(file.ok());
  auto p0 = (*file)->Allocate();
  auto p1 = (*file)->Allocate();
  ASSERT_TRUE(p0.ok() && p1.ok());
  std::vector<uint8_t> buf(512);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE((*file)->Write(*p1, buf.data()).ok());
  std::vector<uint8_t> rd(512);
  ASSERT_TRUE((*file)->Read(*p1, rd.data()).ok());
  EXPECT_EQ(rd, buf);
  ASSERT_TRUE((*file)->Read(*p0, rd.data()).ok());
  EXPECT_TRUE(std::all_of(rd.begin(), rd.end(),
                          [](uint8_t b) { return b == 0; }));
}

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : file_(128), pool_(&file_, 4, &metrics_) {}

  // Invariant: every test releases all the pins it took.
  void TearDown() override { EXPECT_EQ(pool_.pinned_frames(), 0u); }

  PageId NewPage(uint8_t fill) {
    auto ref = pool_.New();
    EXPECT_TRUE(ref.ok());
    std::memset(ref->data(), fill, 128);
    ref->MarkDirty();
    return ref->id();
  }

  MetricCounters metrics_;
  MemPageFile file_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, HitsDoNotCountAsDiskReads) {
  const PageId id = NewPage(1);
  const uint64_t reads_before = metrics_.disk_reads;
  for (int i = 0; i < 10; ++i) {
    auto ref = pool_.Fetch(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 1);
  }
  EXPECT_EQ(metrics_.disk_reads, reads_before);  // all hits
  EXPECT_GE(metrics_.page_fetches, 10u);
}

TEST_F(BufferPoolTest, LruEvictionCountsReadsAndWritebacks) {
  // Fill the 4-frame pool with 4 dirty pages, then touch a 5th.
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(NewPage(static_cast<uint8_t>(i)));
  EXPECT_EQ(metrics_.disk_writes, 0u);
  const PageId extra = NewPage(99);  // evicts LRU (ids[0]), writing it back
  EXPECT_EQ(metrics_.disk_writes, 1u);
  // Re-fetch the evicted page: a miss (disk read) with correct content.
  const uint64_t reads = metrics_.disk_reads;
  auto ref = pool_.Fetch(ids[0]);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(metrics_.disk_reads, reads + 1);
  EXPECT_EQ(ref->data()[0], 0);
  (void)extra;
}

TEST_F(BufferPoolTest, LruOrderRespectsRecency) {
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(NewPage(static_cast<uint8_t>(i)));
  // Touch ids[0] so ids[1] becomes LRU.
  { auto r = pool_.Fetch(ids[0]); ASSERT_TRUE(r.ok()); }
  NewPage(50);  // evicts ids[1]
  const uint64_t reads = metrics_.disk_reads;
  { auto r = pool_.Fetch(ids[0]); ASSERT_TRUE(r.ok()); }  // still cached
  EXPECT_EQ(metrics_.disk_reads, reads);
  { auto r = pool_.Fetch(ids[1]); ASSERT_TRUE(r.ok()); }  // was evicted
  EXPECT_EQ(metrics_.disk_reads, reads + 1);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  auto pinned = pool_.New();
  ASSERT_TRUE(pinned.ok());
  for (int i = 0; i < 8; ++i) NewPage(static_cast<uint8_t>(i));
  // The pinned frame must have survived all evictions.
  EXPECT_GE(pool_.pinned_frames(), 1u);
}

TEST_F(BufferPoolTest, AllPinnedIsResourceExhausted) {
  std::vector<StatusOr<BufferPool::PageRef>> refs;
  for (int i = 0; i < 4; ++i) {
    refs.push_back(pool_.New());
    ASSERT_TRUE(refs.back().ok());
  }
  auto fifth = pool_.New();
  EXPECT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(BufferPoolTest, FlushAllWritesDirtyPages) {
  const PageId id = NewPage(7);
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_GE(metrics_.disk_writes, 1u);
  // The file now has the data even without eviction.
  std::vector<uint8_t> rd(128);
  ASSERT_TRUE(file_.Read(id, rd.data()).ok());
  EXPECT_EQ(rd[0], 7);
  // A second flush writes nothing (no longer dirty).
  const uint64_t writes = metrics_.disk_writes;
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_EQ(metrics_.disk_writes, writes);
}

TEST_F(BufferPoolTest, FreeDropsCachedPage) {
  const PageId id = NewPage(3);
  ASSERT_TRUE(pool_.Free(id).ok());
  EXPECT_FALSE(pool_.Fetch(id).ok());  // unallocated in the file
}

TEST_F(BufferPoolTest, MoveSemanticsOfPageRef) {
  auto a = pool_.New();
  ASSERT_TRUE(a.ok());
  const PageId id = a->id();
  BufferPool::PageRef moved = std::move(*a);
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(moved.id(), id);
  moved.Release();
  EXPECT_FALSE(moved.valid());
  EXPECT_EQ(pool_.pinned_frames(), 0u);
}

TEST_F(BufferPoolTest, MoveAssignOverValidRefReleasesOldPin) {
  auto a = pool_.New();
  auto b = pool_.New();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(pool_.pinned_frames(), 2u);
  // Assigning over a valid ref must unpin what it held, or the pin (and
  // its frame) leaks permanently.
  *b = std::move(*a);
  EXPECT_EQ(pool_.pinned_frames(), 1u);
  b->Release();
  EXPECT_EQ(pool_.pinned_frames(), 0u);
}

TEST_F(BufferPoolTest, FetchWithAllFramesSelfPinnedIsResourceExhausted) {
  // Five pages in the file, created without holding pins...
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(NewPage(static_cast<uint8_t>(i)));
  // ...then pin four of them, exhausting the 4-frame pool.
  std::vector<BufferPool::PageRef> refs;
  for (int i = 0; i < 4; ++i) {
    auto r = pool_.Fetch(ids[i]);
    ASSERT_TRUE(r.ok());
    refs.push_back(std::move(*r));
  }
  // Every frame is pinned: the copying pool fails at once, since nothing
  // waits for a pin to be released.
  auto fifth = pool_.Fetch(ids[4]);
  EXPECT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.status().code(), StatusCode::kResourceExhausted);
  // A hit on an already-pinned page still works while exhausted.
  auto again = pool_.Fetch(ids[0]);
  EXPECT_TRUE(again.ok());
}

// -- Checksums ---------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // CRC-32C (Castagnoli) check value from the iSCSI spec / RFC 3720.
  EXPECT_EQ(crc32c::Compute("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c::Compute("", 0), 0u);
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c::Compute(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const char* msg = "The quick brown fox jumps over the lazy dog";
  const size_t n = std::strlen(msg);
  const uint32_t one_shot = crc32c::Compute(msg, n);
  for (size_t split = 0; split <= n; ++split) {
    const uint32_t head = crc32c::Compute(msg, split);
    EXPECT_EQ(crc32c::Compute(msg + split, n - split, head), one_shot);
  }
}

TEST(PageChecksumTest, MemPageFileStoresAndReturnsChecksums) {
  MemPageFile f(128);
  auto p = f.Allocate();
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> buf(128, 0x5C);
  ASSERT_TRUE(f.Write(*p, buf.data()).ok());  // convenience: computes CRC
  std::vector<uint8_t> rd(128);
  uint32_t stored = 0;
  ASSERT_TRUE(f.Read(*p, rd.data(), &stored).ok());
  EXPECT_EQ(stored, crc32c::Compute(buf.data(), buf.size()));
}

TEST(PageChecksumTest, PosixTrailerSurvivesReopen) {
  const std::string path = ::testing::TempDir() + "/lsdb_crc_pages.bin";
  std::vector<uint8_t> buf(256);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(3 * i);
  const uint32_t crc = crc32c::Compute(buf.data(), buf.size());
  {
    auto file = PosixPageFile::Create(path, 256);
    ASSERT_TRUE(file.ok());
    auto p = (*file)->Allocate();
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE((*file)->Write(*p, buf.data(), crc).ok());
  }
  auto file = PosixPageFile::Open(path, 256);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> rd(256);
  uint32_t stored = 0;
  ASSERT_TRUE((*file)->Read(0, rd.data(), &stored).ok());
  EXPECT_EQ(rd, buf);
  EXPECT_EQ(stored, crc);
}

// -- Fault injection ---------------------------------------------------------

TEST(StorageFaultTest, TransparentWithoutAPlan) {
  MemPageFile base(128);
  FaultInjectingPageFile faulty(&base);
  auto p = faulty.Allocate();
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> buf(128, 0x11), rd(128);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(faulty.Write(*p, buf.data()).ok());
    ASSERT_TRUE(faulty.Read(*p, rd.data()).ok());
    EXPECT_EQ(rd, buf);
  }
  EXPECT_EQ(faulty.stats().total_faults(), 0u);
}

TEST(StorageFaultTest, SeededPlanIsDeterministic) {
  auto run = [](std::vector<int>* outcomes) -> uint64_t {
    MemPageFile base(128);
    FaultInjectingPageFile faulty(&base);
    auto p = faulty.Allocate();
    EXPECT_TRUE(p.ok());
    std::vector<uint8_t> buf(128, 0x22);
    EXPECT_TRUE(faulty.Write(*p, buf.data()).ok());
    FaultPlan plan;
    plan.seed = 77;
    plan.read_transient_rate = 0.3;
    faulty.set_plan(plan);
    std::vector<uint8_t> rd(128);
    for (int i = 0; i < 200; ++i) {
      outcomes->push_back(faulty.Read(*p, rd.data()).ok() ? 1 : 0);
    }
    return faulty.stats().total_faults();
  };
  std::vector<int> a, b;
  const uint64_t fa = run(&a);
  const uint64_t fb = run(&b);
  EXPECT_EQ(a, b);  // identical fault sequence for identical (plan, ops)
  EXPECT_EQ(fa, fb);
  EXPECT_GT(fa, 0u);   // ~30% of 200 reads faulted
  EXPECT_LT(fa, 200u); // ...but not all of them
}

TEST(StorageFaultTest, PermanentFaultsStickAndAreCounted) {
  MemPageFile base(128);
  FaultInjectingPageFile faulty(&base);
  auto p0 = faulty.Allocate();
  auto p1 = faulty.Allocate();
  ASSERT_TRUE(p0.ok() && p1.ok());
  std::vector<uint8_t> buf(128, 0x33);
  ASSERT_TRUE(faulty.Write(*p0, buf.data()).ok());
  ASSERT_TRUE(faulty.Write(*p1, buf.data()).ok());
  faulty.FailPage(*p0);
  std::vector<uint8_t> rd(128);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(faulty.Read(*p0, rd.data()).IsIoError());
    EXPECT_TRUE(faulty.Read(*p1, rd.data()).ok());
  }
  EXPECT_EQ(faulty.stats().permanent_read_faults.load(), 5u);
  faulty.FailAllReads(true);
  EXPECT_TRUE(faulty.Read(*p1, rd.data()).IsIoError());
  faulty.FailAllReads(false);
  EXPECT_TRUE(faulty.Read(*p1, rd.data()).ok());
}

TEST(PoolRetryTest, TransientReadFaultsAreRetriedAndSucceed) {
  MemPageFile base(128);
  FaultInjectingPageFile faulty(&base);
  MetricCounters metrics;
  BufferPool pool(&faulty, 2, &metrics);
  pool.SetRetryPolicy(/*max_attempts=*/8, /*backoff_us=*/0);
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    std::memset(ref->data(), static_cast<int>(i), 128);
    ref->MarkDirty();
    ids.push_back(ref->id());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  FaultPlan plan;
  plan.seed = 99;
  plan.read_transient_rate = 0.4;  // each retry redraws: (0.4)^8 ~ 0.07%
  faulty.set_plan(plan);
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < ids.size(); ++i) {
      auto ref = pool.Fetch(ids[i]);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      EXPECT_EQ(ref->data()[0], static_cast<uint8_t>(i));
    }
  }
  EXPECT_GT(pool.io_retries(), 0u);
  EXPECT_EQ(pool.checksum_failures(), 0u);
}

TEST(PoolRetryTest, BitflipCorruptionIsDetectedByChecksum) {
  MemPageFile base(128);
  FaultInjectingPageFile faulty(&base);
  BufferPool pool(&faulty, 2, nullptr);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  const PageId id = ref->id();
  std::memset(ref->data(), 0x44, 128);
  ref->MarkDirty();
  ref->Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  // Evict the page so the next Fetch re-reads it through the injector.
  for (int i = 0; i < 2; ++i) {
    auto filler = pool.New();
    ASSERT_TRUE(filler.ok());
  }
  FaultPlan plan;
  plan.seed = 5;
  plan.bitflip_rate = 1.0;  // every read comes back silently corrupted
  faulty.set_plan(plan);
  auto bad = pool.Fetch(id);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  EXPECT_GT(pool.checksum_failures(), 0u);
  EXPECT_GT(faulty.stats().bitflips.load(), 0u);
  // Clearing the plan restores clean reads of the intact stored bytes.
  faulty.set_plan(FaultPlan());
  auto good = pool.Fetch(id);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->data()[0], 0x44);
}

TEST(PoolRetryTest, FailedDirtyWritebackDoesNotLeakTheFrame) {
  MemPageFile base(128);
  FaultInjectingPageFile faulty(&base);
  BufferPool pool(&faulty, 2, nullptr);
  // Two dirty unpinned pages fill the pool.
  std::vector<PageId> ids;
  for (int i = 0; i < 2; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    std::memset(ref->data(), 0x50 + i, 128);
    ref->MarkDirty();
    ids.push_back(ref->id());
  }
  FaultPlan plan;
  plan.seed = 3;
  plan.write_permanent_rate = 1.0;  // every write-back fails
  faulty.set_plan(plan);
  auto blocked = pool.New();  // needs a victim; write-back fails
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsIoError()) << blocked.status().ToString();
  EXPECT_EQ(pool.pinned_frames(), 0u);
  // The frame went back on the LRU list: once writes heal, the pool must
  // be able to evict it and keep working (regression: the failed victim
  // used to vanish from the LRU list forever).
  faulty.set_plan(FaultPlan());
  auto ok_again = pool.New();
  ASSERT_TRUE(ok_again.ok()) << ok_again.status().ToString();
  // And both original pages are still intact and reachable.
  ok_again->Release();
  for (size_t i = 0; i < ids.size(); ++i) {
    auto ref = pool.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], static_cast<uint8_t>(0x50 + i));
  }
}

/// `count` pages of `page_size` bytes laid out as snapshot slots (content,
/// then the little-endian CRC-32C trailer) for an in-memory MmapPageFile.
/// Page i is filled with byte i + 1.
std::vector<uint8_t> MappedSlots(uint32_t count, uint32_t page_size) {
  const uint32_t slot = page_size + kPageTrailerSize;
  std::vector<uint8_t> bytes(static_cast<size_t>(count) * slot);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t* p = bytes.data() + static_cast<size_t>(i) * slot;
    std::memset(p, static_cast<int>(i + 1), page_size);
    const uint32_t crc = crc32c::Compute(p, page_size);
    for (uint32_t b = 0; b < 4; ++b) {
      p[page_size + b] = static_cast<uint8_t>(crc >> (8 * b));
    }
  }
  return bytes;
}

// -- Frozen pools -------------------------------------------------------------
//
// Freeze() moves a pool over a lending backend (MemPageFile) onto the
// lock-free zero-copy path and refuses every write; Thaw() returns it to
// its LRU frames. Backends that cannot lend keep exact LRU while frozen.

class FrozenPoolTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kPage = 128;

  FrozenPoolTest() : file_(kPage), pool_(&file_, 4, &metrics_) {}

  /// Allocates `n` pages, page i filled with byte 0x10 + i, all written
  /// back and unpinned.
  std::vector<PageId> MakePages(uint32_t n) {
    std::vector<PageId> ids;
    for (uint32_t i = 0; i < n; ++i) {
      auto ref = pool_.New();
      EXPECT_TRUE(ref.ok());
      std::memset(ref->data(), 0x10 + static_cast<int>(i), kPage);
      ref->MarkDirty();
      ids.push_back(ref->id());
    }
    EXPECT_TRUE(pool_.FlushAll().ok());
    return ids;
  }

  MetricCounters metrics_;
  MemPageFile file_;
  BufferPool pool_;
};

TEST_F(FrozenPoolTest, HeldRefPinsNoFrameAndLendsTheFilesOwnPage) {
  const std::vector<PageId> ids = MakePages(2);
  ASSERT_FALSE(pool_.frozen());
  ASSERT_TRUE(pool_.Freeze().ok());
  EXPECT_TRUE(pool_.frozen());
  auto ref = pool_.Fetch(ids[1]);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(pool_.pinned_frames(), 0u);
  auto lent = file_.MapPage(ids[1]);
  ASSERT_TRUE(lent.ok());
  EXPECT_EQ(ref->data(), lent->data);
  EXPECT_EQ(ref->data()[0], 0x11);
}

TEST_F(FrozenPoolTest, FirstTouchOfEachPageIsTheOneMiss) {
  const std::vector<PageId> ids = MakePages(3);
  ASSERT_TRUE(pool_.Freeze().ok());
  const uint64_t hits0 = pool_.hits(), misses0 = pool_.misses();
  const MetricCounters before = metrics_;
  constexpr uint32_t kFetches = 10;
  for (uint32_t i = 0; i < kFetches; ++i) {
    auto ref = pool_.Fetch(ids[i % ids.size()]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], static_cast<uint8_t>(0x10 + i % ids.size()));
  }
  const MetricCounters delta = metrics_ - before;
  EXPECT_EQ(pool_.misses() - misses0, ids.size());
  EXPECT_EQ(pool_.hits() - hits0, kFetches - ids.size());
  EXPECT_EQ(delta.disk_reads, ids.size());
  EXPECT_EQ(delta.page_fetches, kFetches);
  EXPECT_EQ(file_.pages_verified(), ids.size());
  EXPECT_EQ(pool_.evictions(), 0u);
}

TEST_F(FrozenPoolTest, WritesFailTypedBeforeTouchingAPage) {
  const std::vector<PageId> ids = MakePages(2);
  ASSERT_TRUE(pool_.Freeze().ok());
  EXPECT_TRUE(pool_.New().status().IsInvalidArgument());
  EXPECT_TRUE(pool_.Free(ids[0]).IsInvalidArgument());
  EXPECT_EQ(file_.live_page_count(), 2u);
  SuperblockFields fields{};
  fields[0] = 7;
  EXPECT_TRUE(WriteSuperblock(&pool_, ids[0], SuperblockKind::kRStarTree,
                              fields)
                  .IsInvalidArgument());
  std::vector<uint8_t> rd(kPage);
  ASSERT_TRUE(file_.Read(ids[0], rd.data()).ok());
  EXPECT_EQ(rd, std::vector<uint8_t>(kPage, 0x10));
  EXPECT_EQ(pool_.pinned_frames(), 0u);
}

TEST_F(FrozenPoolTest, SegmentTableAppendFailsTypedWhileFrozen) {
  MemPageFile seg_file(kPage);
  BufferPool seg_pool(&seg_file, 4, nullptr);
  SegmentTable table(&seg_pool);
  const Segment s{Point{1, 2}, Point{3, 4}};
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(table.Append(s).ok());
  ASSERT_TRUE(table.Flush().ok());
  ASSERT_TRUE(seg_pool.Freeze().ok());
  EXPECT_TRUE(table.Append(s).status().IsInvalidArgument());
  EXPECT_TRUE(table.Flush().IsInvalidArgument());
  EXPECT_EQ(table.size(), 20u);
  Segment got;
  ASSERT_TRUE(table.Get(19, &got).ok());
  EXPECT_EQ(got, s);
  seg_pool.Thaw();
  EXPECT_TRUE(table.Append(s).ok());
}

TEST_F(FrozenPoolTest, FreezeWithAPinnedPageFailsAndChangesNothing) {
  const std::vector<PageId> ids = MakePages(1);
  auto ref = pool_.Fetch(ids[0]);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(pool_.Freeze().IsInvalidArgument());
  EXPECT_FALSE(pool_.frozen());
  EXPECT_TRUE(pool_.New().ok());
  ref->Release();
  EXPECT_TRUE(pool_.Freeze().ok());
}

TEST_F(FrozenPoolTest, FreezeWritesBackDirtyFramesFirst) {
  auto ref = pool_.New();
  ASSERT_TRUE(ref.ok());
  const PageId id = ref->id();
  std::memset(ref->data(), 0x77, kPage);
  ref->MarkDirty();
  ref->Release();
  const uint64_t writes0 = metrics_.disk_writes;
  ASSERT_TRUE(pool_.Freeze().ok());
  EXPECT_EQ(metrics_.disk_writes - writes0, 1u);
  auto frozen_ref = pool_.Fetch(id);
  ASSERT_TRUE(frozen_ref.ok()) << frozen_ref.status().ToString();
  EXPECT_EQ(frozen_ref->data()[kPage - 1], 0x77);
}

TEST_F(FrozenPoolTest, ThawReturnsToPinnedLruFrames) {
  const std::vector<PageId> ids = MakePages(2);
  ASSERT_TRUE(pool_.Freeze().ok());
  pool_.Thaw();
  EXPECT_FALSE(pool_.frozen());
  auto ref = pool_.Fetch(ids[0]);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(pool_.pinned_frames(), 1u);
  auto lent = file_.MapPage(ids[0]);
  ASSERT_TRUE(lent.ok());
  EXPECT_NE(ref->data(), lent->data);
  EXPECT_EQ(ref->data()[0], 0x10);
  ref->Release();
  EXPECT_TRUE(pool_.New().ok());
}

TEST_F(FrozenPoolTest, PageRewrittenWithABadChecksumFailsItsNextFrozenFetch) {
  const std::vector<PageId> ids = MakePages(2);
  ASSERT_TRUE(pool_.Freeze().ok());
  ASSERT_TRUE(pool_.Fetch(ids[0]).ok());
  pool_.Thaw();
  // Rewrite the page behind the pool with a checksum that does not match.
  const std::vector<uint8_t> junk(kPage, 0x42);
  ASSERT_TRUE(file_.Write(ids[0], junk.data(),
                          crc32c::Compute(junk.data(), kPage) ^ 1u)
                  .ok());
  ASSERT_TRUE(pool_.Freeze().ok());
  auto bad = pool_.Fetch(ids[0]);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  EXPECT_EQ(pool_.checksum_failures(), 1u);
  // The untouched sibling still verifies and serves.
  EXPECT_TRUE(pool_.Fetch(ids[1]).ok());
}

/// Fetches `pattern` through `pool`, releasing each ref before the next
/// fetch; every held ref pins one frame.
void FetchEach(BufferPool* pool, const std::vector<PageId>& pattern) {
  for (PageId id : pattern) {
    auto ref = pool->Fetch(id);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(pool->pinned_frames(), 1u);
  }
}

TEST(FrozenPoolLruTest, BackendsThatCannotLendKeepExactLru) {
  constexpr uint32_t kPage = 128;
  const std::vector<PageId> pattern = {1, 2, 0, 1, 2};
  const std::string path = ::testing::TempDir() + "/lsdb_frozen_lru_" +
                           std::to_string(::getpid()) + ".pages";
  {
    auto posix = PosixPageFile::Create(path, kPage);
    ASSERT_TRUE(posix.ok());
    BufferPool pool(posix->get(), 2, nullptr);
    for (int i = 0; i < 3; ++i) {
      auto ref = pool.New();
      ASSERT_TRUE(ref.ok());
      ref->MarkDirty();
    }
    ASSERT_TRUE(pool.Freeze().ok());
    ASSERT_TRUE(pool.frozen());
    // Frames hold pages 1 and 2 (1 least recent): two hits, then every
    // fetch misses and evicts the least recently used page.
    const uint64_t hits0 = pool.hits(), misses0 = pool.misses();
    const uint64_t evictions0 = pool.evictions();
    FetchEach(&pool, pattern);
    EXPECT_EQ(pool.hits() - hits0, 2u);
    EXPECT_EQ(pool.misses() - misses0, 3u);
    EXPECT_EQ(pool.evictions() - evictions0, 3u);
    EXPECT_TRUE(pool.New().status().IsInvalidArgument());
  }
  std::remove(path.c_str());

  const std::vector<uint8_t> slots = MappedSlots(3, kPage);
  MmapPageFile copy_view(slots.data(), 3, kPage, /*zero_copy=*/false);
  BufferPool pool(&copy_view, 2, nullptr);
  EXPECT_TRUE(pool.frozen());  // a read-only backend's pool always is
  ASSERT_TRUE(pool.Freeze().ok());
  // Two cold misses fill the frames, then three misses evict.
  FetchEach(&pool, pattern);
  EXPECT_EQ(pool.misses(), 5u);
  EXPECT_EQ(pool.evictions(), 3u);
  EXPECT_EQ(copy_view.pages_verified(), 0u);
}

// -- Frozen vs thawed indexes -------------------------------------------------
//
// Every read of a frozen index goes through BufferPool::Fetch: over a
// MemPageFile it reads the file's lent pages, and after Thaw() the same
// index reads the pool's LRU frames. Both must give the same answers and do
// the same logical work, so no paper count depends on which one served.

/// `n` random windows plus the edge cases: a degenerate point window, the
/// whole world and the empty Rect{}.
std::vector<Rect> FuzzWindows(uint64_t seed, size_t n, Coord world) {
  Rng rng(seed);
  std::vector<Rect> ws;
  ws.reserve(n + 3);
  for (size_t i = 0; i < n; ++i) {
    const Coord x = static_cast<Coord>(rng.Uniform(world));
    const Coord y = static_cast<Coord>(rng.Uniform(world));
    const Coord dx = static_cast<Coord>(rng.Uniform(world / 4));
    const Coord dy = static_cast<Coord>(rng.Uniform(world / 4));
    ws.push_back(Rect::Of(x, y, x + dx, y + dy));
  }
  ws.push_back(Rect::Of(world / 2, world / 2, world / 2, world / 2));
  ws.push_back(Rect::Of(0, 0, world, world));
  ws.push_back(Rect{});
  return ws;
}

/// What one pass of reads returned, and the work and evictions it cost.
struct ReadPass {
  std::vector<std::vector<SegmentId>> window_hits;  ///< Sorted per window.
  std::vector<SegmentId> nearest_ids;
  MetricCounters delta;
  uint64_t evictions = 0;
};

ReadPass RunReads(SpatialIndex* idx, const std::vector<Rect>& ws,
                  Coord world) {
  ReadPass r;
  const MetricCounters before = idx->metrics();
  const uint64_t evictions0 = idx->pool()->evictions();
  for (const Rect& w : ws) {
    std::vector<SegmentHit> hits;
    EXPECT_TRUE(idx->WindowQueryEx(w, &hits).ok());
    r.window_hits.push_back(Sorted(Ids(hits)));
  }
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const Point p{static_cast<Coord>(rng.Uniform(world)),
                  static_cast<Coord>(rng.Uniform(world))};
    auto nn = idx->Nearest(p);
    EXPECT_TRUE(nn.ok());
    r.nearest_ids.push_back(nn.ok() ? nn->id : kInvalidSegmentId);
  }
  r.delta = idx->metrics() - before;
  r.evictions = idx->pool()->evictions() - evictions0;
  return r;
}

template <typename Index>
void FrozenAndThawedReadsMatch() {
  IndexOptions opt;
  opt.page_size = 256;  // small nodes: a multi-level index at 800 segments
  opt.world_log2 = 10;
  opt.pmr_max_depth = 10;
  constexpr Coord kWorld = 1024;
  MemPageFile seg_file(opt.page_size);
  BufferPool seg_pool(&seg_file, opt.buffer_frames, nullptr);
  SegmentTable table(&seg_pool);
  MemPageFile file(opt.page_size);
  Index idx(opt, &file, &table);
  ASSERT_TRUE(idx.Init().ok());
  Rng rng(31);
  for (const Segment& s : RandomSegments(&rng, 800, kWorld, 96)) {
    auto id = table.Append(s);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(idx.Insert(*id, s).ok());
  }
  const std::vector<Rect> ws = FuzzWindows(7, 120, kWorld);

  ASSERT_TRUE(table.Flush().ok());
  ASSERT_TRUE(seg_pool.Freeze().ok());
  ASSERT_TRUE(idx.Freeze().ok());
  const ReadPass lent = RunReads(&idx, ws, kWorld);

  idx.Thaw();
  seg_pool.Thaw();
  ASSERT_FALSE(idx.pool()->frozen());
  const ReadPass framed = RunReads(&idx, ws, kWorld);

  EXPECT_EQ(framed.window_hits, lent.window_hits);
  EXPECT_EQ(framed.nearest_ids, lent.nearest_ids);
  EXPECT_EQ(framed.delta.bbox_comps, lent.delta.bbox_comps);
  EXPECT_EQ(framed.delta.segment_comps, lent.delta.segment_comps);
  EXPECT_EQ(framed.delta.bucket_comps, lent.delta.bucket_comps);
  EXPECT_EQ(framed.delta.page_fetches, lent.delta.page_fetches);
  EXPECT_GT(lent.delta.page_fetches, 0u);
  EXPECT_GT(framed.delta.page_fetches, 0u);
  // Lent pages take no frame; 16 LRU frames over the whole index evict.
  EXPECT_EQ(lent.evictions, 0u);
  EXPECT_GT(framed.evictions, 0u);
}

TEST(FrozenIndexReadTest, RStarLentPagesAndThawedFramesAgree) {
  FrozenAndThawedReadsMatch<RStarTree>();
}

TEST(FrozenIndexReadTest, RPlusLentPagesAndThawedFramesAgree) {
  FrozenAndThawedReadsMatch<RPlusTree>();
}

TEST(FrozenIndexReadTest, PmrLentPagesAndThawedFramesAgree) {
  FrozenAndThawedReadsMatch<PmrQuadtree>();
}

// Regression: the zero-copy path used to sleep through every backoff of an
// expired query and return kIoError, which the circuit breaker counts as a
// failure. Both paths must give up at the first backoff past the deadline
// with the breaker-neutral DeadlineExceeded.
TEST(PoolRetryCancelTest, ExpiredDeadlineStopsRetriesOnBothPaths) {
  constexpr uint32_t kPage = 128;
  const std::vector<uint8_t> slots = MappedSlots(1, kPage);
  MmapPageFile mapped(slots.data(), 1, kPage, /*zero_copy=*/true);
  MemPageFile mem(kPage);
  auto p = mem.Allocate();
  ASSERT_TRUE(p.ok());
  const std::vector<uint8_t> page(kPage, 0x5a);
  ASSERT_TRUE(mem.Write(*p, page.data()).ok());
  for (PageFile* base : {static_cast<PageFile*>(&mapped),
                         static_cast<PageFile*>(&mem)}) {
    const char* path = base->zero_copy() ? "zero-copy" : "copy";
    FaultInjectingPageFile faulty(base);
    BufferPool pool(&faulty, 2, nullptr);
    pool.SetRetryPolicy(/*max_attempts=*/5, /*backoff_us=*/1000);
    FaultPlan plan;
    plan.read_transient_rate = 1.0;  // every attempt fails
    faulty.set_plan(plan);
    CancelToken token;
    token.ArmBudget(300'000);  // 300 us: expires during the first backoff
    ScopedQueryContext scope({.cancel = &token});
    auto ref = pool.Fetch(0);
    ASSERT_FALSE(ref.ok()) << path;
    EXPECT_TRUE(ref.status().IsDeadlineExceeded())
        << path << ": " << ref.status().ToString();
    EXPECT_FALSE(CircuitBreaker::IsFailure(ref.status())) << path;
    // At most the one backoff that outlived the budget was slept.
    EXPECT_LE(pool.io_retries(), 1u) << path;
  }
}

// -- Fault injector pass-through state changes -------------------------------
//
// An injector with no armed plan and no dead page serves every operation
// straight from its base without locking. These pin that the state changes
// in and out of that pass-through keep their meaning.

TEST(FaultInjectionTest, FailSwitchesWorkOnANeverArmedInjector) {
  constexpr uint32_t kPage = 128;
  const std::vector<uint8_t> slots = MappedSlots(2, kPage);
  MmapPageFile base(slots.data(), 2, kPage, /*zero_copy=*/true);
  FaultInjectingPageFile faulty(&base);
  std::vector<uint8_t> rd(kPage);
  ASSERT_TRUE(faulty.Read(0, rd.data()).ok());
  ASSERT_TRUE(faulty.MapPage(0).ok());

  faulty.FailPage(0);
  EXPECT_TRUE(faulty.Read(0, rd.data()).IsIoError());
  EXPECT_TRUE(faulty.MapPage(0).status().IsIoError());
  EXPECT_TRUE(faulty.Read(1, rd.data()).ok());
  EXPECT_TRUE(faulty.MapPage(1).ok());
  EXPECT_EQ(faulty.stats().permanent_read_faults.load(), 2u);

  faulty.FailAllReads(true);
  EXPECT_TRUE(faulty.Read(1, rd.data()).IsIoError());
  EXPECT_TRUE(faulty.MapPage(1).status().IsIoError());
  faulty.FailAllReads(false);
  EXPECT_TRUE(faulty.Read(1, rd.data()).ok());
  EXPECT_TRUE(faulty.MapPage(1).ok());
  EXPECT_EQ(faulty.stats().permanent_read_faults.load(), 4u);
  EXPECT_EQ(faulty.stats().reads.value(), 10u);
}

TEST(FaultInjectionTest, FailAllReadsWorksWithoutAnyDeadPage) {
  constexpr uint32_t kPage = 128;
  const std::vector<uint8_t> slots = MappedSlots(1, kPage);
  MmapPageFile base(slots.data(), 1, kPage, /*zero_copy=*/true);
  FaultInjectingPageFile faulty(&base);
  std::vector<uint8_t> rd(kPage);
  faulty.FailAllReads(true);
  EXPECT_TRUE(faulty.Read(0, rd.data()).IsIoError());
  EXPECT_TRUE(faulty.MapPage(0).status().IsIoError());
  EXPECT_EQ(faulty.stats().permanent_read_faults.load(), 2u);
}

TEST(FaultInjectionTest, ClearingThePlanAfterFailPageRestoresPassThrough) {
  constexpr uint32_t kPage = 128;
  const std::vector<uint8_t> slots = MappedSlots(1, kPage);
  MmapPageFile base(slots.data(), 1, kPage, /*zero_copy=*/true);
  FaultInjectingPageFile faulty(&base);
  std::vector<uint8_t> rd(kPage);
  faulty.FailPage(0);
  ASSERT_TRUE(faulty.Read(0, rd.data()).IsIoError());
  faulty.set_plan(FaultPlan());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(faulty.Read(0, rd.data()).ok());
    EXPECT_EQ(rd[0], 1);
    auto view = faulty.MapPage(0);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->data[0], 1);
  }
  EXPECT_EQ(faulty.stats().total_faults(), 1u);
}

// An armed plan draws its faults from one seeded sequence in a fixed order
// per read: permanent, transient, then (Read only) bit flip and the
// flipped bit. A model replaying that ladder with the same seed must
// predict every outcome, every flipped byte, and the stats exactly.
TEST(FaultInjectionTest, ArmedPlanKeepsItsSeededSequenceAndStats) {
  constexpr uint32_t kPage = 64;
  constexpr uint32_t kPages = 8;
  const std::vector<uint8_t> slots = MappedSlots(kPages, kPage);
  MmapPageFile base(slots.data(), kPages, kPage, /*zero_copy=*/true);
  FaultInjectingPageFile faulty(&base);
  FaultPlan plan;
  plan.seed = 1234;
  plan.read_permanent_rate = 0.01;
  plan.read_transient_rate = 0.3;
  plan.bitflip_rate = 0.25;
  faulty.set_plan(plan);

  Rng model(plan.seed);
  std::unordered_set<PageId> dead;
  uint64_t transient = 0, permanent = 0, flips = 0;
  std::vector<uint8_t> rd(kPage);
  for (uint32_t i = 0; i < 400; ++i) {
    const PageId page = (i * 5) % kPages;
    const bool map = i % 3 == 0;
    bool want_ok = false;
    int64_t flipped_bit = -1;
    if (dead.count(page) != 0) {
      ++permanent;
    } else if (model.Bernoulli(plan.read_permanent_rate)) {
      dead.insert(page);
      ++permanent;
    } else if (model.Bernoulli(plan.read_transient_rate)) {
      ++transient;
    } else {
      want_ok = true;
      if (!map && model.Bernoulli(plan.bitflip_rate)) {
        flipped_bit = static_cast<int64_t>(
            model.Uniform(static_cast<uint64_t>(kPage) * 8));
        ++flips;
      }
    }
    std::vector<uint8_t> want(kPage, static_cast<uint8_t>(page + 1));
    if (flipped_bit >= 0) {
      want[flipped_bit / 8] ^= static_cast<uint8_t>(1u << (flipped_bit % 8));
    }
    if (map) {
      auto view = faulty.MapPage(page);
      ASSERT_EQ(view.ok(), want_ok) << "op " << i;
      if (want_ok) {
        EXPECT_EQ(std::memcmp(view->data, want.data(), kPage), 0) << i;
      } else {
        EXPECT_TRUE(view.status().IsIoError()) << i;
      }
    } else {
      const Status st = faulty.Read(page, rd.data());
      ASSERT_EQ(st.ok(), want_ok) << "op " << i << ": " << st.ToString();
      if (want_ok) {
        EXPECT_EQ(rd, want) << "op " << i;
      } else {
        EXPECT_TRUE(st.IsIoError()) << i;
      }
    }
  }
  const FaultStats& s = faulty.stats();
  EXPECT_EQ(s.reads.value(), 400u);
  EXPECT_EQ(s.transient_read_faults.load(), transient);
  EXPECT_EQ(s.permanent_read_faults.load(), permanent);
  EXPECT_EQ(s.bitflips.load(), flips);
  EXPECT_GT(transient, 0u);
  EXPECT_GT(permanent, 0u);
  EXPECT_GT(flips, 0u);
}

}  // namespace
}  // namespace lsdb
