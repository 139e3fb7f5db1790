// Persistence: structures built into POSIX page files can be flushed,
// dropped from memory, and reopened without rebuilding — with identical
// query results.

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <string>

#include "lsdb/grid/uniform_grid.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/storage/superblock.h"
#include "test_util.h"

namespace lsdb {
namespace {

using testing::Ids;
using testing::RandomSegments;

IndexOptions TestOptions() {
  IndexOptions opt;
  opt.page_size = 256;
  opt.world_log2 = 10;
  opt.pmr_max_depth = 10;
  opt.grid_log2_cells = 4;
  return opt;
}

// Paths carry the pid: ctest runs each discovered test in its own process,
// and the typed instantiations would otherwise collide on shared files
// under a parallel ctest invocation.
std::string UniquePath(const char* stem) {
  return ::testing::TempDir() + "/lsdb_" + stem + "." +
         std::to_string(::getpid()) + ".pages";
}

struct Paths {
  std::string table = UniquePath("persist_table");
  std::string index = UniquePath("persist_index");
};

template <typename IndexT>
class PersistenceTest : public ::testing::Test {};

using IndexTypes =
    ::testing::Types<PmrQuadtree, RStarTree, RPlusTree, UniformGrid>;
TYPED_TEST_SUITE(PersistenceTest, IndexTypes);

TYPED_TEST(PersistenceTest, ReopenedIndexAnswersIdentically) {
  const IndexOptions opt = TestOptions();
  const Paths paths;
  Rng rng(41);
  const auto segs = RandomSegments(&rng, 400, 1024, 96);

  // Phase 1: build into files and flush.
  std::vector<std::vector<SegmentId>> expected;
  std::vector<Rect> windows;
  for (int i = 0; i < 25; ++i) {
    const Point a{static_cast<Coord>(rng.Uniform(1024)),
                  static_cast<Coord>(rng.Uniform(1024))};
    const Point b{static_cast<Coord>(rng.Uniform(1024)),
                  static_cast<Coord>(rng.Uniform(1024))};
    windows.push_back(Rect::Bound(a, b));
  }
  {
    auto table_file = PosixPageFile::Create(paths.table, opt.page_size);
    auto index_file = PosixPageFile::Create(paths.index, opt.page_size);
    ASSERT_TRUE(table_file.ok() && index_file.ok());
    BufferPool table_pool(table_file->get(), opt.buffer_frames, nullptr);
    SegmentTable table(&table_pool);
    TypeParam index(opt, index_file->get(), &table);
    ASSERT_TRUE(index.Init().ok());
    for (const Segment& s : segs) {
      auto id = table.Append(s);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(index.Insert(*id, s).ok());
    }
    for (const Rect& w : windows) {
      std::vector<SegmentHit> hits;
      ASSERT_TRUE(index.WindowQueryEx(w, &hits).ok());
      expected.push_back(Ids(hits));
    }
    ASSERT_TRUE(index.Flush().ok());
    ASSERT_TRUE(table.Flush().ok());
  }

  // Phase 2: reopen from the files and compare answers.
  {
    auto table_file = PosixPageFile::Open(paths.table, opt.page_size);
    auto index_file = PosixPageFile::Open(paths.index, opt.page_size);
    ASSERT_TRUE(table_file.ok() && index_file.ok());
    BufferPool table_pool(table_file->get(), opt.buffer_frames, nullptr);
    SegmentTable table(&table_pool);
    ASSERT_TRUE(table.Open().ok());
    EXPECT_EQ(table.size(), segs.size());
    TypeParam index(opt, index_file->get(), &table);
    const Status open_status = index.Open();
    ASSERT_TRUE(open_status.ok()) << open_status.ToString();
    for (size_t i = 0; i < windows.size(); ++i) {
      std::vector<SegmentHit> hits;
      ASSERT_TRUE(index.WindowQueryEx(windows[i], &hits).ok());
      EXPECT_EQ(Ids(hits), expected[i]) << windows[i].ToString();
    }
    // The reopened index remains fully functional: mutate and re-check.
    const Segment extra{{7, 7}, {30, 40}};
    auto id = table.Append(extra);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(index.Insert(*id, extra).ok());
    auto nn = index.Nearest(Point{8, 8});
    ASSERT_TRUE(nn.ok());
    EXPECT_EQ(nn->id, *id);
    EXPECT_DOUBLE_EQ(nn->squared_distance,
                     extra.SquaredDistanceTo(Point{8, 8}));
    ASSERT_TRUE(index.CheckInvariants().ok());
  }
}

// On-disk corruption round trip: flip one byte in the middle of every data
// page of the index file (leaving the CRC trailers as-is), reopen, and run
// queries. Every operation must either succeed or fail with a *typed*
// kCorruption — never crash, hang, or silently return wrong data — and at
// least one corruption must actually be reported.
TYPED_TEST(PersistenceTest, OnDiskCorruptionIsTypedNotFatal) {
  const IndexOptions opt = TestOptions();
  const std::string table_path = UniquePath("corrupt_table");
  const std::string index_path = UniquePath("corrupt_index");
  Rng rng(43);
  const auto segs = RandomSegments(&rng, 300, 1024, 96);
  {
    auto table_file = PosixPageFile::Create(table_path, opt.page_size);
    auto index_file = PosixPageFile::Create(index_path, opt.page_size);
    ASSERT_TRUE(table_file.ok() && index_file.ok());
    BufferPool table_pool(table_file->get(), opt.buffer_frames, nullptr);
    SegmentTable table(&table_pool);
    TypeParam index(opt, index_file->get(), &table);
    ASSERT_TRUE(index.Init().ok());
    for (const Segment& s : segs) {
      auto id = table.Append(s);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(index.Insert(*id, s).ok());
    }
    ASSERT_TRUE(index.Flush().ok());
    ASSERT_TRUE(table.Flush().ok());
  }

  // Corrupt every page except page 0 (the superblock), so Open() succeeds
  // and the damage is discovered on the query path. One flipped byte in the
  // middle of the page invalidates its CRC-32C trailer.
  const uint64_t slot = opt.page_size + kPageTrailerSize;
  {
    std::fstream f(index_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const uint64_t bytes = static_cast<uint64_t>(f.tellg());
    ASSERT_EQ(bytes % slot, 0u);
    const uint64_t pages = bytes / slot;
    ASSERT_GT(pages, 1u);
    for (uint64_t p = 1; p < pages; ++p) {
      const uint64_t off = p * slot + opt.page_size / 2;
      f.seekg(static_cast<std::streamoff>(off));
      char b = 0;
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x40);
      f.seekp(static_cast<std::streamoff>(off));
      f.write(&b, 1);
    }
  }

  auto table_file = PosixPageFile::Open(table_path, opt.page_size);
  auto index_file = PosixPageFile::Open(index_path, opt.page_size);
  ASSERT_TRUE(table_file.ok() && index_file.ok());
  BufferPool table_pool(table_file->get(), opt.buffer_frames, nullptr);
  SegmentTable table(&table_pool);
  ASSERT_TRUE(table.Open().ok());
  TypeParam index(opt, index_file->get(), &table);
  const Status open_status = index.Open();
  int corruptions = 0;
  if (open_status.ok()) {
    Rng qrng(44);
    for (int i = 0; i < 25; ++i) {
      const Point a{static_cast<Coord>(qrng.Uniform(1024)),
                    static_cast<Coord>(qrng.Uniform(1024))};
      const Point b{static_cast<Coord>(qrng.Uniform(1024)),
                    static_cast<Coord>(qrng.Uniform(1024))};
      std::vector<SegmentHit> hits;
      const Status s = index.WindowQueryEx(Rect::Bound(a, b), &hits);
      ASSERT_TRUE(s.ok() || s.IsCorruption()) << s.ToString();
      corruptions += s.IsCorruption();
      auto nn = index.Nearest(a);
      ASSERT_TRUE(nn.ok() || nn.status().IsCorruption() ||
                  nn.status().IsNotFound())
          << nn.status().ToString();
      corruptions += nn.status().IsCorruption();
    }
  } else {
    // Some structures read beyond the superblock on Open; that read is
    // allowed to surface the corruption immediately.
    ASSERT_TRUE(open_status.IsCorruption()) << open_status.ToString();
    corruptions = 1;
  }
  EXPECT_GT(corruptions, 0);
}

TEST(PersistenceNegativeTest, KindMismatchRejected) {
  const IndexOptions opt = TestOptions();
  const std::string path = UniquePath("kind");
  {
    auto file = PosixPageFile::Create(path, opt.page_size);
    ASSERT_TRUE(file.ok());
    BufferPool pool(file->get(), opt.buffer_frames, nullptr);
    SegmentTable dummy_table(&pool);  // unused
    MemPageFile seg_mem(opt.page_size);
    BufferPool seg_pool(&seg_mem, 4, nullptr);
    SegmentTable table(&seg_pool);
    PmrQuadtree pmr(opt, file->get(), &table);
    ASSERT_TRUE(pmr.Init().ok());
    ASSERT_TRUE(pmr.Flush().ok());
  }
  auto file = PosixPageFile::Open(path, opt.page_size);
  ASSERT_TRUE(file.ok());
  MemPageFile seg_mem(opt.page_size);
  BufferPool seg_pool(&seg_mem, 4, nullptr);
  SegmentTable table(&seg_pool);
  RStarTree rstar(opt, file->get(), &table);
  EXPECT_TRUE(rstar.Open().IsInvalidArgument());
}

TEST(PersistenceNegativeTest, OptionMismatchRejected) {
  IndexOptions opt = TestOptions();
  const std::string path = UniquePath("opts");
  MemPageFile seg_mem(opt.page_size);
  BufferPool seg_pool(&seg_mem, 4, nullptr);
  SegmentTable table(&seg_pool);
  {
    auto file = PosixPageFile::Create(path, opt.page_size);
    ASSERT_TRUE(file.ok());
    PmrQuadtree pmr(opt, file->get(), &table);
    ASSERT_TRUE(pmr.Init().ok());
    ASSERT_TRUE(pmr.Flush().ok());
  }
  auto file = PosixPageFile::Open(path, opt.page_size);
  ASSERT_TRUE(file.ok());
  IndexOptions other = opt;
  other.pmr_split_threshold = 9;  // differs from the stored structure
  PmrQuadtree pmr(other, file->get(), &table);
  EXPECT_TRUE(pmr.Open().IsInvalidArgument());
}

TEST(PersistenceNegativeTest, InitRequiresFreshFile) {
  const IndexOptions opt = TestOptions();
  MemPageFile file(opt.page_size);
  MemPageFile seg_mem(opt.page_size);
  BufferPool seg_pool(&seg_mem, 4, nullptr);
  SegmentTable table(&seg_pool);
  {
    PmrQuadtree first(opt, &file, &table);
    ASSERT_TRUE(first.Init().ok());
  }
  PmrQuadtree second(opt, &file, &table);
  EXPECT_TRUE(second.Init().IsInvalidArgument());
}

TEST(PersistenceNegativeTest, GarbageSuperblockIsCorruption) {
  const IndexOptions opt = TestOptions();
  MemPageFile file(opt.page_size);
  BufferPool pool(&file, 4, nullptr);
  {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    ref->data()[0] = 0x42;  // not the magic
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  auto sb = ReadSuperblock(&pool, 0, SuperblockKind::kPmrQuadtree);
  EXPECT_TRUE(sb.status().IsCorruption());
}

}  // namespace
}  // namespace lsdb
