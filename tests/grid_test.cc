#include <gtest/gtest.h>

#include "lsdb/grid/uniform_grid.h"
#include "lsdb/seg/segment_table.h"
#include "test_util.h"

namespace lsdb {
namespace {

using testing::RandomSegments;

struct GridFixture {
  GridFixture()
      : seg_file(256),
        seg_pool(&seg_file, 16, nullptr),
        table(&seg_pool),
        file(256),
        grid(Options(), &file, &table) {
    EXPECT_TRUE(grid.Init().ok());
  }

  static IndexOptions Options() {
    IndexOptions opt;
    opt.page_size = 256;
    opt.world_log2 = 10;
    opt.grid_log2_cells = 4;  // 16x16 cells of 64px
    return opt;
  }

  SegmentId Add(const Segment& s) {
    auto id = table.Append(s);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(grid.Insert(*id, s).ok());
    return *id;
  }

  MemPageFile seg_file;
  BufferPool seg_pool;
  SegmentTable table;
  MemPageFile file;
  UniformGrid grid;
};

TEST(GridTest, EmptyGrid) {
  GridFixture f;
  std::vector<SegmentHit> hits;
  ASSERT_TRUE(f.grid.WindowQueryEx(Rect::Of(0, 0, 1024, 1024), &hits).ok());
  EXPECT_TRUE(hits.empty());
  EXPECT_TRUE(f.grid.Nearest(Point{0, 0}).status().IsNotFound());
}

TEST(GridTest, WindowAndNearestBasics) {
  GridFixture f;
  const SegmentId a = f.Add(Segment{{10, 10}, {50, 50}});
  const SegmentId b = f.Add(Segment{{900, 900}, {950, 920}});
  std::vector<SegmentHit> hits;
  ASSERT_TRUE(f.grid.WindowQueryEx(Rect::Of(0, 0, 100, 100), &hits).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, a);
  auto nn = f.grid.Nearest(Point{920, 910});
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->id, b);
}

TEST(GridTest, NearestCrossesManyRings) {
  GridFixture f;
  // Single far-away segment: the ring search must expand to find it.
  const SegmentId id = f.Add(Segment{{1000, 1000}, {1010, 1010}});
  auto nn = f.grid.Nearest(Point{0, 0});
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->id, id);
  EXPECT_DOUBLE_EQ(nn->squared_distance,
                   static_cast<double>(2 * 1000 * 1000));
}

TEST(GridTest, BucketChainsGrowForDenseCells) {
  GridFixture f;
  // All segments in one cell: buckets chain ((256-8)/4 = 62 per page).
  for (int i = 0; i < 200; ++i) {
    f.Add(Segment{{5, static_cast<Coord>(1 + i % 60)},
                  {20, static_cast<Coord>(2 + i % 60)}});
  }
  std::vector<SegmentHit> hits;
  ASSERT_TRUE(f.grid.WindowQueryEx(Rect::Of(0, 0, 63, 63), &hits).ok());
  EXPECT_EQ(hits.size(), 200u);
}

TEST(GridTest, EraseRemovesFromAllCells) {
  GridFixture f;
  const Segment wide{{0, 500}, {1023, 500}};  // crosses all 16 columns
  const SegmentId id = f.Add(wide);
  ASSERT_TRUE(f.grid.Erase(id, wide).ok());
  std::vector<SegmentHit> hits;
  ASSERT_TRUE(f.grid.WindowQueryEx(Rect::Of(0, 0, 1024, 1024), &hits).ok());
  EXPECT_TRUE(hits.empty());
  EXPECT_TRUE(f.grid.Erase(id, wide).IsNotFound());
}

TEST(GridTest, RandomRecallMatchesCount) {
  GridFixture f;
  Rng rng(7);
  const auto segs = RandomSegments(&rng, 500, 1024, 100);
  for (const Segment& s : segs) f.Add(s);
  std::vector<SegmentHit> hits;
  ASSERT_TRUE(f.grid.WindowQueryEx(Rect::Of(0, 0, 1024, 1024), &hits).ok());
  EXPECT_EQ(hits.size(), segs.size());  // dedup across cells
}

}  // namespace
}  // namespace lsdb
