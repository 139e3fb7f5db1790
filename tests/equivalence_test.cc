// The golden cross-structure property: every index must return exactly the
// same result sets as the brute-force reference for every query type, on
// random segment soups and on structured (road-like) maps, including after
// deletions. This is the strongest correctness check in the suite — it
// exercises insertion, splitting (R* forced reinsertion, R+ downward
// splits, PMR block splits), deletion (condensation / merging), and all
// query paths at once.

#include <gtest/gtest.h>

#include <memory>

#include "lsdb/data/county_generator.h"
#include "lsdb/grid/uniform_grid.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"
#include "test_util.h"

namespace lsdb {
namespace {

using testing::BruteForceIndex;
using testing::Ids;
using testing::RandomSegments;
using testing::Sorted;

struct Rig {
  explicit Rig(const IndexOptions& opt)
      : options(opt),
        seg_file(opt.page_size),
        seg_pool(&seg_file, opt.buffer_frames, nullptr),
        table(&seg_pool),
        rstar_file(opt.page_size),
        rplus_file(opt.page_size),
        pmr_file(opt.page_size),
        grid_file(opt.page_size),
        rstar(opt, &rstar_file, &table),
        rplus(opt, &rplus_file, &table),
        pmr(opt, &pmr_file, &table),
        grid(opt, &grid_file, &table) {
    EXPECT_TRUE(rstar.Init().ok());
    EXPECT_TRUE(rplus.Init().ok());
    EXPECT_TRUE(pmr.Init().ok());
    EXPECT_TRUE(grid.Init().ok());
    indexes = {&rstar, &rplus, &pmr, &grid};
  }

  void InsertAll(const std::vector<Segment>& segs) {
    for (const Segment& s : segs) {
      auto id = table.Append(s);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(brute.Insert(*id, s).ok());
      for (SpatialIndex* idx : indexes) {
        ASSERT_TRUE(idx->Insert(*id, s).ok()) << idx->Name();
      }
    }
  }

  void EraseOne(SegmentId id, const Segment& s) {
    ASSERT_TRUE(brute.Erase(id, s).ok());
    for (SpatialIndex* idx : indexes) {
      ASSERT_TRUE(idx->Erase(id, s).ok()) << idx->Name();
    }
  }

  void CheckAllInvariants() {
    for (SpatialIndex* idx : indexes) {
      const Status st = idx->CheckInvariants();
      EXPECT_TRUE(st.ok()) << idx->Name() << ": " << st.ToString();
    }
  }

  void CheckWindow(const Rect& w) {
    std::vector<SegmentHit> expected;
    ASSERT_TRUE(brute.WindowQueryEx(w, &expected).ok());
    const auto want = Ids(expected);
    for (SpatialIndex* idx : indexes) {
      std::vector<SegmentHit> got;
      ASSERT_TRUE(idx->WindowQueryEx(w, &got).ok()) << idx->Name();
      EXPECT_EQ(Ids(got), want)
          << idx->Name() << " window " << w.ToString();
    }
  }

  void CheckNearest(const Point& p) {
    auto expected = brute.Nearest(p);
    for (SpatialIndex* idx : indexes) {
      auto got = idx->Nearest(p);
      ASSERT_EQ(got.ok(), expected.ok()) << idx->Name();
      if (expected.ok()) {
        // Distances must match exactly (ids may differ on ties).
        EXPECT_DOUBLE_EQ(got->squared_distance, expected->squared_distance)
            << idx->Name() << " at (" << p.x << "," << p.y << ")";
      }
    }
  }

  IndexOptions options;
  MemPageFile seg_file;
  BufferPool seg_pool;
  SegmentTable table;
  MemPageFile rstar_file, rplus_file, pmr_file, grid_file;
  RStarTree rstar;
  RPlusTree rplus;
  PmrQuadtree pmr;
  UniformGrid grid;
  BruteForceIndex brute;
  std::vector<SpatialIndex*> indexes;
};

IndexOptions SmallWorldOptions() {
  IndexOptions opt;
  opt.page_size = 256;  // small pages force splits with few segments
  opt.buffer_frames = 16;
  opt.world_log2 = 10;  // 1K x 1K world
  opt.pmr_max_depth = 10;
  opt.grid_log2_cells = 4;
  return opt;
}

// (seed, segment count, page size, PMR threshold, PMR bbox variant)
class EquivalenceRandomTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, int, uint32_t, uint32_t, bool>> {};

TEST_P(EquivalenceRandomTest, AllStructuresMatchBruteForce) {
  const auto [seed, segment_count, page_size, threshold, bboxes] =
      GetParam();
  IndexOptions opt = SmallWorldOptions();
  opt.page_size = page_size;
  opt.pmr_split_threshold = threshold;
  opt.pmr_store_bboxes = bboxes;
  Rig rig(opt);
  Rng rng(seed);
  const Coord world = Coord{1} << opt.world_log2;
  // Mix of short (road-like) and a few long segments.
  auto segs = RandomSegments(&rng, segment_count, world, world / 8);
  auto long_segs = RandomSegments(&rng, segment_count / 10 + 1, world, 0);
  segs.insert(segs.end(), long_segs.begin(), long_segs.end());
  rig.InsertAll(segs);
  rig.CheckAllInvariants();

  for (int i = 0; i < 60; ++i) {
    const Point a{static_cast<Coord>(rng.Uniform(world)),
                  static_cast<Coord>(rng.Uniform(world))};
    const Point b{static_cast<Coord>(rng.Uniform(world)),
                  static_cast<Coord>(rng.Uniform(world))};
    rig.CheckWindow(Rect::Bound(a, b));
    rig.CheckNearest(a);
    rig.CheckWindow(Rect::AtPoint(a));  // point query
  }
  // Windows touching segment endpoints exactly (boundary semantics).
  for (int i = 0; i < 40; ++i) {
    const Segment& s = segs[rng.Uniform(segs.size())];
    rig.CheckWindow(Rect::AtPoint(s.a));
    rig.CheckWindow(Rect::Of(s.a.x, s.a.y,
                             static_cast<Coord>(s.a.x + 16),
                             static_cast<Coord>(s.a.y + 16)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, EquivalenceRandomTest,
    ::testing::Combine(::testing::Values(11, 22, 33),
                       ::testing::Values(120, 600),
                       ::testing::Values(256u), ::testing::Values(4u),
                       ::testing::Values(false)));

// Configuration sweep: page sizes, splitting thresholds, and the 3-tuple
// variant must not change any result set.
INSTANTIATE_TEST_SUITE_P(
    Configs, EquivalenceRandomTest,
    ::testing::Combine(::testing::Values(44), ::testing::Values(400),
                       ::testing::Values(128u, 512u),
                       ::testing::Values(1u, 8u),
                       ::testing::Values(false, true)));

class EquivalenceDeletionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceDeletionTest, MatchesAfterDeletions) {
  const IndexOptions opt = SmallWorldOptions();
  Rig rig(opt);
  Rng rng(GetParam());
  const Coord world = Coord{1} << opt.world_log2;
  auto segs = RandomSegments(&rng, 400, world, world / 6);
  rig.InsertAll(segs);

  // Delete half of the segments in random order.
  std::vector<SegmentId> ids(segs.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<SegmentId>(i);
  for (size_t i = ids.size(); i-- > 1;) {
    std::swap(ids[i], ids[rng.Uniform(i + 1)]);
  }
  for (size_t i = 0; i < ids.size() / 2; ++i) {
    rig.EraseOne(ids[i], segs[ids[i]]);
    if (i % 50 == 49) rig.CheckAllInvariants();
  }
  rig.CheckAllInvariants();

  for (int i = 0; i < 40; ++i) {
    const Point a{static_cast<Coord>(rng.Uniform(world)),
                  static_cast<Coord>(rng.Uniform(world))};
    const Point b{static_cast<Coord>(rng.Uniform(world)),
                  static_cast<Coord>(rng.Uniform(world))};
    rig.CheckWindow(Rect::Bound(a, b));
    rig.CheckNearest(a);
  }
  // Deleting the rest empties every structure.
  for (size_t i = ids.size() / 2; i < ids.size(); ++i) {
    rig.EraseOne(ids[i], segs[ids[i]]);
  }
  for (SpatialIndex* idx : rig.indexes) {
    std::vector<SegmentHit> got;
    ASSERT_TRUE(
        idx->WindowQueryEx(Rect::Of(0, 0, world, world), &got).ok());
    EXPECT_TRUE(got.empty()) << idx->Name();
    EXPECT_TRUE(idx->Nearest(Point{1, 1}).status().IsNotFound())
        << idx->Name();
  }
  rig.CheckAllInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceDeletionTest,
                         ::testing::Values(101, 202, 303));

TEST(EquivalenceStructuredTest, RoadLikeMapMatches) {
  IndexOptions opt = SmallWorldOptions();
  Rig rig(opt);
  CountyProfile profile;
  profile.name = "test-county";
  profile.lattice = 12;
  profile.meander_steps = 4;
  profile.seed = 77;
  const PolygonalMap map = GenerateCounty(profile, opt.world_log2);
  ASSERT_GT(map.segments.size(), 500u);
  rig.InsertAll(map.segments);
  rig.CheckAllInvariants();
  Rng rng(9);
  const Coord world = Coord{1} << opt.world_log2;
  for (int i = 0; i < 50; ++i) {
    const Point a{static_cast<Coord>(rng.Uniform(world)),
                  static_cast<Coord>(rng.Uniform(world))};
    rig.CheckNearest(a);
    const Coord side = 32;
    const Coord x = static_cast<Coord>(rng.Uniform(world - side));
    const Coord y = static_cast<Coord>(rng.Uniform(world - side));
    rig.CheckWindow(Rect::Of(x, y, x + side, y + side));
  }
  // Point queries at every 20th vertex (exact endpoint semantics).
  for (size_t i = 0; i < map.segments.size(); i += 20) {
    rig.CheckWindow(Rect::AtPoint(map.segments[i].a));
  }
}

TEST(EquivalenceSegmentsOnSplitLines, BoundarySegmentsFound) {
  // Segments lying exactly on quadtree block boundaries / likely split
  // lines must be retrievable from all structures.
  const IndexOptions opt = SmallWorldOptions();
  Rig rig(opt);
  const Coord world = Coord{1} << opt.world_log2;
  const Coord half = world / 2;
  std::vector<Segment> segs;
  // Cross through the center, axis-aligned on block boundaries.
  segs.push_back(Segment{{half, 0}, {half, static_cast<Coord>(world - 1)}});
  segs.push_back(Segment{{0, half}, {static_cast<Coord>(world - 1), half}});
  // Dense bundle near the center to force splits along these lines.
  Rng rng(5);
  auto extra = RandomSegments(&rng, 200, world / 4, world / 16);
  for (Segment& s : extra) {
    s.a.x += 3 * world / 8;
    s.a.y += 3 * world / 8;
    s.b.x += 3 * world / 8;
    s.b.y += 3 * world / 8;
    segs.push_back(s);
  }
  rig.InsertAll(segs);
  rig.CheckAllInvariants();
  rig.CheckWindow(Rect::AtPoint(Point{half, half}));
  rig.CheckWindow(Rect::Of(half, half, half, world));
  rig.CheckWindow(Rect::Of(0, 0, world, world));
  for (int i = 0; i < 30; ++i) {
    const Point p{static_cast<Coord>(rng.Uniform(world)),
                  static_cast<Coord>(rng.Uniform(world))};
    rig.CheckNearest(p);
  }
}

}  // namespace
}  // namespace lsdb
