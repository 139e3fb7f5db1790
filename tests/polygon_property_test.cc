// Property tests for the enclosing-polygon query on generated county maps:
// the walk must terminate (closed) from any query point, return identical
// boundaries on every index structure, and reproduce the paper's
// urban-vs-rural polygon size contrast.

#include <gtest/gtest.h>

#include "lsdb/data/county_generator.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/query/point_gen.h"
#include "lsdb/query/polygon.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"
#include "test_util.h"

namespace lsdb {
namespace {

using testing::BruteForceIndex;

struct MapRig {
  explicit MapRig(const PolygonalMap& map, uint32_t world_log2)
      : options(MakeOptions(world_log2)),
        seg_file(options.page_size),
        seg_pool(&seg_file, options.buffer_frames, nullptr),
        table(&seg_pool),
        rstar_file(options.page_size),
        rplus_file(options.page_size),
        pmr_file(options.page_size),
        rstar(options, &rstar_file, &table),
        rplus(options, &rplus_file, &table),
        pmr(options, &pmr_file, &table) {
    EXPECT_TRUE(rstar.Init().ok());
    EXPECT_TRUE(rplus.Init().ok());
    EXPECT_TRUE(pmr.Init().ok());
    for (const Segment& s : map.segments) {
      auto id = table.Append(s);
      EXPECT_TRUE(id.ok());
      EXPECT_TRUE(brute.Insert(*id, s).ok());
      EXPECT_TRUE(rstar.Insert(*id, s).ok());
      EXPECT_TRUE(rplus.Insert(*id, s).ok());
      EXPECT_TRUE(pmr.Insert(*id, s).ok());
    }
  }

  static IndexOptions MakeOptions(uint32_t world_log2) {
    IndexOptions opt;
    opt.page_size = 512;
    opt.world_log2 = world_log2;
    opt.pmr_max_depth = world_log2;
    return opt;
  }

  IndexOptions options;
  MemPageFile seg_file;
  BufferPool seg_pool;
  SegmentTable table;
  MemPageFile rstar_file, rplus_file, pmr_file;
  RStarTree rstar;
  RPlusTree rplus;
  PmrQuadtree pmr;
  BruteForceIndex brute;
};

PolygonalMap TestCounty(uint32_t lattice, uint32_t steps, uint64_t seed) {
  CountyProfile p;
  p.name = "poly-test";
  p.lattice = lattice;
  p.meander_steps = steps;
  p.seed = seed;
  return GenerateCounty(p, 12);
}

class PolygonClosureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PolygonClosureTest, WalksCloseFromRandomPoints) {
  const PolygonalMap map = TestCounty(10, 4, GetParam());
  MapRig rig(map, 12);
  Rng rng(GetParam() * 31 + 1);
  int closed = 0;
  const int kQueries = 40;
  for (int i = 0; i < kQueries; ++i) {
    const Point p = UniformQueryPoint(&rng, 12);
    PolygonResult res;
    ASSERT_TRUE(EnclosingPolygon(&rig.brute, p, &res).ok());
    EXPECT_TRUE(res.closed) << "(" << p.x << "," << p.y << ")";
    EXPECT_GE(res.distinct_count, 1u);
    closed += res.closed ? 1 : 0;
  }
  EXPECT_EQ(closed, kQueries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolygonClosureTest,
                         ::testing::Values(1, 2, 3));

TEST(PolygonEquivalenceTest, SameBoundaryOnEveryStructure) {
  const PolygonalMap map = TestCounty(8, 3, 9);
  MapRig rig(map, 12);
  Rng rng(77);
  for (int i = 0; i < 25; ++i) {
    const Point p = UniformQueryPoint(&rng, 12);
    PolygonResult expected;
    ASSERT_TRUE(EnclosingPolygon(&rig.brute, p, &expected).ok());
    for (SpatialIndex* idx :
         std::initializer_list<SpatialIndex*>{&rig.rstar, &rig.rplus,
                                              &rig.pmr}) {
      PolygonResult got;
      ASSERT_TRUE(EnclosingPolygon(idx, p, &got).ok()) << idx->Name();
      EXPECT_EQ(got.closed, expected.closed) << idx->Name();
      EXPECT_EQ(got.segments, expected.segments)
          << idx->Name() << " at (" << p.x << "," << p.y << ")";
    }
  }
}

TEST(PolygonSizeContrastTest, RuralPolygonsAreLarger) {
  // The paper: urban Baltimore polygons averaged 19 segments, rural
  // Charles 132. Reproduce the contrast (not the absolute values) with a
  // dense straight grid vs a sparse meandering one.
  const PolygonalMap urban = TestCounty(16, 1, 4);
  const PolygonalMap rural = TestCounty(4, 16, 5);
  MapRig urban_rig(urban, 12);
  MapRig rural_rig(rural, 12);
  Rng rng(55);
  auto avg_polygon = [&rng](BruteForceIndex* idx) {
    double total = 0;
    int n = 0;
    for (int i = 0; i < 30; ++i) {
      const Point p = UniformQueryPoint(&rng, 12);
      PolygonResult res;
      EXPECT_TRUE(EnclosingPolygon(idx, p, &res).ok());
      if (res.closed) {
        total += static_cast<double>(res.segments.size());
        ++n;
      }
    }
    return n > 0 ? total / n : 0.0;
  };
  const double urban_avg = avg_polygon(&urban_rig.brute);
  const double rural_avg = avg_polygon(&rural_rig.brute);
  EXPECT_GT(rural_avg, 2.0 * urban_avg)
      << "urban " << urban_avg << " rural " << rural_avg;
}

TEST(TwoStagePointsTest, PreferDenseRegions) {
  // Two clusters: a dense one and a sparse one; 2-stage points must land
  // in the dense cluster far more often than uniform points would.
  IndexOptions opt = MapRig::MakeOptions(12);
  MemPageFile seg_file(opt.page_size);
  BufferPool seg_pool(&seg_file, 16, nullptr);
  SegmentTable table(&seg_pool);
  MemPageFile pmr_file(opt.page_size);
  PmrQuadtree pmr(opt, &pmr_file, &table);
  ASSERT_TRUE(pmr.Init().ok());
  Rng rng(8);
  // Dense: 500 segments in the SW 1/16 of the map; sparse: 20 elsewhere.
  auto add = [&](Coord base, Coord span, int count) {
    for (int i = 0; i < count; ++i) {
      const Segment s{{static_cast<Coord>(base + rng.Uniform(span)),
                       static_cast<Coord>(base + rng.Uniform(span))},
                      {static_cast<Coord>(base + rng.Uniform(span)),
                       static_cast<Coord>(base + rng.Uniform(span))}};
      auto id = table.Append(s);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(pmr.Insert(*id, s).ok());
    }
  };
  add(0, 1024, 500);      // dense cluster
  add(2048, 2048, 20);    // sparse background
  auto gen = TwoStageQueryPointGenerator::Create(&pmr);
  ASSERT_TRUE(gen.ok());
  int in_dense = 0;
  const int kSamples = 2000;
  for (int i = 0; i < kSamples; ++i) {
    const Point p = gen->Next(&rng);
    if (p.x < 1024 && p.y < 1024) ++in_dense;
  }
  // The dense quarter-of-a-quarter would get ~6% of uniform points; the
  // two-stage generator sends the majority there.
  EXPECT_GT(in_dense, kSamples / 2);
}

}  // namespace
}  // namespace lsdb
