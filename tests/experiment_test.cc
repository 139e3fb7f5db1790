#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <sstream>
#include <string>

#include "lsdb/data/county_generator.h"
#include "lsdb/harness/experiment.h"
#include "lsdb/query/point_gen.h"

namespace lsdb {
namespace {

ExperimentOptions SmallExperiment() {
  ExperimentOptions opt;
  opt.index.page_size = 512;
  opt.index.world_log2 = 12;
  opt.index.pmr_max_depth = 12;
  opt.num_queries = 50;
  return opt;
}

PolygonalMap SmallCounty() {
  CountyProfile p;
  p.name = "test";
  p.lattice = 16;
  p.meander_steps = 5;
  p.seed = 13;
  return GenerateCounty(p, 12);
}

TEST(ExperimentTest, BuildProducesStatsForAllStructures) {
  Experiment exp(SmallCounty(), SmallExperiment());
  ASSERT_TRUE(exp.BuildAll().ok());
  const auto& stats = exp.build_stats();
  ASSERT_EQ(stats.size(), 3u);
  for (const BuildStats& st : stats) {
    EXPECT_GT(st.bytes, 0u) << StructureName(st.kind);
    EXPECT_GT(st.disk_accesses, 0u) << StructureName(st.kind);
    EXPECT_GE(st.height, 1u);
  }
  // Paper shape: R* is the most compact structure.
  uint64_t rstar_bytes = 0, rplus_bytes = 0, pmr_bytes = 0;
  for (const BuildStats& st : stats) {
    if (st.kind == StructureKind::kRStar) rstar_bytes = st.bytes;
    if (st.kind == StructureKind::kRPlus) rplus_bytes = st.bytes;
    if (st.kind == StructureKind::kPmr) pmr_bytes = st.bytes;
  }
  EXPECT_LT(rstar_bytes, rplus_bytes);
  EXPECT_LT(rstar_bytes, pmr_bytes * 2);  // PMR tuples are 2.5x smaller
}

TEST(ExperimentTest, AllWorkloadsRunAndProduceMetrics) {
  Experiment exp(SmallCounty(), SmallExperiment());
  ASSERT_TRUE(exp.BuildAll().ok());
  std::vector<QueryStats> stats;
  ASSERT_TRUE(exp.RunAllQueries(&stats).ok());
  ASSERT_EQ(stats.size(), 3u * 7u);
  for (const QueryStats& qs : stats) {
    // Every workload touches the segment table at least occasionally.
    EXPECT_GE(qs.segment_comps, 0.0);
    if (qs.kind == StructureKind::kPmr) {
      EXPECT_EQ(qs.bbox_comps, 0.0) << WorkloadName(qs.workload);
      EXPECT_GT(qs.bucket_comps, 0.0) << WorkloadName(qs.workload);
    } else {
      EXPECT_GT(qs.bbox_comps, 0.0)
          << StructureName(qs.kind) << " " << WorkloadName(qs.workload);
    }
  }
  // Point1 returns the same average result count on every structure
  // (results are identical; only costs differ).
  double point1_results[3] = {0, 0, 0};
  int i = 0;
  for (const QueryStats& qs : stats) {
    if (qs.workload == Workload::kPoint1) point1_results[i++] = qs.avg_result_size;
  }
  EXPECT_DOUBLE_EQ(point1_results[0], point1_results[1]);
  EXPECT_DOUBLE_EQ(point1_results[1], point1_results[2]);
}

TEST(ExperimentTest, TwoStagePointsFollowData) {
  Experiment exp(SmallCounty(), SmallExperiment());
  ASSERT_TRUE(exp.BuildAll().ok());
  auto gen = TwoStageQueryPointGenerator::Create(exp.pmr());
  ASSERT_TRUE(gen.ok());
  EXPECT_GT(gen->block_count(), 4u);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Point p = gen->Next(&rng);
    EXPECT_GE(p.x, 0);
    EXPECT_LT(p.x, 4096);
    EXPECT_GE(p.y, 0);
    EXPECT_LT(p.y, 4096);
  }
}

TEST(ExperimentTest, BuildOneMatchesKinds) {
  const PolygonalMap map = SmallCounty();
  IndexOptions idx = SmallExperiment().index;
  for (StructureKind kind :
       {StructureKind::kRStar, StructureKind::kRPlus, StructureKind::kPmr,
        StructureKind::kGrid}) {
    auto st = Experiment::BuildOne(map, kind, idx);
    ASSERT_TRUE(st.ok()) << StructureName(kind);
    EXPECT_EQ(st->kind, kind);
    EXPECT_GT(st->bytes, 0u);
  }
}

// One structure's paper counts on SmallCounty: the build's disk accesses,
// then per workload (kAllWorkloads order) the totals over all queries of
// disk accesses, segment comparisons, and bbox (R*/R+) or bucket (PMR)
// computations.
struct PaperCounts {
  uint64_t build_disk_accesses = 0;
  std::array<uint64_t, 7> disk_accesses{};
  std::array<uint64_t, 7> segment_comps{};
  std::array<uint64_t, 7> bbox_bucket_comps{};
  bool operator==(const PaperCounts&) const = default;
};

std::string FormatCounts(const PaperCounts& c) {
  std::ostringstream os;
  auto row = [&os](const std::array<uint64_t, 7>& a) {
    os << "{";
    for (size_t i = 0; i < a.size(); ++i) os << (i ? ", " : "") << a[i];
    os << "}";
  };
  os << "{" << c.build_disk_accesses << ",\n ";
  row(c.disk_accesses);
  os << ",\n ";
  row(c.segment_comps);
  os << ",\n ";
  row(c.bbox_bucket_comps);
  os << "}";
  return os.str();
}

// Pins the paper's Table 1/2 counts exactly. Any change to page traffic,
// eviction order or comparison counting in R*, R+, PMR or the segment
// table shows up here; the 2-frame pools are the Figure 6 corner, where a
// single extra or missing page fetch changes the disk-access totals.
TEST(ExperimentTest, PaperCountsMatchGolden) {
  struct Golden {
    uint32_t frames;
    StructureKind kind;
    PaperCounts counts;
  };
  const Golden kGolden[] = {
      // A change to any value here changes the paper's metrics: update a
      // row only on purpose, from the actual values the failure prints.
      {16, StructureKind::kRStar,
       {370,
        {89, 88, 105, 111, 254, 268, 99},
        {119, 106, 1461, 1324, 4066, 3970, 38},
        {2927, 2898, 3189, 3028, 66626, 67450, 2935}}},
      {16, StructureKind::kRPlus,
       {392,
        {85, 80, 94, 105, 263, 274, 89},
        {119, 106, 1205, 1297, 3810, 3943, 38},
        {2564, 2527, 2888, 3027, 58342, 59833, 2789}}},
      {16, StructureKind::kPmr,
       {272,
        {71, 61, 138, 157, 288, 313, 81},
        {164, 145, 533, 570, 3969, 4030, 202},
        {50, 50, 611, 565, 1727, 1693, 109}}},
      {2, StructureKind::kRStar,
       {14597,
        {192, 191, 208, 201, 4394, 4461, 193},
        {119, 106, 1461, 1324, 4066, 3970, 38},
        {2927, 2898, 3189, 3028, 66626, 67450, 2935}}},
      {2, StructureKind::kRPlus,
       {10634,
        {157, 154, 178, 187, 3616, 3661, 169},
        {119, 106, 1205, 1297, 3810, 3943, 38},
        {2564, 2527, 2888, 3027, 58342, 59833, 2789}}},
      {2, StructureKind::kPmr,
       {65267,
        {305, 306, 3562, 3283, 10379, 10174, 657},
        {164, 145, 533, 570, 3969, 4030, 202},
        {50, 50, 611, 565, 1727, 1693, 109}}},
  };
  const PolygonalMap map = SmallCounty();
  for (uint32_t frames : {16u, 2u}) {
    ExperimentOptions opt = SmallExperiment();
    opt.index.buffer_frames = frames;
    Experiment exp(map, opt);
    ASSERT_TRUE(exp.BuildAll().ok());
    std::vector<QueryStats> stats;
    ASSERT_TRUE(exp.RunAllQueries(&stats).ok());
    const double n = opt.num_queries;
    for (StructureKind kind : {StructureKind::kRStar, StructureKind::kRPlus,
                               StructureKind::kPmr}) {
      PaperCounts got;
      for (const BuildStats& st : exp.build_stats()) {
        if (st.kind == kind) got.build_disk_accesses = st.disk_accesses;
      }
      for (const QueryStats& qs : stats) {
        if (qs.kind != kind) continue;
        const size_t w = static_cast<size_t>(qs.workload);
        got.disk_accesses[w] = std::llround(qs.disk_accesses * n);
        got.segment_comps[w] = std::llround(qs.segment_comps * n);
        got.bbox_bucket_comps[w] = std::llround(
            (kind == StructureKind::kPmr ? qs.bucket_comps : qs.bbox_comps) *
            n);
      }
      const PaperCounts* want = nullptr;
      for (const Golden& g : kGolden) {
        if (g.frames == frames && g.kind == kind) want = &g.counts;
      }
      if (want == nullptr) {
        ADD_FAILURE() << StructureName(kind) << " at " << frames
                      << " frames has no golden; actual:\n"
                      << FormatCounts(got);
        continue;
      }
      EXPECT_EQ(got, *want) << StructureName(kind) << " at " << frames
                            << " frames; actual:\n"
                            << FormatCounts(got);
    }
  }
}

TEST(ExperimentTest, FewerBufferFramesMeanMoreDiskAccesses) {
  const PolygonalMap map = SmallCounty();
  IndexOptions small = SmallExperiment().index;
  small.buffer_frames = 4;
  IndexOptions big = SmallExperiment().index;
  big.buffer_frames = 64;
  auto a = Experiment::BuildOne(map, StructureKind::kPmr, small);
  auto b = Experiment::BuildOne(map, StructureKind::kPmr, big);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(a->disk_accesses, b->disk_accesses);
}

}  // namespace
}  // namespace lsdb
