// SIMD kernel tests: the differential fuzz suite that pins every compiled
// ISA to the scalar oracle, and the Table 1/2 byte-equivalence run with
// each ISA forced. No library code calls the kernels; they stay because the
// benchmark's environment header reports the ISA in use.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "lsdb/data/county_generator.h"
#include "lsdb/harness/experiment.h"
#include "lsdb/simd/simd.h"
#include "lsdb/util/random.h"

namespace lsdb {
namespace {

// -- Differential fuzz: every ISA vs the scalar oracle -----------------------

constexpr int32_t kI32Min = std::numeric_limits<int32_t>::min();
constexpr int32_t kI32Max = std::numeric_limits<int32_t>::max();

/// Hostile coordinate: int32 extremes, off-by-one neighbours, zero
/// crossings, and plain random values. The int32 domain has no NaN/inf;
/// these extremes plus inverted rectangles are the analogue.
int32_t HostileCoord(Rng* rng) {
  switch (rng->Uniform(8)) {
    case 0: return kI32Min;
    case 1: return kI32Min + 1;
    case 2: return kI32Max;
    case 3: return kI32Max - 1;
    case 4: return 0;
    case 5: return static_cast<int32_t>(rng->Uniform(7)) - 3;
    default:
      return static_cast<int32_t>(rng->Uniform(0x7fffffffu)) -
             0x3fffffff;
  }
}

/// Raw four-coordinate rectangle: roughly half inverted-empty, plus
/// degenerate lines/points and full-extreme boxes.
Rect HostileRect(Rng* rng) {
  Rect r{HostileCoord(rng), HostileCoord(rng), HostileCoord(rng),
         HostileCoord(rng)};
  switch (rng->Uniform(6)) {
    case 0:  // normalized (never empty)
      if (r.xmin > r.xmax) std::swap(r.xmin, r.xmax);
      if (r.ymin > r.ymax) std::swap(r.ymin, r.ymax);
      break;
    case 1:  // degenerate vertical line or point
      r.xmax = r.xmin;
      break;
    case 2:  // degenerate horizontal line or point
      r.ymax = r.ymin;
      break;
    case 3:  // the whole int32 plane
      r = Rect{kI32Min, kI32Min, kI32Max, kI32Max};
      break;
    default:  // raw: inverted on either axis with probability ~1/2 each
      break;
  }
  return r;
}

TEST(SimdTest, ScalarForceAlwaysAvailableAndUnknownIsaRejected) {
  const auto isas = simd::AvailableIsas();
  ASSERT_FALSE(isas.empty());
  // Scalar is always compiled and always runnable.
  bool has_scalar = false;
  for (simd::Isa isa : isas) has_scalar |= (isa == simd::Isa::kScalar);
  EXPECT_TRUE(has_scalar);
  EXPECT_TRUE(simd::ForceIsa(simd::Isa::kScalar));
  EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
  // An ISA this binary/CPU lacks must be refused without changing state.
  bool all_compiled = true;
  for (simd::Isa probe : {simd::Isa::kSse2, simd::Isa::kAvx2,
                          simd::Isa::kNeon}) {
    bool available = false;
    for (simd::Isa isa : isas) available |= (isa == probe);
    if (!available) {
      all_compiled = false;
      EXPECT_FALSE(simd::ForceIsa(probe)) << simd::IsaName(probe);
      EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
    }
  }
  if (all_compiled) {
    GTEST_LOG_(INFO) << "every ISA compiled+runnable; rejection not covered";
  }
  simd::ResetIsa();
  // The detected default is one of the available ISAs.
  bool active_listed = false;
  for (simd::Isa isa : isas) active_listed |= (isa == simd::ActiveIsa());
  EXPECT_TRUE(active_listed);
}

TEST(SimdTest, RectSoAPadsWithEmptySentinels) {
  simd::RectSoA soa;
  soa.Reset(5);
  EXPECT_EQ(soa.size(), 5u);
  EXPECT_EQ(soa.padded_size() % simd::RectSoA::kLanePad, 0u);
  EXPECT_GE(soa.padded_size(), 5u);
  EXPECT_EQ(soa.mask_words(), 1u);
  for (size_t i = 0; i < soa.padded_size(); ++i) {
    EXPECT_TRUE(soa.Get(i).empty()) << "lane " << i;
  }
  soa.Set(2, Rect::Of(1, 2, 3, 4));
  EXPECT_EQ(soa.Get(2), Rect::Of(1, 2, 3, 4));
  // Reset re-empties previously set lanes.
  soa.Reset(3);
  EXPECT_TRUE(soa.Get(2).empty());
}

/// 10k fuzzed batches through every compiled ISA, each checked against the
/// Rect::Intersects oracle lane by lane (including always-zero padding
/// bits). The scalar kernel calls Rect::Intersects, so matching the oracle
/// and matching scalar are the same assertion.
TEST(SimdTest, DifferentialFuzz10kBatchesAllIsasMatchOracle) {
  const std::vector<simd::Isa> isas = simd::AvailableIsas();
  ASSERT_FALSE(isas.empty());
  Rng rng(20260808);
  constexpr int kBatches = 10000;
  simd::RectSoA soa;
  std::vector<uint64_t> oracle_mask, isa_mask;
  for (int batch = 0; batch < kBatches; ++batch) {
    const size_t n = 1 + rng.Uniform(130);  // 1..130: 1-3 mask words
    soa.Reset(n);
    for (size_t i = 0; i < n; ++i) soa.Set(i, HostileRect(&rng));
    const Rect w = HostileRect(&rng);

    // Oracle: geom/rect.h, lane by lane; padding lanes must stay 0.
    oracle_mask.assign(soa.mask_words(), 0);
    for (size_t i = 0; i < n; ++i) {
      if (soa.Get(i).Intersects(w)) oracle_mask[i / 64] |= 1ull << (i % 64);
    }

    for (simd::Isa isa : isas) {
      ASSERT_TRUE(simd::ForceIsa(isa)) << simd::IsaName(isa);
      isa_mask.assign(soa.mask_words(), 0xffffffffffffffffull);  // dirty
      simd::IntersectMask(soa, w, isa_mask.data());
      for (size_t word = 0; word < soa.mask_words(); ++word) {
        ASSERT_EQ(isa_mask[word], oracle_mask[word])
            << simd::IsaName(isa) << " batch " << batch << " word " << word
            << " n=" << n << " w=[" << w.xmin << "," << w.ymin << ","
            << w.xmax << "," << w.ymax << "]";
      }
      if (n <= 64) {
        ASSERT_EQ(simd::IntersectMask64(soa, w), oracle_mask[0])
            << simd::IsaName(isa) << " batch " << batch;
      }
    }
  }
  simd::ResetIsa();
}

// -- Table 1/2 byte-equivalence with SIMD forced on --------------------------

PolygonalMap SimdCounty() {
  CountyProfile p;
  p.name = "simd-test";
  p.lattice = 16;
  p.meander_steps = 5;
  p.seed = 29;
  return GenerateCounty(p, 12);
}

/// The paper harness must produce bit-identical Table 1/2 numbers no matter
/// which ISA the simd layer dispatches to: no descent calls the kernels, and
/// they are bit-equal to scalar anyway. Catches any wiring of SIMD into the
/// metrics path that changes a count.
TEST(SimdTest, PaperTablesByteIdenticalAcrossIsas) {
  ExperimentOptions opt;
  opt.index.page_size = 512;
  opt.index.world_log2 = 12;
  opt.index.pmr_max_depth = 12;
  opt.num_queries = 40;
  const PolygonalMap map = SimdCounty();

  std::vector<std::vector<BuildStats>> builds;
  std::vector<std::vector<QueryStats>> queries;
  for (simd::Isa isa : simd::AvailableIsas()) {
    ASSERT_TRUE(simd::ForceIsa(isa));
    Experiment exp(map, opt);
    ASSERT_TRUE(exp.BuildAll().ok());
    std::vector<QueryStats> qs;
    ASSERT_TRUE(exp.RunAllQueries(&qs).ok());
    builds.push_back(exp.build_stats());
    queries.push_back(std::move(qs));
  }
  simd::ResetIsa();

  ASSERT_GE(builds.size(), 1u);
  for (size_t i = 1; i < builds.size(); ++i) {
    ASSERT_EQ(builds[i].size(), builds[0].size());
    for (size_t s = 0; s < builds[0].size(); ++s) {
      EXPECT_EQ(builds[i][s].bytes, builds[0][s].bytes);
      EXPECT_EQ(builds[i][s].disk_accesses, builds[0][s].disk_accesses);
      EXPECT_EQ(builds[i][s].avg_occupancy, builds[0][s].avg_occupancy);
      EXPECT_EQ(builds[i][s].height, builds[0][s].height);
      // cpu_seconds is wall time, deliberately not compared.
    }
    ASSERT_EQ(queries[i].size(), queries[0].size());
    for (size_t q = 0; q < queries[0].size(); ++q) {
      EXPECT_EQ(queries[i][q].disk_accesses, queries[0][q].disk_accesses);
      EXPECT_EQ(queries[i][q].segment_comps, queries[0][q].segment_comps);
      EXPECT_EQ(queries[i][q].bbox_comps, queries[0][q].bbox_comps);
      EXPECT_EQ(queries[i][q].bucket_comps, queries[0][q].bucket_comps);
      EXPECT_EQ(queries[i][q].avg_result_size, queries[0][q].avg_result_size);
    }
  }
}

}  // namespace
}  // namespace lsdb
