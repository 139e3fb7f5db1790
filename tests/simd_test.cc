// SIMD kernel and scan-cache tests: the differential fuzz suite that pins
// every compiled ISA to the scalar oracle, the frozen-node-cache
// equivalence/counter-identity suite for R* and R+, the Table 1/2
// byte-equivalence run with SIMD forced on, and the throughput-mode
// QueryService equivalence test.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "lsdb/data/county_generator.h"
#include "lsdb/harness/experiment.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/service/query_service.h"
#include "lsdb/simd/simd.h"
#include "lsdb/util/random.h"
#include "test_util.h"

namespace lsdb {
namespace {

using testing::Ids;
using testing::RandomSegments;
using testing::Sorted;

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

// -- Frozen scan cache: equivalence and counter identity ---------------------

/// In-memory R* tree over a small random table (mirrors rstar_test.cc's
/// fixture; redeclared here because that one lives in its own anonymous
/// namespace).
struct RStarFixtureForSimd {
  RStarFixtureForSimd()
      : options(SmallOptions()),
        seg_file(options.page_size),
        seg_pool(&seg_file, options.buffer_frames, nullptr),
        table(&seg_pool, nullptr),
        file(options.page_size),
        tree(options, &file, &table) {
    EXPECT_TRUE(tree.Init().ok());
  }

  static IndexOptions SmallOptions() {
    IndexOptions opt;
    opt.page_size = 256;  // M = 12: forces a multi-level tree at 800 segs
    opt.world_log2 = 10;
    return opt;
  }

  void Add(const Segment& s) {
    auto id = table.Append(s);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(tree.Insert(*id, s).ok());
  }

  IndexOptions options;
  MemPageFile seg_file;
  BufferPool seg_pool;
  SegmentTable table;
  MemPageFile file;
  RStarTree tree;
};

/// Same, for R+ (whose leaves add overflow chains to the cache walk).
struct RPlusFixtureForSimd {
  RPlusFixtureForSimd()
      : options(RStarFixtureForSimd::SmallOptions()),
        seg_file(options.page_size),
        seg_pool(&seg_file, options.buffer_frames, nullptr),
        table(&seg_pool, nullptr),
        file(options.page_size),
        tree(options, &file, &table, RPlusSplitPolicy::kMinCut) {
    EXPECT_TRUE(tree.Init().ok());
  }

  void Add(const Segment& s) {
    auto id = table.Append(s);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(tree.Insert(*id, s).ok());
  }

  IndexOptions options;
  MemPageFile seg_file;
  BufferPool seg_pool;
  SegmentTable table;
  MemPageFile file;
  RPlusTree tree;
};

/// Window/nearest workload against one index; returns sorted ids per query
/// and the counter delta the workload produced.
struct WorkloadResult {
  std::vector<std::vector<SegmentId>> window_hits;
  std::vector<std::vector<SegmentId>> batch_hits;
  std::vector<SegmentId> nearest_ids;
  MetricCounters delta;
};

std::vector<Rect> FuzzWindows(uint64_t seed, size_t n, Coord world) {
  Rng rng(seed);
  std::vector<Rect> ws;
  ws.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Coord x = static_cast<Coord>(rng.Uniform(world));
    const Coord y = static_cast<Coord>(rng.Uniform(world));
    const Coord dx = static_cast<Coord>(rng.Uniform(world / 4));
    const Coord dy = static_cast<Coord>(rng.Uniform(world / 4));
    ws.push_back(Rect::Of(x, y, x + dx, y + dy));
  }
  // Edge cases: degenerate point window, whole world, empty (inverted).
  ws.push_back(Rect::Of(world / 2, world / 2, world / 2, world / 2));
  ws.push_back(Rect::Of(0, 0, world, world));
  ws.push_back(Rect{});  // default: empty
  return ws;
}

WorkloadResult RunWorkload(SpatialIndex* idx, const std::vector<Rect>& ws,
                           Coord world) {
  WorkloadResult r;
  const MetricCounters before = idx->metrics();
  for (const Rect& w : ws) {
    std::vector<SegmentHit> hits;
    EXPECT_TRUE(idx->WindowQueryEx(w, &hits).ok());
    r.window_hits.push_back(Sorted(Ids(hits)));
  }
  std::vector<std::vector<SegmentHit>> outs;
  EXPECT_TRUE(idx->WindowQueryBatch(ws, &outs).ok());
  for (const auto& hits : outs) r.batch_hits.push_back(Sorted(Ids(hits)));
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const Point p{static_cast<Coord>(rng.Uniform(world)),
                  static_cast<Coord>(rng.Uniform(world))};
    auto nn = idx->Nearest(p);
    EXPECT_TRUE(nn.ok());
    r.nearest_ids.push_back(nn.ok() ? nn->id : kInvalidSegmentId);
  }
  r.delta = idx->metrics() - before;
  return r;
}

template <typename Fixture>
void ScanCacheEquivalenceImpl() {
  Fixture f;
  Rng rng(31);
  for (const Segment& s : RandomSegments(&rng, 800, 1024, 96)) f.Add(s);
  ASSERT_TRUE(f.tree.Freeze().ok());
  const std::vector<Rect> ws = FuzzWindows(7, 120, 1024);

  ASSERT_FALSE(f.tree.scan_cache_enabled());
  const WorkloadResult pool = RunWorkload(&f.tree, ws, 1024);

  // Counter purity: building the cache walks every page but must not move
  // the index-owned paper counters.
  const MetricCounters pre_build = f.tree.metrics();
  ASSERT_TRUE(f.tree.BuildScanCache().ok());
  ASSERT_TRUE(f.tree.scan_cache_enabled());
  const MetricCounters build_delta = f.tree.metrics() - pre_build;
  EXPECT_EQ(build_delta.page_fetches, 0u);
  EXPECT_EQ(build_delta.disk_reads, 0u);
  EXPECT_EQ(build_delta.bbox_comps, 0u);
  EXPECT_EQ(build_delta.segment_comps, 0u);

  const WorkloadResult cached = RunWorkload(&f.tree, ws, 1024);

  // Identical results...
  ASSERT_EQ(cached.window_hits, pool.window_hits);
  ASSERT_EQ(cached.batch_hits, pool.batch_hits);
  ASSERT_EQ(cached.nearest_ids, pool.nearest_ids);
  // ...and identical logical work: the cache changes where bytes come from
  // (no pool traffic), never how many rectangles/segments are examined.
  EXPECT_EQ(cached.delta.bbox_comps, pool.delta.bbox_comps);
  EXPECT_EQ(cached.delta.segment_comps, pool.delta.segment_comps);
  EXPECT_EQ(cached.delta.page_fetches, 0u);
  EXPECT_GT(pool.delta.page_fetches, 0u);

  // Thaw drops the cache (it is a view of the frozen tree).
  f.tree.Thaw();
  EXPECT_FALSE(f.tree.scan_cache_enabled());
  const WorkloadResult thawed = RunWorkload(&f.tree, ws, 1024);
  EXPECT_EQ(thawed.window_hits, pool.window_hits);
  EXPECT_GT(thawed.delta.page_fetches, 0u);
}

TEST(ScanCacheTest, RStarCachedScansMatchPoolScansBitForBit) {
  ScanCacheEquivalenceImpl<RStarFixtureForSimd>();
}

TEST(ScanCacheTest, RPlusCachedScansMatchPoolScansBitForBit) {
  ScanCacheEquivalenceImpl<RPlusFixtureForSimd>();
}

TEST(ScanCacheTest, BuildRequiresFrozenTree) {
  RStarFixtureForSimd f;
  f.Add(Segment{{10, 10}, {40, 40}});
  EXPECT_FALSE(f.tree.BuildScanCache().ok());
  EXPECT_FALSE(f.tree.scan_cache_enabled());
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
/// which ISA the simd layer dispatches to: the sequential harness never
/// builds a scan cache, and the vector kernels are bit-equal to scalar
/// anyway. Catches any accidental wiring of SIMD into the metrics path.
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

// -- Throughput mode: grouped batches answer exactly like default mode -------

std::vector<QueryRequest> SimdMixedBatch(const PolygonalMap& map, size_t n,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryRequest> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Segment& s =
        map.segments[rng.Uniform(static_cast<uint32_t>(map.segments.size()))];
    switch (i % 4) {
      case 0:
        batch.push_back(QueryRequest::PointQ(s.a));
        break;
      case 1: {
        const Coord x = static_cast<Coord>(rng.Uniform(3500));
        const Coord y = static_cast<Coord>(rng.Uniform(3500));
        batch.push_back(
            QueryRequest::WindowQ(Rect::Of(x, y, x + 400, y + 400)));
        break;
      }
      case 2:
        batch.push_back(QueryRequest::NearestQ(
            Point{static_cast<Coord>(rng.Uniform(4096)),
                  static_cast<Coord>(rng.Uniform(4096))}));
        break;
      default:
        batch.push_back(QueryRequest::IncidentQ(s.b));
        break;
    }
  }
  return batch;
}

TEST(ThroughputModeTest, GroupedBatchesMatchDefaultModeResponses) {
  CountyProfile p;
  p.name = "throughput-test";
  p.lattice = 12;
  p.meander_steps = 5;
  p.seed = 5;
  const PolygonalMap map = GenerateCounty(p, 12);

  ServiceOptions base;
  base.num_threads = 2;
  auto plain = QueryService::Build(map, base);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  ServiceOptions tput = base;
  tput.throughput_mode = true;
  auto grouped = QueryService::Build(map, tput);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();

  // Throughput mode arms the scan caches on the tree indexes (PMR has none).
  EXPECT_TRUE((*grouped)->index(ServedIndex::kRStar)->scan_cache_enabled());
  EXPECT_TRUE((*grouped)->index(ServedIndex::kRPlus)->scan_cache_enabled());
  EXPECT_FALSE((*plain)->index(ServedIndex::kRStar)->scan_cache_enabled());

  const auto batch = SimdMixedBatch(map, 600, 77);
  for (ServedIndex which : kAllServedIndexes) {
    auto seq = (*plain)->ExecuteBatchSequential(which, batch);
    ASSERT_TRUE(seq.ok()) << ServedIndexName(which);
    auto def = (*plain)->ExecuteBatch(which, batch);
    ASSERT_TRUE(def.ok()) << ServedIndexName(which);
    auto grp = (*grouped)->ExecuteBatch(which, batch);
    ASSERT_TRUE(grp.ok()) << ServedIndexName(which);
    EXPECT_TRUE(SameResponses(*def, *seq)) << ServedIndexName(which);
    EXPECT_TRUE(SameResponses(*grp, *seq)) << ServedIndexName(which);
  }
}

}  // namespace
}  // namespace lsdb
