// Bulk-loading subsystem (src/lsdb/build/): the B-tree packer, the Hilbert
// key underlying R* packing, and — the load-bearing property — that every
// bulk-built structure answers queries exactly like its incrementally
// built twin, on a seeded ~10k-segment county map. Also covers mutation
// after Thaw(): bulk builds pack nodes to 100% fill, and a subsequent
// Insert must split such nodes, not trip capacity asserts.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "lsdb/btree/btree.h"
#include "lsdb/build/bulk_loader.h"
#include "lsdb/data/county_generator.h"
#include "lsdb/geom/morton.h"
#include "lsdb/grid/uniform_grid.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/service/query_service.h"
#include "test_util.h"

namespace lsdb {
namespace {

using testing::BruteForceIndex;
using testing::Ids;
using testing::RandomSegments;
using testing::Sorted;

// ---------------------------------------------------------------------------
// BTree::BulkLoad

struct BTreeFixture {
  explicit BTreeFixture(uint32_t payload_size = 0, uint32_t page_size = 128)
      : file(page_size), pool(&file, 16, &metrics), tree(&pool, payload_size) {
    EXPECT_TRUE(tree.Init().ok());
  }
  MetricCounters metrics;
  MemPageFile file;
  BufferPool pool;
  BTree tree;
};

std::vector<uint64_t> AscendingKeys(size_t n, uint64_t stride = 3) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = 10 + i * stride;
  return keys;
}

TEST(BulkLoadTest, BTreeMatchesIncrementalInserts) {
  const std::vector<uint64_t> keys = AscendingKeys(500);
  BTreeFixture bulk, inc;
  ASSERT_TRUE(bulk.tree.BulkLoad(keys, nullptr).ok());
  for (uint64_t k : keys) ASSERT_TRUE(inc.tree.Insert(k).ok());

  EXPECT_EQ(bulk.tree.size(), inc.tree.size());
  EXPECT_TRUE(bulk.tree.CheckInvariants().ok());
  for (uint64_t k : keys) {
    auto c = bulk.tree.Contains(k);
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE(*c) << k;
  }
  auto miss = bulk.tree.Contains(11);  // between keys
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(*miss);

  // Scans agree record for record.
  std::vector<uint64_t> got_bulk, got_inc;
  ASSERT_TRUE(bulk.tree
                  .Scan(0, ~0ull,
                        [&](uint64_t k, const uint8_t*) {
                          got_bulk.push_back(k);
                          return true;
                        })
                  .ok());
  ASSERT_TRUE(inc.tree
                  .Scan(0, ~0ull,
                        [&](uint64_t k, const uint8_t*) {
                          got_inc.push_back(k);
                          return true;
                        })
                  .ok());
  EXPECT_EQ(got_bulk, keys);
  EXPECT_EQ(got_inc, keys);

  // Left-to-right packing at 100% fill never takes more pages than the
  // half-full pages that repeated splitting converges to.
  EXPECT_LE(bulk.tree.live_pages(), inc.tree.live_pages());
}

TEST(BulkLoadTest, BTreeCarriesPayloads) {
  const std::vector<uint64_t> keys = AscendingKeys(200);
  std::vector<uint8_t> payloads(keys.size() * 8);
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t v = keys[i] * keys[i];
    std::memcpy(&payloads[i * 8], &v, 8);
  }
  BTreeFixture f(/*payload_size=*/8);
  ASSERT_TRUE(f.tree.BulkLoad(keys, payloads.data()).ok());
  size_t seen = 0;
  ASSERT_TRUE(f.tree
                  .Scan(0, ~0ull,
                        [&](uint64_t k, const uint8_t* p) {
                          uint64_t v = 0;
                          std::memcpy(&v, p, 8);
                          EXPECT_EQ(v, k * k);
                          ++seen;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(seen, keys.size());
  EXPECT_TRUE(f.tree.CheckInvariants().ok());
}

TEST(BulkLoadTest, BTreeFillFactorTradesPagesForSlack) {
  const std::vector<uint64_t> keys = AscendingKeys(600);
  BTreeFixture full, half;
  ASSERT_TRUE(full.tree.BulkLoad(keys, nullptr, 1.0).ok());
  ASSERT_TRUE(half.tree.BulkLoad(keys, nullptr, 0.5).ok());
  EXPECT_TRUE(full.tree.CheckInvariants().ok());
  EXPECT_TRUE(half.tree.CheckInvariants().ok());
  EXPECT_EQ(full.tree.size(), keys.size());
  EXPECT_EQ(half.tree.size(), keys.size());
  EXPECT_LT(full.tree.live_pages(), half.tree.live_pages());
  for (uint64_t k : {keys.front(), keys[keys.size() / 2], keys.back()}) {
    auto c = half.tree.Contains(k);
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE(*c);
  }
}

TEST(BulkLoadTest, BTreeRejectsBadInputs) {
  BTreeFixture f;
  // Not strictly ascending.
  EXPECT_TRUE(f.tree.BulkLoad({3, 3, 4}, nullptr).IsInvalidArgument());
  EXPECT_TRUE(f.tree.BulkLoad({5, 4}, nullptr).IsInvalidArgument());
  // Empty load is a no-op.
  ASSERT_TRUE(f.tree.BulkLoad({}, nullptr).ok());
  EXPECT_EQ(f.tree.size(), 0u);
  // Non-fresh tree.
  ASSERT_TRUE(f.tree.Insert(1).ok());
  EXPECT_TRUE(f.tree.BulkLoad({2, 3}, nullptr).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Hilbert keys (leaf ordering of the R* packer)

TEST(BulkLoadTest, HilbertOrderOneIsTheBaseCurve) {
  EXPECT_EQ(HilbertEncode(1, 0, 0), 0u);
  EXPECT_EQ(HilbertEncode(1, 0, 1), 1u);
  EXPECT_EQ(HilbertEncode(1, 1, 1), 2u);
  EXPECT_EQ(HilbertEncode(1, 1, 0), 3u);
}

TEST(BulkLoadTest, HilbertIsABijectionWithAdjacentSteps) {
  // Order 4: every index 0..255 hit exactly once, and consecutive indexes
  // are 4-neighbors — the property that makes Hilbert-sorted leaf runs
  // spatially tight.
  constexpr uint32_t kOrder = 4, kSide = 1u << kOrder;
  std::vector<int> x_of(kSide * kSide, -1), y_of(kSide * kSide, -1);
  for (uint32_t y = 0; y < kSide; ++y) {
    for (uint32_t x = 0; x < kSide; ++x) {
      const uint64_t d = HilbertEncode(kOrder, x, y);
      ASSERT_LT(d, kSide * kSide);
      ASSERT_EQ(x_of[d], -1) << "index " << d << " hit twice";
      x_of[d] = static_cast<int>(x);
      y_of[d] = static_cast<int>(y);
    }
  }
  for (uint32_t d = 1; d < kSide * kSide; ++d) {
    const int manhattan =
        std::abs(x_of[d] - x_of[d - 1]) + std::abs(y_of[d] - y_of[d - 1]);
    EXPECT_EQ(manhattan, 1) << "jump between " << d - 1 << " and " << d;
  }
}

// ---------------------------------------------------------------------------
// Bulk vs incremental equivalence on a county map (all three structures)

struct IndexPair {
  std::unique_ptr<MemPageFile> inc_file, bulk_file;
  std::unique_ptr<SpatialIndex> inc, bulk;
};

struct EquivRig {
  explicit EquivRig(const IndexOptions& opt)
      : options(opt),
        seg_file(opt.page_size),
        seg_pool(&seg_file, opt.buffer_frames, nullptr),
        table(&seg_pool) {}

  template <typename T>
  IndexPair Make() {
    IndexPair p;
    p.inc_file = std::make_unique<MemPageFile>(options.page_size);
    p.bulk_file = std::make_unique<MemPageFile>(options.page_size);
    auto inc = std::make_unique<T>(options, p.inc_file.get(), &table);
    auto bulk = std::make_unique<T>(options, p.bulk_file.get(), &table);
    EXPECT_TRUE(inc->Init().ok());
    EXPECT_TRUE(bulk->Init().ok());
    p.inc = std::move(inc);
    p.bulk = std::move(bulk);
    return p;
  }

  IndexOptions options;
  MemPageFile seg_file;
  BufferPool seg_pool;
  SegmentTable table;
};

std::vector<SegmentId> WindowIds(SpatialIndex* idx, const Rect& w) {
  std::vector<SegmentHit> hits;
  EXPECT_TRUE(idx->WindowQueryEx(w, &hits).ok()) << idx->Name();
  return Sorted(Ids(hits));
}

/// Seeded windows, point queries, and nearest probes must agree between
/// the two builds (nearest by distance: equidistant ties may resolve to
/// different ids even between two correct indexes).
void ExpectSameAnswers(SpatialIndex* inc, SpatialIndex* bulk,
                       uint32_t world_log2, uint32_t queries) {
  Rng rng(0xB17);
  const Coord world = Coord{1} << world_log2;
  for (uint32_t i = 0; i < queries; ++i) {
    const Coord x = static_cast<Coord>(rng.Uniform(world));
    const Coord y = static_cast<Coord>(rng.Uniform(world));
    const Coord wx = static_cast<Coord>(1 + rng.Uniform(world / 8));
    const Coord wy = static_cast<Coord>(1 + rng.Uniform(world / 8));
    const Rect w = Rect::Of(x, y, std::min<Coord>(world, x + wx),
                            std::min<Coord>(world, y + wy));
    EXPECT_EQ(WindowIds(inc, w), WindowIds(bulk, w)) << inc->Name();
    const Rect pt = Rect::Of(x, y, x, y);
    EXPECT_EQ(WindowIds(inc, pt), WindowIds(bulk, pt)) << inc->Name();
    auto ni = inc->Nearest(Point{x, y});
    auto nb = bulk->Nearest(Point{x, y});
    ASSERT_TRUE(ni.ok() && nb.ok()) << inc->Name();
    EXPECT_EQ(ni->squared_distance, nb->squared_distance) << inc->Name();
  }
}

PolygonalMap TenKCountyMap() {
  // Stock profiles produce ~45k segments; a 30-cell lattice lands ~10k.
  CountyProfile p = MarylandProfiles()[0];
  p.name = "equiv-10k";
  p.lattice = 30;
  return GenerateCounty(p, 14);
}

TEST(BulkLoadTest, CountyMapEquivalenceAllStructures) {
  const PolygonalMap map = TenKCountyMap();
  ASSERT_GE(map.segments.size(), 9000u);

  IndexOptions opt;  // paper defaults: 1K pages, 16 frames, world 2^14
  EquivRig rig(opt);
  BulkItems items;
  for (SegmentId id = 0; id < map.segments.size(); ++id) {
    auto got = rig.table.Append(map.segments[id]);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, id);
    items.emplace_back(id, map.segments[id]);
  }

  IndexPair pairs[] = {rig.Make<RStarTree>(), rig.Make<RPlusTree>(),
                       rig.Make<PmrQuadtree>()};
  for (IndexPair& p : pairs) {
    for (const auto& [id, seg] : items) {
      ASSERT_TRUE(p.inc->Insert(id, seg).ok()) << p.inc->Name();
    }
    ASSERT_TRUE(BulkLoad(p.bulk.get(), items).ok()) << p.bulk->Name();
    const Status inv = p.bulk->CheckInvariants();
    EXPECT_TRUE(inv.ok()) << p.bulk->Name() << ": " << inv.ToString();
    ExpectSameAnswers(p.inc.get(), p.bulk.get(), opt.world_log2, 60);
  }
}

TEST(BulkLoadTest, DispatchFallsBackToInsertForGrid) {
  IndexOptions opt;
  opt.world_log2 = 10;
  EquivRig rig(opt);
  Rng rng(21);
  BulkItems items;
  for (const Segment& s : RandomSegments(&rng, 200, 1 << 10, 64)) {
    auto id = rig.table.Append(s);
    ASSERT_TRUE(id.ok());
    items.emplace_back(*id, s);
  }
  MemPageFile file(opt.page_size);
  UniformGrid grid(opt, &file, &rig.table);
  ASSERT_TRUE(grid.Init().ok());
  ASSERT_TRUE(BulkLoad(&grid, items).ok());
  EXPECT_EQ(WindowIds(&grid, Rect::Of(0, 0, 1 << 10, 1 << 10)).size(),
            items.size());
}

TEST(BulkLoadTest, EmptyAndTinyLoads) {
  IndexOptions opt;
  opt.world_log2 = 10;
  EquivRig rig(opt);
  const Segment s{Point{5, 5}, Point{100, 80}};
  auto id = rig.table.Append(s);
  ASSERT_TRUE(id.ok());

  auto rstar = rig.Make<RStarTree>();
  auto rplus = rig.Make<RPlusTree>();
  auto pmr = rig.Make<PmrQuadtree>();
  for (SpatialIndex* idx : {rstar.bulk.get(), rplus.bulk.get(),
                            pmr.bulk.get()}) {
    ASSERT_TRUE(BulkLoad(idx, {}).ok()) << idx->Name();
    EXPECT_TRUE(idx->CheckInvariants().ok()) << idx->Name();
    EXPECT_TRUE(WindowIds(idx, Rect::Of(0, 0, 1023, 1023)).empty());
  }
  for (SpatialIndex* idx : {rstar.inc.get(), rplus.inc.get(),
                            pmr.inc.get()}) {
    ASSERT_TRUE(BulkLoad(idx, {{*id, s}}).ok()) << idx->Name();
    EXPECT_TRUE(idx->CheckInvariants().ok()) << idx->Name();
    EXPECT_EQ(WindowIds(idx, Rect::Of(0, 0, 1023, 1023)),
              std::vector<SegmentId>{*id});
  }
}

TEST(BulkLoadTest, BuildersRejectBadInputs) {
  IndexOptions opt;
  opt.world_log2 = 10;
  EquivRig rig(opt);
  const Segment inside{Point{1, 1}, Point{50, 60}};
  const Segment outside{Point{2000, 2000}, Point{2100, 2100}};

  // Non-empty tree.
  auto rstar = rig.Make<RStarTree>();
  ASSERT_TRUE(rstar.bulk->Insert(0, inside).ok());
  EXPECT_TRUE(
      BulkLoad(rstar.bulk.get(), {{1, inside}}).IsInvalidArgument());

  // Item outside the world rectangle.
  auto rplus = rig.Make<RPlusTree>();
  EXPECT_TRUE(
      BulkLoad(rplus.bulk.get(), {{0, outside}}).IsInvalidArgument());
  auto pmr = rig.Make<PmrQuadtree>();
  EXPECT_TRUE(BulkLoad(pmr.bulk.get(), {{0, outside}}).IsInvalidArgument());

  // PMR sentinel id collision.
  EXPECT_TRUE(BulkLoad(pmr.bulk.get(), {{kInvalidSegmentId, inside}})
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Bulk-built indexes behind the query service

TEST(BulkLoadTest, QueryServiceServesBulkBuiltIndexes) {
  CountyProfile p;
  p.name = "bulk-service";
  p.lattice = 14;
  p.meander_steps = 4;
  const PolygonalMap map = GenerateCounty(p, 14);

  ServiceOptions inc_opt;
  inc_opt.num_threads = 2;
  ServiceOptions bulk_opt = inc_opt;
  bulk_opt.bulk_build = true;
  auto inc = QueryService::Build(map, inc_opt);
  auto bulk = QueryService::Build(map, bulk_opt);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  ASSERT_TRUE(bulk.ok()) << bulk.status().ToString();

  Rng rng(0x5E);
  std::vector<QueryRequest> batch;
  const Coord world = Coord{1} << 14;
  for (int i = 0; i < 40; ++i) {
    const Coord x = static_cast<Coord>(rng.Uniform(world));
    const Coord y = static_cast<Coord>(rng.Uniform(world));
    batch.push_back(QueryRequest::WindowQ(
        Rect::Of(x, y, std::min<Coord>(world, x + 400),
                 std::min<Coord>(world, y + 300))));
    batch.push_back(QueryRequest::PointQ(Point{x, y}));
    batch.push_back(QueryRequest::NearestQ(Point{x, y}));
  }
  for (ServedIndex which : kAllServedIndexes) {
    EXPECT_TRUE((*bulk)->index(which)->frozen());
    auto ri = (*inc)->ExecuteBatch(which, batch);
    auto rb = (*bulk)->ExecuteBatch(which, batch);
    ASSERT_TRUE(ri.ok() && rb.ok()) << ServedIndexName(which);
    ASSERT_EQ(ri->responses.size(), rb->responses.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const QueryResponse& a = ri->responses[i];
      const QueryResponse& b = rb->responses[i];
      ASSERT_EQ(a.status.ok(), b.status.ok()) << ServedIndexName(which);
      if (!a.status.ok()) continue;
      if (batch[i].type == QueryType::kNearest) {
        EXPECT_EQ(a.nearest.squared_distance, b.nearest.squared_distance)
            << ServedIndexName(which);
      } else {
        EXPECT_EQ(Sorted(Ids(a.hits)), Sorted(Ids(b.hits)))
            << ServedIndexName(which) << " query " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation after Thaw(): bulk builds pack nodes to 100% fill, and the
// incremental machinery must split them rather than assert.

TEST(BulkLoadTest, MutationAfterThawOnBulkBuiltTrees) {
  IndexOptions opt;
  opt.page_size = 256;  // small fanout: splits trigger quickly
  opt.world_log2 = 12;
  EquivRig rig(opt);
  Rng rng(0xF0);
  const Coord world = Coord{1} << opt.world_log2;

  std::vector<Segment> base = RandomSegments(&rng, 1500, world, 96);
  std::vector<Segment> extra = RandomSegments(&rng, 400, world, 96);
  BulkItems items;
  for (const Segment& s : base) {
    auto id = rig.table.Append(s);
    ASSERT_TRUE(id.ok());
    items.emplace_back(*id, s);
  }

  IndexPair pairs[] = {rig.Make<RStarTree>(), rig.Make<RPlusTree>(),
                       rig.Make<PmrQuadtree>()};
  BruteForceIndex brute;
  for (const auto& [id, seg] : items) ASSERT_TRUE(brute.Insert(id, seg).ok());

  std::vector<std::pair<SegmentId, Segment>> extras;
  for (const Segment& s : extra) {
    auto id = rig.table.Append(s);
    ASSERT_TRUE(id.ok());
    extras.emplace_back(*id, s);
  }

  for (IndexPair& p : pairs) {
    SpatialIndex* idx = p.bulk.get();
    ASSERT_TRUE(BulkLoad(idx, items).ok()) << idx->Name();

    // Round-trip through serving mode, then mutate the packed tree.
    ASSERT_TRUE(idx->Freeze().ok()) << idx->Name();
    EXPECT_TRUE(idx->Insert(extras[0].first, extras[0].second)
                    .IsInvalidArgument())
        << idx->Name();
    idx->Thaw();
  }

  BruteForceIndex mutated;
  // Inserts split 100%-full nodes; erase a third of the originals to
  // exercise condensation on the packed layout too.
  for (const auto& [id, seg] : extras) ASSERT_TRUE(mutated.Insert(id, seg).ok());
  for (size_t i = 0; i < items.size(); ++i) {
    if (i % 3 == 0) continue;
    ASSERT_TRUE(mutated.Insert(items[i].first, items[i].second).ok());
  }
  for (IndexPair& p : pairs) {
    SpatialIndex* idx = p.bulk.get();
    for (const auto& [id, seg] : extras) {
      ASSERT_TRUE(idx->Insert(id, seg).ok()) << idx->Name();
    }
    for (size_t i = 0; i < items.size(); i += 3) {
      ASSERT_TRUE(idx->Erase(items[i].first, items[i].second).ok())
          << idx->Name();
    }
    const Status inv = idx->CheckInvariants();
    EXPECT_TRUE(inv.ok()) << idx->Name() << ": " << inv.ToString();

    Rng qrng(0xC3);
    for (int q = 0; q < 40; ++q) {
      const Coord x = static_cast<Coord>(qrng.Uniform(world));
      const Coord y = static_cast<Coord>(qrng.Uniform(world));
      const Coord wx = static_cast<Coord>(1 + qrng.Uniform(world / 4));
      const Coord wy = static_cast<Coord>(1 + qrng.Uniform(world / 4));
      const Rect w = Rect::Of(x, y, std::min<Coord>(world, x + wx),
                              std::min<Coord>(world, y + wy));
      std::vector<SegmentHit> want;
      ASSERT_TRUE(mutated.WindowQueryEx(w, &want).ok());
      EXPECT_EQ(WindowIds(idx, w), Sorted(Ids(want))) << idx->Name();
    }
  }
}

}  // namespace
}  // namespace lsdb
