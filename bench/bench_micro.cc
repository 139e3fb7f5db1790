// Microbenchmarks (google-benchmark) for the substrate layers: geometry
// predicates, Morton coding, buffer pool, B-tree, and per-structure insert
// and query throughput on a mid-size synthetic map.

#include <benchmark/benchmark.h>

#include <memory>

#include "lsdb/btree/btree.h"
#include "lsdb/data/county_generator.h"
#include "lsdb/geom/clip.h"
#include "lsdb/geom/morton.h"
#include "lsdb/grid/uniform_grid.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/util/random.h"
#include "bench_util.h"

namespace lsdb {
namespace {

void BM_MortonEncode(benchmark::State& state) {
  Rng rng(1);
  uint32_t x = static_cast<uint32_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(MortonEncode(x & 0x3fff, (x >> 14) & 0x3fff));
    ++x;
  }
}
BENCHMARK(BM_MortonEncode);

void BM_SegmentIntersectsRect(benchmark::State& state) {
  Rng rng(2);
  std::vector<Segment> segs;
  std::vector<Rect> rects;
  for (int i = 0; i < 1024; ++i) {
    segs.push_back(Segment{{static_cast<Coord>(rng.Uniform(16384)),
                            static_cast<Coord>(rng.Uniform(16384))},
                           {static_cast<Coord>(rng.Uniform(16384)),
                            static_cast<Coord>(rng.Uniform(16384))}});
    const Coord x = static_cast<Coord>(rng.Uniform(16000));
    const Coord y = static_cast<Coord>(rng.Uniform(16000));
    rects.push_back(Rect::Of(x, y, x + 160, y + 160));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(segs[i & 1023].IntersectsRect(rects[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_SegmentIntersectsRect);

void BM_ClipSegment(benchmark::State& state) {
  Rng rng(3);
  const Rect r = Rect::Of(4000, 4000, 12000, 12000);
  std::vector<Segment> segs;
  for (int i = 0; i < 1024; ++i) {
    segs.push_back(Segment{{static_cast<Coord>(rng.Uniform(16384)),
                            static_cast<Coord>(rng.Uniform(16384))},
                           {static_cast<Coord>(rng.Uniform(16384)),
                            static_cast<Coord>(rng.Uniform(16384))}});
  }
  Segment out;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClipSegment(segs[i & 1023], r, &out));
    ++i;
  }
}
BENCHMARK(BM_ClipSegment);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  MemPageFile file(1024);
  BufferPool pool(&file, 16, nullptr);
  auto ref = pool.New();
  const PageId id = ref->id();
  ref->Release();
  for (auto _ : state) {
    auto r = pool.Fetch(id);
    benchmark::DoNotOptimize(r->data());
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(4);
  MemPageFile file(1024);
  BufferPool pool(&file, 64, nullptr);
  BTree tree(&pool);
  bench::CheckOk(tree.Init(), "BTree::Init");
  for (auto _ : state) {
    // Mostly-unique random keys; duplicates are rejected cheaply — that
    // benign error is the one Status deliberately dropped here.
    tree.Insert(rng.Next()).IgnoreError();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeSeekLE(benchmark::State& state) {
  Rng rng(5);
  MemPageFile file(1024);
  BufferPool pool(&file, 64, nullptr);
  BTree tree(&pool);
  bench::CheckOk(tree.Init(), "BTree::Init");
  // Duplicate keys are rejected with a benign error; everything else aborts.
  for (int i = 0; i < 100000; ++i) tree.Insert(rng.Next()).IgnoreError();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.SeekLE(rng.Next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeSeekLE);

/// Shared mid-size map for structure-level benchmarks.
const PolygonalMap& BenchMap() {
  static const PolygonalMap map = [] {
    CountyProfile p;
    p.name = "bench";
    p.lattice = 32;
    p.meander_steps = 6;
    p.seed = 4242;
    return GenerateCounty(p, 14);
  }();
  return map;
}

struct StructureRig {
  explicit StructureRig(int kind) {
    IndexOptions opt;
    seg_file = std::make_unique<MemPageFile>(opt.page_size);
    seg_pool = std::make_unique<BufferPool>(seg_file.get(), 16, nullptr);
    table = std::make_unique<SegmentTable>(seg_pool.get());
    for (const Segment& s : BenchMap().segments) {
      bench::CheckOk(table->Append(s).status(), "SegmentTable::Append");
    }
    file = std::make_unique<MemPageFile>(opt.page_size);
    switch (kind) {
      case 0: {
        auto t = std::make_unique<RStarTree>(opt, file.get(), table.get());
        bench::CheckOk(t->Init(), "SpatialIndex::Init");
        index = std::move(t);
        break;
      }
      case 1: {
        auto t = std::make_unique<RPlusTree>(opt, file.get(), table.get());
        bench::CheckOk(t->Init(), "SpatialIndex::Init");
        index = std::move(t);
        break;
      }
      case 2: {
        auto t = std::make_unique<PmrQuadtree>(opt, file.get(), table.get());
        bench::CheckOk(t->Init(), "SpatialIndex::Init");
        index = std::move(t);
        break;
      }
      default: {
        auto t = std::make_unique<UniformGrid>(opt, file.get(), table.get());
        bench::CheckOk(t->Init(), "SpatialIndex::Init");
        index = std::move(t);
        break;
      }
    }
  }

  void BuildAll() {
    for (SegmentId id = 0; id < BenchMap().segments.size(); ++id) {
      bench::CheckOk(index->Insert(id, BenchMap().segments[id]),
                     "SpatialIndex::Insert");
    }
  }

  std::unique_ptr<MemPageFile> seg_file, file;
  std::unique_ptr<BufferPool> seg_pool;
  std::unique_ptr<SegmentTable> table;
  std::unique_ptr<SpatialIndex> index;
};

void BM_StructureBuild(benchmark::State& state) {
  for (auto _ : state) {
    StructureRig rig(static_cast<int>(state.range(0)));
    rig.BuildAll();
    benchmark::DoNotOptimize(rig.index->bytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(BenchMap().segments.size()));
}
BENCHMARK(BM_StructureBuild)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_StructureWindowQuery(benchmark::State& state) {
  StructureRig rig(static_cast<int>(state.range(0)));
  rig.BuildAll();
  Rng rng(6);
  for (auto _ : state) {
    const Coord x = static_cast<Coord>(rng.Uniform(16384 - 160));
    const Coord y = static_cast<Coord>(rng.Uniform(16384 - 160));
    std::vector<SegmentHit> hits;
    bench::CheckOk(rig.index->WindowQueryEx(
                       Rect::Of(x, y, x + 160, y + 160), &hits),
                   "WindowQueryEx");
    benchmark::DoNotOptimize(hits.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StructureWindowQuery)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_StructureNearest(benchmark::State& state) {
  StructureRig rig(static_cast<int>(state.range(0)));
  rig.BuildAll();
  Rng rng(7);
  for (auto _ : state) {
    const Point p{static_cast<Coord>(rng.Uniform(16384)),
                  static_cast<Coord>(rng.Uniform(16384))};
    benchmark::DoNotOptimize(rig.index->Nearest(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StructureNearest)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
}  // namespace lsdb

BENCHMARK_MAIN();
