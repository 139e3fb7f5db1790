// lsdb_tool: command-line front end for the library.
//
//   lsdb_tool generate <county|demo> <out.rt1>   write a synthetic county
//                                                as TIGER/Line RT1 records
//   lsdb_tool stats <file.rt1>                   map statistics
//   lsdb_tool build <file.rt1> [index]           build + build statistics
//   lsdb_tool window <file.rt1> x0 y0 x1 y1 [index]
//   lsdb_tool nearest <file.rt1> x y [index]
//   lsdb_tool polygon <file.rt1> x y [index]
//   lsdb_tool compare <file.rt1>                 all structures side by side
//
// `index` is one of: pmr (default), rstar, rplus, grid. Coordinates are on
// the 16K x 16K normalized grid.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "lsdb/data/county_generator.h"
#include "lsdb/data/tiger.h"
#include "lsdb/grid/uniform_grid.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/query/polygon.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"

using namespace lsdb;  // NOLINT

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  lsdb_tool generate <county|demo> <out.rt1>\n"
      "  lsdb_tool stats <file.rt1>\n"
      "  lsdb_tool build <file.rt1> [pmr|rstar|rplus|grid]\n"
      "  lsdb_tool window <file.rt1> x0 y0 x1 y1 [index]\n"
      "  lsdb_tool nearest <file.rt1> x y [index]\n"
      "  lsdb_tool polygon <file.rt1> x y [index]\n"
      "  lsdb_tool compare <file.rt1>\n"
      "counties: AnneArundel Baltimore Cecil Charles Garrett Washington\n");
  return 2;
}

struct LoadedMap {
  PolygonalMap map;
  std::unique_ptr<MemPageFile> seg_file;
  std::unique_ptr<BufferPool> seg_pool;
  std::unique_ptr<SegmentTable> table;
  std::unique_ptr<MemPageFile> index_file;
  std::unique_ptr<SpatialIndex> index;
};

bool LoadMap(const std::string& path, LoadedMap* out) {
  auto rd = ReadTigerRT1(path);
  if (!rd.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 rd.status().ToString().c_str());
    return false;
  }
  out->map = rd->Normalize(14);
  out->map.SortSpatially();
  return true;
}

bool BuildIndex(LoadedMap* lm, const std::string& kind) {
  IndexOptions options;
  lm->seg_file = std::make_unique<MemPageFile>(options.page_size);
  lm->seg_pool = std::make_unique<BufferPool>(lm->seg_file.get(),
                                              options.buffer_frames, nullptr);
  lm->table = std::make_unique<SegmentTable>(lm->seg_pool.get());
  lm->index_file = std::make_unique<MemPageFile>(options.page_size);
  if (kind == "pmr") {
    auto t = std::make_unique<PmrQuadtree>(options, lm->index_file.get(),
                                           lm->table.get());
    if (!t->Init().ok()) return false;
    lm->index = std::move(t);
  } else if (kind == "rstar") {
    auto t = std::make_unique<RStarTree>(options, lm->index_file.get(),
                                         lm->table.get());
    if (!t->Init().ok()) return false;
    lm->index = std::move(t);
  } else if (kind == "rplus") {
    auto t = std::make_unique<RPlusTree>(options, lm->index_file.get(),
                                         lm->table.get());
    if (!t->Init().ok()) return false;
    lm->index = std::move(t);
  } else if (kind == "grid") {
    auto t = std::make_unique<UniformGrid>(options, lm->index_file.get(),
                                           lm->table.get());
    if (!t->Init().ok()) return false;
    lm->index = std::move(t);
  } else {
    std::fprintf(stderr, "unknown index kind %s\n", kind.c_str());
    return false;
  }
  for (const Segment& s : lm->map.segments) {
    auto id = lm->table->Append(s);
    if (!id.ok() || !lm->index->Insert(*id, s).ok()) {
      std::fprintf(stderr, "insert failed\n");
      return false;
    }
  }
  return true;
}

void PrintCosts(const SpatialIndex& index, const MetricCounters& before) {
  const MetricCounters d = index.metrics() - before;
  std::printf("cost: %llu disk accesses, %llu segment comps, %llu bbox "
              "comps, %llu bucket comps\n",
              static_cast<unsigned long long>(d.disk_accesses()),
              static_cast<unsigned long long>(d.segment_comps),
              static_cast<unsigned long long>(d.bbox_comps),
              static_cast<unsigned long long>(d.bucket_comps));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];

  if (cmd == "generate") {
    if (argc < 4) return Usage();
    const std::string which = argv[2];
    PolygonalMap map;
    if (which == "demo") {
      CountyProfile p;
      p.name = "demo";
      p.lattice = 24;
      p.meander_steps = 6;
      p.seed = 1;
      map = GenerateCounty(p, 14);
    } else {
      for (const CountyProfile& p : MarylandProfiles()) {
        if (p.name == which) map = GenerateCounty(p, 14);
      }
    }
    if (map.segments.empty()) {
      std::fprintf(stderr, "unknown county %s\n", which.c_str());
      return 1;
    }
    const Status st = WriteTigerRT1(map, argv[3]);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu segments to %s\n", map.segments.size(), argv[3]);
    return 0;
  }

  LoadedMap lm;
  if (!LoadMap(argv[2], &lm)) return 1;

  if (cmd == "stats") {
    const MapStatistics st = lm.map.Statistics();
    std::printf("segments:        %zu\n", st.segment_count);
    std::printf("vertices:        %zu\n", st.vertex_count);
    std::printf("avg seg length:  %.1f px\n", st.avg_segment_length);
    std::printf("avg vertex deg:  %.2f\n", st.avg_vertex_degree);
    std::printf("bounds:          %s\n", st.bounds.ToString().c_str());
    return 0;
  }

  if (cmd == "compare") {
    std::printf("%-6s %10s %10s %7s\n", "index", "size KB", "build da",
                "height");
    for (const char* kind : {"rstar", "rplus", "pmr", "grid"}) {
      LoadedMap one;
      one.map = lm.map;
      if (!BuildIndex(&one, kind)) return 1;
      std::printf("%-6s %10.0f %10llu\n", kind,
                  static_cast<double>(one.index->bytes()) / 1024.0,
                  static_cast<unsigned long long>(
                      one.index->metrics().disk_accesses()));
    }
    return 0;
  }

  const bool needs_point = cmd == "nearest" || cmd == "polygon";
  const bool needs_window = cmd == "window";
  const int coord_args = needs_point ? 2 : needs_window ? 4 : 0;
  if (cmd != "build" && !needs_point && !needs_window) return Usage();
  if (argc < 3 + coord_args) return Usage();
  const std::string kind =
      argc > 3 + coord_args ? argv[3 + coord_args] : "pmr";

  if (!BuildIndex(&lm, kind)) return 1;
  std::printf("built %s over %zu segments: %llu KB, %llu build disk "
              "accesses\n",
              kind.c_str(), lm.map.segments.size(),
              static_cast<unsigned long long>(lm.index->bytes() / 1024),
              static_cast<unsigned long long>(
                  lm.index->metrics().disk_accesses()));
  if (cmd == "build") return 0;

  const MetricCounters before = lm.index->metrics();
  if (cmd == "window") {
    const Rect w = Rect::Of(std::atoi(argv[3]), std::atoi(argv[4]),
                            std::atoi(argv[5]), std::atoi(argv[6]));
    std::vector<SegmentHit> hits;
    if (!lm.index->WindowQueryEx(w, &hits).ok()) return 1;
    std::printf("%zu segments intersect %s\n", hits.size(),
                w.ToString().c_str());
    for (size_t i = 0; i < hits.size() && i < 10; ++i) {
      std::printf("  %u %s\n", hits[i].id, hits[i].seg.ToString().c_str());
    }
    if (hits.size() > 10) std::printf("  ... (%zu more)\n", hits.size() - 10);
  } else if (cmd == "nearest") {
    const Point p{std::atoi(argv[3]), std::atoi(argv[4])};
    auto nn = lm.index->Nearest(p);
    if (!nn.ok()) {
      std::fprintf(stderr, "%s\n", nn.status().ToString().c_str());
      return 1;
    }
    std::printf("nearest to (%d,%d): segment %u %s, distance %.2f px\n",
                p.x, p.y, nn->id, nn->seg.ToString().c_str(),
                std::sqrt(nn->squared_distance));
  } else if (cmd == "polygon") {
    const Point p{std::atoi(argv[3]), std::atoi(argv[4])};
    PolygonResult res;
    if (!EnclosingPolygon(lm.index.get(), p, &res).ok()) return 1;
    std::printf("enclosing polygon of (%d,%d): %zu distinct segments "
                "(%s walk, %zu steps)\n",
                p.x, p.y, res.distinct_count,
                res.closed ? "closed" : "aborted", res.segments.size());
  }
  PrintCosts(*lm.index, before);
  return 0;
}
