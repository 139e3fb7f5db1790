// Bulk vs incremental construction bench.
//
// For each paper structure (R*-tree, R+-tree, PMR quadtree) on one county
// map, builds the index twice — once by one-at-a-time insertion, once with
// the bottom-up builders of src/lsdb/build/ — and reports build wall
// clock, disk accesses, pages written, and height/occupancy side by side.
// Before reporting, it proves the two builds are interchangeable: seeded
// window and point queries must return identical id sets and the bulk tree
// must pass CheckInvariants().
//
// Usage: bench_bulk_build [--smoke] [county] [out.json]
//   --smoke   shrink the map (a few thousand segments) for CI; same
//             checks, seconds instead of minutes.
//
// The full mode grows the county's road lattice until the map holds at
// least 50k segments (paper scale — the stock profiles land slightly
// under).
//
// Output JSON (default BENCH_build.json), one object:
//   {"bench":"bulk_build","county":...,"segments":N,"smoke":bool,
//    "structures":[{"index":"R*",
//       "incremental":{"seconds":..,"disk_accesses":..,"pages":..,
//                      "height":..,"avg_occupancy":..},
//       "bulk":{...same keys...},
//       "speedup":..,"equivalent":true,"invariants_ok":true}, ...]}

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lsdb/build/bulk_loader.h"
#include "lsdb/harness/experiment.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/util/random.h"

using namespace lsdb;        // NOLINT
using namespace lsdb::bench; // NOLINT

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

struct BuiltPair {
  std::unique_ptr<MemPageFile> inc_file, bulk_file;
  std::unique_ptr<SpatialIndex> inc, bulk;
  double inc_seconds = 0, bulk_seconds = 0;
  uint64_t inc_da = 0, bulk_da = 0;
};

std::unique_ptr<SpatialIndex> MakeIndex(StructureKind kind,
                                        const IndexOptions& opt,
                                        PageFile* file, SegmentTable* segs,
                                        Status* st) {
  std::unique_ptr<SpatialIndex> idx;
  switch (kind) {
    case StructureKind::kRStar: {
      auto t = std::make_unique<RStarTree>(opt, file, segs);
      *st = t->Init();
      idx = std::move(t);
      break;
    }
    case StructureKind::kRPlus: {
      auto t = std::make_unique<RPlusTree>(opt, file, segs);
      *st = t->Init();
      idx = std::move(t);
      break;
    }
    default: {
      auto t = std::make_unique<PmrQuadtree>(opt, file, segs);
      *st = t->Init();
      idx = std::move(t);
      break;
    }
  }
  return idx;
}

/// Sorted result ids of a window query (dedup'd; structures may report
/// hits in different orders).
Status SortedWindowIds(SpatialIndex* idx, const Rect& w,
                       std::vector<SegmentId>* ids) {
  std::vector<SegmentHit> hits;
  LSDB_RETURN_IF_ERROR(idx->WindowQueryEx(w, &hits));
  ids->clear();
  for (const SegmentHit& h : hits) ids->push_back(h.id);
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  return Status::OK();
}

/// Seeded window + point queries must return identical id sets on both
/// builds. Nearest is compared by distance, not id, since equidistant
/// ties may legitimately resolve differently.
bool CheckEquivalent(SpatialIndex* a, SpatialIndex* b, uint32_t world_log2,
                     uint32_t queries) {
  Rng rng(7);
  const Coord world = Coord{1} << world_log2;
  for (uint32_t i = 0; i < queries; ++i) {
    const Coord x = static_cast<Coord>(rng.Uniform(world));
    const Coord y = static_cast<Coord>(rng.Uniform(world));
    const Coord wx = static_cast<Coord>(1 + rng.Uniform(world / 8));
    const Coord wy = static_cast<Coord>(1 + rng.Uniform(world / 8));
    const Rect w = Rect::Of(x, y, std::min<Coord>(world, x + wx),
                            std::min<Coord>(world, y + wy));
    std::vector<SegmentId> ia, ib;
    if (!SortedWindowIds(a, w, &ia).ok() ||
        !SortedWindowIds(b, w, &ib).ok() || ia != ib) {
      return false;
    }
    const Rect pt = Rect::Of(x, y, x, y);
    if (!SortedWindowIds(a, pt, &ia).ok() ||
        !SortedWindowIds(b, pt, &ib).ok() || ia != ib) {
      return false;
    }
    auto na = a->Nearest(Point{x, y});
    auto nb = b->Nearest(Point{x, y});
    if (!na.ok() || !nb.ok() ||
        na->squared_distance != nb->squared_distance) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string county = "Charles";
  std::string out_path = "BENCH_build.json";
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 0) county = positional[0];
  if (positional.size() > 1) out_path = positional[1];

  CountyProfile profile = MarylandProfiles()[0];
  bool known = county == profile.name;
  for (const CountyProfile& c : MarylandProfiles()) {
    if (c.name == county) {
      profile = c;
      known = true;
    }
  }
  if (!known) {
    std::fprintf(stderr, "unknown county %s\n", county.c_str());
    return 1;
  }
  PolygonalMap map;
  if (smoke) {
    // Same generator family as the county maps, shrunk to ~2k segments so
    // the whole bench (including the incremental builds) runs in seconds.
    profile.name = county + "-smoke";
    profile.lattice = 8;
    map = GenerateCounty(profile, 14);
  } else {
    // The paper's county maps hold ~50k TIGER segments; the generator's
    // stock profiles land slightly under, so grow the road lattice until
    // the map reaches paper scale.
    map = GenerateCounty(profile, 14);
    while (map.segments.size() < 50000) {
      profile.lattice += 4;
      map = GenerateCounty(profile, 14);
    }
  }

  const IndexOptions opt;  // paper defaults: 1K pages, 16 frames
  std::printf("bulk build bench: %s (%zu segments)\n\n", map.name.c_str(),
              map.segments.size());
  std::printf("%-5s %10s %10s %8s | %9s %9s | %7s %7s | %5s %5s\n",
              "index", "inc s", "bulk s", "speedup", "inc d.a.",
              "bulk d.a.", "inc pg", "bulk pg", "equiv", "invar");
  PrintRule(96);

  // Shared segment table, as in the harness.
  MemPageFile seg_file(opt.page_size);
  BufferPool seg_pool(&seg_file, opt.buffer_frames, nullptr);
  SegmentTable segs(&seg_pool);
  for (const Segment& s : map.segments) {
    auto id = segs.Append(s);
    if (!id.ok()) {
      std::fprintf(stderr, "segment table: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
  }
  BulkItems items;
  items.reserve(map.segments.size());
  for (SegmentId id = 0; id < map.segments.size(); ++id) {
    items.emplace_back(id, map.segments[id]);
  }

  const StructureKind kinds[] = {StructureKind::kRStar,
                                 StructureKind::kRPlus,
                                 StructureKind::kPmr};
  std::string structures_json;
  bool all_ok = true;
  for (StructureKind kind : kinds) {
    BuiltPair bp;
    bp.inc_file = std::make_unique<MemPageFile>(opt.page_size);
    bp.bulk_file = std::make_unique<MemPageFile>(opt.page_size);
    Status st = Status::OK();
    bp.inc = MakeIndex(kind, opt, bp.inc_file.get(), &segs, &st);
    if (st.ok()) bp.bulk = MakeIndex(kind, opt, bp.bulk_file.get(), &segs, &st);
    if (!st.ok()) {
      std::fprintf(stderr, "init failed: %s\n", st.ToString().c_str());
      return 1;
    }

    {
      const auto t0 = std::chrono::steady_clock::now();
      for (SegmentId id = 0; id < map.segments.size(); ++id) {
        st = bp.inc->Insert(id, map.segments[id]);
        if (!st.ok()) break;
      }
      if (st.ok()) st = bp.inc->Flush();
      const auto t1 = std::chrono::steady_clock::now();
      bp.inc_seconds = std::chrono::duration<double>(t1 - t0).count();
      bp.inc_da = bp.inc->metrics().disk_accesses();
    }
    if (st.ok()) {
      const auto t0 = std::chrono::steady_clock::now();
      st = BulkLoad(bp.bulk.get(), items);
      if (st.ok()) st = bp.bulk->Flush();
      const auto t1 = std::chrono::steady_clock::now();
      bp.bulk_seconds = std::chrono::duration<double>(t1 - t0).count();
      bp.bulk_da = bp.bulk->metrics().disk_accesses();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "%s build failed: %s\n", StructureName(kind),
                   st.ToString().c_str());
      return 1;
    }

    const bool equivalent = CheckEquivalent(bp.inc.get(), bp.bulk.get(),
                                            opt.world_log2, smoke ? 50 : 200);
    const bool invariants = bp.bulk->CheckInvariants().ok();
    all_ok = all_ok && equivalent && invariants;

    const uint64_t inc_pages = bp.inc->bytes() / opt.page_size;
    const uint64_t bulk_pages = bp.bulk->bytes() / opt.page_size;
    const double speedup =
        bp.bulk_seconds > 0 ? bp.inc_seconds / bp.bulk_seconds : 0.0;
    std::printf(
        "%-5s %10.3f %10.3f %7.1fx | %9llu %9llu | %7llu %7llu | %5s %5s\n",
        StructureName(kind), bp.inc_seconds, bp.bulk_seconds, speedup,
        static_cast<unsigned long long>(bp.inc_da),
        static_cast<unsigned long long>(bp.bulk_da),
        static_cast<unsigned long long>(inc_pages),
        static_cast<unsigned long long>(bulk_pages),
        equivalent ? "yes" : "NO", invariants ? "yes" : "NO");
    std::fflush(stdout);

    auto side = [&](double seconds, uint64_t da, SpatialIndex* idx,
                    uint64_t pages) {
      std::string j = "{\"seconds\":" + FormatDouble(seconds);
      j += ",\"disk_accesses\":" + std::to_string(da);
      j += ",\"pages\":" + std::to_string(pages);
      uint32_t height = 1;
      double occ = 0.0;
      if (auto* t = dynamic_cast<RStarTree*>(idx)) {
        height = t->height();
        occ = t->AverageLeafOccupancy();
      } else if (auto* t = dynamic_cast<RPlusTree*>(idx)) {
        height = t->height();
        occ = t->AverageLeafOccupancy();
      } else if (auto* t = dynamic_cast<PmrQuadtree*>(idx)) {
        height = t->btree()->height();
        auto o = t->AverageBucketOccupancy();
        occ = o.ok() ? *o : 0.0;
      }
      j += ",\"height\":" + std::to_string(height);
      j += ",\"avg_occupancy\":" + FormatDouble(occ);
      j += "}";
      return j;
    };
    if (!structures_json.empty()) structures_json += ",";
    structures_json += "{\"index\":\"";
    structures_json += StructureName(kind);
    structures_json += "\",\"incremental\":" +
                       side(bp.inc_seconds, bp.inc_da, bp.inc.get(),
                            inc_pages);
    structures_json +=
        ",\"bulk\":" + side(bp.bulk_seconds, bp.bulk_da, bp.bulk.get(),
                            bulk_pages);
    structures_json += ",\"speedup\":" + FormatDouble(speedup);
    structures_json += ",\"equivalent\":";
    structures_json += equivalent ? "true" : "false";
    structures_json += ",\"invariants_ok\":";
    structures_json += invariants ? "true" : "false";
    structures_json += "}";
  }
  PrintRule(96);

  std::string json = "{\"bench\":\"bulk_build\"";
  json += ",\"county\":\"" + map.name + "\"";
  json += ",\"segments\":" + std::to_string(map.segments.size());
  json += ",\"smoke\":";
  json += smoke ? "true" : "false";
  json += ",\"structures\":[" + structures_json + "]";
  json += "}\n";
  std::ofstream out(out_path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  out.close();
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!all_ok) {
    std::fprintf(stderr, "equivalence or invariant check FAILED\n");
    return 1;
  }
  return 0;
}
