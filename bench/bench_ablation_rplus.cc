// Ablation: R+-tree split policy.
//
// The paper notes that "the R+-tree implementations described in the
// literature do not specify a splitting policy" and chooses minimum-cut
// ("minimizes the total number of resulting portions of line segments"),
// with ties broken by the most even distribution. This bench compares that
// policy against an evenness-first policy (k-d-B flavour) and blind
// midpoint splitting, measuring duplication (stored tuples / distinct
// segments), storage, and query costs.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "lsdb/query/incident.h"
#include "lsdb/query/point_gen.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/util/random.h"

using namespace lsdb;        // NOLINT
using namespace lsdb::bench; // NOLINT

namespace {

const char* PolicyName(RPlusSplitPolicy p) {
  switch (p) {
    case RPlusSplitPolicy::kMinCut:
      return "min-cut (paper)";
    case RPlusSplitPolicy::kEvenCount:
      return "even-count";
    case RPlusSplitPolicy::kMidpoint:
      return "midpoint (k-d-B)";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string county = argc > 1 ? argv[1] : "Charles";
  const PolygonalMap map = CountyMap(county);
  if (map.segments.empty()) return 1;
  std::printf("Ablation: R+-tree split policy on %s county (%zu "
              "segments)\n\n",
              county.c_str(), map.segments.size());
  std::printf("%-17s | %7s %8s %7s %6s | %7s %7s\n", "policy", "size KB",
              "build da", "cpu s", "occ", "P1 da", "Rng da");
  PrintRule(78);

  for (RPlusSplitPolicy policy :
       {RPlusSplitPolicy::kMinCut, RPlusSplitPolicy::kEvenCount,
        RPlusSplitPolicy::kMidpoint}) {
    IndexOptions opt;
    MemPageFile seg_file(opt.page_size);
    BufferPool seg_pool(&seg_file, opt.buffer_frames, nullptr);
    SegmentTable table(&seg_pool);
    for (const Segment& s : map.segments) {
      if (!table.Append(s).ok()) return 1;
    }
    MemPageFile file(opt.page_size);
    RPlusTree tree(opt, &file, &table, policy);
    if (!tree.Init().ok()) return 1;

    const auto t0 = std::chrono::steady_clock::now();
    for (SegmentId id = 0; id < map.segments.size(); ++id) {
      if (!tree.Insert(id, map.segments[id]).ok()) return 1;
    }
    if (!tree.Flush().ok()) return 1;
    const auto t1 = std::chrono::steady_clock::now();
    const uint64_t build_da = tree.metrics().disk_accesses();

    // Query workloads: 400 point queries at segment endpoints and 400
    // windows of 0.01% map area.
    Rng rng(99);
    MetricCounters before = tree.metrics();
    for (int i = 0; i < 400; ++i) {
      const Segment& s = map.segments[rng.Uniform(map.segments.size())];
      std::vector<SegmentHit> hits;
      if (!IncidentSegments(&tree, s.a, &hits).ok()) return 1;
    }
    const double p1_da =
        static_cast<double>((tree.metrics() - before).disk_accesses()) / 400;
    before = tree.metrics();
    const Coord world = Coord{1} << opt.world_log2;
    const Coord side = world / 100;
    for (int i = 0; i < 400; ++i) {
      const Coord x = static_cast<Coord>(rng.Uniform(world - side));
      const Coord y = static_cast<Coord>(rng.Uniform(world - side));
      std::vector<SegmentHit> hits;
      if (!tree.WindowQueryEx(Rect::Of(x, y, x + side, y + side), &hits)
               .ok()) {
        return 1;
      }
    }
    const double rng_da =
        static_cast<double>((tree.metrics() - before).disk_accesses()) / 400;

    std::printf("%-17s | %7.0f %8llu %7.2f %6.1f | %7.2f %7.2f\n",
                PolicyName(policy),
                static_cast<double>(tree.bytes()) / 1024.0,
                static_cast<unsigned long long>(build_da),
                std::chrono::duration<double>(t1 - t0).count(),
                tree.AverageLeafOccupancy(), p1_da, rng_da);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: min-cut stores far fewer duplicated "
              "segments than evenness-first\nsplitting. On lattice-like "
              "road grids, blind midpoint lines often fall between\nroads "
              "and can compete with min-cut; on irregular data min-cut "
              "wins.\n");
  return 0;
}
