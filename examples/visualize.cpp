// Visualization: render a county map with the space decomposition each
// structure induces — the paper's Figures 2 (R-tree MBRs), 3 (R+-tree
// partitions), and 5 (PMR quadtree blocks), drawn from real data.
//
//   $ ./examples/visualize [county] [outdir]
//
// Produces <outdir>/<county>_{map,pmr,rplus,rstar}.svg.

#include <cstdio>
#include <string>

#include "lsdb/data/county_generator.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/viz/svg.h"

using namespace lsdb;  // NOLINT

int main(int argc, char** argv) {
  const std::string county = argc > 1 ? argv[1] : "demo";
  const std::string outdir = argc > 2 ? argv[2] : "/tmp";
  PolygonalMap map;
  if (county == "demo") {
    CountyProfile p;
    p.name = "demo";
    p.lattice = 16;
    p.meander_steps = 6;
    p.seed = 2;
    map = GenerateCounty(p, 14);
  } else {
    for (const CountyProfile& p : MarylandProfiles()) {
      if (p.name == county) map = GenerateCounty(p, 14);
    }
  }
  if (map.segments.empty()) {
    std::fprintf(stderr, "unknown county %s\n", county.c_str());
    return 1;
  }

  IndexOptions options;
  MemPageFile table_file(options.page_size);
  BufferPool table_pool(&table_file, options.buffer_frames, nullptr);
  SegmentTable table(&table_pool);
  MemPageFile pmr_file(options.page_size), rplus_file(options.page_size),
      rstar_file(options.page_size);
  PmrQuadtree pmr(options, &pmr_file, &table);
  RPlusTree rplus(options, &rplus_file, &table);
  RStarTree rstar(options, &rstar_file, &table);
  if (!pmr.Init().ok() || !rplus.Init().ok() || !rstar.Init().ok()) return 1;
  for (const Segment& s : map.segments) {
    auto id = table.Append(s);
    if (!id.ok() || !pmr.Insert(*id, s).ok() ||
        !rplus.Insert(*id, s).ok() || !rstar.Insert(*id, s).ok()) {
      return 1;
    }
  }

  auto write = [&](const std::string& suffix,
                   const std::vector<Rect>& regions) {
    const std::string path = outdir + "/" + county + "_" + suffix + ".svg";
    const Status st = WriteSvg(map, regions, path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   st.ToString().c_str());
      return false;
    }
    std::printf("wrote %s (%zu overlay rects)\n", path.c_str(),
                regions.size());
    return true;
  };

  if (!write("map", {})) return 1;

  std::vector<QuadBlock> blocks;
  if (!pmr.CollectLeafBlocks(&blocks).ok()) return 1;
  std::vector<Rect> pmr_regions;
  pmr_regions.reserve(blocks.size());
  for (const QuadBlock& b : blocks) {
    pmr_regions.push_back(pmr.geometry().BlockRegion(b));
  }
  if (!write("pmr", pmr_regions)) return 1;

  std::vector<Rect> rplus_regions;
  if (!rplus.CollectLeafRegions(&rplus_regions).ok()) return 1;
  if (!write("rplus", rplus_regions)) return 1;

  std::vector<Rect> rstar_regions;
  if (!rstar.CollectLeafMbrs(&rstar_regions).ok()) return 1;
  if (!write("rstar", rstar_regions)) return 1;

  return 0;
}
