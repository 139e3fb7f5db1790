// TIGER/Line import: write a county map in the Census Bureau's 1990
// Record Type 1 fixed-width format, read it back (the same parser accepts
// real TIGER/Line RT1 files), normalize it onto the 16K x 16K grid of the
// study, and build an index over it.
//
//   $ ./examples/tiger_import [path/to/file.rt1]
//
// Without an argument a synthetic county is exported to /tmp and then
// imported, demonstrating the full round trip.

#include <cstdio>

#include "lsdb/data/county_generator.h"
#include "lsdb/data/tiger.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"

using namespace lsdb;  // NOLINT

int main(int argc, char** argv) {
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    // Export a synthetic county as RT1 records first.
    CountyProfile profile;
    profile.name = "export-demo";
    profile.lattice = 16;
    profile.meander_steps = 4;
    profile.seed = 3;
    const PolygonalMap map = GenerateCounty(profile, 14);
    path = "/tmp/lsdb_demo.rt1";
    const Status st = WriteTigerRT1(map, path);
    if (!st.ok()) {
      std::fprintf(stderr, "export failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("exported %zu segments to %s (228-column RT1 records)\n",
                map.segments.size(), path.c_str());
  }

  auto imported = ReadTigerRT1(path);
  if (!imported.ok()) {
    std::fprintf(stderr, "import failed: %s\n",
                 imported.status().ToString().c_str());
    return 1;
  }
  std::printf("imported %zu RT1 chains from %s\n",
              imported->segments.size(), path.c_str());

  // Real TIGER data arrives in microdegrees; normalize onto the study's
  // 16K x 16K grid ("a minimum bounding square was computed for each map").
  PolygonalMap map = imported->Normalize(14);
  const MapStatistics stats = map.Statistics();
  std::printf("normalized: %zu segments, %zu vertices, avg length %.1f px, "
              "avg degree %.2f\n",
              stats.segment_count, stats.vertex_count,
              stats.avg_segment_length, stats.avg_vertex_degree);

  // Build an R*-tree over the imported map.
  IndexOptions options;
  MemPageFile table_file(options.page_size);
  BufferPool table_pool(&table_file, options.buffer_frames, nullptr);
  SegmentTable table(&table_pool);
  MemPageFile index_file(options.page_size);
  RStarTree index(options, &index_file, &table);
  if (!index.Init().ok()) return 1;
  for (const Segment& s : map.segments) {
    auto id = table.Append(s);
    if (!id.ok() || !index.Insert(*id, s).ok()) return 1;
  }
  std::printf("R*-tree built: %llu KB, height %u, %llu build disk "
              "accesses\n",
              static_cast<unsigned long long>(index.bytes() / 1024),
              index.height(),
              static_cast<unsigned long long>(
                  index.metrics().disk_accesses()));
  return 0;
}
