// Quickstart: build a spatial index over a line segment database and run
// the basic queries.
//
//   $ ./examples/quickstart
//
// The library indexes *segment ids*; segment geometry lives in a shared
// disk-resident SegmentTable. Every index (R*-tree, R+-tree, PMR quadtree,
// uniform grid) implements the same SpatialIndex interface.

#include <cmath>
#include <cstdio>

#include "lsdb/data/county_generator.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/seg/segment_table.h"

using namespace lsdb;  // NOLINT

int main() {
  // 1. Generate a small road network (a synthetic TIGER-like county map)
  //    on the 16K x 16K world grid used throughout the library.
  CountyProfile profile;
  profile.name = "quickstart";
  profile.lattice = 24;
  profile.meander_steps = 6;
  profile.seed = 7;
  const PolygonalMap map = GenerateCounty(profile, /*world_log2=*/14);
  std::printf("generated %zu road segments\n", map.segments.size());

  // 2. Storage: a page file + LRU buffer pool per component. 1K pages and
  //    16 buffer frames are the defaults from the SIGMOD'92 study.
  IndexOptions options;
  MemPageFile table_file(options.page_size);
  BufferPool table_pool(&table_file, options.buffer_frames, nullptr);
  SegmentTable table(&table_pool);

  // 3. Load the segment table and build a PMR quadtree over it.
  MemPageFile index_file(options.page_size);
  PmrQuadtree index(options, &index_file, &table);
  if (!index.Init().ok()) return 1;
  for (const Segment& s : map.segments) {
    auto id = table.Append(s);
    if (!id.ok() || !index.Insert(*id, s).ok()) return 1;
  }
  std::printf("index built: %llu KB, %llu q-edge tuples\n",
              static_cast<unsigned long long>(index.bytes() / 1024),
              static_cast<unsigned long long>(index.tuples()));

  // 4. Window query: all segments intersecting a rectangle.
  const Rect window = Rect::Of(8000, 8000, 8400, 8400);
  std::vector<SegmentHit> hits;
  if (!index.WindowQueryEx(window, &hits).ok()) return 1;
  std::printf("window %s contains %zu segments\n",
              window.ToString().c_str(), hits.size());
  for (size_t i = 0; i < hits.size() && i < 3; ++i) {
    std::printf("  segment %u: %s\n", hits[i].id,
                hits[i].seg.ToString().c_str());
  }

  // 5. Nearest segment to a point (Euclidean).
  const Point p{5000, 12000};
  auto nearest = index.Nearest(p);
  if (!nearest.ok()) return 1;
  std::printf("nearest segment to (%d,%d): id %u at distance %.1f\n", p.x,
              p.y, nearest->id,
              std::sqrt(nearest->squared_distance));

  // 6. Every operation was counted in the paper's three metrics.
  std::printf("metrics so far: %s\n", index.metrics().ToString().c_str());
  return 0;
}
