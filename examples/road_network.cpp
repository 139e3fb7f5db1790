// Road network scenario: the queries a road database user actually asks
// (Section 5 of the SIGMOD'92 study), demonstrated on an R+-tree:
//
//  1. which roads meet at this intersection?          (Point query 1)
//  2. which roads meet at the other end of this road? (Point query 2)
//  3. which road is closest to my house?              (Nearest line)
//  4. which block (polygon) is my house in?           (Enclosing polygon)
//  5. which roads pass through this neighbourhood?    (Window query)
//
//   $ ./examples/road_network

#include <cmath>
#include <cstdio>

#include "lsdb/data/county_generator.h"
#include "lsdb/query/incident.h"
#include "lsdb/query/polygon.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/seg/segment_table.h"

using namespace lsdb;  // NOLINT

int main() {
  // A suburban road network.
  CountyProfile profile;
  profile.name = "suburbia";
  profile.lattice = 20;
  profile.meander_steps = 4;
  profile.delete_prob = 0.08;
  profile.spur_prob = 0.5;  // cul-de-sacs
  profile.seed = 99;
  const PolygonalMap map = GenerateCounty(profile, 14);
  std::printf("road network: %zu segments\n", map.segments.size());

  IndexOptions options;
  MemPageFile table_file(options.page_size);
  BufferPool table_pool(&table_file, options.buffer_frames, nullptr);
  SegmentTable table(&table_pool);
  MemPageFile index_file(options.page_size);
  RPlusTree roads(options, &index_file, &table);
  if (!roads.Init().ok()) return 1;
  for (const Segment& s : map.segments) {
    auto id = table.Append(s);
    if (!id.ok() || !roads.Insert(*id, s).ok()) return 1;
  }

  // 3. Nearest road to the "house".
  const Point house{9000, 9000};
  auto nearest = roads.Nearest(house);
  if (!nearest.ok()) return 1;
  std::printf("\nnearest road to house (%d,%d): segment %u %s (%.1f px "
              "away)\n",
              house.x, house.y, nearest->id,
              nearest->seg.ToString().c_str(),
              std::sqrt(nearest->squared_distance));

  // 1. Roads incident at one of its intersections.
  const Point intersection = nearest->seg.a;
  std::vector<SegmentHit> incident;
  if (!IncidentSegments(&roads, intersection, &incident).ok()) return 1;
  std::printf("roads meeting at (%d,%d): %zu\n", intersection.x,
              intersection.y, incident.size());

  // 2. Roads at the other end of the nearest road.
  std::vector<SegmentHit> other_end;
  if (!IncidentAtOtherEndpoint(&roads, nearest->seg, intersection,
                               &other_end)
           .ok()) {
    return 1;
  }
  std::printf("roads at the other end: %zu\n", other_end.size());

  // 4. The city block (enclosing polygon) containing the house.
  PolygonResult block;
  if (!EnclosingPolygon(&roads, house, &block).ok()) return 1;
  std::printf("the house's block has %zu boundary segments (%s walk of "
              "%zu steps)\n",
              block.distinct_count, block.closed ? "closed" : "aborted",
              block.segments.size());

  // 5. All roads in the neighbourhood window.
  const Rect neighbourhood =
      Rect::Of(house.x - 500, house.y - 500, house.x + 500, house.y + 500);
  std::vector<SegmentHit> in_window;
  if (!roads.WindowQueryEx(neighbourhood, &in_window).ok()) return 1;
  std::printf("roads within 500px of the house: %zu\n", in_window.size());

  std::printf("\nquery cost counters: %s\n",
              roads.metrics().ToString().c_str());
  return 0;
}
