// Shared test helpers: a brute-force reference index and random data.

#ifndef LSDB_TESTS_TEST_UTIL_H_
#define LSDB_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include "lsdb/data/polygonal_map.h"
#include "lsdb/geom/segment.h"
#include "lsdb/index/spatial_index.h"
#include "lsdb/service/request.h"
#include "lsdb/util/random.h"

namespace lsdb {
class QueryService;  // lsdb/service/query_service.h
}  // namespace lsdb

namespace lsdb::testing {

/// Exhaustive reference implementation of the SpatialIndex interface.
/// O(n) per query; trivially correct by inspection.
class BruteForceIndex : public SpatialIndex {
 public:
  std::string Name() const override { return "brute"; }
  Status Insert(SegmentId id, const Segment& s) override;
  Status Erase(SegmentId id, const Segment& s) override;
  Status WindowQueryEx(const Rect& w, std::vector<SegmentHit>* out) override;
  StatusOr<NearestResult> Nearest(const Point& p) override;
  Status Flush() override { return Status::OK(); }
  uint64_t bytes() const override { return 0; }
  const MetricCounters& metrics() const override { return metrics_; }

 private:
  std::vector<SegmentHit> items_;
  MetricCounters metrics_;
};

/// Sorted copy of ids, for order-insensitive comparison.
std::vector<SegmentId> Sorted(std::vector<SegmentId> v);
std::vector<SegmentId> Ids(const std::vector<SegmentHit>& hits);

/// `n` random segments with coordinates in [0, world); max_extent bounds
/// the segment length per axis (0 = unbounded).
std::vector<Segment> RandomSegments(Rng* rng, size_t n, Coord world,
                                    Coord max_extent = 0);

/// A small map: `cells` x `cells` grid of unit blocks scaled to the world
/// (a miniature "urban" county, planar by construction).
PolygonalMap TinyGridMap(uint32_t cells, Coord world);

/// Expects the service's refusal of a thawed index: every response of
/// ExecuteBatch, ExecuteBatchSequential and ExecuteBatchAdmitted is
/// InvalidArgument, the index's pool fetches no page, and its breaker's
/// open state and open count do not change.
void ExpectThawedIndexRefused(QueryService* svc, ServedIndex which,
                              const std::vector<QueryRequest>& batch);

}  // namespace lsdb::testing

#endif  // LSDB_TESTS_TEST_UTIL_H_
