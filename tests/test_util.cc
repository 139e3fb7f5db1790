#include "test_util.h"

#include <gtest/gtest.h>

#include "lsdb/service/query_service.h"

namespace lsdb::testing {

Status BruteForceIndex::Insert(SegmentId id, const Segment& s) {
  items_.push_back(SegmentHit{id, s});
  return Status::OK();
}

Status BruteForceIndex::Erase(SegmentId id, const Segment& s) {
  (void)s;
  const size_t before = items_.size();
  items_.erase(std::remove_if(items_.begin(), items_.end(),
                              [id](const SegmentHit& h) {
                                return h.id == id;
                              }),
               items_.end());
  if (items_.size() == before) return Status::NotFound("");
  return Status::OK();
}

Status BruteForceIndex::WindowQueryEx(const Rect& w,
                                      std::vector<SegmentHit>* out) {
  for (const SegmentHit& h : items_) {
    if (h.seg.IntersectsRect(w)) out->push_back(h);
  }
  return Status::OK();
}

StatusOr<NearestResult> BruteForceIndex::Nearest(const Point& p) {
  if (items_.empty()) return Status::NotFound("empty");
  NearestResult best;
  bool have = false;
  for (const SegmentHit& h : items_) {
    const double d = h.seg.SquaredDistanceTo(p);
    if (!have || d < best.squared_distance) {
      have = true;
      best = NearestResult{h.id, d, h.seg};
    }
  }
  return best;
}

std::vector<SegmentId> Sorted(std::vector<SegmentId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<SegmentId> Ids(const std::vector<SegmentHit>& hits) {
  std::vector<SegmentId> v;
  v.reserve(hits.size());
  for (const SegmentHit& h : hits) v.push_back(h.id);
  return Sorted(std::move(v));
}

std::vector<Segment> RandomSegments(Rng* rng, size_t n, Coord world,
                                    Coord max_extent) {
  std::vector<Segment> out;
  out.reserve(n);
  while (out.size() < n) {
    Point a{static_cast<Coord>(rng->Uniform(world)),
            static_cast<Coord>(rng->Uniform(world))};
    Point b;
    if (max_extent > 0) {
      b = Point{static_cast<Coord>(std::clamp<int64_t>(
                    a.x + rng->UniformInt(-max_extent, max_extent), 0,
                    world - 1)),
                static_cast<Coord>(std::clamp<int64_t>(
                    a.y + rng->UniformInt(-max_extent, max_extent), 0,
                    world - 1))};
    } else {
      b = Point{static_cast<Coord>(rng->Uniform(world)),
                static_cast<Coord>(rng->Uniform(world))};
    }
    if (a == b) continue;
    out.push_back(Segment{a, b});
  }
  return out;
}

PolygonalMap TinyGridMap(uint32_t cells, Coord world) {
  PolygonalMap map;
  map.name = "tiny-grid";
  const Coord step = (world - 1) / static_cast<Coord>(cells);
  for (uint32_t j = 0; j <= cells; ++j) {
    for (uint32_t i = 0; i <= cells; ++i) {
      const Point p{static_cast<Coord>(i * step),
                    static_cast<Coord>(j * step)};
      if (i < cells) {
        map.segments.push_back(
            Segment{p, Point{static_cast<Coord>((i + 1) * step), p.y}});
      }
      if (j < cells) {
        map.segments.push_back(
            Segment{p, Point{p.x, static_cast<Coord>((j + 1) * step)}});
      }
    }
  }
  map.Canonicalize();
  return map;
}

void ExpectThawedIndexRefused(QueryService* svc, ServedIndex which,
                              const std::vector<QueryRequest>& batch) {
  const BufferPool* pool = svc->index(which)->pool();
  const uint64_t fetches = pool->hits() + pool->misses();
  const CircuitBreaker& breaker = svc->breaker(which);
  const bool open = breaker.open();
  const uint64_t opened = breaker.times_opened();
  const StatusOr<BatchResult> results[] = {
      svc->ExecuteBatch(which, batch),
      svc->ExecuteBatchSequential(which, batch),
      svc->ExecuteBatchAdmitted(which, batch)};
  for (const StatusOr<BatchResult>& res : results) {
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res->responses.size(), batch.size());
    for (const QueryResponse& r : res->responses) {
      EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
    }
  }
  EXPECT_EQ(pool->hits() + pool->misses(), fetches);
  EXPECT_EQ(breaker.open(), open);
  EXPECT_EQ(breaker.times_opened(), opened);
}

}  // namespace lsdb::testing
