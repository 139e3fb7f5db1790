// Common interface of the spatial indexes under study.
//
// Each concrete index (R*-tree, R+-tree, PMR quadtree, uniform grid) owns
// its page file + buffer pool and shares a SegmentTable with the rest of
// the experiment. The interface is deliberately the paper's query
// repertoire: insertion/deletion, window (range) queries, point queries,
// and nearest-segment queries; the higher-level workloads (incident
// segments, enclosing polygon) are composed from these in lsdb/query.

#ifndef LSDB_INDEX_SPATIAL_INDEX_H_
#define LSDB_INDEX_SPATIAL_INDEX_H_

#include <string>
#include <vector>

#include "lsdb/geom/point.h"
#include "lsdb/geom/rect.h"
#include "lsdb/geom/segment.h"
#include "lsdb/util/counters.h"
#include "lsdb/util/status.h"

namespace lsdb {

class BufferPool;

/// Construction parameters shared by all structures (paper Section 4).
struct IndexOptions {
  uint32_t page_size = 1024;     ///< Bytes per node page (paper: 1K).
  uint32_t buffer_frames = 16;   ///< LRU buffer pool frames (paper: 16).
  uint32_t world_log2 = 14;      ///< World is 2^w x 2^w pixels (paper: 16K).

  // PMR quadtree.
  uint32_t pmr_split_threshold = 4;  ///< Paper: 4 ("rare for >4 roads").
  uint32_t pmr_max_depth = 14;       ///< Paper: 14.
  /// Section 6 "3-tuple" variant: store a bounding box with every q-edge
  /// (8 extra bytes per tuple) so queries can prune without fetching the
  /// segment. The paper discusses but does not adopt it ("it may not be
  /// worthwhile to introduce this added complexity").
  bool pmr_store_bboxes = false;

  // R*-tree.
  double rstar_min_fill = 0.4;       ///< m = 40% of M (paper / Beckmann).
  double rstar_reinsert_frac = 0.3;  ///< Forced reinsertion share (30%).

  // Uniform grid.
  uint32_t grid_log2_cells = 7;  ///< 2^g x 2^g cells.

  // Bulk loading (src/lsdb/build/). Fraction of a page's capacity the
  // bottom-up builders fill when packing leaves; clamped to the node
  // minimum occupancy from below. 1.0 packs pages full, which minimizes
  // size and query I/O but makes the first post-build insertion into a
  // node split it.
  double bulk_fill = 1.0;
};

/// A query hit: segment id plus its geometry (already fetched from the
/// segment table during refinement, so callers need no second fetch).
struct SegmentHit {
  SegmentId id = kInvalidSegmentId;
  Segment seg;
};

/// A found segment paired with its distance (for nearest queries).
struct NearestResult {
  SegmentId id = kInvalidSegmentId;
  double squared_distance = 0.0;
  Segment seg;
};

class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Structure name for reports ("R*", "R+", "PMR", "grid").
  virtual std::string Name() const = 0;

  /// Inserts segment `id` with geometry `s` (the geometry must match the
  /// segment table entry for `id`).
  [[nodiscard]] virtual Status Insert(SegmentId id, const Segment& s) = 0;

  /// Removes segment `id`. Returns NotFound if absent.
  [[nodiscard]] virtual Status Erase(SegmentId id, const Segment& s) = 0;

  /// Appends to *out every segment whose geometry intersects the closed
  /// window `w`, without duplicates (order unspecified).
  [[nodiscard]] virtual Status WindowQueryEx(const Rect& w,
                               std::vector<SegmentHit>* out) = 0;

  /// Id-only convenience wrapper around WindowQueryEx.
  [[nodiscard]] Status WindowQuery(const Rect& w, std::vector<SegmentId>* out);

  /// Every segment whose geometry contains `p` (degenerate window query).
  [[nodiscard]] Status PointQueryEx(const Point& p, std::vector<SegmentHit>* out);
  [[nodiscard]] Status PointQuery(const Point& p, std::vector<SegmentId>* out);

  /// Nearest segment to `p` by Euclidean distance (ties arbitrary).
  /// Returns NotFound on an empty index.
  [[nodiscard]] virtual StatusOr<NearestResult> Nearest(const Point& p) = 0;

  /// Runs many window queries in one call: outs->at(i) receives exactly what
  /// WindowQueryEx(ws[i]) would produce, hits in the same order. The default
  /// is that loop; R*/R+ override it with a shared descent that walks each
  /// tree node once for every window still alive in its subtree ("throughput
  /// mode"), so one materialized node answers many windows per visit.
  [[nodiscard]] virtual Status WindowQueryBatch(
      const std::vector<Rect>& ws, std::vector<std::vector<SegmentHit>>* outs);

  /// Builds the frozen structure-of-arrays scan cache (SIMD node scans) for
  /// structures that support one. Requires frozen(); strictly opt-in — the
  /// default serving and paper-harness paths never call it, so their page
  /// reads, fault-injection visibility, and Table 1/2 metrics are untouched.
  /// Best-effort: on error the structure keeps serving from its pool.
  [[nodiscard]] virtual Status BuildScanCache() { return Status::OK(); }

  /// Releases the scan cache (no-op when absent). Thaw() calls this.
  virtual void DropScanCache() {}

  /// True when a scan cache is live and descents are answering from it.
  virtual bool scan_cache_enabled() const { return false; }

  /// Writes all dirty pages back to the page file.
  [[nodiscard]] virtual Status Flush() = 0;

  /// Index size in bytes (excluding the shared segment table, as in the
  /// paper's Table 1).
  virtual uint64_t bytes() const = 0;

  /// Metric counters for this structure (includes its buffer pool's disk
  /// activity and its segment-comparison / bbox / bucket counts).
  virtual const MetricCounters& metrics() const = 0;

  /// The structure's own buffer pool, for cache-behaviour reporting
  /// (hit/miss ratios); null if the structure has none.
  virtual const BufferPool* pool() const { return nullptr; }

  /// Mutable pool access, for attaching observers (page-heat maps,
  /// tracers). Same pool as pool(); null if the structure has none.
  BufferPool* mutable_pool() {
    return const_cast<BufferPool*>(
        static_cast<const SpatialIndex*>(this)->pool());
  }

  /// Validates internal invariants (tests only).
  [[nodiscard]] virtual Status CheckInvariants() { return Status::OK(); }

  /// Read-only serving mode. After Freeze(), Insert/Erase fail with
  /// FailedPrecondition-style InvalidArgument until Thaw(). Queries on a
  /// frozen index mutate no structural state, so any number of threads may
  /// run WindowQueryEx/PointQueryEx/Nearest concurrently: a copying buffer
  /// pool serializes page access under its mutex, and a zero-copy snapshot
  /// pool serves the immutable pages with no lock. The structure-owned
  /// MetricCounters have a single writer, so each concurrent caller must
  /// install a ScopedCounterSink (util/counters.h); the query service
  /// always does.
  void Freeze() { frozen_ = true; }
  /// Thaw drops any scan cache: it is a view of the frozen tree and would
  /// go stale the moment mutations resume.
  void Thaw() {
    DropScanCache();
    frozen_ = false;
  }
  bool frozen() const { return frozen_; }

 protected:
  /// Guard for mutating entry points; call first in Insert/Erase.
  [[nodiscard]] Status CheckMutable() const {
    if (frozen_) {
      return Status::InvalidArgument("index is frozen for serving");
    }
    return Status::OK();
  }

 private:
  bool frozen_ = false;
};

}  // namespace lsdb

#endif  // LSDB_INDEX_SPATIAL_INDEX_H_
