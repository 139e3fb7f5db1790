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

  /// Read-only serving mode. Freeze() persists a writable structure
  /// (Flush(): superblock and dirty pages) and freezes its buffer pool,
  /// which then refuses writes and, over an in-memory backend, serves the
  /// backend's own pages with no copy and no lock, like a zero-copy
  /// snapshot (see storage/buffer_pool.h). Until Thaw(), Insert/Erase fail
  /// with FailedPrecondition-style InvalidArgument. Queries on a frozen
  /// index mutate no structural state, so any number of threads may run
  /// WindowQueryEx/PointQueryEx/Nearest concurrently: a pool that copies
  /// (on-disk or pool-copy snapshot backends) serializes page access under
  /// its mutex, and a zero-copy pool takes no lock. The structure-owned
  /// MetricCounters have a single writer, so each concurrent caller must
  /// install its own counters in a QueryContext (util/query_context.h);
  /// the query service always does. Fails, leaving the index unfrozen, if
  /// the flush fails or a page is pinned. A no-op when already frozen.
  [[nodiscard]] Status Freeze();
  /// Returns to mutable mode over the pool's LRU frames, which then serve
  /// every read the lent pages served while frozen. An index served from a
  /// read-only snapshot still refuses Insert/Erase after Thaw().
  void Thaw();
  bool frozen() const { return frozen_; }

 protected:
  /// Guard for mutating entry points; call first in Insert/Erase. Refuses
  /// frozen indexes and indexes over read-only (snapshot) backends, before
  /// any page is fetched.
  [[nodiscard]] Status CheckMutable() const;

 private:
  bool frozen_ = false;
};

}  // namespace lsdb

#endif  // LSDB_INDEX_SPATIAL_INDEX_H_
