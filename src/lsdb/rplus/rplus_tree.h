// R+-tree, the paper's hybrid variant (between k-d-B-tree and R+-tree).
//
// Properties (paper Section 3):
//  * Non-leaf entries are *disjoint partition rectangles* that together
//    cover the parent's region — not minimized MBRs ("we use minimum
//    bounding rectangles for the line segments in the leaf nodes while we
//    don't do so in the nonleaf nodes").
//  * A segment is stored in *every* leaf whose region it intersects, so
//    searches never have to visit overlapping subtrees, at the price of
//    extra storage (the paper measured 26-43% more than the R*-tree).
//  * Node split: "a node should be split in a way that minimizes the total
//    number of resulting portions of line segments (bounding rectangles
//    when the node is not a leaf node)" — all axis-parallel candidate
//    lines are tried, minimum-cut wins, ties broken by the most even
//    distribution. Interior splits propagate *downward* through straddling
//    children, k-d-B style.
//
// Partition regions are closed rectangles sharing their boundary edges, so
// the continuous space is fully covered (a query point or crossing segment
// always lies in at least one leaf region). Segments exactly on a split
// line are stored on both sides.
//
// The theoretical corner case of footnote 2 (more than M segments meeting
// in an unsplittable region) is handled with leaf overflow chains.

#ifndef LSDB_RPLUS_RPLUS_TREE_H_
#define LSDB_RPLUS_RPLUS_TREE_H_

#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lsdb/index/spatial_index.h"
#include "lsdb/rtree/rnode.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/storage/buffer_pool.h"
#include "lsdb/storage/page_file.h"

namespace lsdb {

/// Node split policies (ablation bench). The paper's choice is kMinCut.
enum class RPlusSplitPolicy {
  kMinCut,     ///< Fewest segments/child-rects cut; ties: most even.
  kEvenCount,  ///< Most even distribution regardless of cuts (k-d-B-like).
  kMidpoint,   ///< Halve the longer region axis (pure k-d-B style).
};

class RPlusTree : public SpatialIndex {
 public:
  RPlusTree(const IndexOptions& options, PageFile* file, SegmentTable* segs,
            RPlusSplitPolicy policy = RPlusSplitPolicy::kMinCut);

  /// Creates a fresh tree. Requires an empty page file (superblock at 0).
  [[nodiscard]] Status Init();
  /// Reopens a tree previously built and Flush()ed into this page file.
  [[nodiscard]] Status Open();

  std::string Name() const override { return "R+"; }

  /// Bottom-up bulk build (src/lsdb/build/bulk_rplus.cc): a recursive
  /// top-down partition of the world by min-cut sweep lines (the same cost
  /// function as the incremental split, evaluated in linear time per
  /// region over radix-sorted boundary views) writes the disjoint leaf
  /// regions directly; the upper levels are packed along the partition
  /// tree, whose sibling regions tile each parent by construction.
  /// Requires a freshly Init()ed, empty tree; every item must intersect
  /// the world rectangle.
  [[nodiscard]] Status BulkLoad(const std::vector<std::pair<SegmentId, Segment>>& items);

  [[nodiscard]] Status Insert(SegmentId id, const Segment& s) override;
  [[nodiscard]] Status Erase(SegmentId id, const Segment& s) override;
  [[nodiscard]] Status WindowQueryEx(const Rect& w, std::vector<SegmentHit>* out) override;
  [[nodiscard]] StatusOr<NearestResult> Nearest(const Point& p) override;
  /// Persists the superblock and all dirty pages.
  [[nodiscard]] Status Flush() override;
  uint64_t bytes() const override {
    return static_cast<uint64_t>(io_.live_pages()) * options_.page_size;
  }
  const MetricCounters& metrics() const override { return metrics_; }
  const BufferPool* pool() const override { return &pool_; }
  [[nodiscard]] Status CheckInvariants() override;

  /// Number of distinct segments stored.
  uint64_t size() const { return size_; }
  uint32_t height() const { return root_level_ + 1u; }
  /// Average leaf-page entry count (paper reports ~32 at 1K); counts
  /// stored copies, not distinct segments.
  double AverageLeafOccupancy();

  /// Disjoint partition regions of all leaves (for visualization).
  [[nodiscard]] Status CollectLeafRegions(std::vector<Rect>* out);

  /// Entry capacity M of a node page (introspection x-ray).
  uint32_t node_capacity() const { return cap_; }

  /// Offline read-only walk over every node for the introspection x-ray:
  /// `fn` is called once per node with its depth from the root (root = 0).
  /// Leaf overflow-chain pages are visited as separate leaf nodes at their
  /// owner's depth. Streams through the buffer pool like any query.
  [[nodiscard]] Status VisitNodes(
      const std::function<void(uint32_t depth, const RNode& node)>& fn);

 private:
  /// Loads a leaf including its overflow chain; chain page ids (excluding
  /// `pid` itself) are appended to *chain.
  [[nodiscard]] Status LoadLeafChain(PageId pid, RNode* node, std::vector<PageId>* chain);
  /// Stores a leaf, spilling entries beyond capacity into a fresh chain.
  [[nodiscard]] Status StoreLeafChain(PageId pid, RNode node);
  /// Frees a node page; for leaves also frees the overflow chain.
  [[nodiscard]] Status FreeSubtreePage(PageId pid, bool leaf);

  [[nodiscard]] Status InsertRec(PageId pid, const Rect& region, SegmentId id,
                   const Segment& s, std::vector<RNodeEntry>* replacements);

  /// Splits an overfull set of leaf entries covering `region` into one or
  /// more stored leaves (recursively), appending their entries to *out.
  [[nodiscard]] Status SplitLeafMulti(const Rect& region, std::vector<RNodeEntry> entries,
                        std::vector<RNodeEntry>* out);
  /// Same for internal entries (disjoint child rectangles).
  [[nodiscard]] Status SplitInternalMulti(const Rect& region, uint8_t level,
                            std::vector<RNodeEntry> entries,
                            std::vector<RNodeEntry>* out);

  /// Splits the subtree rooted at `entry` by an axis line into two
  /// subtrees (downward k-d-B split). Appends the two replacement entries.
  [[nodiscard]] Status SplitSubtree(const RNodeEntry& entry, uint8_t level, bool x_axis,
                      Coord line, std::vector<RNodeEntry>* out);

  /// Chooses a split line for leaf entries. Returns false if the region
  /// cannot be usefully split (degenerate region or no candidate).
  bool ChooseLeafSplit(const std::vector<RNodeEntry>& entries,
                       const Rect& region, bool* x_axis, Coord* line) const;
  bool ChooseInternalSplit(const std::vector<RNodeEntry>& entries,
                           const Rect& region, bool* x_axis,
                           Coord* line) const;

  [[nodiscard]] Status EraseRec(PageId pid, const Rect& region, SegmentId id,
                  const Segment& s, bool* found);
  [[nodiscard]] Status WindowQueryRec(PageId pid, uint8_t expected_level,
                                      const Rect& w,
                                      std::unordered_set<SegmentId>* seen,
                                      std::vector<SegmentHit>* out);
  [[nodiscard]] Status CheckRec(PageId pid, uint8_t expected_level, const Rect& region,
                  uint32_t* pages, std::unordered_set<SegmentId>* distinct);
  [[nodiscard]] Status VisitNodesRec(
      PageId pid, uint8_t expected_level,
      const std::function<void(uint32_t depth, const RNode& node)>& fn);

  IndexOptions options_;
  RPlusSplitPolicy policy_;
  MetricCounters metrics_;
  BufferPool pool_;
  RNodeIO io_;
  SegmentTable* segs_;

  Rect world_;
  PageId root_ = kInvalidPageId;
  uint8_t root_level_ = 0;
  uint64_t size_ = 0;
  uint32_t cap_;
};

}  // namespace lsdb

#endif  // LSDB_RPLUS_RPLUS_TREE_H_
