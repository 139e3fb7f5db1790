// R*-tree (Beckmann, Kriegel, Schneider, Seeger, SIGMOD 1990).
//
// The paper's first structure: an R-tree variant with
//  * overlap-minimizing ChooseSubtree at the level above the leaves,
//  * split-axis selection by minimum total margin (perimeter),
//  * split-distribution selection by minimum overlap (ties: minimum area),
//  * forced reinsertion of the 30% of entries farthest from the node
//    center, once per level per insertion ("the computationally expensive
//    node overflow technique where 30% of the bounding boxes are reinserted
//    into the structure").
//
// Leaf entries are (segment MBR, segment id); each segment is stored in
// exactly one leaf, so bounding rectangles of different subtrees may
// overlap and searches may have to descend several subtrees.

#ifndef LSDB_RTREE_RSTAR_TREE_H_
#define LSDB_RTREE_RSTAR_TREE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lsdb/index/spatial_index.h"
#include "lsdb/rtree/rnode.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/storage/buffer_pool.h"
#include "lsdb/storage/page_file.h"

namespace lsdb {

class RStarTree : public SpatialIndex {
 public:
  /// `file` provides index storage (not owned); `segs` is the shared
  /// segment table (not owned). Call Init() before use.
  RStarTree(const IndexOptions& options, PageFile* file, SegmentTable* segs);

  /// Creates a fresh tree. Requires an empty page file (superblock at 0).
  [[nodiscard]] Status Init();
  /// Reopens a tree previously built and Flush()ed into this page file.
  [[nodiscard]] Status Open();

  std::string Name() const override { return "R*"; }

  /// Bottom-up Hilbert-packed build (src/lsdb/build/bulk_rstar.cc).
  /// Requires a freshly Init()ed, empty tree; `items` are (segment id,
  /// geometry) records whose geometry matches the shared segment table.
  /// Produces the same queryable index as inserting every item one at a
  /// time — verified by the equivalence suite — at a fraction of the cost,
  /// with leaves packed to options.bulk_fill of capacity.
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

  uint64_t size() const { return size_; }
  uint32_t height() const { return root_level_ + 1u; }
  /// Average number of entries per leaf page (paper reports ~36 at 1K).
  double AverageLeafOccupancy();

  /// MBRs of all leaf nodes (for visualization; they may overlap).
  [[nodiscard]] Status CollectLeafMbrs(std::vector<Rect>* out);

  /// Entry capacity M of a node page (introspection x-ray).
  uint32_t node_capacity() const { return cap_; }

  /// Offline read-only walk over every node for the introspection x-ray:
  /// `fn` is called once per node with its depth from the root (root = 0).
  /// Streams through the buffer pool like any query.
  [[nodiscard]] Status VisitNodes(
      const std::function<void(uint32_t depth, const RNode& node)>& fn);

 private:
  /// Root-to-target path of page ids (front = root).
  [[nodiscard]] Status ChoosePath(const Rect& r, uint8_t target_level,
                    std::vector<PageId>* path);
  /// Inserts entry `e` at tree level `level`, handling overflow.
  [[nodiscard]] Status InsertEntry(const RNodeEntry& e, uint8_t level);
  /// Handles an overfull node at path.back(): forced reinsert or split.
  [[nodiscard]] Status HandleOverflow(std::vector<PageId> path, RNode node);
  /// Splits `node`; the new right sibling's entry is inserted in the
  /// parent, recursing on parent overflow.
  [[nodiscard]] Status SplitNode(std::vector<PageId> path, RNode node);
  /// Recomputes ancestor entry rectangles along `path` after the node at
  /// path.back() changed.
  [[nodiscard]] Status UpdatePathRects(const std::vector<PageId>& path);
  /// Grows the tree by one level with the two given children.
  [[nodiscard]] Status GrowRoot(const RNodeEntry& left, const RNodeEntry& right);

  /// R* split of cap+1 entries into two groups (returned via outputs).
  void RStarSplit(std::vector<RNodeEntry> entries,
                  std::vector<RNodeEntry>* left,
                  std::vector<RNodeEntry>* right) const;

  /// Finds the leaf containing entry (mbr,id); fills the root-to-leaf path.
  [[nodiscard]] Status FindLeafPath(PageId pid, const Rect& mbr, SegmentId id,
                      std::vector<PageId>* path, bool* found);
  [[nodiscard]] Status WindowQueryRec(PageId pid, uint8_t expected_level, const Rect& w,
                        std::vector<SegmentHit>* out);
  [[nodiscard]] Status VisitNodesRec(
      PageId pid, uint8_t expected_level,
      const std::function<void(uint32_t depth, const RNode& node)>& fn);
  [[nodiscard]] Status CheckRec(PageId pid, uint8_t expected_level, const Rect& parent,
                  bool is_root, uint32_t* pages, uint64_t* segments);

  IndexOptions options_;
  MetricCounters metrics_;
  BufferPool pool_;
  RNodeIO io_;
  SegmentTable* segs_;

  PageId root_ = kInvalidPageId;
  uint8_t root_level_ = 0;
  uint64_t size_ = 0;
  uint32_t cap_;          ///< M
  uint32_t min_entries_;  ///< m = 40% of M
  uint32_t reinsert_count_;
  std::vector<bool> reinserted_level_;  ///< Per top-level Insert().
};

}  // namespace lsdb

#endif  // LSDB_RTREE_RSTAR_TREE_H_
