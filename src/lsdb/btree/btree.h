// Disk-resident B-tree of fixed-size records: a uint64 key plus an
// optional fixed-width payload.
//
// This is the substrate of the linear PMR quadtree exactly as in the paper:
// each q-edge 2-tuple (locational code, segment id) packs into one uint64
// key ("using 4 bytes per entry, each 2-tuple requires 8 bytes of storage"),
// and all tuples are "stored in a B-tree indexed on the basis of the value
// of L". At 1K pages this yields ~120 tuples per leaf, matching the paper.
// The payload supports the paper's Section 6 "3-tuple" PMR variant that
// attaches a bounding box to every q-edge.
//
// Keys are unique. Leaves are doubly linked to support ordered scans and
// predecessor search across leaf boundaries (point location in the linear
// quadtree is a single SeekLE).
//
// All page access goes through the owning BufferPool, so buffer misses and
// write-backs are counted as disk accesses. Reads (Contains, SeekLE,
// SeekGE, Scan, VisitPages, CheckInvariants) search each pinned page in
// place: the header is validated once, then keys, children and payloads
// are read and binary-searched where they lie, and a probe's descent hands
// its pinned leaf straight to the search instead of fetching it again. A
// read holds one page at a time, releasing it before the next fetch.
// Writes (Insert, Erase) decode a node into a small in-memory struct,
// modify it and store it back, pinning at most two pages at any moment —
// so the tree keeps working even with tiny buffer pools (Figure 6 sweep).

#ifndef LSDB_BTREE_BTREE_H_
#define LSDB_BTREE_BTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "lsdb/storage/buffer_pool.h"
#include "lsdb/util/status.h"

namespace lsdb {

class BTree {
 public:
  /// Creates an empty tree in `pool` (allocates the root page). Leaf
  /// records are 8-byte keys followed by `payload_size` opaque bytes.
  /// Call Init() before first use.
  explicit BTree(BufferPool* pool, uint32_t payload_size = 0);

  [[nodiscard]] Status Init();

  /// Inserts a key (with `payload_size` bytes from `payload`, which may be
  /// null only when payload_size is 0). Returns InvalidArgument if the key
  /// already exists.
  [[nodiscard]] Status Insert(uint64_t key, const void* payload = nullptr);

  /// Removes a key. Returns NotFound if absent.
  [[nodiscard]] Status Erase(uint64_t key);

  /// Bulk-loads a freshly Init()ed, empty tree from strictly ascending
  /// keys (`payloads` holds keys.size() * payload_size bytes, record i at
  /// offset i * payload_size; may be null when payload_size is 0). Leaves
  /// are packed left-to-right to `fill` of LeafCapacity() — never below
  /// the non-root minimum occupancy — with the prev/next chain threaded
  /// through them, and internal levels are built bottom-up from the leaf
  /// run. The result is indistinguishable from a tree grown by Insert()
  /// except for its (tighter) page layout.
  [[nodiscard]] Status BulkLoad(const std::vector<uint64_t>& keys, const uint8_t* payloads,
                  double fill = 1.0);

  /// Membership test.
  [[nodiscard]] StatusOr<bool> Contains(uint64_t key);

  /// Greatest stored key <= `key`; NotFound if all keys are greater.
  [[nodiscard]] StatusOr<uint64_t> SeekLE(uint64_t key);

  /// Least stored key >= `key`; NotFound if all keys are smaller.
  [[nodiscard]] StatusOr<uint64_t> SeekGE(uint64_t key);

  /// Visits all records with keys in [lo, hi] in ascending order.
  /// `payload` points at the record's payload bytes (valid only during the
  /// call; null when payload_size is 0). `fn` returns false to stop early.
  /// `fn` runs with the record's leaf page pinned in this tree's pool: it
  /// must not modify this tree, and a read of this tree from inside `fn`
  /// pins a second page of the pool. Other trees and pools are unaffected.
  [[nodiscard]] Status Scan(uint64_t lo, uint64_t hi,
              const std::function<bool(uint64_t, const uint8_t*)>& fn);

  /// Number of stored keys.
  uint64_t size() const { return size_; }
  /// Tree height in levels (1 = root is a leaf).
  uint32_t height() const { return height_; }
  /// Pages currently used by the tree.
  uint32_t live_pages() const { return live_pages_; }
  /// Bytes used by the tree (live pages * page size).
  uint64_t bytes() const {
    return static_cast<uint64_t>(live_pages_) * pool_->page_size();
  }

  BufferPool* pool() { return pool_; }

  /// Root page id (persisted by owners of disk-resident trees).
  PageId root() const { return root_; }
  /// Restores tree state previously captured via root()/size()/height()/
  /// live_pages() — the Open() path of persistent owners. Replaces Init().
  void Restore(PageId root, uint64_t size, uint32_t height,
               uint32_t live_pages) {
    root_ = root;
    size_ = size;
    height_ = height;
    live_pages_ = live_pages;
  }

  /// Validates structural invariants (sorted keys, key/child counts, leaf
  /// chain consistency, separator correctness). For tests.
  [[nodiscard]] Status CheckInvariants();

  /// Offline read-only walk for the introspection x-ray: `fn` is called
  /// once per page with (depth from root, leaf?, record count, record
  /// capacity). Streams through the buffer pool like any query.
  [[nodiscard]] Status VisitPages(
      const std::function<void(uint32_t depth, bool leaf, uint32_t count,
                               uint32_t capacity)>& fn);

 private:
  struct Node {
    bool leaf = true;
    PageId prev = kInvalidPageId;  // leaf chain
    PageId next = kInvalidPageId;  // leaf chain
    std::vector<uint64_t> keys;
    std::vector<PageId> children;  // internal: keys.size() + 1 entries
    std::vector<uint8_t> payloads;  // leaf: keys.size() * payload_size
  };

  /// A node read in place from its pinned page (defined in btree.cc).
  class NodeView;

  uint32_t LeafCapacity() const;
  uint32_t InternalCapacity() const;  // max number of keys

  /// Decodes a node for the write path (read through a NodeView).
  [[nodiscard]] Status LoadNode(PageId id, Node* node);
  [[nodiscard]] Status StoreNode(PageId id, const Node& node);
  [[nodiscard]] StatusOr<PageId> AllocNode();
  [[nodiscard]] Status FreeNode(PageId id);

  struct SplitResult {
    bool split = false;
    uint64_t sep_key = 0;   // smallest key of the right sibling subtree
    PageId right = kInvalidPageId;
  };

  [[nodiscard]] Status InsertRec(PageId node_id, uint64_t key, const uint8_t* payload,
                   SplitResult* out);

  /// Erase from the subtree at node_id. `*underflow` reports whether the
  /// node is now below its minimum occupancy.
  [[nodiscard]] Status EraseRec(PageId node_id, uint64_t key, bool* underflow);
  /// Rebalances child `idx` of `parent` (stored at parent_id) after it
  /// underflowed: borrow from an adjacent sibling or merge.
  [[nodiscard]] Status FixUnderflow(PageId parent_id, Node* parent, size_t idx,
                      bool* parent_dirty);

  /// Descends to the leaf that would contain `key` and leaves it pinned in
  /// `leaf`. Inner pages are reported to the query profile here; the leaf
  /// is left to the caller, which knows how many of its keys matched.
  [[nodiscard]] Status DescendToLeaf(uint64_t key, NodeView* leaf);

  [[nodiscard]] Status CheckRec(PageId id, uint32_t depth, uint64_t lo, bool has_lo,
                  uint64_t hi, bool has_hi, uint32_t* leaf_depth,
                  uint64_t* key_count, uint32_t* page_count);

  BufferPool* pool_;
  uint32_t payload_size_;
  PageId root_ = kInvalidPageId;
  uint64_t size_ = 0;
  uint32_t height_ = 1;
  uint32_t live_pages_ = 0;
};

}  // namespace lsdb

#endif  // LSDB_BTREE_BTREE_H_
