#include "lsdb/btree/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "lsdb/introspect/profiler.h"
#include "lsdb/service/cancel.h"

namespace lsdb {

namespace {

constexpr uint8_t kLeafKind = 1;
constexpr uint8_t kInternalKind = 2;
constexpr size_t kHeaderSize = 12;

void PutU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }
void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint16_t GetU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Internal pages: one leading child, then `count` (key, child) pairs.
constexpr uint32_t kInternalStride = 12;

}  // namespace

/// Page layout: byte 0 kind, bytes 2-3 record count, bytes 4-7 / 8-11 the
/// leaf chain's prev / next, then the records. A leaf holds `count` keys,
/// each followed by its payload; an internal page holds child 0 and then
/// `count` (key, child) pairs. Open() validates the header exactly once;
/// the accessors then read the pinned frame directly, so a probe costs a
/// binary search over the page rather than a copy of it.
class BTree::NodeView {
 public:
  /// Releases the page held (if any), then pins page `id` of `tree` and
  /// validates its header. The previous page is released first so a read
  /// never holds two pages of the pool.
  [[nodiscard]] Status Open(const BTree& tree, PageId id);
  /// Open() for a page reached through a leaf's prev/next link, where a
  /// non-leaf page means a corrupt sibling pointer.
  [[nodiscard]] Status OpenChained(const BTree& tree, PageId id);
  void Release() { ref_.Release(); }

  bool leaf() const { return leaf_; }
  uint32_t count() const { return count_; }
  /// Leaf chain links (leaves only).
  PageId prev() const { return GetU32(page_ + 4); }
  PageId next() const { return GetU32(page_ + 8); }
  uint64_t key(uint32_t i) const {
    return GetU64(keys_ + static_cast<size_t>(i) * stride_);
  }
  /// Leaves only: the payload bytes of record i.
  const uint8_t* payload(uint32_t i) const {
    return keys_ + static_cast<size_t>(i) * stride_ + 8;
  }
  /// Internal pages only: child i of count() + 1.
  PageId child(uint32_t i) const {
    return GetU32(page_ + kHeaderSize +
                  static_cast<size_t>(i) * kInternalStride);
  }
  /// Internal pages only: all count() + 1 children, copied out so they
  /// can be visited after this page is released.
  std::vector<PageId> Children() const {
    std::vector<PageId> out(static_cast<size_t>(count_) + 1);
    for (uint32_t i = 0; i <= count_; ++i) out[i] = child(i);
    return out;
  }
  /// First index whose key is >= k, else count().
  uint32_t LowerBound(uint64_t k) const {
    return Partition(0, [k](uint64_t x) { return x < k; });
  }
  /// First index in [from, count()) whose key is > k, else count().
  uint32_t UpperBound(uint64_t k, uint32_t from = 0) const {
    return Partition(from, [k](uint64_t x) { return x <= k; });
  }

 private:
  /// Binary search for the first index in [lo, count()) whose key fails
  /// `before`, assuming the keys there are sorted.
  template <typename Pred>
  uint32_t Partition(uint32_t lo, Pred before) const {
    uint32_t hi = count_;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (before(key(mid))) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  BufferPool::PageRef ref_;
  const uint8_t* page_ = nullptr;
  const uint8_t* keys_ = nullptr;  // the first key
  uint32_t stride_ = 0;            // bytes from one key to the next
  uint32_t count_ = 0;
  bool leaf_ = false;
};

Status BTree::NodeView::Open(const BTree& tree, PageId id) {
  ref_.Release();
  auto ref = tree.pool_->Fetch(id);
  if (!ref.ok()) return ref.status();
  ref_ = std::move(*ref);
  page_ = ref_.data();
  const uint8_t kind = page_[0];
  count_ = GetU16(page_ + 2);
  // An out-of-range count on a corrupt page would otherwise send the
  // accessors past the page buffer.
  if (kind == kLeafKind) {
    if (count_ > tree.LeafCapacity()) {
      return Status::Corruption("btree leaf count exceeds capacity");
    }
    leaf_ = true;
    keys_ = page_ + kHeaderSize;
    stride_ = 8 + tree.payload_size_;
  } else if (kind == kInternalKind) {
    if (count_ > tree.InternalCapacity()) {
      return Status::Corruption("btree internal count exceeds capacity");
    }
    leaf_ = false;
    keys_ = page_ + kHeaderSize + 4;
    stride_ = kInternalStride;
  } else {
    return Status::Corruption("bad btree node kind");
  }
  return Status::OK();
}

Status BTree::NodeView::OpenChained(const BTree& tree, PageId id) {
  LSDB_RETURN_IF_ERROR(Open(tree, id));
  if (!leaf_) {
    return Status::Corruption("btree leaf chain reaches a non-leaf page");
  }
  return Status::OK();
}

BTree::BTree(BufferPool* pool, uint32_t payload_size)
    : pool_(pool), payload_size_(payload_size) {}

uint32_t BTree::LeafCapacity() const {
  return (pool_->page_size() - kHeaderSize) / (8 + payload_size_);
}

uint32_t BTree::InternalCapacity() const {
  // Internal payload: one leading child (4 bytes) + count * (key + child).
  return (pool_->page_size() - kHeaderSize - 4) / 12;
}

Status BTree::Init() {
  assert(root_ == kInvalidPageId);  // NOLINT(lsdb-assert-on-disk): Init precondition on in-memory state
  auto id = AllocNode();
  if (!id.ok()) return id.status();
  root_ = *id;
  Node root;
  root.leaf = true;
  return StoreNode(root_, root);
}

StatusOr<PageId> BTree::AllocNode() {
  auto ref = pool_->New();
  if (!ref.ok()) return ref.status();
  ++live_pages_;
  return ref->id();
}

Status BTree::FreeNode(PageId id) {
  --live_pages_;
  return pool_->Free(id);
}

Status BTree::LoadNode(PageId id, Node* node) {
  NodeView view;
  LSDB_RETURN_IF_ERROR(view.Open(*this, id));
  const uint32_t count = view.count();
  node->leaf = view.leaf();
  node->keys.resize(count);
  for (uint32_t i = 0; i < count; ++i) node->keys[i] = view.key(i);
  if (node->leaf) {
    node->prev = view.prev();
    node->next = view.next();
    node->children.clear();
    node->payloads.resize(static_cast<size_t>(count) * payload_size_);
    if (payload_size_ > 0) {
      for (uint32_t i = 0; i < count; ++i) {
        std::memcpy(node->payloads.data() +
                        static_cast<size_t>(i) * payload_size_,
                    view.payload(i), payload_size_);
      }
    }
  } else {
    node->prev = node->next = kInvalidPageId;
    node->children = view.Children();
    node->payloads.clear();
  }
  return Status::OK();
}

Status BTree::StoreNode(PageId id, const Node& node) {
  auto ref = pool_->Fetch(id);
  if (!ref.ok()) return ref.status();
  uint8_t* p = ref->data();
  std::memset(p, 0, pool_->page_size());
  p[0] = node.leaf ? kLeafKind : kInternalKind;
  PutU16(p + 2, static_cast<uint16_t>(node.keys.size()));
  if (node.leaf) {
    assert(node.keys.size() <= LeafCapacity());  // NOLINT(lsdb-assert-on-disk): write-path invariant on the in-memory node
    assert(node.payloads.size() == node.keys.size() * payload_size_);  // NOLINT(lsdb-assert-on-disk): write-path invariant on the in-memory node
    PutU32(p + 4, node.prev);
    PutU32(p + 8, node.next);
    uint8_t* q = p + kHeaderSize;
    for (size_t i = 0; i < node.keys.size(); ++i) {
      PutU64(q, node.keys[i]);
      q += 8;
      if (payload_size_ > 0) {
        std::memcpy(q, node.payloads.data() + i * payload_size_,
                    payload_size_);
        q += payload_size_;
      }
    }
  } else {
    assert(node.keys.size() <= InternalCapacity());  // NOLINT(lsdb-assert-on-disk): write-path invariant on the in-memory node
    assert(node.children.size() == node.keys.size() + 1);  // NOLINT(lsdb-assert-on-disk): write-path invariant on the in-memory node
    uint8_t* q = p + kHeaderSize;
    PutU32(q, node.children[0]);
    q += 4;
    for (size_t i = 0; i < node.keys.size(); ++i, q += 12) {
      PutU64(q, node.keys[i]);
      PutU32(q + 8, node.children[i + 1]);
    }
  }
  ref->MarkDirty();
  return Status::OK();
}

Status BTree::Insert(uint64_t key, const void* payload) {
  assert(payload_size_ == 0 || payload != nullptr);  // NOLINT(lsdb-assert-on-disk): caller contract, not disk data
  SplitResult split;
  LSDB_RETURN_IF_ERROR(InsertRec(
      root_, key, static_cast<const uint8_t*>(payload), &split));
  if (split.split) {
    auto new_root_id = AllocNode();
    if (!new_root_id.ok()) return new_root_id.status();
    Node new_root;
    new_root.leaf = false;
    new_root.keys.push_back(split.sep_key);
    new_root.children.push_back(root_);
    new_root.children.push_back(split.right);
    LSDB_RETURN_IF_ERROR(StoreNode(*new_root_id, new_root));
    root_ = *new_root_id;
    ++height_;
  }
  ++size_;
  return Status::OK();
}

Status BTree::InsertRec(PageId node_id, uint64_t key,
                        const uint8_t* payload, SplitResult* out) {
  out->split = false;
  Node node;
  LSDB_RETURN_IF_ERROR(LoadNode(node_id, &node));
  if (node.leaf) {
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
    if (it != node.keys.end() && *it == key) {
      return Status::InvalidArgument("duplicate btree key");
    }
    const size_t idx = static_cast<size_t>(it - node.keys.begin());
    node.keys.insert(it, key);
    if (payload_size_ > 0) {
      node.payloads.insert(node.payloads.begin() + idx * payload_size_,
                           payload, payload + payload_size_);
    }
    if (node.keys.size() <= LeafCapacity()) {
      return StoreNode(node_id, node);
    }
    // Split the leaf; right sibling takes the upper half.
    auto right_id = AllocNode();
    if (!right_id.ok()) return right_id.status();
    Node right;
    right.leaf = true;
    const size_t mid = node.keys.size() / 2;
    right.keys.assign(node.keys.begin() + mid, node.keys.end());
    node.keys.resize(mid);
    if (payload_size_ > 0) {
      right.payloads.assign(node.payloads.begin() + mid * payload_size_,
                            node.payloads.end());
      node.payloads.resize(mid * payload_size_);
    }
    right.prev = node_id;
    right.next = node.next;
    node.next = *right_id;
    if (right.next != kInvalidPageId) {
      Node after;
      LSDB_RETURN_IF_ERROR(LoadNode(right.next, &after));
      after.prev = *right_id;
      LSDB_RETURN_IF_ERROR(StoreNode(right.next, after));
    }
    LSDB_RETURN_IF_ERROR(StoreNode(node_id, node));
    LSDB_RETURN_IF_ERROR(StoreNode(*right_id, right));
    out->split = true;
    out->sep_key = right.keys.front();
    out->right = *right_id;
    return Status::OK();
  }

  // Internal node: route to the child covering `key`.
  const size_t idx =
      std::upper_bound(node.keys.begin(), node.keys.end(), key) -
      node.keys.begin();
  SplitResult child_split;
  LSDB_RETURN_IF_ERROR(
      InsertRec(node.children[idx], key, payload, &child_split));
  if (!child_split.split) return Status::OK();
  node.keys.insert(node.keys.begin() + idx, child_split.sep_key);
  node.children.insert(node.children.begin() + idx + 1, child_split.right);
  if (node.keys.size() <= InternalCapacity()) {
    return StoreNode(node_id, node);
  }
  // Split the internal node; the median separator moves up.
  auto right_id = AllocNode();
  if (!right_id.ok()) return right_id.status();
  Node right;
  right.leaf = false;
  const size_t mid = node.keys.size() / 2;
  out->sep_key = node.keys[mid];
  right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
  right.children.assign(node.children.begin() + mid + 1,
                        node.children.end());
  node.keys.resize(mid);
  node.children.resize(mid + 1);
  LSDB_RETURN_IF_ERROR(StoreNode(node_id, node));
  LSDB_RETURN_IF_ERROR(StoreNode(*right_id, right));
  out->split = true;
  out->right = *right_id;
  return Status::OK();
}

namespace {

/// Number of groups to pack `n` items into so that every group holds at
/// least `min_per` and at most `2 * min_per - 1 + (target - min_per)`...
/// concretely: start from ceil(n / target) groups and shed groups until
/// the evenly distributed minimum floor(n / k) reaches `min_per`. The
/// caller distributes remainders one-per-group from the left, so group
/// sizes are floor(n/k) or floor(n/k)+1, and floor(n/k)+1 never exceeds
/// `target` <= capacity (if it did, ceil(n/target) would have been larger).
uint64_t PackGroupCount(uint64_t n, uint64_t target, uint64_t min_per) {
  uint64_t k = (n + target - 1) / target;
  while (k > 1 && n / k < min_per) --k;
  return k;
}

}  // namespace

Status BTree::BulkLoad(const std::vector<uint64_t>& keys,
                       const uint8_t* payloads, double fill) {
  if (size_ != 0 || height_ != 1 || live_pages_ != 1) {
    return Status::InvalidArgument("BulkLoad requires a fresh empty tree");
  }
  assert(payload_size_ == 0 || payloads != nullptr || keys.empty());  // NOLINT(lsdb-assert-on-disk): caller contract, not disk data
  for (size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] <= keys[i - 1]) {
      return Status::InvalidArgument("BulkLoad keys must strictly ascend");
    }
  }
  const uint64_t n = keys.size();
  if (n == 0) return Status::OK();

  const uint64_t cap = LeafCapacity();
  const uint64_t min_keys = cap / 2;
  const uint64_t target = std::max<uint64_t>(
      std::max<uint64_t>(1, min_keys),
      std::min(cap, static_cast<uint64_t>(fill * static_cast<double>(cap))));
  const uint64_t k = PackGroupCount(n, target, min_keys);

  // Allocate every leaf page id up front (the Init() root doubles as the
  // first leaf) so each page is written exactly once, chain links included.
  std::vector<PageId> leaf_ids(k, root_);
  for (uint64_t i = 1; i < k; ++i) {
    auto id = AllocNode();
    if (!id.ok()) return id.status();
    leaf_ids[i] = *id;
  }

  struct ChildRef {
    uint64_t first_key;  // smallest key in the child's subtree
    PageId pid;
  };
  std::vector<ChildRef> level;
  level.reserve(k);
  const uint64_t base = n / k, extra = n % k;
  uint64_t pos = 0;
  for (uint64_t i = 0; i < k; ++i) {
    const uint64_t cnt = base + (i < extra ? 1 : 0);
    Node leaf;
    leaf.leaf = true;
    leaf.prev = i > 0 ? leaf_ids[i - 1] : kInvalidPageId;
    leaf.next = i + 1 < k ? leaf_ids[i + 1] : kInvalidPageId;
    leaf.keys.assign(keys.begin() + pos, keys.begin() + pos + cnt);
    if (payload_size_ > 0) {
      leaf.payloads.assign(payloads + pos * payload_size_,
                           payloads + (pos + cnt) * payload_size_);
    }
    LSDB_RETURN_IF_ERROR(StoreNode(leaf_ids[i], leaf));
    level.push_back(ChildRef{leaf.keys.front(), leaf_ids[i]});
    pos += cnt;
  }

  // Build internal levels until one node references everything. Internal
  // nodes are packed by child count; a node with c children holds c - 1
  // keys, so the non-root minimum of InternalCapacity()/2 keys translates
  // to InternalCapacity()/2 + 1 children.
  uint32_t height = 1;
  while (level.size() > 1) {
    ++height;
    const uint64_t child_cap = static_cast<uint64_t>(InternalCapacity()) + 1;
    const uint64_t kk =
        PackGroupCount(level.size(), child_cap,
                       static_cast<uint64_t>(InternalCapacity()) / 2 + 1);
    std::vector<ChildRef> next;
    next.reserve(kk);
    const uint64_t b = level.size() / kk, e = level.size() % kk;
    uint64_t at = 0;
    for (uint64_t i = 0; i < kk; ++i) {
      const uint64_t cnt = b + (i < e ? 1 : 0);
      auto id = AllocNode();
      if (!id.ok()) return id.status();
      Node node;
      node.leaf = false;
      node.children.push_back(level[at].pid);
      for (uint64_t j = 1; j < cnt; ++j) {
        node.keys.push_back(level[at + j].first_key);
        node.children.push_back(level[at + j].pid);
      }
      LSDB_RETURN_IF_ERROR(StoreNode(*id, node));
      next.push_back(ChildRef{level[at].first_key, *id});
      at += cnt;
    }
    level = std::move(next);
  }
  root_ = level[0].pid;
  height_ = height;
  size_ = n;
  return Status::OK();
}

Status BTree::Erase(uint64_t key) {
  bool underflow = false;
  LSDB_RETURN_IF_ERROR(EraseRec(root_, key, &underflow));
  --size_;
  // Collapse the root if it is an internal node with a single child.
  Node root;
  LSDB_RETURN_IF_ERROR(LoadNode(root_, &root));
  if (!root.leaf && root.keys.empty()) {
    const PageId old_root = root_;
    root_ = root.children[0];
    LSDB_RETURN_IF_ERROR(FreeNode(old_root));
    --height_;
  }
  return Status::OK();
}

Status BTree::EraseRec(PageId node_id, uint64_t key, bool* underflow) {
  Node node;
  LSDB_RETURN_IF_ERROR(LoadNode(node_id, &node));
  if (node.leaf) {
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
    if (it == node.keys.end() || *it != key) {
      return Status::NotFound("btree key");
    }
    const size_t idx = static_cast<size_t>(it - node.keys.begin());
    node.keys.erase(it);
    if (payload_size_ > 0) {
      node.payloads.erase(
          node.payloads.begin() + idx * payload_size_,
          node.payloads.begin() + (idx + 1) * payload_size_);
    }
    LSDB_RETURN_IF_ERROR(StoreNode(node_id, node));
    *underflow = node.keys.size() < LeafCapacity() / 2;
    return Status::OK();
  }
  const size_t idx =
      std::upper_bound(node.keys.begin(), node.keys.end(), key) -
      node.keys.begin();
  bool child_underflow = false;
  LSDB_RETURN_IF_ERROR(EraseRec(node.children[idx], key, &child_underflow));
  bool dirty = false;
  if (child_underflow) {
    LSDB_RETURN_IF_ERROR(FixUnderflow(node_id, &node, idx, &dirty));
  }
  if (dirty) {
    LSDB_RETURN_IF_ERROR(StoreNode(node_id, node));
  }
  *underflow = node.keys.size() < InternalCapacity() / 2;
  return Status::OK();
}

Status BTree::FixUnderflow(PageId parent_id, Node* parent, size_t idx,
                           bool* parent_dirty) {
  (void)parent_id;
  Node child;
  LSDB_RETURN_IF_ERROR(LoadNode(parent->children[idx], &child));
  const uint32_t min_keys =
      child.leaf ? LeafCapacity() / 2 : InternalCapacity() / 2;
  const size_t ps = payload_size_;

  // Try borrowing from the left sibling.
  if (idx > 0) {
    Node left;
    LSDB_RETURN_IF_ERROR(LoadNode(parent->children[idx - 1], &left));
    if (left.keys.size() > min_keys) {
      if (child.leaf) {
        child.keys.insert(child.keys.begin(), left.keys.back());
        left.keys.pop_back();
        if (ps > 0) {
          child.payloads.insert(child.payloads.begin(),
                                left.payloads.end() - ps,
                                left.payloads.end());
          left.payloads.resize(left.payloads.size() - ps);
        }
        parent->keys[idx - 1] = child.keys.front();
      } else {
        child.keys.insert(child.keys.begin(), parent->keys[idx - 1]);
        parent->keys[idx - 1] = left.keys.back();
        left.keys.pop_back();
        child.children.insert(child.children.begin(), left.children.back());
        left.children.pop_back();
      }
      LSDB_RETURN_IF_ERROR(StoreNode(parent->children[idx - 1], left));
      LSDB_RETURN_IF_ERROR(StoreNode(parent->children[idx], child));
      *parent_dirty = true;
      return Status::OK();
    }
  }
  // Try borrowing from the right sibling.
  if (idx + 1 < parent->children.size()) {
    Node right;
    LSDB_RETURN_IF_ERROR(LoadNode(parent->children[idx + 1], &right));
    if (right.keys.size() > min_keys) {
      if (child.leaf) {
        child.keys.push_back(right.keys.front());
        right.keys.erase(right.keys.begin());
        if (ps > 0) {
          child.payloads.insert(child.payloads.end(),
                                right.payloads.begin(),
                                right.payloads.begin() + ps);
          right.payloads.erase(right.payloads.begin(),
                               right.payloads.begin() + ps);
        }
        parent->keys[idx] = right.keys.front();
      } else {
        child.keys.push_back(parent->keys[idx]);
        parent->keys[idx] = right.keys.front();
        right.keys.erase(right.keys.begin());
        child.children.push_back(right.children.front());
        right.children.erase(right.children.begin());
      }
      LSDB_RETURN_IF_ERROR(StoreNode(parent->children[idx + 1], right));
      LSDB_RETURN_IF_ERROR(StoreNode(parent->children[idx], child));
      *parent_dirty = true;
      return Status::OK();
    }
  }

  // Merge with a sibling. Normalize to merging children (li, li+1).
  const size_t li = idx > 0 ? idx - 1 : idx;
  Node left, right;
  LSDB_RETURN_IF_ERROR(LoadNode(parent->children[li], &left));
  LSDB_RETURN_IF_ERROR(LoadNode(parent->children[li + 1], &right));
  const PageId right_id = parent->children[li + 1];
  if (left.leaf) {
    left.keys.insert(left.keys.end(), right.keys.begin(), right.keys.end());
    left.payloads.insert(left.payloads.end(), right.payloads.begin(),
                         right.payloads.end());
    left.next = right.next;
    if (right.next != kInvalidPageId) {
      Node after;
      LSDB_RETURN_IF_ERROR(LoadNode(right.next, &after));
      after.prev = parent->children[li];
      LSDB_RETURN_IF_ERROR(StoreNode(right.next, after));
    }
  } else {
    left.keys.push_back(parent->keys[li]);
    left.keys.insert(left.keys.end(), right.keys.begin(), right.keys.end());
    left.children.insert(left.children.end(), right.children.begin(),
                         right.children.end());
  }
  LSDB_RETURN_IF_ERROR(StoreNode(parent->children[li], left));
  LSDB_RETURN_IF_ERROR(FreeNode(right_id));
  parent->keys.erase(parent->keys.begin() + li);
  parent->children.erase(parent->children.begin() + li + 1);
  *parent_dirty = true;
  return Status::OK();
}

Status BTree::DescendToLeaf(uint64_t key, NodeView* leaf) {
  PageId id = root_;
  // Bound the descent by the tree height: corrupt child pointers can form
  // cycles, and an unbounded loop would hang the query.
  for (uint32_t depth = 1;; ++depth) {
    if (depth > height_) {
      return Status::Corruption("btree descent exceeds tree height");
    }
    LSDB_RETURN_IF_CANCELLED();
    LSDB_RETURN_IF_ERROR(leaf->Open(*this, id));
    if (leaf->leaf()) return Status::OK();
    LSDB_INTROSPECT(OnBtreeNode(depth - 1, false, leaf->count(), 1));
    id = leaf->child(leaf->UpperBound(key));
  }
}

StatusOr<bool> BTree::Contains(uint64_t key) {
  NodeView leaf;
  LSDB_RETURN_IF_ERROR(DescendToLeaf(key, &leaf));
  LSDB_INTROSPECT(OnBtreeNode(height_ - 1, true, leaf.count(), 0));
  const uint32_t i = leaf.LowerBound(key);
  return i < leaf.count() && leaf.key(i) == key;
}

StatusOr<uint64_t> BTree::SeekLE(uint64_t key) {
  NodeView node;
  LSDB_RETURN_IF_ERROR(DescendToLeaf(key, &node));
  LSDB_INTROSPECT(OnBtreeNode(height_ - 1, true, node.count(), 1));
  const uint32_t i = node.UpperBound(key);
  if (i > 0) return node.key(i - 1);
  // All keys here exceed `key`; the predecessor (if any) is the last key of
  // the previous leaf (non-root leaves are never empty). The walk is
  // bounded by the page count — a longer chain is a pointer cycle — and a
  // predecessor above `key` means the chain links out of order.
  uint64_t hops = 0;
  for (PageId prev = node.prev(); prev != kInvalidPageId; prev = node.prev()) {
    if (++hops > live_pages_) {
      return Status::Corruption("btree leaf chain cycle");
    }
    LSDB_RETURN_IF_ERROR(node.OpenChained(*this, prev));
    if (node.count() == 0) continue;
    const uint64_t found = node.key(node.count() - 1);
    if (found > key) return Status::Corruption("btree leaf chain out of order");
    return found;
  }
  return Status::NotFound("no key <= probe");
}

StatusOr<uint64_t> BTree::SeekGE(uint64_t key) {
  NodeView node;
  LSDB_RETURN_IF_ERROR(DescendToLeaf(key, &node));
  LSDB_INTROSPECT(OnBtreeNode(height_ - 1, true, node.count(), 1));
  const uint32_t i = node.LowerBound(key);
  if (i < node.count()) return node.key(i);
  uint64_t hops = 0;
  for (PageId next = node.next(); next != kInvalidPageId; next = node.next()) {
    if (++hops > live_pages_) {
      return Status::Corruption("btree leaf chain cycle");
    }
    LSDB_RETURN_IF_ERROR(node.OpenChained(*this, next));
    if (node.count() == 0) continue;
    const uint64_t found = node.key(0);
    if (found < key) return Status::Corruption("btree leaf chain out of order");
    return found;
  }
  return Status::NotFound("no key >= probe");
}

Status BTree::Scan(uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t, const uint8_t*)>& fn) {
  if (lo > hi) return Status::OK();
  NodeView leaf;
  LSDB_RETURN_IF_ERROR(DescendToLeaf(lo, &leaf));
  uint32_t i = leaf.LowerBound(lo);
  // The descended leaf is the first hop of a walk bounded by the page
  // count — a longer chain is a pointer cycle.
  uint64_t hops = 1;
  for (;;) {
    // matched = this page's keys inside [lo, hi] (computed only when a
    // profile is installed; the search is macro-guarded).
    LSDB_INTROSPECT(OnBtreeNode(height_ - 1, true, leaf.count(),
                                leaf.UpperBound(hi, i) - i));
    for (; i < leaf.count(); ++i) {
      const uint64_t k = leaf.key(i);
      if (k > hi) return Status::OK();
      if (!fn(k, payload_size_ > 0 ? leaf.payload(i) : nullptr)) {
        return Status::OK();
      }
    }
    const PageId next = leaf.next();
    if (next == kInvalidPageId) return Status::OK();
    if (++hops > live_pages_) {
      return Status::Corruption("btree leaf chain cycle");
    }
    LSDB_RETURN_IF_CANCELLED();
    LSDB_RETURN_IF_ERROR(leaf.OpenChained(*this, next));
    i = 0;
  }
}

Status BTree::VisitPages(
    const std::function<void(uint32_t depth, bool leaf, uint32_t count,
                             uint32_t capacity)>& fn) {
  auto walk = [this, &fn](auto&& self, PageId id, uint32_t depth) -> Status {
    if (depth >= height_) {
      return Status::Corruption("btree walk exceeds tree height");
    }
    NodeView node;
    LSDB_RETURN_IF_ERROR(node.Open(*this, id));
    const bool leaf = node.leaf();
    const uint32_t count = node.count();
    // The children are walked with this page released.
    const std::vector<PageId> children =
        leaf ? std::vector<PageId>() : node.Children();
    node.Release();
    fn(depth, leaf, count, leaf ? LeafCapacity() : InternalCapacity());
    for (PageId child : children) {
      LSDB_RETURN_IF_ERROR(self(self, child, depth + 1));
    }
    return Status::OK();
  };
  return walk(walk, root_, 0);
}

Status BTree::CheckInvariants() {
  uint32_t leaf_depth = 0;
  uint64_t key_count = 0;
  uint32_t page_count = 0;
  LSDB_RETURN_IF_ERROR(
      CheckRec(root_, 1, 0, false, 0, false, &leaf_depth, &key_count,
               &page_count));
  if (key_count != size_) return Status::Corruption("size mismatch");
  if (leaf_depth != height_) return Status::Corruption("height mismatch");
  if (page_count != live_pages_) {
    return Status::Corruption("live page count mismatch");
  }
  return Status::OK();
}

Status BTree::CheckRec(PageId id, uint32_t depth, uint64_t lo, bool has_lo,
                       uint64_t hi, bool has_hi, uint32_t* leaf_depth,
                       uint64_t* key_count, uint32_t* page_count) {
  // Open() has already rejected a count above the page's capacity.
  NodeView node;
  LSDB_RETURN_IF_ERROR(node.Open(*this, id));
  ++*page_count;
  const uint32_t count = node.count();
  for (uint32_t i = 1; i < count; ++i) {
    if (node.key(i) < node.key(i - 1)) {
      return Status::Corruption("unsorted keys");
    }
  }
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t k = node.key(i);
    if ((has_lo && k < lo) || (has_hi && k >= hi)) {
      return Status::Corruption("key outside separator bounds");
    }
  }
  if (node.leaf()) {
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at unequal depth");
    }
    if (id != root_ && count < LeafCapacity() / 2) {
      return Status::Corruption("leaf underflow");
    }
    *key_count += count;
    return Status::OK();
  }
  if (id != root_ && count < InternalCapacity() / 2) {
    return Status::Corruption("internal underflow");
  }
  if (id == root_ && count == 0) {
    return Status::Corruption("internal root without separator");
  }
  // The children are checked with this page released.
  std::vector<uint64_t> keys(count);
  for (uint32_t i = 0; i < count; ++i) keys[i] = node.key(i);
  const std::vector<PageId> children = node.Children();
  node.Release();
  for (size_t i = 0; i < children.size(); ++i) {
    const bool c_has_lo = i > 0 || has_lo;
    const uint64_t c_lo = i > 0 ? keys[i - 1] : lo;
    const bool c_has_hi = i < keys.size() || has_hi;
    const uint64_t c_hi = i < keys.size() ? keys[i] : hi;
    LSDB_RETURN_IF_ERROR(CheckRec(children[i], depth + 1, c_lo, c_has_lo,
                                  c_hi, c_has_hi, leaf_depth, key_count,
                                  page_count));
  }
  return Status::OK();
}

}  // namespace lsdb
