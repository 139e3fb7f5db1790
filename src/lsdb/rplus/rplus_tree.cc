#include "lsdb/rplus/rplus_tree.h"

#include "lsdb/introspect/profiler.h"
#include "lsdb/service/cancel.h"
#include "lsdb/storage/superblock.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

namespace lsdb {

namespace {

/// Halves of `region` split by an axis-parallel line. The halves are
/// closed and share the split line, so their union covers the region with
/// no continuous gap.
void SplitRegion(const Rect& region, bool x_axis, Coord line, Rect* left,
                 Rect* right) {
  *left = region;
  *right = region;
  if (x_axis) {
    left->xmax = line;
    right->xmin = line;
  } else {
    left->ymax = line;
    right->ymin = line;
  }
}

}  // namespace

RPlusTree::RPlusTree(const IndexOptions& options, PageFile* file,
                     SegmentTable* segs, RPlusSplitPolicy policy)
    : options_(options),
      policy_(policy),
      pool_(file, options.buffer_frames, &metrics_),
      io_(&pool_),
      segs_(segs) {
  cap_ = io_.Capacity();
  const Coord world = Coord{1} << options.world_log2;
  world_ = Rect::Of(0, 0, world, world);
}

Status RPlusTree::Init() {
  auto sb = pool_.New();
  if (!sb.ok()) return sb.status();
  if (sb->id() != 0) {
    return Status::InvalidArgument("Init() requires a fresh page file");
  }
  sb->Release();
  auto id = io_.Alloc();
  if (!id.ok()) return id.status();
  root_ = *id;
  root_level_ = 0;
  RNode root;
  return io_.Store(root_, root);
}

Status RPlusTree::Open() {
  auto fields = ReadSuperblock(&pool_, 0, SuperblockKind::kRPlusTree);
  if (!fields.ok()) return fields.status();
  const SuperblockFields& f = *fields;
  if (f[4] != cap_ || f[5] != options_.world_log2) {
    return Status::InvalidArgument("options do not match stored structure");
  }
  root_ = static_cast<PageId>(f[0]);
  root_level_ = static_cast<uint8_t>(f[1]);
  size_ = f[2];
  io_.set_live_pages(static_cast<uint32_t>(f[3]));
  return Status::OK();
}

Status RPlusTree::Flush() {
  SuperblockFields f{};
  f[0] = root_;
  f[1] = root_level_;
  f[2] = size_;
  f[3] = io_.live_pages();
  f[4] = cap_;
  f[5] = options_.world_log2;
  LSDB_RETURN_IF_ERROR(
      WriteSuperblock(&pool_, 0, SuperblockKind::kRPlusTree, f));
  return pool_.FlushAll();
}

Status RPlusTree::LoadLeafChain(PageId pid, RNode* node,
                                std::vector<PageId>* chain) {
  LSDB_RETURN_IF_ERROR(io_.Load(pid, node));
  if (!node->leaf()) {
    return Status::Corruption("R+-tree leaf chain starts at a non-leaf");
  }
  PageId next = node->overflow;
  // A chain longer than the structure's page count is a pointer cycle.
  uint64_t hops = 0;
  while (next != kInvalidPageId) {
    if (++hops > io_.live_pages()) {
      return Status::Corruption("R+-tree overflow chain cycle");
    }
    chain->push_back(next);
    RNode part;
    LSDB_RETURN_IF_ERROR(io_.Load(next, &part));
    if (!part.leaf()) {
      return Status::Corruption(
          "R+-tree overflow chain reaches a non-leaf page");
    }
    node->entries.insert(node->entries.end(), part.entries.begin(),
                         part.entries.end());
    next = part.overflow;
  }
  node->overflow = kInvalidPageId;
  return Status::OK();
}

Status RPlusTree::StoreLeafChain(PageId pid, RNode node) {
  assert(node.leaf());  // NOLINT(lsdb-assert-on-disk): caller passes an in-memory leaf
  if (node.entries.size() <= cap_) {
    node.overflow = kInvalidPageId;
    return io_.Store(pid, node);
  }
  // Spill the tail into freshly allocated chain pages.
  std::vector<RNodeEntry> all = std::move(node.entries);
  size_t pos = cap_;
  std::vector<std::pair<PageId, RNode>> parts;
  node.entries.assign(all.begin(), all.begin() + cap_);
  PageId cur = pid;
  RNode cur_node = node;
  while (pos < all.size()) {
    auto next = io_.Alloc();
    if (!next.ok()) return next.status();
    cur_node.overflow = *next;
    LSDB_RETURN_IF_ERROR(io_.Store(cur, cur_node));
    const size_t take = std::min<size_t>(cap_, all.size() - pos);
    cur = *next;
    cur_node = RNode{};
    cur_node.entries.assign(all.begin() + pos, all.begin() + pos + take);
    pos += take;
  }
  cur_node.overflow = kInvalidPageId;
  return io_.Store(cur, cur_node);
}

Status RPlusTree::FreeSubtreePage(PageId pid, bool leaf) {
  if (leaf) {
    RNode node;
    LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
    PageId next = node.overflow;
    while (next != kInvalidPageId) {
      RNode part;
      LSDB_RETURN_IF_ERROR(io_.Load(next, &part));
      LSDB_RETURN_IF_ERROR(io_.Free(next));
      next = part.overflow;
    }
  }
  return io_.Free(pid);
}

bool RPlusTree::ChooseLeafSplit(const std::vector<RNodeEntry>& entries,
                                const Rect& region, bool* x_axis,
                                Coord* line) const {
  if (policy_ == RPlusSplitPolicy::kMidpoint) {
    const bool x = region.Width() >= region.Height();
    const Coord lo = x ? region.xmin : region.ymin;
    const Coord hi = x ? region.xmax : region.ymax;
    if (hi - lo < 2) {
      // Try the other axis before giving up.
      const Coord lo2 = x ? region.ymin : region.xmin;
      const Coord hi2 = x ? region.ymax : region.xmax;
      if (hi2 - lo2 < 2) return false;
      *x_axis = !x;
      *line = static_cast<Coord>((static_cast<int64_t>(lo2) + hi2) / 2);
      return true;
    }
    *x_axis = x;
    *line = static_cast<Coord>((static_cast<int64_t>(lo) + hi) / 2);
    return true;
  }

  // Candidate lines are entry MBR boundaries strictly inside the region.
  // For an axis line v: an entry lies fully left iff mbr.max < v, fully
  // right iff mbr.min > v, and is cut otherwise — this is exact for
  // axis-parallel lines and the two closed halves.
  bool best_found = false;
  uint64_t best_cuts = 0, best_imbalance = 0;
  for (int axis = 0; axis < 2; ++axis) {
    const bool x = axis == 0;
    const Coord rlo = x ? region.xmin : region.ymin;
    const Coord rhi = x ? region.xmax : region.ymax;
    std::vector<Coord> candidates;
    candidates.reserve(entries.size() * 2);
    for (const RNodeEntry& e : entries) {
      const Coord lo = x ? e.rect.xmin : e.rect.ymin;
      const Coord hi = x ? e.rect.xmax : e.rect.ymax;
      if (lo > rlo && lo < rhi) candidates.push_back(lo);
      if (hi > rlo && hi < rhi) candidates.push_back(hi);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (const Coord v : candidates) {
      uint64_t cuts = 0, left = 0, right = 0;
      for (const RNodeEntry& e : entries) {
        const Coord lo = x ? e.rect.xmin : e.rect.ymin;
        const Coord hi = x ? e.rect.xmax : e.rect.ymax;
        if (hi < v) {
          ++left;
        } else if (lo > v) {
          ++right;
        } else {
          ++cuts;
        }
      }
      const uint64_t imbalance =
          left > right ? left - right : right - left;
      const bool better =
          policy_ == RPlusSplitPolicy::kEvenCount
              ? (imbalance < best_imbalance ||
                 (imbalance == best_imbalance && cuts < best_cuts))
              : (cuts < best_cuts ||
                 (cuts == best_cuts && imbalance < best_imbalance));
      if (!best_found || better) {
        best_found = true;
        best_cuts = cuts;
        best_imbalance = imbalance;
        *x_axis = x;
        *line = v;
      }
    }
  }
  return best_found;
}

bool RPlusTree::ChooseInternalSplit(const std::vector<RNodeEntry>& entries,
                                    const Rect& region, bool* x_axis,
                                    Coord* line) const {
  // Child rectangles are disjoint, so a child is cut iff min < v < max.
  bool best_found = false;
  uint64_t best_cuts = 0, best_imbalance = 0;
  for (int axis = 0; axis < 2; ++axis) {
    const bool x = axis == 0;
    const Coord rlo = x ? region.xmin : region.ymin;
    const Coord rhi = x ? region.xmax : region.ymax;
    std::vector<Coord> candidates;
    for (const RNodeEntry& e : entries) {
      const Coord lo = x ? e.rect.xmin : e.rect.ymin;
      const Coord hi = x ? e.rect.xmax : e.rect.ymax;
      if (lo > rlo && lo < rhi) candidates.push_back(lo);
      if (hi > rlo && hi < rhi) candidates.push_back(hi);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (const Coord v : candidates) {
      uint64_t cuts = 0, left = 0, right = 0;
      for (const RNodeEntry& e : entries) {
        const Coord lo = x ? e.rect.xmin : e.rect.ymin;
        const Coord hi = x ? e.rect.xmax : e.rect.ymax;
        if (hi <= v) {
          ++left;
        } else if (lo >= v) {
          ++right;
        } else {
          ++cuts;
          ++left;
          ++right;
        }
      }
      if (left == 0 || right == 0) continue;
      const uint64_t imbalance =
          left > right ? left - right : right - left;
      const bool better =
          policy_ == RPlusSplitPolicy::kEvenCount
              ? (imbalance < best_imbalance ||
                 (imbalance == best_imbalance && cuts < best_cuts))
              : (cuts < best_cuts ||
                 (cuts == best_cuts && imbalance < best_imbalance));
      if (!best_found || better) {
        best_found = true;
        best_cuts = cuts;
        best_imbalance = imbalance;
        *x_axis = x;
        *line = v;
      }
    }
  }
  if (best_found) return true;
  // Fall back to a midpoint line on the longer splittable axis (used by
  // kMidpoint and as a last resort when no boundary candidate exists).
  const bool x = region.Width() >= region.Height();
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool ax = attempt == 0 ? x : !x;
    const Coord lo = ax ? region.xmin : region.ymin;
    const Coord hi = ax ? region.xmax : region.ymax;
    if (hi - lo >= 2) {
      *x_axis = ax;
      *line = static_cast<Coord>((static_cast<int64_t>(lo) + hi) / 2);
      return true;
    }
  }
  return false;
}

Status RPlusTree::SplitLeafMulti(const Rect& region,
                                 std::vector<RNodeEntry> entries,
                                 std::vector<RNodeEntry>* out) {
  if (entries.size() <= cap_) {
    auto pid = io_.Alloc();
    if (!pid.ok()) return pid.status();
    RNode node;
    node.entries = std::move(entries);
    LSDB_RETURN_IF_ERROR(io_.Store(*pid, node));
    out->push_back(RNodeEntry{region, *pid});
    return Status::OK();
  }
  bool x_axis = false;
  Coord line = 0;
  if (!ChooseLeafSplit(entries, region, &x_axis, &line)) {
    // Unsplittable region (footnote 2 of the paper): chain the overflow.
    auto pid = io_.Alloc();
    if (!pid.ok()) return pid.status();
    RNode node;
    node.entries = std::move(entries);
    LSDB_RETURN_IF_ERROR(StoreLeafChain(*pid, std::move(node)));
    out->push_back(RNodeEntry{region, *pid});
    return Status::OK();
  }
  Rect lregion, rregion;
  SplitRegion(region, x_axis, line, &lregion, &rregion);
  std::vector<RNodeEntry> left, right;
  for (const RNodeEntry& e : entries) {
    Segment s;
    LSDB_RETURN_IF_ERROR(segs_->Get(e.child, &s));
    const bool in_left = s.IntersectsRect(lregion);
    const bool in_right = s.IntersectsRect(rregion);
    assert(in_left || in_right);  // NOLINT(lsdb-assert-on-disk): geometric invariant of the in-memory split
    if (in_left) left.push_back(e);
    if (in_right) right.push_back(e);
  }
  if (left.size() == entries.size() && right.size() == entries.size()) {
    // The split separated nothing; chain instead of recursing forever.
    auto pid = io_.Alloc();
    if (!pid.ok()) return pid.status();
    RNode node;
    node.entries = std::move(entries);
    LSDB_RETURN_IF_ERROR(StoreLeafChain(*pid, std::move(node)));
    out->push_back(RNodeEntry{region, *pid});
    return Status::OK();
  }
  LSDB_RETURN_IF_ERROR(SplitLeafMulti(lregion, std::move(left), out));
  return SplitLeafMulti(rregion, std::move(right), out);
}

Status RPlusTree::SplitSubtree(const RNodeEntry& entry, uint8_t level,
                               bool x_axis, Coord line,
                               std::vector<RNodeEntry>* out) {
  Rect lregion, rregion;
  SplitRegion(entry.rect, x_axis, line, &lregion, &rregion);
  if (level == 0) {
    RNode node;
    std::vector<PageId> chain;
    LSDB_RETURN_IF_ERROR(LoadLeafChain(entry.child, &node, &chain));
    std::vector<RNodeEntry> left, right;
    for (const RNodeEntry& e : node.entries) {
      Segment s;
      LSDB_RETURN_IF_ERROR(segs_->Get(e.child, &s));
      if (s.IntersectsRect(lregion)) left.push_back(e);
      if (s.IntersectsRect(rregion)) right.push_back(e);
    }
    for (PageId p : chain) LSDB_RETURN_IF_ERROR(io_.Free(p));
    auto rpid = io_.Alloc();
    if (!rpid.ok()) return rpid.status();
    RNode lnode, rnode;
    lnode.entries = std::move(left);
    rnode.entries = std::move(right);
    LSDB_RETURN_IF_ERROR(StoreLeafChain(entry.child, std::move(lnode)));
    LSDB_RETURN_IF_ERROR(StoreLeafChain(*rpid, std::move(rnode)));
    out->push_back(RNodeEntry{lregion, entry.child});
    out->push_back(RNodeEntry{rregion, *rpid});
    return Status::OK();
  }
  RNode node;
  LSDB_RETURN_IF_ERROR(io_.Load(entry.child, &node));
  std::vector<RNodeEntry> left, right;
  for (const RNodeEntry& e : node.entries) {
    const Coord lo = x_axis ? e.rect.xmin : e.rect.ymin;
    const Coord hi = x_axis ? e.rect.xmax : e.rect.ymax;
    if (hi <= line) {
      left.push_back(e);
    } else if (lo >= line) {
      right.push_back(e);
    } else {
      std::vector<RNodeEntry> parts;
      LSDB_RETURN_IF_ERROR(SplitSubtree(
          e, static_cast<uint8_t>(level - 1), x_axis, line, &parts));
      assert(parts.size() == 2);  // NOLINT(lsdb-assert-on-disk): SplitSubtree postcondition, in-memory
      left.push_back(parts[0]);
      right.push_back(parts[1]);
    }
  }
  auto rpid = io_.Alloc();
  if (!rpid.ok()) return rpid.status();
  RNode lnode, rnode;
  lnode.level = rnode.level = level;
  lnode.entries = std::move(left);
  rnode.entries = std::move(right);
  LSDB_RETURN_IF_ERROR(io_.Store(entry.child, lnode));
  LSDB_RETURN_IF_ERROR(io_.Store(*rpid, rnode));
  out->push_back(RNodeEntry{lregion, entry.child});
  out->push_back(RNodeEntry{rregion, *rpid});
  return Status::OK();
}

Status RPlusTree::SplitInternalMulti(const Rect& region, uint8_t level,
                                     std::vector<RNodeEntry> entries,
                                     std::vector<RNodeEntry>* out) {
  if (entries.size() <= cap_) {
    auto pid = io_.Alloc();
    if (!pid.ok()) return pid.status();
    RNode node;
    node.level = level;
    node.entries = std::move(entries);
    LSDB_RETURN_IF_ERROR(io_.Store(*pid, node));
    out->push_back(RNodeEntry{region, *pid});
    return Status::OK();
  }
  bool x_axis = false;
  Coord line = 0;
  if (!ChooseInternalSplit(entries, region, &x_axis, &line)) {
    return Status::Internal("unsplittable internal R+ node");
  }
  Rect lregion, rregion;
  SplitRegion(region, x_axis, line, &lregion, &rregion);
  std::vector<RNodeEntry> left, right;
  for (const RNodeEntry& e : entries) {
    const Coord lo = x_axis ? e.rect.xmin : e.rect.ymin;
    const Coord hi = x_axis ? e.rect.xmax : e.rect.ymax;
    if (hi <= line) {
      left.push_back(e);
    } else if (lo >= line) {
      right.push_back(e);
    } else {
      std::vector<RNodeEntry> parts;
      LSDB_RETURN_IF_ERROR(SplitSubtree(
          e, static_cast<uint8_t>(level - 1), x_axis, line, &parts));
      assert(parts.size() == 2);  // NOLINT(lsdb-assert-on-disk): SplitSubtree postcondition, in-memory
      left.push_back(parts[0]);
      right.push_back(parts[1]);
    }
  }
  if (left.empty() || right.empty()) {
    return Status::Internal("degenerate R+ internal split");
  }
  LSDB_RETURN_IF_ERROR(SplitInternalMulti(lregion, level, std::move(left),
                                          out));
  return SplitInternalMulti(rregion, level, std::move(right), out);
}

Status RPlusTree::InsertRec(PageId pid, const Rect& region, SegmentId id,
                            const Segment& s,
                            std::vector<RNodeEntry>* replacements) {
  replacements->clear();
  RNode probe;
  LSDB_RETURN_IF_ERROR(io_.Load(pid, &probe));
  if (probe.leaf()) {
    RNode node;
    std::vector<PageId> chain;
    if (probe.overflow == kInvalidPageId) {
      node = std::move(probe);
    } else {
      LSDB_RETURN_IF_ERROR(LoadLeafChain(pid, &node, &chain));
    }
    node.entries.push_back(RNodeEntry{s.Mbr(), id});
    if (node.entries.size() <= cap_ && chain.empty()) {
      return io_.Store(pid, node);
    }
    if (node.entries.size() <= cap_) {
      for (PageId p : chain) LSDB_RETURN_IF_ERROR(io_.Free(p));
      return StoreLeafChain(pid, std::move(node));
    }
    // Overflow: split into one or more leaves; the caller replaces this
    // child entry with the returned pieces.
    for (PageId p : chain) LSDB_RETURN_IF_ERROR(io_.Free(p));
    LSDB_RETURN_IF_ERROR(io_.Free(pid));
    return SplitLeafMulti(region, std::move(node.entries), replacements);
  }

  RNode node = std::move(probe);
  std::vector<RNodeEntry> new_entries;
  new_entries.reserve(node.entries.size());
  bool changed = false;
  for (const RNodeEntry& e : node.entries) {
    if (!s.IntersectsRect(e.rect)) {
      new_entries.push_back(e);
      continue;
    }
    std::vector<RNodeEntry> child_repl;
    LSDB_RETURN_IF_ERROR(InsertRec(e.child, e.rect, id, s, &child_repl));
    if (child_repl.empty()) {
      new_entries.push_back(e);
    } else {
      changed = true;
      new_entries.insert(new_entries.end(), child_repl.begin(),
                         child_repl.end());
    }
  }
  if (new_entries.size() > cap_) {
    LSDB_RETURN_IF_ERROR(io_.Free(pid));
    return SplitInternalMulti(region, node.level, std::move(new_entries),
                              replacements);
  }
  if (changed) {
    node.entries = std::move(new_entries);
    return io_.Store(pid, node);
  }
  return Status::OK();
}

Status RPlusTree::Insert(SegmentId id, const Segment& s) {
  LSDB_RETURN_IF_ERROR(CheckMutable());
  std::vector<RNodeEntry> repl;
  LSDB_RETURN_IF_ERROR(InsertRec(root_, world_, id, s, &repl));
  if (!repl.empty()) {
    // The root split into `repl` subtrees; grow new root levels until the
    // entries fit one node.
    uint8_t level = static_cast<uint8_t>(root_level_ + 1);
    std::vector<RNodeEntry> cur = std::move(repl);
    while (cur.size() > cap_) {
      std::vector<RNodeEntry> next;
      LSDB_RETURN_IF_ERROR(
          SplitInternalMulti(world_, level, std::move(cur), &next));
      cur = std::move(next);
      ++level;
    }
    auto pid = io_.Alloc();
    if (!pid.ok()) return pid.status();
    RNode root;
    root.level = level;
    root.entries = std::move(cur);
    LSDB_RETURN_IF_ERROR(io_.Store(*pid, root));
    root_ = *pid;
    root_level_ = level;
  }
  ++size_;
  return Status::OK();
}

Status RPlusTree::EraseRec(PageId pid, const Rect& region, SegmentId id,
                           const Segment& s, bool* found) {
  (void)region;
  RNode node;
  std::vector<PageId> chain;
  RNode probe;
  LSDB_RETURN_IF_ERROR(io_.Load(pid, &probe));
  if (probe.leaf()) {
    if (probe.overflow == kInvalidPageId) {
      node = std::move(probe);
    } else {
      LSDB_RETURN_IF_ERROR(LoadLeafChain(pid, &node, &chain));
    }
    const size_t before = node.entries.size();
    node.entries.erase(
        std::remove_if(node.entries.begin(), node.entries.end(),
                       [id](const RNodeEntry& e) { return e.child == id; }),
        node.entries.end());
    if (node.entries.size() != before) {
      *found = true;
      for (PageId p : chain) LSDB_RETURN_IF_ERROR(io_.Free(p));
      return StoreLeafChain(pid, std::move(node));
    }
    return Status::OK();
  }
  for (const RNodeEntry& e : probe.entries) {
    if (s.IntersectsRect(e.rect)) {
      LSDB_RETURN_IF_ERROR(EraseRec(e.child, e.rect, id, s, found));
    }
  }
  return Status::OK();
}

Status RPlusTree::Erase(SegmentId id, const Segment& s) {
  LSDB_RETURN_IF_ERROR(CheckMutable());
  bool found = false;
  LSDB_RETURN_IF_ERROR(EraseRec(root_, world_, id, s, &found));
  if (!found) return Status::NotFound("segment not in R+-tree");
  --size_;
  return Status::OK();
}

Status RPlusTree::WindowQueryRec(PageId pid, uint8_t expected_level,
                                 const Rect& w,
                                 std::unordered_set<SegmentId>* seen,
                                 std::vector<SegmentHit>* out) {
  LSDB_RETURN_IF_CANCELLED();
  RNode node;
  LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
  // Levels strictly decrease toward the leaves; a mismatch means a corrupt
  // child pointer (and unbounded recursion if followed).
  if (node.level != expected_level) {
    return Status::Corruption("R+-tree node level mismatch on descent");
  }
  if (node.leaf()) {
    // Walk the page plus any overflow chain (cycle-bounded). Each chain
    // page is profiled as its own leaf visit at the owner's depth.
    uint64_t hops = 0;
    for (;;) {
      const size_t results_before = out->size();
      uint64_t matched = 0;  // Introspection only: a register increment.
      for (const RNodeEntry& e : node.entries) {
        ++CounterSink(metrics_).bbox_comps;
        if (!e.rect.Intersects(w)) continue;
        ++matched;
        if (!seen->insert(e.child).second) continue;
        Segment s;
        LSDB_RETURN_IF_ERROR(segs_->Get(e.child, &s));
        ++CounterSink(metrics_).segment_comps;
        if (s.IntersectsRect(w)) out->push_back(SegmentHit{e.child, s});
      }
      LSDB_INTROSPECT(OnNode(static_cast<uint32_t>(root_level_), true,
                             node.entries.size(), matched,
                             out->size() - results_before));
      if (node.overflow == kInvalidPageId) break;
      if (++hops > io_.live_pages()) {
        return Status::Corruption("R+-tree overflow chain cycle");
      }
      const PageId next = node.overflow;
      LSDB_RETURN_IF_ERROR(io_.Load(next, &node));
      if (!node.leaf()) {
        return Status::Corruption(
            "R+-tree overflow chain reaches a non-leaf page");
      }
    }
    return Status::OK();
  }
  uint64_t matched = 0;  // Introspection only: a register increment.
  for (const RNodeEntry& e : node.entries) {
    ++CounterSink(metrics_).bbox_comps;
    if (e.rect.Intersects(w)) {
      ++matched;
      LSDB_RETURN_IF_ERROR(
          WindowQueryRec(e.child, static_cast<uint8_t>(node.level - 1), w,
                         seen, out));
    }
  }
  LSDB_INTROSPECT(OnNode(static_cast<uint32_t>(root_level_ - node.level),
                         false, node.entries.size(), matched, 0));
  return Status::OK();
}

Status RPlusTree::WindowQueryEx(const Rect& w,
                                std::vector<SegmentHit>* out) {
  std::unordered_set<SegmentId> seen;
  return WindowQueryRec(root_, root_level_, w, &seen, out);
}

StatusOr<NearestResult> RPlusTree::Nearest(const Point& p) {
  // Eager-refinement best-first search (see rstar_tree.cc). The same
  // segment may appear in several leaves; `refined` fetches it only once.
  enum Kind : int { kExactSegment = 0, kNode = 1 };
  struct Item {
    double dist;
    int kind;
    uint32_t id;
    uint8_t level;  // expected node level, valid for kNode
    Segment seg;    // valid for kExactSegment
    bool operator>(const Item& o) const {
      if (dist != o.dist) return dist > o.dist;
      return kind > o.kind;
    }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  std::unordered_set<SegmentId> refined;
  pq.push(Item{0.0, kNode, root_, root_level_, Segment{}});
  while (!pq.empty()) {
    const Item top = pq.top();
    pq.pop();
    if (top.kind == kExactSegment) {
      return NearestResult{top.id, top.dist, top.seg};
    }
    LSDB_RETURN_IF_CANCELLED();
    RNode node;
    LSDB_RETURN_IF_ERROR(io_.Load(top.id, &node));
    if (node.level != top.level) {
      return Status::Corruption("R+-tree node level mismatch on descent");
    }
    uint64_t hops = 0;
    for (;;) {
      for (const RNodeEntry& e : node.entries) {
        ++CounterSink(metrics_).bbox_comps;
        if (node.leaf()) {
          if (!refined.insert(e.child).second) continue;
          Segment s;
          LSDB_RETURN_IF_ERROR(segs_->Get(e.child, &s));
          ++CounterSink(metrics_).segment_comps;
          pq.push(
              Item{s.SquaredDistanceTo(p), kExactSegment, e.child, 0, s});
        } else {
          const double d = static_cast<double>(e.rect.SquaredDistanceTo(p));
          pq.push(Item{d, kNode, e.child,
                       static_cast<uint8_t>(node.level - 1), Segment{}});
        }
      }
      // Best-first descent: every scanned entry enters the candidate
      // queue, so a nearest leaf read is a false positive only when the
      // leaf page is empty (see rstar_tree.cc).
      LSDB_INTROSPECT(OnNode(
          static_cast<uint32_t>(root_level_ - node.level), node.leaf(),
          node.entries.size(), node.entries.size(), node.entries.size()));
      if (node.leaf() && node.overflow != kInvalidPageId) {
        if (++hops > io_.live_pages()) {
          return Status::Corruption("R+-tree overflow chain cycle");
        }
        const PageId next = node.overflow;
        LSDB_RETURN_IF_ERROR(io_.Load(next, &node));
        if (!node.leaf()) {
          return Status::Corruption(
              "R+-tree overflow chain reaches a non-leaf page");
        }
        continue;
      }
      break;
    }
  }
  return Status::NotFound("empty index");
}

Status RPlusTree::CheckRec(PageId pid, uint8_t expected_level,
                           const Rect& region, uint32_t* pages,
                           std::unordered_set<SegmentId>* distinct) {
  RNode node;
  LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
  ++*pages;
  if (node.level != expected_level) return Status::Corruption("level");
  if (node.leaf()) {
    std::vector<PageId> chain;
    node.entries.clear();
    RNode merged;
    LSDB_RETURN_IF_ERROR(LoadLeafChain(pid, &merged, &chain));
    *pages += static_cast<uint32_t>(chain.size());
    for (const RNodeEntry& e : merged.entries) {
      Segment s;
      LSDB_RETURN_IF_ERROR(segs_->Get(e.child, &s));
      if (s.Mbr() != e.rect) {
        return Status::Corruption("leaf entry rect != segment MBR");
      }
      if (!s.IntersectsRect(region)) {
        return Status::Corruption("leaf segment outside region");
      }
      distinct->insert(e.child);
    }
    return Status::OK();
  }
  if (node.entries.empty()) return Status::Corruption("empty internal node");
  int64_t area_sum = 0;
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const Rect& r = node.entries[i].rect;
    if (!region.Contains(r)) {
      return Status::Corruption("child region escapes parent");
    }
    area_sum += r.Area();
    for (size_t j = i + 1; j < node.entries.size(); ++j) {
      if (r.OverlapArea(node.entries[j].rect) != 0) {
        return Status::Corruption("overlapping partition rects");
      }
    }
  }
  if (area_sum != region.Area()) {
    return Status::Corruption("partition does not cover region");
  }
  for (const RNodeEntry& e : node.entries) {
    LSDB_RETURN_IF_ERROR(CheckRec(e.child,
                                  static_cast<uint8_t>(node.level - 1),
                                  e.rect, pages, distinct));
  }
  return Status::OK();
}

Status RPlusTree::CheckInvariants() {
  uint32_t pages = 0;
  std::unordered_set<SegmentId> distinct;
  LSDB_RETURN_IF_ERROR(CheckRec(root_, root_level_, world_, &pages,
                                &distinct));
  if (distinct.size() != size_) {
    return Status::Corruption("distinct segment count mismatch");
  }
  if (pages != io_.live_pages()) {
    return Status::Corruption("page count mismatch");
  }
  return Status::OK();
}

Status RPlusTree::VisitNodes(
    const std::function<void(uint32_t depth, const RNode& node)>& fn) {
  return VisitNodesRec(root_, root_level_, fn);
}

Status RPlusTree::VisitNodesRec(
    PageId pid, uint8_t expected_level,
    const std::function<void(uint32_t depth, const RNode& node)>& fn) {
  RNode node;
  LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
  if (node.level != expected_level) {
    return Status::Corruption("R+-tree node level mismatch on walk");
  }
  fn(static_cast<uint32_t>(root_level_ - node.level), node);
  if (node.leaf()) {
    // Visit overflow-chain pages as separate leaves (cycle-bounded).
    uint64_t hops = 0;
    while (node.overflow != kInvalidPageId) {
      if (++hops > io_.live_pages()) {
        return Status::Corruption("R+-tree overflow chain cycle");
      }
      const PageId next = node.overflow;
      LSDB_RETURN_IF_ERROR(io_.Load(next, &node));
      if (!node.leaf()) {
        return Status::Corruption(
            "R+-tree overflow chain reaches a non-leaf page");
      }
      fn(static_cast<uint32_t>(root_level_), node);
    }
    return Status::OK();
  }
  for (const RNodeEntry& e : node.entries) {
    LSDB_RETURN_IF_ERROR(VisitNodesRec(
        e.child, static_cast<uint8_t>(node.level - 1), fn));
  }
  return Status::OK();
}

Status RPlusTree::CollectLeafRegions(std::vector<Rect>* out) {
  auto walk = [this, out](auto&& self, PageId pid,
                          const Rect& region) -> Status {
    RNode node;
    LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
    if (node.leaf()) {
      out->push_back(region);
      return Status::OK();
    }
    for (const RNodeEntry& e : node.entries) {
      LSDB_RETURN_IF_ERROR(self(self, e.child, e.rect));
    }
    return Status::OK();
  };
  return walk(walk, root_, world_);
}

double RPlusTree::AverageLeafOccupancy() {
  uint64_t leaves = 0, entries = 0;
  auto walk = [this, &leaves, &entries](auto&& self, PageId pid) -> Status {
    RNode node;
    LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
    if (node.leaf()) {
      ++leaves;
      entries += node.entries.size();
      PageId next = node.overflow;
      while (next != kInvalidPageId) {
        RNode part;
        LSDB_RETURN_IF_ERROR(io_.Load(next, &part));
        ++leaves;
        entries += part.entries.size();
        next = part.overflow;
      }
      return Status::OK();
    }
    for (const RNodeEntry& e : node.entries) {
      LSDB_RETURN_IF_ERROR(self(self, e.child));
    }
    return Status::OK();
  };
  if (!walk(walk, root_).ok() || leaves == 0) return 0.0;
  return static_cast<double>(entries) / static_cast<double>(leaves);
}

}  // namespace lsdb
