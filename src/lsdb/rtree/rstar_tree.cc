#include "lsdb/rtree/rstar_tree.h"

#include "lsdb/introspect/profiler.h"
#include "lsdb/service/cancel.h"
#include "lsdb/storage/superblock.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

namespace lsdb {

RStarTree::RStarTree(const IndexOptions& options, PageFile* file,
                     SegmentTable* segs)
    : options_(options),
      pool_(file, options.buffer_frames, &metrics_),
      io_(&pool_),
      segs_(segs) {
  cap_ = io_.Capacity();
  // m <= M/2 keeps every split feasible: the R* split distributes M+1
  // entries into two groups of at least m each.
  min_entries_ = std::max<uint32_t>(
      1, std::min(cap_ / 2,
                  std::max<uint32_t>(2, static_cast<uint32_t>(
                                           cap_ * options.rstar_min_fill))));
  reinsert_count_ = static_cast<uint32_t>(cap_ * options.rstar_reinsert_frac);
  // Beckmann et al.'s p = 30% of M. An overflowing node holds M+1 entries
  // and must keep at least m of them after removal, so p <= M + 1 - m; a
  // node left at exactly m is valid (underflow is only < m), and forced
  // re-insertion never removes entries again from the same node.
  if (reinsert_count_ > cap_ + 1 - min_entries_) {
    reinsert_count_ = cap_ + 1 - min_entries_;
  }
}

Status RStarTree::Init() {
  if (root_ == kInvalidPageId) {
    // First initialization: reserve the superblock page.
    auto sb = pool_.New();
    if (!sb.ok()) return sb.status();
    if (sb->id() != 0) {
      return Status::InvalidArgument("Init() requires a fresh page file");
    }
  }
  auto id = io_.Alloc();
  if (!id.ok()) return id.status();
  root_ = *id;
  root_level_ = 0;
  RNode root;
  reinserted_level_.assign(1, false);
  return io_.Store(root_, root);
}

Status RStarTree::Open() {
  auto fields = ReadSuperblock(&pool_, 0, SuperblockKind::kRStarTree);
  if (!fields.ok()) return fields.status();
  const SuperblockFields& f = *fields;
  if (f[4] != cap_) {
    return Status::InvalidArgument("page size does not match structure");
  }
  root_ = static_cast<PageId>(f[0]);
  root_level_ = static_cast<uint8_t>(f[1]);
  size_ = f[2];
  io_.set_live_pages(static_cast<uint32_t>(f[3]));
  reinserted_level_.assign(root_level_ + 1u, false);
  return Status::OK();
}

Status RStarTree::Flush() {
  SuperblockFields f{};
  f[0] = root_;
  f[1] = root_level_;
  f[2] = size_;
  f[3] = io_.live_pages();
  f[4] = cap_;
  LSDB_RETURN_IF_ERROR(
      WriteSuperblock(&pool_, 0, SuperblockKind::kRStarTree, f));
  return pool_.FlushAll();
}

Status RStarTree::Insert(SegmentId id, const Segment& s) {
  LSDB_RETURN_IF_ERROR(CheckMutable());
  reinserted_level_.assign(root_level_ + 1u, false);
  LSDB_RETURN_IF_ERROR(InsertEntry(RNodeEntry{s.Mbr(), id}, 0));
  ++size_;
  return Status::OK();
}

Status RStarTree::ChoosePath(const Rect& r, uint8_t target_level,
                             std::vector<PageId>* path) {
  path->clear();
  PageId pid = root_;
  for (;;) {
    // The path can never be deeper than the tree; a longer one means a
    // corrupt child pointer formed a cycle.
    if (path->size() > static_cast<size_t>(root_level_) + 1) {
      return Status::Corruption("R*-tree descent exceeds tree height");
    }
    path->push_back(pid);
    RNode node;
    LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
    if (node.level == target_level) return Status::OK();
    if (node.entries.empty()) {
      return Status::Corruption("empty internal R*-tree node on descent");
    }
    size_t best = 0;
    if (node.level == target_level + 1) {
      // R* rule: children receive the entry directly — minimize the
      // increase of overlap with siblings (ties: area enlargement, area).
      int64_t best_overlap_delta = 0;
      int64_t best_enlarge = 0;
      int64_t best_area = 0;
      for (size_t i = 0; i < node.entries.size(); ++i) {
        const Rect grown = node.entries[i].rect.Union(r);
        int64_t overlap_delta = 0;
        for (size_t j = 0; j < node.entries.size(); ++j) {
          if (j == i) continue;
          overlap_delta += grown.OverlapArea(node.entries[j].rect) -
                           node.entries[i].rect.OverlapArea(
                               node.entries[j].rect);
        }
        const int64_t enlarge = node.entries[i].rect.Enlargement(r);
        const int64_t area = node.entries[i].rect.Area();
        if (i == 0 || overlap_delta < best_overlap_delta ||
            (overlap_delta == best_overlap_delta &&
             (enlarge < best_enlarge ||
              (enlarge == best_enlarge && area < best_area)))) {
          best = i;
          best_overlap_delta = overlap_delta;
          best_enlarge = enlarge;
          best_area = area;
        }
      }
    } else {
      // Minimize area enlargement (ties: smaller area).
      int64_t best_enlarge = 0;
      int64_t best_area = 0;
      for (size_t i = 0; i < node.entries.size(); ++i) {
        const int64_t enlarge = node.entries[i].rect.Enlargement(r);
        const int64_t area = node.entries[i].rect.Area();
        if (i == 0 || enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)) {
          best = i;
          best_enlarge = enlarge;
          best_area = area;
        }
      }
    }
    pid = node.entries[best].child;
  }
}

Status RStarTree::InsertEntry(const RNodeEntry& e, uint8_t level) {
  std::vector<PageId> path;
  LSDB_RETURN_IF_ERROR(ChoosePath(e.rect, level, &path));
  RNode node;
  LSDB_RETURN_IF_ERROR(io_.Load(path.back(), &node));
  node.entries.push_back(e);
  if (node.entries.size() <= cap_) {
    LSDB_RETURN_IF_ERROR(io_.Store(path.back(), node));
    return UpdatePathRects(path);
  }
  return HandleOverflow(std::move(path), std::move(node));
}

Status RStarTree::HandleOverflow(std::vector<PageId> path, RNode node) {
  const uint8_t level = node.level;
  if (level != root_level_ && reinsert_count_ > 0 &&
      level < reinserted_level_.size() && !reinserted_level_[level]) {
    reinserted_level_[level] = true;
    // Forced reinsertion: remove the reinsert_count_ entries whose centers
    // are farthest from the node's MBR center, then re-insert them.
    const Point center = node.Mbr().Center();
    std::stable_sort(node.entries.begin(), node.entries.end(),
                     [&center](const RNodeEntry& a, const RNodeEntry& b) {
                       return SquaredDistance(a.rect.Center(), center) >
                              SquaredDistance(b.rect.Center(), center);
                     });
    std::vector<RNodeEntry> removed(node.entries.begin(),
                                    node.entries.begin() + reinsert_count_);
    node.entries.erase(node.entries.begin(),
                       node.entries.begin() + reinsert_count_);
    LSDB_RETURN_IF_ERROR(io_.Store(path.back(), node));
    LSDB_RETURN_IF_ERROR(UpdatePathRects(path));
    // Re-insert farthest-first (Beckmann et al. found this the best order).
    for (const RNodeEntry& e : removed) {
      LSDB_RETURN_IF_ERROR(InsertEntry(e, level));
    }
    return Status::OK();
  }
  return SplitNode(std::move(path), std::move(node));
}

void RStarTree::RStarSplit(std::vector<RNodeEntry> entries,
                           std::vector<RNodeEntry>* left,
                           std::vector<RNodeEntry>* right) const {
  const size_t n = entries.size();
  const size_t m = min_entries_;
  assert(n >= 2 * m);  // NOLINT(lsdb-assert-on-disk): split precondition on in-memory entries

  // A candidate ordering of the entries along one axis.
  auto sort_by = [&entries](bool x_axis, bool by_upper) {
    std::vector<RNodeEntry> v = entries;
    std::stable_sort(v.begin(), v.end(),
                     [x_axis, by_upper](const RNodeEntry& a,
                                        const RNodeEntry& b) {
                       const Coord al = x_axis ? a.rect.xmin : a.rect.ymin;
                       const Coord au = x_axis ? a.rect.xmax : a.rect.ymax;
                       const Coord bl = x_axis ? b.rect.xmin : b.rect.ymin;
                       const Coord bu = x_axis ? b.rect.xmax : b.rect.ymax;
                       if (by_upper) {
                         return au != bu ? au < bu : al < bl;
                       }
                       return al != bl ? al < bl : au < bu;
                     });
    return v;
  };

  // Margin (perimeter) sum over all distributions of one sorted order.
  auto margin_sum = [&](const std::vector<RNodeEntry>& v) {
    // Prefix / suffix MBRs let each distribution be evaluated in O(1).
    std::vector<Rect> prefix(n), suffix(n);
    Rect acc;
    for (size_t i = 0; i < n; ++i) {
      acc = acc.Union(v[i].rect);
      prefix[i] = acc;
    }
    acc = Rect{};
    for (size_t i = n; i-- > 0;) {
      acc = acc.Union(v[i].rect);
      suffix[i] = acc;
    }
    int64_t sum = 0;
    for (size_t k = m; k <= n - m; ++k) {
      sum += prefix[k - 1].Margin() + suffix[k].Margin();
    }
    return sum;
  };

  // Choose the split axis by minimum total margin over both sort orders.
  int64_t best_margin = 0;
  bool best_axis_x = true;
  for (int axis = 0; axis < 2; ++axis) {
    const bool x_axis = axis == 0;
    const int64_t s = margin_sum(sort_by(x_axis, false)) +
                      margin_sum(sort_by(x_axis, true));
    if (axis == 0 || s < best_margin) {
      best_margin = s;
      best_axis_x = x_axis;
    }
  }

  // On the chosen axis, pick the distribution with minimum overlap
  // (ties: minimum combined area) across both sort orders.
  bool have_best = false;
  int64_t best_overlap = 0, best_area = 0;
  for (int upper = 0; upper < 2; ++upper) {
    const std::vector<RNodeEntry> v = sort_by(best_axis_x, upper == 1);
    std::vector<Rect> prefix(n), suffix(n);
    Rect acc;
    for (size_t i = 0; i < n; ++i) {
      acc = acc.Union(v[i].rect);
      prefix[i] = acc;
    }
    acc = Rect{};
    for (size_t i = n; i-- > 0;) {
      acc = acc.Union(v[i].rect);
      suffix[i] = acc;
    }
    for (size_t k = m; k <= n - m; ++k) {
      const int64_t overlap = prefix[k - 1].OverlapArea(suffix[k]);
      const int64_t area = prefix[k - 1].Area() + suffix[k].Area();
      if (!have_best || overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        have_best = true;
        best_overlap = overlap;
        best_area = area;
        left->assign(v.begin(), v.begin() + k);
        right->assign(v.begin() + k, v.end());
      }
    }
  }
  assert(have_best);  // NOLINT(lsdb-assert-on-disk): split always picks a distribution
}

Status RStarTree::SplitNode(std::vector<PageId> path, RNode node) {
  std::vector<RNodeEntry> left_entries, right_entries;
  RStarSplit(std::move(node.entries), &left_entries, &right_entries);

  const PageId pid = path.back();
  RNode left;
  left.level = node.level;
  left.entries = std::move(left_entries);
  RNode right;
  right.level = node.level;
  right.entries = std::move(right_entries);

  auto right_id = io_.Alloc();
  if (!right_id.ok()) return right_id.status();
  LSDB_RETURN_IF_ERROR(io_.Store(pid, left));
  LSDB_RETURN_IF_ERROR(io_.Store(*right_id, right));

  if (path.size() == 1) {
    return GrowRoot(RNodeEntry{left.Mbr(), pid},
                    RNodeEntry{right.Mbr(), *right_id});
  }

  path.pop_back();
  RNode parent;
  LSDB_RETURN_IF_ERROR(io_.Load(path.back(), &parent));
  for (RNodeEntry& e : parent.entries) {
    if (e.child == pid) {
      e.rect = left.Mbr();
      break;
    }
  }
  parent.entries.push_back(RNodeEntry{right.Mbr(), *right_id});
  if (parent.entries.size() <= cap_) {
    LSDB_RETURN_IF_ERROR(io_.Store(path.back(), parent));
    return UpdatePathRects(path);
  }
  return HandleOverflow(std::move(path), std::move(parent));
}

Status RStarTree::GrowRoot(const RNodeEntry& left, const RNodeEntry& right) {
  auto id = io_.Alloc();
  if (!id.ok()) return id.status();
  RNode root;
  root.level = static_cast<uint8_t>(root_level_ + 1);
  root.entries = {left, right};
  LSDB_RETURN_IF_ERROR(io_.Store(*id, root));
  root_ = *id;
  ++root_level_;
  // The new level never triggers forced reinsertion mid-flight.
  reinserted_level_.resize(root_level_ + 1u, true);
  return Status::OK();
}

Status RStarTree::UpdatePathRects(const std::vector<PageId>& path) {
  if (path.size() < 2) return Status::OK();
  RNode child;
  LSDB_RETURN_IF_ERROR(io_.Load(path.back(), &child));
  Rect mbr = child.Mbr();
  PageId child_pid = path.back();
  for (size_t i = path.size() - 1; i-- > 0;) {
    RNode node;
    LSDB_RETURN_IF_ERROR(io_.Load(path[i], &node));
    bool changed = false;
    for (RNodeEntry& e : node.entries) {
      if (e.child == child_pid) {
        if (e.rect != mbr) {
          e.rect = mbr;
          changed = true;
        }
        break;
      }
    }
    if (changed) {
      LSDB_RETURN_IF_ERROR(io_.Store(path[i], node));
    }
    mbr = node.Mbr();
    child_pid = path[i];
  }
  return Status::OK();
}

Status RStarTree::FindLeafPath(PageId pid, const Rect& mbr, SegmentId id,
                               std::vector<PageId>* path, bool* found) {
  path->push_back(pid);
  RNode node;
  LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
  if (node.leaf()) {
    for (const RNodeEntry& e : node.entries) {
      if (e.child == id && e.rect == mbr) {
        *found = true;
        return Status::OK();
      }
    }
  } else {
    for (const RNodeEntry& e : node.entries) {
      if (e.rect.Contains(mbr)) {
        LSDB_RETURN_IF_ERROR(FindLeafPath(e.child, mbr, id, path, found));
        if (*found) return Status::OK();
      }
    }
  }
  path->pop_back();
  return Status::OK();
}

Status RStarTree::Erase(SegmentId id, const Segment& s) {
  LSDB_RETURN_IF_ERROR(CheckMutable());
  std::vector<PageId> path;
  bool found = false;
  LSDB_RETURN_IF_ERROR(FindLeafPath(root_, s.Mbr(), id, &path, &found));
  if (!found) return Status::NotFound("segment not in R*-tree");

  RNode leaf;
  LSDB_RETURN_IF_ERROR(io_.Load(path.back(), &leaf));
  for (size_t i = 0; i < leaf.entries.size(); ++i) {
    if (leaf.entries[i].child == id && leaf.entries[i].rect == s.Mbr()) {
      leaf.entries.erase(leaf.entries.begin() + i);
      break;
    }
  }
  LSDB_RETURN_IF_ERROR(io_.Store(path.back(), leaf));
  --size_;

  // Condense: remove underfull nodes bottom-up, collecting the segment
  // entries of the orphaned subtrees for re-insertion.
  std::vector<RNodeEntry> orphan_segments;
  // Recursively collects leaf entries of a subtree and frees its pages.
  auto collect = [this, &orphan_segments](auto&& self, PageId p) -> Status {
    RNode n;
    LSDB_RETURN_IF_ERROR(io_.Load(p, &n));
    if (n.leaf()) {
      for (const RNodeEntry& e : n.entries) orphan_segments.push_back(e);
    } else {
      for (const RNodeEntry& e : n.entries) {
        LSDB_RETURN_IF_ERROR(self(self, e.child));
      }
    }
    return io_.Free(p);
  };

  for (size_t i = path.size(); i-- > 1;) {
    RNode node;
    LSDB_RETURN_IF_ERROR(io_.Load(path[i], &node));
    RNode parent;
    LSDB_RETURN_IF_ERROR(io_.Load(path[i - 1], &parent));
    if (node.entries.size() < min_entries_) {
      LSDB_RETURN_IF_ERROR(collect(collect, path[i]));
      for (size_t j = 0; j < parent.entries.size(); ++j) {
        if (parent.entries[j].child == path[i]) {
          parent.entries.erase(parent.entries.begin() + j);
          break;
        }
      }
      LSDB_RETURN_IF_ERROR(io_.Store(path[i - 1], parent));
    } else {
      for (RNodeEntry& e : parent.entries) {
        if (e.child == path[i]) {
          e.rect = node.Mbr();
          break;
        }
      }
      LSDB_RETURN_IF_ERROR(io_.Store(path[i - 1], parent));
    }
  }

  // Shrink the root while it is an internal node with a single child.
  for (;;) {
    RNode root;
    LSDB_RETURN_IF_ERROR(io_.Load(root_, &root));
    if (root.leaf()) break;
    if (root.entries.empty()) {
      // Whole tree was orphaned; restart from an empty leaf root.
      LSDB_RETURN_IF_ERROR(io_.Free(root_));
      LSDB_RETURN_IF_ERROR(Init());
      break;
    }
    if (root.entries.size() > 1) break;
    const PageId child = root.entries[0].child;
    LSDB_RETURN_IF_ERROR(io_.Free(root_));
    root_ = child;
    --root_level_;
  }

  // Orphaned segments are re-inserted as fresh insertions (forced
  // reinsertion disabled to bound the work).
  reinserted_level_.assign(root_level_ + 1u, true);
  const uint64_t before = size_;
  for (const RNodeEntry& e : orphan_segments) {
    LSDB_RETURN_IF_ERROR(InsertEntry(e, 0));
  }
  size_ = before;  // InsertEntry does not change size_; keep explicit.
  return Status::OK();
}

Status RStarTree::WindowQueryRec(PageId pid, uint8_t expected_level,
                                 const Rect& w,
                                 std::vector<SegmentHit>* out) {
  LSDB_RETURN_IF_CANCELLED();
  RNode node;
  LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
  // Levels must strictly decrease toward the leaves; a mismatch means a
  // corrupt child pointer (and would otherwise recurse unboundedly).
  if (node.level != expected_level) {
    return Status::Corruption("R*-tree node level mismatch on descent");
  }
  const size_t results_before = out->size();
  uint64_t matched = 0;  // Introspection only: a register increment.
  for (const RNodeEntry& e : node.entries) {
    ++CounterSink(metrics_).bbox_comps;
    if (!e.rect.Intersects(w)) continue;
    ++matched;
    if (node.leaf()) {
      Segment s;
      LSDB_RETURN_IF_ERROR(segs_->Get(e.child, &s));
      ++CounterSink(metrics_).segment_comps;
      if (s.IntersectsRect(w)) out->push_back(SegmentHit{e.child, s});
    } else {
      LSDB_RETURN_IF_ERROR(WindowQueryRec(
          e.child, static_cast<uint8_t>(node.level - 1), w, out));
    }
  }
  LSDB_INTROSPECT(OnNode(static_cast<uint32_t>(root_level_ - node.level),
                         node.leaf(), node.entries.size(), matched,
                         out->size() - results_before));
  return Status::OK();
}

Status RStarTree::WindowQueryEx(const Rect& w,
                                std::vector<SegmentHit>* out) {
  return WindowQueryRec(root_, root_level_, w, out);
}

StatusOr<NearestResult> RStarTree::Nearest(const Point& p) {
  // Best-first incremental search (as in [11] adapted to R-trees): a
  // priority queue of nodes ordered by MBR distance; when a leaf is
  // visited every entry's segment is fetched and its exact distance
  // computed (the paper's R-tree segment-comparison counts indicate this
  // eager refinement).
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
      return Status::Corruption("R*-tree node level mismatch on descent");
    }
    for (const RNodeEntry& e : node.entries) {
      ++CounterSink(metrics_).bbox_comps;
      if (node.leaf()) {
        Segment s;
        LSDB_RETURN_IF_ERROR(segs_->Get(e.child, &s));
        ++CounterSink(metrics_).segment_comps;
        pq.push(Item{s.SquaredDistanceTo(p), kExactSegment, e.child, 0, s});
      } else {
        const double d = static_cast<double>(e.rect.SquaredDistanceTo(p));
        pq.push(Item{d, kNode, e.child,
                     static_cast<uint8_t>(node.level - 1), Segment{}});
      }
    }
    // Best-first descent: every scanned entry enters the candidate queue,
    // so leaves "contribute" their whole candidate set (a nearest leaf
    // read is a false positive only when the leaf is empty).
    LSDB_INTROSPECT(OnNode(static_cast<uint32_t>(root_level_ - node.level),
                           node.leaf(), node.entries.size(),
                           node.entries.size(), node.entries.size()));
  }
  return Status::NotFound("empty index");
}

Status RStarTree::CheckRec(PageId pid, uint8_t expected_level,
                           const Rect& parent, bool is_root, uint32_t* pages,
                           uint64_t* segments) {
  RNode node;
  LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
  ++*pages;
  if (node.level != expected_level) {
    return Status::Corruption("level mismatch");
  }
  if (!is_root && node.entries.size() < min_entries_) {
    return Status::Corruption("node underflow");
  }
  if (node.entries.size() > cap_) return Status::Corruption("node overflow");
  if (!is_root && node.Mbr() != parent) {
    return Status::Corruption("parent entry rect is not child MBR");
  }
  if (node.leaf()) {
    for (const RNodeEntry& e : node.entries) {
      Segment s;
      LSDB_RETURN_IF_ERROR(segs_->Get(e.child, &s));
      if (s.Mbr() != e.rect) {
        return Status::Corruption("leaf entry rect is not segment MBR");
      }
    }
    *segments += node.entries.size();
    return Status::OK();
  }
  for (const RNodeEntry& e : node.entries) {
    LSDB_RETURN_IF_ERROR(CheckRec(e.child,
                                  static_cast<uint8_t>(node.level - 1),
                                  e.rect, false, pages, segments));
  }
  return Status::OK();
}

Status RStarTree::CheckInvariants() {
  uint32_t pages = 0;
  uint64_t segments = 0;
  LSDB_RETURN_IF_ERROR(
      CheckRec(root_, root_level_, Rect{}, true, &pages, &segments));
  if (segments != size_) return Status::Corruption("segment count mismatch");
  if (pages != io_.live_pages()) {
    return Status::Corruption("page count mismatch");
  }
  return Status::OK();
}

Status RStarTree::VisitNodes(
    const std::function<void(uint32_t depth, const RNode& node)>& fn) {
  return VisitNodesRec(root_, root_level_, fn);
}

Status RStarTree::VisitNodesRec(
    PageId pid, uint8_t expected_level,
    const std::function<void(uint32_t depth, const RNode& node)>& fn) {
  RNode node;
  LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
  if (node.level != expected_level) {
    return Status::Corruption("R*-tree node level mismatch on walk");
  }
  fn(static_cast<uint32_t>(root_level_ - node.level), node);
  if (node.leaf()) return Status::OK();
  for (const RNodeEntry& e : node.entries) {
    LSDB_RETURN_IF_ERROR(VisitNodesRec(
        e.child, static_cast<uint8_t>(node.level - 1), fn));
  }
  return Status::OK();
}

Status RStarTree::CollectLeafMbrs(std::vector<Rect>* out) {
  auto walk = [this, out](auto&& self, PageId pid) -> Status {
    RNode node;
    LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
    if (node.leaf()) {
      out->push_back(node.Mbr());
      return Status::OK();
    }
    for (const RNodeEntry& e : node.entries) {
      LSDB_RETURN_IF_ERROR(self(self, e.child));
    }
    return Status::OK();
  };
  return walk(walk, root_);
}

double RStarTree::AverageLeafOccupancy() {
  uint64_t leaves = 0, entries = 0;
  auto walk = [this, &leaves, &entries](auto&& self, PageId pid) -> Status {
    RNode node;
    LSDB_RETURN_IF_ERROR(io_.Load(pid, &node));
    if (node.leaf()) {
      ++leaves;
      entries += node.entries.size();
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
