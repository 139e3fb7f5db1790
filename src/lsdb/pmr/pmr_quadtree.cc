#include "lsdb/pmr/pmr_quadtree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <queue>
#include <set>

#include "lsdb/introspect/profiler.h"
#include "lsdb/pmr/window_decompose.h"
#include "lsdb/service/cancel.h"
#include "lsdb/storage/superblock.h"

namespace lsdb {

PmrQuadtree::PmrQuadtree(const IndexOptions& options, PageFile* file,
                         SegmentTable* segs)
    : options_(options),
      pool_(file, options.buffer_frames, &metrics_),
      btree_(&pool_, options.pmr_store_bboxes ? 8 : 0),
      segs_(segs),
      geom_(options.world_log2,
            std::min(options.pmr_max_depth,
                     std::min(options.world_log2, kMaxQuadDepth))),
      threshold_(options.pmr_split_threshold) {
  assert(threshold_ >= 1);  // NOLINT(lsdb-assert-on-disk): constructor option validation
}

void PmrQuadtree::EncodeBbox(const Rect& r, uint8_t* out) {
  const uint16_t v[4] = {static_cast<uint16_t>(r.xmin),
                         static_cast<uint16_t>(r.ymin),
                         static_cast<uint16_t>(r.xmax),
                         static_cast<uint16_t>(r.ymax)};
  std::memcpy(out, v, 8);
}

Rect PmrQuadtree::DecodeBbox(const uint8_t* p) {
  uint16_t v[4];
  std::memcpy(v, p, 8);
  return Rect::Of(v[0], v[1], v[2], v[3]);
}

namespace {
constexpr uint8_t kZeroPayload[8] = {0, 0, 0, 0, 0, 0, 0, 0};
}  // namespace

Status PmrQuadtree::Init() {
  auto sb = pool_.New();
  if (!sb.ok()) return sb.status();
  if (sb->id() != 0) {
    return Status::InvalidArgument("Init() requires a fresh page file");
  }
  sb->Release();
  LSDB_RETURN_IF_ERROR(btree_.Init());
  // The world starts as a single empty leaf block, kept non-empty in the
  // B-tree by its sentinel tuple.
  return btree_.Insert(geom_.PackKey(QuadBlock{0, 0}, kSentinelId),
                       kZeroPayload);
}

Status PmrQuadtree::Open() {
  auto fields = ReadSuperblock(&pool_, 0, SuperblockKind::kPmrQuadtree);
  if (!fields.ok()) return fields.status();
  const SuperblockFields& f = *fields;
  if (f[6] != geom_.world_log2() || f[7] != geom_.max_depth() ||
      f[8] != threshold_ ||
      f[9] != (options_.pmr_store_bboxes ? 1u : 0u)) {
    return Status::InvalidArgument("options do not match stored structure");
  }
  btree_.Restore(static_cast<PageId>(f[0]), f[1],
                 static_cast<uint32_t>(f[2]), static_cast<uint32_t>(f[3]));
  size_ = f[4];
  tuple_count_ = f[5];
  return Status::OK();
}

Status PmrQuadtree::Flush() {
  SuperblockFields f{};
  f[0] = btree_.root();
  f[1] = btree_.size();
  f[2] = btree_.height();
  f[3] = btree_.live_pages();
  f[4] = size_;
  f[5] = tuple_count_;
  f[6] = geom_.world_log2();
  f[7] = geom_.max_depth();
  f[8] = threshold_;
  f[9] = options_.pmr_store_bboxes ? 1 : 0;
  LSDB_RETURN_IF_ERROR(
      WriteSuperblock(&pool_, 0, SuperblockKind::kPmrQuadtree, f));
  return pool_.FlushAll();
}

StatusOr<bool> PmrQuadtree::IsLeaf(const QuadBlock& b) {
  // The first tuple in b's subtree key range belongs either to b itself
  // (depth equal: b is a leaf) or to a descendant (depth greater: b is
  // internal). Sentinels guarantee the range is never empty.
  auto key = btree_.SeekGE(geom_.SubtreeKeyLow(b));
  if (!key.ok()) {
    if (key.status().IsCancelled() || key.status().IsDeadlineExceeded()) {
      return key.status();
    }
    return Status::Corruption("uncovered quadtree block");
  }
  if (*key > geom_.SubtreeKeyHigh(b)) {
    return Status::Corruption("uncovered quadtree block");
  }
  QuadBlock found;
  uint32_t segid;
  LSDB_RETURN_IF_ERROR(geom_.UnpackKeyChecked(*key, &found, &segid));
  return found.depth == b.depth;
}

Status PmrQuadtree::BlockEntries(const QuadBlock& b,
                                 std::vector<SegmentId>* out,
                                 std::vector<Rect>* bboxes) {
  return btree_.Scan(
      geom_.BlockKeyLow(b), geom_.BlockKeyHigh(b),
      [this, out, bboxes](uint64_t key, const uint8_t* payload) {
        QuadBlock kb;
        uint32_t segid;
        geom_.UnpackKey(key, &kb, &segid);
        if (segid != kSentinelId) {
          out->push_back(segid);
          if (bboxes != nullptr && payload != nullptr) {
            bboxes->push_back(DecodeBbox(payload));
          }
        }
        return true;
      });
}

Status PmrQuadtree::VisitLeavesInCellRect(
    uint32_t cx0, uint32_t cy0, uint32_t cx1, uint32_t cy1,
    const std::function<Status(const QuadBlock&)>& fn) {
  const uint32_t zmin = MortonEncode(cx0, cy0);
  const uint32_t zmax = MortonEncode(cx1, cy1);
  uint32_t cur = zmin;
  for (;;) {
    LSDB_RETURN_IF_CANCELLED();
    // Predecessor probe: the leaf whose Z-range covers cell `cur`.
    const uint64_t probe = (static_cast<uint64_t>(cur) << 36) |
                           (uint64_t{0xf} << 32) | 0xffffffffu;
    auto key = btree_.SeekLE(probe);
    if (!key.ok()) {
      // A cancelled/expired descent is the query's status, not a
      // structural hole — do not let it masquerade as corruption (which
      // would count as a breaker failure).
      if (key.status().IsCancelled() || key.status().IsDeadlineExceeded()) {
        return key.status();
      }
      return Status::Corruption("uncovered quadtree cell");
    }
    QuadBlock leaf;
    uint32_t segid;
    LSDB_RETURN_IF_ERROR(geom_.UnpackKeyChecked(*key, &leaf, &segid));
    const uint64_t base = geom_.SubtreeKeyLow(leaf) >> 36;
    const uint64_t cells =
        uint64_t{1} << (2 * (geom_.max_depth() - leaf.depth));
    const uint64_t next = base + cells;
    // A sound tree's predecessor leaf covers `cur`. One that ends at or
    // before it (a stale or hostile page, a missing leaf) would be found
    // again on every probe, so the walk could never advance.
    if (next <= cur) return Status::Corruption("uncovered quadtree cell");
    LSDB_RETURN_IF_ERROR(fn(leaf));
    // Advance past the leaf's Z-range, jumping out-of-rect gaps.
    if (next > zmax) return Status::OK();
    uint32_t nx, ny;
    MortonDecode(static_cast<uint32_t>(next), &nx, &ny);
    if (nx >= cx0 && nx <= cx1 && ny >= cy0 && ny <= cy1) {
      cur = static_cast<uint32_t>(next);
    } else {
      uint32_t jumped;
      if (!ZOrderBigMin(zmin, zmax, static_cast<uint32_t>(next) - 1,
                        &jumped)) {
        return Status::OK();
      }
      cur = jumped;
    }
  }
}

Status PmrQuadtree::FindIntersectingLeaves(const Segment& s,
                                           std::vector<QuadBlock>* out) {
  // Cell rectangle covering every max-depth cell whose *closed* region
  // intersects the segment's MBR: a closed cell [c*side, (c+1)*side] also
  // touches an MBR ending exactly on its lower boundary, hence the
  // boundary-touch extension below. This guarantees that every leaf whose
  // closed region intersects the segment owns at least one visited cell.
  const Rect mbr = s.Mbr();
  const uint32_t shift = geom_.world_log2() - geom_.max_depth();
  const Coord side = Coord{1} << shift;
  const uint32_t max_cell = (1u << geom_.max_depth()) - 1;
  auto low_cell = [&](Coord v) {
    if (v <= 0) return 0u;
    const uint32_t c = static_cast<uint32_t>(v) >> shift;
    // Exactly on a boundary: the cell below also touches.
    if ((v & (side - 1)) == 0 && c > 0) return c - 1;
    return std::min(c, max_cell);
  };
  auto high_cell = [&](Coord v) {
    if (v < 0) return 0u;
    return std::min(static_cast<uint32_t>(v) >> shift, max_cell);
  };
  const uint32_t cx0 = low_cell(mbr.xmin), cy0 = low_cell(mbr.ymin);
  const uint32_t cx1 = high_cell(mbr.xmax), cy1 = high_cell(mbr.ymax);
  return VisitLeavesInCellRect(
      cx0, cy0, cx1, cy1, [this, &s, out](const QuadBlock& leaf) -> Status {
        ++CounterSink(metrics_).bucket_comps;
        if (s.IntersectsRect(geom_.BlockRegion(leaf))) {
          out->push_back(leaf);
        }
        return Status::OK();
      });
}

Status PmrQuadtree::SplitBlock(const QuadBlock& b) {
  std::vector<SegmentId> ids;
  LSDB_RETURN_IF_ERROR(BlockEntries(b, &ids));
  std::vector<Segment> geoms(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    LSDB_RETURN_IF_ERROR(segs_->Get(ids[i], &geoms[i]));
  }
  for (SegmentId id : ids) {
    LSDB_RETURN_IF_ERROR(btree_.Erase(geom_.PackKey(b, id)));
    --tuple_count_;
  }
  for (int q = 0; q < 4; ++q) {
    const QuadBlock child = b.Child(q);
    ++CounterSink(metrics_).bucket_comps;
    const Rect region = geom_.BlockRegion(child);
    bool any = false;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (geoms[i].IntersectsRect(region)) {
        uint8_t payload[8];
        EncodeBbox(geoms[i].Mbr(), payload);
        LSDB_RETURN_IF_ERROR(
            btree_.Insert(geom_.PackKey(child, ids[i]), payload));
        ++tuple_count_;
        any = true;
      }
    }
    if (!any) {
      LSDB_RETURN_IF_ERROR(
          btree_.Insert(geom_.PackKey(child, kSentinelId), kZeroPayload));
    }
  }
  return Status::OK();
}

Status PmrQuadtree::Insert(SegmentId id, const Segment& s) {
  LSDB_RETURN_IF_ERROR(CheckMutable());
  if (!s.IntersectsRect(geom_.WorldRect())) {
    return Status::InvalidArgument("segment outside the world");
  }
  std::vector<QuadBlock> leaves;
  LSDB_RETURN_IF_ERROR(FindIntersectingLeaves(s, &leaves));
  uint8_t payload[8];
  EncodeBbox(s.Mbr(), payload);
  for (const QuadBlock& b : leaves) {
    std::vector<SegmentId> ids;
    LSDB_RETURN_IF_ERROR(BlockEntries(b, &ids));
    if (ids.empty()) {
      // Replace the sentinel with the first real tuple.
      LSDB_RETURN_IF_ERROR(btree_.Erase(geom_.PackKey(b, kSentinelId)));
    }
    LSDB_RETURN_IF_ERROR(btree_.Insert(geom_.PackKey(b, id), payload));
    ++tuple_count_;
    // Probabilistic splitting rule: split once (and only once) when the
    // insertion pushes the occupancy over the threshold.
    if (ids.size() + 1 > threshold_ && b.depth < geom_.max_depth()) {
      LSDB_RETURN_IF_ERROR(SplitBlock(b));
    }
  }
  ++size_;
  return Status::OK();
}

Status PmrQuadtree::TryMergeUpward(QuadBlock parent) {
  for (;;) {
    // The parent may already have been merged away by an earlier cascade
    // of the same deletion (its area then lies inside a coarser leaf whose
    // tuples sort outside the parent's key range): nothing left to do.
    auto probe = btree_.SeekGE(geom_.SubtreeKeyLow(parent));
    if (!probe.ok() || *probe > geom_.SubtreeKeyHigh(parent)) {
      return Status::OK();
    }
    // All four children must currently be leaves.
    std::set<SegmentId> distinct;
    for (int q = 0; q < 4; ++q) {
      const QuadBlock child = parent.Child(q);
      auto leaf = IsLeaf(child);
      if (!leaf.ok()) return leaf.status();
      if (!*leaf) return Status::OK();
      std::vector<SegmentId> ids;
      LSDB_RETURN_IF_ERROR(BlockEntries(child, &ids));
      distinct.insert(ids.begin(), ids.end());
    }
    // Merge when the splitting threshold exceeds the combined occupancy.
    if (distinct.size() >= threshold_) return Status::OK();
    for (int q = 0; q < 4; ++q) {
      const QuadBlock child = parent.Child(q);
      std::vector<SegmentId> ids;
      LSDB_RETURN_IF_ERROR(BlockEntries(child, &ids));
      if (ids.empty()) {
        LSDB_RETURN_IF_ERROR(
            btree_.Erase(geom_.PackKey(child, kSentinelId)));
      } else {
        for (SegmentId sid : ids) {
          LSDB_RETURN_IF_ERROR(btree_.Erase(geom_.PackKey(child, sid)));
          --tuple_count_;
        }
      }
    }
    if (distinct.empty()) {
      LSDB_RETURN_IF_ERROR(
          btree_.Insert(geom_.PackKey(parent, kSentinelId), kZeroPayload));
    } else {
      for (SegmentId sid : distinct) {
        uint8_t payload[8];
        if (options_.pmr_store_bboxes) {
          Segment seg;
          LSDB_RETURN_IF_ERROR(segs_->Get(sid, &seg));
          EncodeBbox(seg.Mbr(), payload);
        } else {
          std::memcpy(payload, kZeroPayload, 8);
        }
        LSDB_RETURN_IF_ERROR(
            btree_.Insert(geom_.PackKey(parent, sid), payload));
        ++tuple_count_;
      }
    }
    if (parent.depth == 0) return Status::OK();
    parent = parent.Parent();
  }
}

Status PmrQuadtree::Erase(SegmentId id, const Segment& s) {
  LSDB_RETURN_IF_ERROR(CheckMutable());
  std::vector<QuadBlock> leaves;
  LSDB_RETURN_IF_ERROR(FindIntersectingLeaves(s, &leaves));
  bool found = false;
  for (const QuadBlock& b : leaves) {
    const Status st = btree_.Erase(geom_.PackKey(b, id));
    if (st.IsNotFound()) continue;
    LSDB_RETURN_IF_ERROR(st);
    --tuple_count_;
    found = true;
    std::vector<SegmentId> ids;
    LSDB_RETURN_IF_ERROR(BlockEntries(b, &ids));
    if (ids.empty()) {
      LSDB_RETURN_IF_ERROR(
          btree_.Insert(geom_.PackKey(b, kSentinelId), kZeroPayload));
    }
  }
  if (!found) return Status::NotFound("segment not in PMR quadtree");
  --size_;
  // Attempt merges bottom-up above every affected block (deduplicated).
  std::set<std::pair<uint32_t, uint8_t>> parents;
  for (const QuadBlock& b : leaves) {
    if (b.depth > 0) {
      const QuadBlock p = b.Parent();
      parents.insert({p.morton, p.depth});
    }
  }
  for (const auto& [morton, depth] : parents) {
    // The block may already have been merged away; TryMergeUpward checks.
    LSDB_RETURN_IF_ERROR(TryMergeUpward(QuadBlock{morton, depth}));
  }
  return Status::OK();
}

Status PmrQuadtree::WindowRec(const QuadBlock& b, const Rect& w,
                              std::unordered_set<SegmentId>* seen,
                              std::vector<SegmentHit>* out) {
  LSDB_RETURN_IF_CANCELLED();
  ++CounterSink(metrics_).bucket_comps;
  if (!geom_.BlockRegion(b).Intersects(w)) return Status::OK();
  auto leaf = IsLeaf(b);
  if (!leaf.ok()) return leaf.status();
  if (*leaf) {
    std::vector<SegmentId> ids;
    std::vector<Rect> bboxes;
    LSDB_RETURN_IF_ERROR(BlockEntries(
        b, &ids, options_.pmr_store_bboxes ? &bboxes : nullptr));
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!seen->insert(ids[i]).second) continue;
      if (options_.pmr_store_bboxes) {
        ++CounterSink(metrics_).bbox_comps;
        if (!bboxes[i].Intersects(w)) continue;
      }
      Segment s;
      LSDB_RETURN_IF_ERROR(segs_->Get(ids[i], &s));
      ++CounterSink(metrics_).segment_comps;
      if (s.IntersectsRect(w)) out->push_back(SegmentHit{ids[i], s});
    }
    return Status::OK();
  }
  for (int q = 0; q < 4; ++q) {
    LSDB_RETURN_IF_ERROR(WindowRec(b.Child(q), w, seen, out));
  }
  return Status::OK();
}

Status PmrQuadtree::WindowQueryTraversal(const Rect& w,
                                         std::vector<SegmentHit>* out) {
  std::unordered_set<SegmentId> seen;
  return WindowRec(QuadBlock{0, 0}, w, &seen, out);
}

Status PmrQuadtree::PointWindow(const Point& p,
                                std::vector<SegmentHit>* out) {
  // Coordinates of stored segments lie in [0, world_size); a point outside
  // that half-open box cannot touch any segment.
  if (p.x < 0 || p.y < 0 || p.x >= geom_.world_size() ||
      p.y >= geom_.world_size()) {
    return Status::OK();
  }
  LSDB_RETURN_IF_CANCELLED();
  // One predecessor probe finds the leaf whose cell contains p. Because
  // insertion uses *closed* block regions, every segment through p — even
  // one that merely touches this leaf's boundary at p — is stored here,
  // so no neighbouring block needs to be examined (this is why the paper
  // reports exactly 1.00 bucket computations for the Point query).
  auto block = LocateBlock(p);
  if (!block.ok()) return block.status();
  LSDB_INTROSPECT(BeginBucket(block->depth));
  std::vector<SegmentId> ids;
  std::vector<Rect> bboxes;
  LSDB_RETURN_IF_ERROR(BlockEntries(
      *block, &ids, options_.pmr_store_bboxes ? &bboxes : nullptr));
  for (size_t i = 0; i < ids.size(); ++i) {
    if (options_.pmr_store_bboxes) {
      ++CounterSink(metrics_).bbox_comps;
      if (!bboxes[i].Contains(p)) continue;
    }
    Segment s;
    LSDB_RETURN_IF_ERROR(segs_->Get(ids[i], &s));
    ++CounterSink(metrics_).segment_comps;
    if (s.ContainsPoint(p)) {
      out->push_back(SegmentHit{ids[i], s});
      LSDB_INTROSPECT(OnResult(1));
    }
  }
  LSDB_INTROSPECT(EndBucket());
  return Status::OK();
}

Status PmrQuadtree::ScanPiece(const QuadBlock& piece,
                              std::vector<uint64_t>* keys) {
  // Leaves at or below the piece's depth lie inside its subtree key
  // range...
  const size_t before = keys->size();
  LSDB_RETURN_IF_ERROR(btree_.Scan(geom_.SubtreeKeyLow(piece),
                                   geom_.SubtreeKeyHigh(piece),
                                   [keys](uint64_t k, const uint8_t*) {
                                     keys->push_back(k);
                                     return true;
                                   }));
  // ...otherwise the piece is strictly inside a coarser leaf whose tuples
  // sort just before the range (its Z-order base is smaller).
  if (keys->size() == before && geom_.SubtreeKeyLow(piece) > 0) {
    auto prior = btree_.SeekLE(geom_.SubtreeKeyLow(piece) - 1);
    if (prior.status().IsCancelled() ||
        prior.status().IsDeadlineExceeded()) {
      return prior.status();
    }
    if (prior.ok()) {
      QuadBlock lb;
      uint32_t segid;
      LSDB_RETURN_IF_ERROR(geom_.UnpackKeyChecked(*prior, &lb, &segid));
      if (geom_.SubtreeKeyHigh(lb) >= geom_.SubtreeKeyHigh(piece)) {
        LSDB_RETURN_IF_ERROR(btree_.Scan(geom_.BlockKeyLow(lb),
                                         geom_.BlockKeyHigh(lb),
                                         [keys](uint64_t k, const uint8_t*) {
                                           keys->push_back(k);
                                           return true;
                                         }));
      }
    }
  }
  return Status::OK();
}

Status PmrQuadtree::VisitWindowSegments(
    const Rect& w,
    const std::function<Status(SegmentId, const uint8_t*)>& fn) {
  const Coord world = geom_.world_size();
  if (w.empty() || w.xmax < 0 || w.ymax < 0 || w.xmin >= world ||
      w.ymin >= world) {
    return Status::OK();
  }
  // Owner cells of the window's coordinate range at maximum depth. Any
  // point of the window lies in the closure of one of these cells, and
  // insertion uses closed block regions, so every segment intersecting the
  // window is stored in at least one visited leaf.
  const uint32_t shift = geom_.world_log2() - geom_.max_depth();
  auto cell_of = [&](Coord v) {
    return static_cast<uint32_t>(std::clamp<Coord>(v, 0, world - 1)) >>
           shift;
  };
  return VisitLeavesInCellRect(
      cell_of(w.xmin), cell_of(w.ymin), cell_of(w.xmax), cell_of(w.ymax),
      [this, &fn](const QuadBlock& leaf) -> Status {
        ++CounterSink(metrics_).bucket_comps;
        LSDB_INTROSPECT(BeginBucket(leaf.depth));
        Status cb_status;
        LSDB_RETURN_IF_ERROR(btree_.Scan(
            geom_.BlockKeyLow(leaf), geom_.BlockKeyHigh(leaf),
            [this, &fn, &cb_status](uint64_t k, const uint8_t* payload) {
              QuadBlock lb;
              uint32_t sid;
              geom_.UnpackKey(k, &lb, &sid);
              if (sid != kSentinelId) {
                cb_status = fn(sid, payload);
                if (!cb_status.ok()) return false;
              }
              return true;
            }));
        LSDB_INTROSPECT(EndBucket());
        return cb_status;
      });
}

Status PmrQuadtree::WindowQueryEx(const Rect& w,
                                  std::vector<SegmentHit>* out) {
  if (w.empty()) return Status::OK();
  if (w.Width() == 0 && w.Height() == 0) {
    return PointWindow(Point{w.xmin, w.ymin}, out);
  }
  std::unordered_set<SegmentId> seen;
  return VisitWindowSegments(
      w,
      [this, &w, &seen, out](SegmentId id, const uint8_t* bbox) -> Status {
        if (!seen.insert(id).second) return Status::OK();
        if (options_.pmr_store_bboxes && bbox != nullptr) {
          // 3-tuple variant: prune on the stored box without fetching.
          ++CounterSink(metrics_).bbox_comps;
          if (!DecodeBbox(bbox).Intersects(w)) return Status::OK();
        }
        Segment s;
        LSDB_RETURN_IF_ERROR(segs_->Get(id, &s));
        ++CounterSink(metrics_).segment_comps;
        if (s.IntersectsRect(w)) {
          out->push_back(SegmentHit{id, s});
          LSDB_INTROSPECT(OnResult(1));
        }
        return Status::OK();
      });
}

Status PmrQuadtree::WindowQueryStaticDecomposed(
    const Rect& w, std::vector<SegmentHit>* out) {
  if (w.empty()) return Status::OK();
  std::vector<QuadBlock> pieces;
  DecomposeWindow(geom_, w, &pieces);
  CounterSink(metrics_).bucket_comps += pieces.size();
  std::unordered_set<SegmentId> seen;
  std::vector<uint64_t> keys;
  for (const QuadBlock& piece : pieces) {
    LSDB_RETURN_IF_CANCELLED();
    keys.clear();
    LSDB_RETURN_IF_ERROR(ScanPiece(piece, &keys));
    for (uint64_t k : keys) {
      QuadBlock lb;
      uint32_t segid;
      geom_.UnpackKey(k, &lb, &segid);
      if (segid == kSentinelId) continue;
      if (!seen.insert(segid).second) continue;
      Segment s;
      LSDB_RETURN_IF_ERROR(segs_->Get(segid, &s));
      ++CounterSink(metrics_).segment_comps;
      if (s.IntersectsRect(w)) out->push_back(SegmentHit{segid, s});
    }
  }
  return Status::OK();
}

StatusOr<NearestResult> PmrQuadtree::Nearest(const Point& p) {
  if (size_ == 0) return Status::NotFound("empty index");
  // Expanding-window search. The first radius adapts to the local block
  // size (dense areas start small), then doubles until the best exact
  // distance found is covered by the window: a point outside the square
  // [p +- r] is at Euclidean distance > r, so best <= r is a proof of
  // optimality.
  const Coord world = geom_.world_size();
  const Point pc{std::clamp<Coord>(p.x, 0, world - 1),
                 std::clamp<Coord>(p.y, 0, world - 1)};
  auto b0 = LocateBlock(pc);
  if (!b0.ok()) return b0.status();
  const Rect region0 = geom_.BlockRegion(*b0);
  int64_t r = std::max<int64_t>(
      {1, region0.Width() / 2,
       std::max<int64_t>(std::abs(static_cast<int64_t>(p.x) - pc.x),
                         std::abs(static_cast<int64_t>(p.y) - pc.y))});

  std::unordered_set<SegmentId> seen;
  NearestResult best;
  bool have_best = false;
  for (;;) {
    const Rect w =
        Rect::Of(static_cast<Coord>(std::max<int64_t>(0, p.x - r)),
                 static_cast<Coord>(std::max<int64_t>(0, p.y - r)),
                 static_cast<Coord>(std::min<int64_t>(world, p.x + r)),
                 static_cast<Coord>(std::min<int64_t>(world, p.y + r)));
    LSDB_RETURN_IF_ERROR(VisitWindowSegments(
        w,
        [this, &p, &seen, &best, &have_best](
            SegmentId id, const uint8_t* bbox) -> Status {
          if (!seen.insert(id).second) return Status::OK();
          if (options_.pmr_store_bboxes && bbox != nullptr && have_best) {
            // 3-tuple variant: the box distance lower-bounds the segment
            // distance; skip the fetch when it cannot improve.
            ++CounterSink(metrics_).bbox_comps;
            if (static_cast<double>(DecodeBbox(bbox).SquaredDistanceTo(p)) >
                best.squared_distance) {
              seen.erase(id);  // may still qualify from a later window
              return Status::OK();
            }
          }
          Segment s;
          LSDB_RETURN_IF_ERROR(segs_->Get(id, &s));
          ++CounterSink(metrics_).segment_comps;
          const double d = s.SquaredDistanceTo(p);
          // Expanding-window search: every newly refined candidate counts
          // as a bucket contribution, so a false bucket read is a block
          // that yielded only already-seen (or no) segments.
          LSDB_INTROSPECT(OnResult(1));
          if (!have_best || d < best.squared_distance) {
            have_best = true;
            best = NearestResult{id, d, s};
          }
          return Status::OK();
        }));
    const double r2 = static_cast<double>(r) * static_cast<double>(r);
    if (have_best && best.squared_distance <= r2) return best;
    const bool covers_world = p.x - r <= 0 && p.y - r <= 0 &&
                              p.x + r >= world && p.y + r >= world;
    if (covers_world) {
      if (have_best) return best;
      return Status::NotFound("empty index");
    }
    r *= 2;
  }
}

StatusOr<QuadBlock> PmrQuadtree::LocateBlock(const Point& p) {
  if (!geom_.WorldRect().Contains(p)) {
    return Status::InvalidArgument("point outside the world");
  }
  ++CounterSink(metrics_).bucket_comps;
  auto key = btree_.SeekLE(geom_.PointProbeKey(p));
  if (!key.ok()) {
    if (key.status().IsCancelled() || key.status().IsDeadlineExceeded()) {
      return key.status();
    }
    return Status::Corruption("uncovered point");
  }
  QuadBlock b;
  uint32_t segid;
  LSDB_RETURN_IF_ERROR(geom_.UnpackKeyChecked(*key, &b, &segid));
  return b;
}

Status PmrQuadtree::CollectLeafBlocks(std::vector<QuadBlock>* out) {
  uint64_t last_low = 0;
  bool have_last = false;
  Status cb_status;
  LSDB_RETURN_IF_ERROR(btree_.Scan(
      0, ~uint64_t{0},
      [this, out, &last_low, &have_last, &cb_status](uint64_t key,
                                                     const uint8_t*) {
        QuadBlock b;
        uint32_t segid;
        cb_status = geom_.UnpackKeyChecked(key, &b, &segid);
        if (!cb_status.ok()) return false;
        const uint64_t low = geom_.BlockKeyLow(b);
        if (!have_last || low != last_low) {
          out->push_back(b);
          last_low = low;
          have_last = true;
        }
        return true;
      }));
  return cb_status;
}

StatusOr<double> PmrQuadtree::AverageBucketOccupancy() {
  uint64_t blocks = 0, entries = 0;
  QuadBlock cur{0, 0};
  bool have_cur = false;
  uint64_t cur_count = 0;
  auto flush = [&]() {
    if (have_cur && cur_count > 0) {
      ++blocks;
      entries += cur_count;
    }
  };
  LSDB_RETURN_IF_ERROR(btree_.Scan(
      0, ~uint64_t{0}, [&](uint64_t key, const uint8_t*) {
        QuadBlock b;
        uint32_t segid;
        geom_.UnpackKey(key, &b, &segid);
        if (!have_cur || !(b == cur)) {
          flush();
          cur = b;
          have_cur = true;
          cur_count = 0;
        }
        if (segid != kSentinelId) ++cur_count;
        return true;
      }));
  flush();
  if (blocks == 0) return 0.0;
  return static_cast<double>(entries) / static_cast<double>(blocks);
}

Status PmrQuadtree::CheckInvariants() {
  // One linear pass: blocks must appear in Z-order, be pairwise disjoint,
  // and tile the world; sentinels must be alone in their block; every
  // tuple's segment must intersect its block region.
  struct State {
    bool have_block = false;
    QuadBlock block;
    uint64_t subtree_high = 0;
    uint64_t block_cells = 0;
    bool saw_sentinel = false;
    uint64_t block_entries = 0;
    uint64_t covered_cells = 0;
    uint64_t tuples = 0;
    std::unordered_set<SegmentId> distinct;
    Status error;
  } st;
  const uint64_t total_cells = uint64_t{1}
                               << (2 * geom_.max_depth());
  LSDB_RETURN_IF_ERROR(btree_.Scan(
      0, ~uint64_t{0}, [&](uint64_t key, const uint8_t* payload) {
    QuadBlock b;
    uint32_t segid;
    st.error = geom_.UnpackKeyChecked(key, &b, &segid);
    if (!st.error.ok()) return false;
    if (!st.have_block || !(b == st.block)) {
      if (st.have_block) {
        if (geom_.SubtreeKeyLow(b) <= st.subtree_high) {
          st.error = Status::Corruption("overlapping leaf blocks");
          return false;
        }
        if (st.saw_sentinel && st.block_entries > 0) {
          st.error = Status::Corruption("sentinel in non-empty block");
          return false;
        }
      }
      st.have_block = true;
      st.block = b;
      st.subtree_high = geom_.SubtreeKeyHigh(b);
      st.block_cells = uint64_t{1} << (2 * (geom_.max_depth() - b.depth));
      st.covered_cells += st.block_cells;
      st.saw_sentinel = false;
      st.block_entries = 0;
    }
    if (segid == kSentinelId) {
      st.saw_sentinel = true;
      return true;
    }
    ++st.block_entries;
    ++st.tuples;
    st.distinct.insert(segid);
    Segment s;
    const Status gs = segs_->Get(segid, &s);
    if (!gs.ok()) {
      st.error = gs;
      return false;
    }
    if (!s.IntersectsRect(geom_.BlockRegion(b))) {
      st.error = Status::Corruption("tuple segment misses block region");
      return false;
    }
    if (options_.pmr_store_bboxes && payload != nullptr &&
        DecodeBbox(payload) != s.Mbr()) {
      st.error = Status::Corruption("stored bbox != segment MBR");
      return false;
    }
    return true;
  }));
  LSDB_RETURN_IF_ERROR(st.error);
  if (st.covered_cells != total_cells) {
    return Status::Corruption("leaf blocks do not tile the world");
  }
  if (st.tuples != tuple_count_) {
    return Status::Corruption("tuple count mismatch");
  }
  if (st.distinct.size() != size_) {
    return Status::Corruption("distinct segment count mismatch");
  }
  return btree_.CheckInvariants();
}

}  // namespace lsdb
