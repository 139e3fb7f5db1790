#include <gtest/gtest.h>

#include <set>

#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/pmr/window_decompose.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/service/cancel.h"
#include "lsdb/util/query_context.h"
#include "test_util.h"

namespace lsdb {
namespace {

using testing::Ids;
using testing::RandomSegments;
using testing::Sorted;

struct PmrFixture {
  explicit PmrFixture(IndexOptions opt = DefaultOptions())
      : options(opt),
        seg_file(opt.page_size),
        seg_pool(&seg_file, opt.buffer_frames, nullptr),
        table(&seg_pool),
        file(opt.page_size),
        tree(opt, &file, &table) {
    EXPECT_TRUE(tree.Init().ok());
  }

  static IndexOptions DefaultOptions() {
    IndexOptions opt;
    opt.page_size = 256;
    opt.world_log2 = 10;
    opt.pmr_max_depth = 10;
    opt.pmr_split_threshold = 4;
    return opt;
  }

  SegmentId Add(const Segment& s) {
    auto id = table.Append(s);
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(tree.Insert(*id, s).ok());
    return *id;
  }

  IndexOptions options;
  MemPageFile seg_file;
  BufferPool seg_pool;
  SegmentTable table;
  MemPageFile file;
  PmrQuadtree tree;
};

TEST(PmrTest, EmptyTreeIsOneSentinelBlock) {
  PmrFixture f;
  std::vector<QuadBlock> blocks;
  ASSERT_TRUE(f.tree.CollectLeafBlocks(&blocks).ok());
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].depth, 0);
  EXPECT_TRUE(f.tree.Nearest(Point{1, 1}).status().IsNotFound());
  EXPECT_TRUE(f.tree.CheckInvariants().ok());
}

TEST(PmrTest, ThresholdTriggersSingleSplit) {
  PmrFixture f;  // threshold 4
  // Insert 4 segments in one quadrant: no split yet.
  for (int i = 0; i < 4; ++i) {
    f.Add(Segment{{static_cast<Coord>(10 + i * 5), 10},
                  {static_cast<Coord>(12 + i * 5), 20}});
  }
  std::vector<QuadBlock> blocks;
  ASSERT_TRUE(f.tree.CollectLeafBlocks(&blocks).ok());
  EXPECT_EQ(blocks.size(), 1u);
  // The 5th pushes occupancy over the threshold: exactly one split (the
  // probabilistic rule never cascades).
  f.Add(Segment{{100, 100}, {110, 120}});
  blocks.clear();
  ASSERT_TRUE(f.tree.CollectLeafBlocks(&blocks).ok());
  EXPECT_EQ(blocks.size(), 4u);
  for (const QuadBlock& b : blocks) EXPECT_EQ(b.depth, 1);
  EXPECT_TRUE(f.tree.CheckInvariants().ok());
}

TEST(PmrTest, SentinelsKeepTilingAfterSplits) {
  PmrFixture f;
  Rng rng(61);
  for (const Segment& s : RandomSegments(&rng, 400, 1024, 48)) f.Add(s);
  const Status st = f.tree.CheckInvariants();  // includes tiling check
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(PmrTest, LocateBlockFindsContainingLeaf) {
  PmrFixture f;
  Rng rng(67);
  for (const Segment& s : RandomSegments(&rng, 500, 1024, 48)) f.Add(s);
  for (int i = 0; i < 200; ++i) {
    const Point p{static_cast<Coord>(rng.Uniform(1024)),
                  static_cast<Coord>(rng.Uniform(1024))};
    auto block = f.tree.LocateBlock(p);
    ASSERT_TRUE(block.ok());
    EXPECT_TRUE(f.tree.geometry().BlockRegion(*block).Contains(p))
        << "(" << p.x << "," << p.y << ")";
  }
}

TEST(PmrTest, LocateBlockAtCorners) {
  PmrFixture f;
  Rng rng(68);
  for (const Segment& s : RandomSegments(&rng, 300, 1024, 32)) f.Add(s);
  for (const Point p : {Point{0, 0}, Point{1023, 0}, Point{0, 1023},
                        Point{1023, 1023}}) {
    auto block = f.tree.LocateBlock(p);
    ASSERT_TRUE(block.ok());
    EXPECT_TRUE(f.tree.geometry().BlockRegion(*block).Contains(p));
  }
  EXPECT_FALSE(f.tree.LocateBlock(Point{2000, 0}).ok());
}

TEST(PmrTest, MaxDepthStopsSplitting) {
  IndexOptions opt = PmrFixture::DefaultOptions();
  opt.pmr_max_depth = 2;  // blocks no smaller than 256x256
  PmrFixture f(opt);
  Rng rng(71);
  for (const Segment& s : RandomSegments(&rng, 200, 256, 16)) f.Add(s);
  std::vector<QuadBlock> blocks;
  ASSERT_TRUE(f.tree.CollectLeafBlocks(&blocks).ok());
  for (const QuadBlock& b : blocks) EXPECT_LE(b.depth, 2);
  EXPECT_TRUE(f.tree.CheckInvariants().ok());
}

TEST(PmrTest, DeletionMergesBlocks) {
  PmrFixture f;
  Rng rng(73);
  auto segs = RandomSegments(&rng, 300, 1024, 48);
  std::vector<SegmentId> ids;
  for (const Segment& s : segs) ids.push_back(f.Add(s));
  std::vector<QuadBlock> blocks_before;
  ASSERT_TRUE(f.tree.CollectLeafBlocks(&blocks_before).ok());
  for (size_t i = 0; i < segs.size(); ++i) {
    ASSERT_TRUE(f.tree.Erase(ids[i], segs[i]).ok());
  }
  std::vector<QuadBlock> blocks_after;
  ASSERT_TRUE(f.tree.CollectLeafBlocks(&blocks_after).ok());
  // Full deletion must merge everything back to the root block.
  EXPECT_EQ(blocks_after.size(), 1u);
  EXPECT_EQ(f.tree.size(), 0u);
  EXPECT_EQ(f.tree.tuples(), 0u);
  EXPECT_LT(blocks_after.size(), blocks_before.size());
  EXPECT_TRUE(f.tree.CheckInvariants().ok());
}

TEST(PmrTest, QEdgeCountExceedsSegmentCount) {
  PmrFixture f;
  Rng rng(79);
  auto segs = RandomSegments(&rng, 400, 1024, 128);
  for (const Segment& s : segs) f.Add(s);
  // Segments crossing block boundaries are stored once per block.
  EXPECT_GT(f.tree.tuples(), f.tree.size());
}

TEST(PmrTest, WindowDecomposedMatchesTraversal) {
  PmrFixture f;
  Rng rng(83);
  for (const Segment& s : RandomSegments(&rng, 600, 1024, 64)) f.Add(s);
  for (int i = 0; i < 100; ++i) {
    const Point a{static_cast<Coord>(rng.Uniform(1024)),
                  static_cast<Coord>(rng.Uniform(1024))};
    const Point b{static_cast<Coord>(rng.Uniform(1024)),
                  static_cast<Coord>(rng.Uniform(1024))};
    const Rect w = Rect::Bound(a, b);
    std::vector<SegmentHit> via_traversal;
    ASSERT_TRUE(f.tree.WindowQueryTraversal(w, &via_traversal).ok());
    std::vector<SegmentHit> via_decompose;
    ASSERT_TRUE(f.tree.WindowQueryEx(w, &via_decompose).ok());
    EXPECT_EQ(Ids(via_traversal), Ids(via_decompose))
        << "window " << w.ToString();
  }
}

TEST(PmrTest, SegmentOutsideWorldRejected) {
  PmrFixture f;
  auto id = f.table.Append(Segment{{5000, 5000}, {6000, 6000}});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(f.tree
                  .Insert(*id, Segment{{5000, 5000}, {6000, 6000}})
                  .IsInvalidArgument());
}

TEST(WindowDecomposeTest, CoversWindowWithDisjointBlocks) {
  const QuadGeometry geom(10, 10);
  Rng rng(89);
  for (int i = 0; i < 100; ++i) {
    const Point a{static_cast<Coord>(rng.Uniform(1024)),
                  static_cast<Coord>(rng.Uniform(1024))};
    const Point b{static_cast<Coord>(rng.Uniform(1024)),
                  static_cast<Coord>(rng.Uniform(1024))};
    const Rect w = Rect::Bound(a, b);
    std::vector<QuadBlock> blocks;
    DecomposeWindow(geom, w, &blocks);
    ASSERT_FALSE(blocks.empty());
    // Pairwise cell-disjoint (subtree key ranges do not overlap) and in
    // Z-order.
    for (size_t k = 1; k < blocks.size(); ++k) {
      EXPECT_GT(geom.SubtreeKeyLow(blocks[k]),
                geom.SubtreeKeyHigh(blocks[k - 1]));
    }
    // Covers the window: sample points inside w are inside some block.
    for (int s = 0; s < 50; ++s) {
      const Point p{static_cast<Coord>(
                        w.xmin + rng.Uniform(
                                     static_cast<uint64_t>(w.Width()) + 1)),
                    static_cast<Coord>(
                        w.ymin + rng.Uniform(
                                     static_cast<uint64_t>(w.Height()) + 1))};
      bool covered = false;
      for (const QuadBlock& blk : blocks) {
        covered |= geom.BlockRegion(blk).Contains(p);
      }
      EXPECT_TRUE(covered);
    }
  }
}

TEST(WindowDecomposeTest, WindowPastWorldBoundaryKeepsBoundaryBlocks) {
  // Regression: a positive-area window reaching past the world edge whose
  // in-world part is just the boundary line used to be touch-skipped in
  // every block (zero overlap everywhere, and no in-world neighbour holds
  // the positive overlap the skip argument relies on), silently dropping
  // segments lying on the boundary.
  const QuadGeometry geom(10, 10);
  std::vector<QuadBlock> blocks;
  DecomposeWindow(geom, Rect::Of(-16, 0, 0, 1024), &blocks);
  ASSERT_FALSE(blocks.empty());
  for (const QuadBlock& b : blocks) {
    EXPECT_EQ(geom.BlockRegion(b).xmin, 0);  // the x = 0 column only
  }
  // A window fully outside the world covers nothing.
  blocks.clear();
  DecomposeWindow(geom, Rect::Of(-50, -50, -10, -10), &blocks);
  EXPECT_TRUE(blocks.empty());
}

TEST(PmrTest, WindowPastWorldBoundaryFindsBoundarySegments) {
  PmrFixture f;
  const Segment on_edge{Point{0, 100}, Point{0, 300}};
  const SegmentId id = f.Add(on_edge);
  Rng rng(91);
  for (const Segment& s : RandomSegments(&rng, 200, 1024, 32)) f.Add(s);
  // Positive-area window whose in-world part is the line x = 0: both
  // strategies must agree and find the boundary segment.
  const Rect w = Rect::Of(-50, 50, 0, 350);
  std::vector<SegmentHit> via_traversal;
  ASSERT_TRUE(f.tree.WindowQueryTraversal(w, &via_traversal).ok());
  std::vector<SegmentHit> via_decompose;
  ASSERT_TRUE(f.tree.WindowQueryEx(w, &via_decompose).ok());
  EXPECT_EQ(Ids(via_traversal), Ids(via_decompose));
  bool found = false;
  for (const SegmentHit& h : via_decompose) found |= h.id == id;
  EXPECT_TRUE(found);
}

TEST(WindowDecomposeTest, AlignedWindowIsOneBlock) {
  const QuadGeometry geom(10, 10);
  std::vector<QuadBlock> blocks;
  DecomposeWindow(geom, Rect::Of(0, 0, 512, 512), &blocks);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].depth, 1);
}

TEST(PmrTest, BucketOccupancyRoughlyHalfThreshold) {
  // "The average number of line segments in a bucket with a splitting
  // threshold value of x is usually .5x" — allow a generous band.
  PmrFixture f;
  Rng rng(97);
  for (const Segment& s : RandomSegments(&rng, 1500, 1024, 32)) f.Add(s);
  auto occ = f.tree.AverageBucketOccupancy();
  ASSERT_TRUE(occ.ok());
  EXPECT_GT(*occ, 1.0);
  EXPECT_LT(*occ, 4.5);
}


// Merge-cascade stress: low thresholds + nested clusters force deletions
// whose merges cascade several levels in one Erase; a pending merge parent
// may itself be swallowed by an earlier cascade and must be skipped
// gracefully (regression test for the stale-parent probe).
class PmrMergeCascadeTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(PmrMergeCascadeTest, RandomizedDeletionNeverCorrupts) {
  const auto [seed, threshold] = GetParam();
  IndexOptions opt = PmrFixture::DefaultOptions();
  opt.pmr_split_threshold = threshold;
  PmrFixture f(opt);
  Rng rng(seed);
  // Nested clusters at several scales produce leaves at very different
  // depths next to each other.
  std::vector<Segment> segs;
  Coord base = 0, span = 1024;
  while (span >= 8) {
    for (int i = 0; i < 12; ++i) {
      Point a{static_cast<Coord>(base + rng.Uniform(span)),
              static_cast<Coord>(base + rng.Uniform(span))};
      Point b{static_cast<Coord>(base + rng.Uniform(span)),
              static_cast<Coord>(base + rng.Uniform(span))};
      if (a == b) b.x = static_cast<Coord>(b.x ^ 1);
      segs.push_back(Segment{a, b});
    }
    base += static_cast<Coord>(span * 3 / 4);
    span /= 4;
  }
  // A few long segments spanning many leaves: their deletion touches
  // leaves under several different parents at once.
  for (int i = 0; i < 6; ++i) {
    segs.push_back(Segment{{static_cast<Coord>(rng.Uniform(1024)), 0},
                           {static_cast<Coord>(rng.Uniform(1024)), 1023}});
  }
  std::vector<SegmentId> ids;
  for (const Segment& s : segs) ids.push_back(f.Add(s));
  ASSERT_TRUE(f.tree.CheckInvariants().ok());
  // Full deletion in random order; every step must stay consistent.
  for (size_t i = ids.size(); i-- > 1;) {
    std::swap(ids[i], ids[rng.Uniform(i + 1)]);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const Status st = f.tree.Erase(ids[i], segs[ids[i]]);
    ASSERT_TRUE(st.ok()) << st.ToString() << " at " << i;
    if (i % 16 == 15) {
      const Status inv = f.tree.CheckInvariants();
      ASSERT_TRUE(inv.ok()) << inv.ToString() << " at " << i;
    }
  }
  EXPECT_EQ(f.tree.size(), 0u);
  std::vector<QuadBlock> blocks;
  ASSERT_TRUE(f.tree.CollectLeafBlocks(&blocks).ok());
  EXPECT_EQ(blocks.size(), 1u);  // merged back to the root block
}

INSTANTIATE_TEST_SUITE_P(
    Runs, PmrMergeCascadeTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(1u, 2u, 4u)));

// ---- Section 6 "3-tuple" variant: bounding boxes per q-edge ----

TEST(PmrBboxVariantTest, SameResultsAsPlainVariant) {
  IndexOptions plain_opt = PmrFixture::DefaultOptions();
  IndexOptions bbox_opt = PmrFixture::DefaultOptions();
  bbox_opt.pmr_store_bboxes = true;
  PmrFixture plain(plain_opt), boxed(bbox_opt);
  Rng rng(311);
  const auto segs = RandomSegments(&rng, 500, 1024, 64);
  for (const Segment& s : segs) {
    plain.Add(s);
    boxed.Add(s);
  }
  EXPECT_TRUE(boxed.tree.CheckInvariants().ok())
      << boxed.tree.CheckInvariants().ToString();
  for (int i = 0; i < 80; ++i) {
    const Point a{static_cast<Coord>(rng.Uniform(1024)),
                  static_cast<Coord>(rng.Uniform(1024))};
    const Point b{static_cast<Coord>(rng.Uniform(1024)),
                  static_cast<Coord>(rng.Uniform(1024))};
    const Rect w = Rect::Bound(a, b);
    std::vector<SegmentHit> h1, h2;
    ASSERT_TRUE(plain.tree.WindowQueryEx(w, &h1).ok());
    ASSERT_TRUE(boxed.tree.WindowQueryEx(w, &h2).ok());
    EXPECT_EQ(Ids(h1), Ids(h2)) << w.ToString();
    auto n1 = plain.tree.Nearest(a);
    auto n2 = boxed.tree.Nearest(a);
    ASSERT_EQ(n1.ok(), n2.ok());
    if (n1.ok()) {
      EXPECT_DOUBLE_EQ(n1->squared_distance, n2->squared_distance);
    }
  }
}

TEST(PmrBboxVariantTest, TradesStorageForSegmentComparisons) {
  IndexOptions plain_opt = PmrFixture::DefaultOptions();
  IndexOptions bbox_opt = PmrFixture::DefaultOptions();
  bbox_opt.pmr_store_bboxes = true;
  PmrFixture plain(plain_opt), boxed(bbox_opt);
  Rng rng(313);
  for (const Segment& s : RandomSegments(&rng, 800, 1024, 48)) {
    plain.Add(s);
    boxed.Add(s);
  }
  // Storage: the 3-tuple variant is strictly larger (16-byte records).
  EXPECT_GT(boxed.tree.bytes(), plain.tree.bytes());
  // Query work: fewer segment-table fetches thanks to box pruning.
  auto run_windows = [&rng](PmrQuadtree* t) {
    const MetricCounters before = t->metrics();
    Rng local(99);
    for (int i = 0; i < 200; ++i) {
      const Coord x = static_cast<Coord>(local.Uniform(1024 - 64));
      const Coord y = static_cast<Coord>(local.Uniform(1024 - 64));
      std::vector<SegmentHit> hits;
      EXPECT_TRUE(t->WindowQueryEx(
          Rect::Of(x, y, x + 64, y + 64), &hits).ok());
    }
    return t->metrics() - before;
  };
  const MetricCounters plain_cost = run_windows(&plain.tree);
  const MetricCounters boxed_cost = run_windows(&boxed.tree);
  EXPECT_LT(boxed_cost.segment_comps, plain_cost.segment_comps);
  EXPECT_GT(boxed_cost.bbox_comps, 0u);
  EXPECT_EQ(plain_cost.bbox_comps, 0u);
}

TEST(PmrBboxVariantTest, DeletionKeepsBoxesConsistent) {
  IndexOptions opt = PmrFixture::DefaultOptions();
  opt.pmr_store_bboxes = true;
  PmrFixture f(opt);
  Rng rng(317);
  auto segs = RandomSegments(&rng, 300, 1024, 48);
  std::vector<SegmentId> ids;
  for (const Segment& s : segs) ids.push_back(f.Add(s));
  for (size_t i = 0; i < segs.size(); i += 2) {
    ASSERT_TRUE(f.tree.Erase(ids[i], segs[i]).ok());
  }
  EXPECT_TRUE(f.tree.CheckInvariants().ok())
      << f.tree.CheckInvariants().ToString();
}

// Regression for the hardened key decode (UBSan tier): plant a tuple whose
// depth nibble exceeds max_depth — a key no PackKey call can produce, but
// one a logically corrupt page can hold — directly in the tree's B-tree.
// Every read path must surface typed kCorruption or succeed; pre-hardening
// this drove a shift by an out-of-range count in UnpackKey (undefined
// behavior, aborts under the -DLSDB_SAN=undefined tier).
TEST(PmrCorruptKeyTest, PoisonedDepthNibbleIsTypedCorruption) {
  PmrFixture f;
  Rng rng(91);
  const auto segs = RandomSegments(&rng, 40, 1024, 64);
  for (const Segment& s : segs) f.Add(s);

  // Grab any real (non-sentinel) tuple key.
  uint64_t victim = 0;
  bool found = false;
  ASSERT_TRUE(f.tree.btree()
                  ->Scan(0, ~uint64_t{0},
                         [&](uint64_t k, const uint8_t*) {
                           if (static_cast<uint32_t>(k & 0xffffffffu) !=
                               0xffffffffu) {  // sentinel segment id
                             victim = k;
                             found = true;
                             return false;
                           }
                           return true;
                         })
                  .ok());
  ASSERT_TRUE(found);

  const uint64_t poisoned = victim | (uint64_t{0xf} << 32);
  ASSERT_TRUE(f.tree.btree()->Erase(victim).ok());
  ASSERT_TRUE(f.tree.btree()->Insert(poisoned).ok());

  // Full-scan paths are guaranteed to meet the poisoned tuple.
  EXPECT_TRUE(f.tree.CheckInvariants().IsCorruption());
  std::vector<QuadBlock> leaves;
  EXPECT_TRUE(f.tree.CollectLeafBlocks(&leaves).IsCorruption());

  // Query paths may or may not route past it, but must never crash or
  // return an untyped failure.
  std::vector<SegmentHit> hits;
  const Status ws =
      f.tree.WindowQueryEx(Rect::Of(0, 0, 1024, 1024), &hits);
  EXPECT_TRUE(ws.ok() || ws.IsCorruption()) << ws.ToString();
  for (Coord x = 0; x < 1024; x += 64) {
    for (Coord y = 0; y < 1024; y += 64) {
      hits.clear();
      const Status ps = f.tree.PointQueryEx(Point{x, y}, &hits);
      EXPECT_TRUE(ps.ok() || ps.IsCorruption()) << ps.ToString();
    }
  }
}

// Regression for the leaf walk's progress check: erase every tuple of one
// leaf, sentinel included, so the predecessor probe for its cells finds the
// leaf before it, which ends at or before the probed cell. The walk must
// fail typed instead of finding that leaf forever; the 5 s budget turns a
// regression into DeadlineExceeded instead of a hung test.
TEST(PmrCorruptKeyTest, MissingLeafIsTypedCorruptionNotASpin) {
  PmrFixture f;
  Rng rng(91);
  const auto segs = RandomSegments(&rng, 40, 1024, 64);
  for (const Segment& s : segs) f.Add(s);

  std::vector<QuadBlock> leaves;
  ASSERT_TRUE(f.tree.CollectLeafBlocks(&leaves).ok());
  ASSERT_GE(leaves.size(), 2u);
  const QuadGeometry& geom = f.tree.geometry();
  const QuadBlock gone = leaves[1];  // leaves are in Z order
  std::vector<uint64_t> keys;
  ASSERT_TRUE(f.tree.btree()
                  ->Scan(geom.BlockKeyLow(gone), geom.BlockKeyHigh(gone),
                         [&](uint64_t k, const uint8_t*) {
                           keys.push_back(k);
                           return true;
                         })
                  .ok());
  ASSERT_FALSE(keys.empty());
  for (uint64_t k : keys) ASSERT_TRUE(f.tree.btree()->Erase(k).ok());

  CancelToken budget;
  budget.ArmBudget(5'000'000'000);
  ScopedQueryContext scope({.cancel = &budget});
  std::vector<SegmentHit> hits;
  const Status ws = f.tree.WindowQueryEx(geom.WorldRect(), &hits);
  EXPECT_TRUE(ws.IsCorruption()) << ws.ToString();
  // A point inside the erased leaf: the first window already covers it.
  const Rect region = geom.BlockRegion(gone);
  const auto nn = f.tree.Nearest(Point{region.xmin, region.ymin});
  EXPECT_TRUE(nn.status().IsCorruption()) << nn.status().ToString();
}

}  // namespace
}  // namespace lsdb
