// Spatial join (map overlay): both algorithms must produce exactly the
// brute-force set of intersecting pairs.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "lsdb/query/join.h"
#include "lsdb/rplus/rplus_tree.h"
#include "test_util.h"

namespace lsdb {
namespace {

using testing::RandomSegments;

struct JoinRig {
  explicit JoinRig(uint64_t seed_a, uint64_t seed_b, size_t n)
      : opt(Options()),
        file_a(opt.page_size),
        file_b(opt.page_size),
        pool_a(&file_a, opt.buffer_frames, nullptr),
        pool_b(&file_b, opt.buffer_frames, nullptr),
        table_a(&pool_a),
        table_b(&pool_b),
        pmr_a_file(opt.page_size),
        pmr_b_file(opt.page_size),
        rplus_b_file(opt.page_size),
        pmr_a(opt, &pmr_a_file, &table_a),
        pmr_b(opt, &pmr_b_file, &table_b),
        rplus_b(opt, &rplus_b_file, &table_b) {
    EXPECT_TRUE(pmr_a.Init().ok());
    EXPECT_TRUE(pmr_b.Init().ok());
    EXPECT_TRUE(rplus_b.Init().ok());
    Rng rng_a(seed_a), rng_b(seed_b);
    segs_a = RandomSegments(&rng_a, n, 1024, 128);
    segs_b = RandomSegments(&rng_b, n, 1024, 128);
    for (const Segment& s : segs_a) {
      auto id = table_a.Append(s);
      EXPECT_TRUE(id.ok());
      EXPECT_TRUE(pmr_a.Insert(*id, s).ok());
    }
    for (const Segment& s : segs_b) {
      auto id = table_b.Append(s);
      EXPECT_TRUE(id.ok());
      EXPECT_TRUE(pmr_b.Insert(*id, s).ok());
      EXPECT_TRUE(rplus_b.Insert(*id, s).ok());
    }
  }

  static IndexOptions Options() {
    IndexOptions opt;
    opt.page_size = 256;
    opt.world_log2 = 10;
    opt.pmr_max_depth = 10;
    return opt;
  }

  std::set<std::pair<SegmentId, SegmentId>> BruteForcePairs() const {
    std::set<std::pair<SegmentId, SegmentId>> pairs;
    for (size_t i = 0; i < segs_a.size(); ++i) {
      for (size_t j = 0; j < segs_b.size(); ++j) {
        if (segs_a[i].IntersectsSegment(segs_b[j])) {
          pairs.insert({static_cast<SegmentId>(i),
                        static_cast<SegmentId>(j)});
        }
      }
    }
    return pairs;
  }

  IndexOptions opt;
  MemPageFile file_a, file_b;
  BufferPool pool_a, pool_b;
  SegmentTable table_a, table_b;
  MemPageFile pmr_a_file, pmr_b_file, rplus_b_file;
  PmrQuadtree pmr_a, pmr_b;
  RPlusTree rplus_b;
  std::vector<Segment> segs_a, segs_b;
};

class JoinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinTest, MergeJoinMatchesBruteForce) {
  JoinRig rig(GetParam(), GetParam() + 1000, 150);
  const auto expected = rig.BruteForcePairs();
  std::set<std::pair<SegmentId, SegmentId>> got;
  ASSERT_TRUE(PmrMergeJoin(&rig.pmr_a, &rig.table_a, &rig.pmr_b,
                           &rig.table_b,
                           [&](SegmentId a, SegmentId b) {
                             EXPECT_TRUE(got.insert({a, b}).second)
                                 << "duplicate pair";
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(got, expected);
}

TEST_P(JoinTest, NestedLoopJoinMatchesBruteForce) {
  JoinRig rig(GetParam(), GetParam() + 1000, 150);
  const auto expected = rig.BruteForcePairs();
  std::set<std::pair<SegmentId, SegmentId>> got;
  ASSERT_TRUE(IndexNestedLoopJoin(&rig.table_a, &rig.rplus_b,
                                  [&](SegmentId a, SegmentId b) {
                                    EXPECT_TRUE(got.insert({a, b}).second);
                                    return Status::OK();
                                  })
                  .ok());
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinTest, ::testing::Values(5, 6, 7));

TEST(JoinTest, MismatchedGeometryRejected) {
  IndexOptions a_opt = JoinRig::Options();
  IndexOptions b_opt = JoinRig::Options();
  b_opt.pmr_max_depth = 6;
  MemPageFile fa(a_opt.page_size), fb(b_opt.page_size);
  BufferPool pa(&fa, 8, nullptr), pb(&fb, 8, nullptr);
  SegmentTable ta(&pa), tb(&pb);
  MemPageFile ia(a_opt.page_size), ib(b_opt.page_size);
  PmrQuadtree qa(a_opt, &ia, &ta), qb(b_opt, &ib, &tb);
  ASSERT_TRUE(qa.Init().ok());
  ASSERT_TRUE(qb.Init().ok());
  EXPECT_TRUE(PmrMergeJoin(&qa, &ta, &qb, &tb,
                           [](SegmentId, SegmentId) {
                             return Status::OK();
                           })
                  .IsInvalidArgument());
}

TEST(JoinTest, EmptyInputsYieldNoPairs) {
  JoinRig rig(1, 2, 1);
  // Join a one-segment map with itself-ish; just verify no crash on tiny
  // inputs and symmetric emptiness with disjoint maps.
  int count = 0;
  ASSERT_TRUE(PmrMergeJoin(&rig.pmr_a, &rig.table_a, &rig.pmr_b,
                           &rig.table_b,
                           [&](SegmentId, SegmentId) {
                             ++count;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_GE(count, 0);
}

}  // namespace
}  // namespace lsdb
