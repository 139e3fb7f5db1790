#include <gtest/gtest.h>

#include "lsdb/seg/segment_table.h"
#include "lsdb/util/random.h"

namespace lsdb {
namespace {

TEST(SegmentTableTest, AppendAndGet) {
  MemPageFile file(1024);
  BufferPool pool(&file, 16, nullptr);
  SegmentTable table(&pool);
  EXPECT_EQ(table.records_per_page(), 64u);  // 1024 / 16 bytes

  std::vector<Segment> segs;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    segs.push_back(Segment{{static_cast<Coord>(rng.Uniform(16384)),
                            static_cast<Coord>(rng.Uniform(16384))},
                           {static_cast<Coord>(rng.Uniform(16384)),
                            static_cast<Coord>(rng.Uniform(16384))}});
    auto id = table.Append(segs.back());
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<SegmentId>(i));  // dense ids
  }
  EXPECT_EQ(table.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    Segment s;
    ASSERT_TRUE(table.Get(static_cast<SegmentId>(i), &s).ok());
    EXPECT_EQ(s, segs[i]);
  }
}

TEST(SegmentTableTest, NegativeCoordinatesSurvive) {
  MemPageFile file(256);
  BufferPool pool(&file, 4, nullptr);
  SegmentTable table(&pool);
  const Segment s{{-5, -7}, {3, 2}};
  auto id = table.Append(s);
  ASSERT_TRUE(id.ok());
  Segment out;
  ASSERT_TRUE(table.Get(*id, &out).ok());
  EXPECT_EQ(out, s);
}

TEST(SegmentTableTest, OutOfRangeRejected) {
  MemPageFile file(256);
  BufferPool pool(&file, 4, nullptr);
  SegmentTable table(&pool);
  Segment out;
  EXPECT_TRUE(table.Get(0, &out).IsInvalidArgument());
}

TEST(SegmentTableTest, BytesGrowWithPages) {
  MemPageFile file(256);  // 16 records per page
  BufferPool pool(&file, 4, nullptr);
  SegmentTable table(&pool);
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(table.Append(Segment{{0, 0}, {1, 1}}).ok());
  }
  EXPECT_EQ(table.bytes(), 2u * 256u);
}

}  // namespace
}  // namespace lsdb
