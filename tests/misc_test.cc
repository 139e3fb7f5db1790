// Unit tests for Status/StatusOr, MetricCounters, RNode serialization,
// and error propagation under injected storage faults.

#include <gtest/gtest.h>

#include "lsdb/btree/btree.h"
#include "lsdb/rtree/rnode.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/util/counters.h"
#include "lsdb/util/status.h"
#include "test_util.h"

namespace lsdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesAndPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_FALSE(Status::IoError("x").ok());
  EXPECT_EQ(Status::NotFound("segment 42").ToString(),
            "NotFound: segment 42");
  EXPECT_EQ(Status::Internal().ToString(), "Internal");
}

TEST(StatusOrTest, ValueAndError) {
  StatusOr<int> ok_value(7);
  ASSERT_TRUE(ok_value.ok());
  EXPECT_EQ(*ok_value, 7);
  StatusOr<int> err(Status::NotFound("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsNotFound());
}

TEST(StatusOrTest, MoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(5));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 5);
}

TEST(CountersTest, DiffAndAccumulate) {
  MetricCounters a;
  a.disk_reads = 10;
  a.disk_writes = 4;
  a.segment_comps = 100;
  MetricCounters b = a;
  b.disk_reads = 25;
  b.bbox_comps = 7;
  const MetricCounters d = b - a;
  EXPECT_EQ(d.disk_reads, 15u);
  EXPECT_EQ(d.disk_writes, 0u);
  EXPECT_EQ(d.bbox_comps, 7u);
  EXPECT_EQ(d.disk_accesses(), 15u);
  MetricCounters acc;
  acc += d;
  acc += d;
  EXPECT_EQ(acc.disk_reads, 30u);
  EXPECT_NE(acc.ToString().find("disk=30"), std::string::npos);
}

TEST(RNodeTest, SerializationRoundTrip) {
  MemPageFile file(1024);
  BufferPool pool(&file, 8, nullptr);
  RNodeIO io(&pool);
  auto pid = io.Alloc();
  ASSERT_TRUE(pid.ok());
  RNode node;
  node.level = 3;
  node.overflow = 77;
  for (int i = 0; i < 50; ++i) {
    node.entries.push_back(RNodeEntry{
        Rect::Of(-i, i, i + 10, i + 20), static_cast<uint32_t>(1000 + i)});
  }
  ASSERT_TRUE(io.Store(*pid, node).ok());
  RNode rd;
  ASSERT_TRUE(io.Load(*pid, &rd).ok());
  EXPECT_EQ(rd.level, 3);
  EXPECT_EQ(rd.overflow, 77u);
  ASSERT_EQ(rd.entries.size(), node.entries.size());
  for (size_t i = 0; i < rd.entries.size(); ++i) {
    EXPECT_EQ(rd.entries[i].rect, node.entries[i].rect);
    EXPECT_EQ(rd.entries[i].child, node.entries[i].child);
  }
}

TEST(RNodeTest, CapacityScalesWithPageSize) {
  for (uint32_t page_size : {256u, 512u, 1024u, 2048u, 4096u}) {
    MemPageFile file(page_size);
    BufferPool pool(&file, 4, nullptr);
    EXPECT_EQ(RNodeIO(&pool).Capacity(), (page_size - 12) / 20);
  }
}

TEST(RNodeTest, MbrOfEntries) {
  RNode node;
  EXPECT_TRUE(node.Mbr().empty());
  node.entries.push_back(RNodeEntry{Rect::Of(2, 3, 5, 6), 0});
  node.entries.push_back(RNodeEntry{Rect::Of(0, 4, 3, 9), 1});
  EXPECT_EQ(node.Mbr(), Rect::Of(0, 3, 5, 9));
}

/// PageFile wrapper that starts failing every operation after a budget of
/// successful calls — for error-propagation tests.
class FaultyPageFile : public PageFile {
 public:
  FaultyPageFile(uint32_t page_size, int budget)
      : PageFile(page_size), inner_(page_size), budget_(budget) {}

  uint32_t page_count() const override { return inner_.page_count(); }
  uint32_t live_page_count() const override {
    return inner_.live_page_count();
  }
  Status Read(PageId id, void* buf, uint32_t* checksum) override {
    if (Spend()) return Status::IoError("injected read fault");
    return inner_.Read(id, buf, checksum);
  }
  Status Write(PageId id, const void* buf, uint32_t checksum) override {
    if (Spend()) return Status::IoError("injected write fault");
    return inner_.Write(id, buf, checksum);
  }
  StatusOr<PageId> Allocate() override {
    if (Spend()) return Status::IoError("injected alloc fault");
    return inner_.Allocate();
  }
  Status Free(PageId id) override { return inner_.Free(id); }

 private:
  bool Spend() { return budget_-- <= 0; }

  MemPageFile inner_;
  int budget_;
};

TEST(FaultInjectionTest, BTreePropagatesIoErrors) {
  FaultyPageFile file(256, 40);
  BufferPool pool(&file, 4, nullptr);
  BTree tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  Status st;
  int i = 0;
  // Keep inserting until the injected fault surfaces; it must arrive as a
  // clean IoError, never a crash.
  while (st.ok() && i < 100000) {
    st = tree.Insert(static_cast<uint64_t>(i++));
  }
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, RStarPropagatesIoErrors) {
  FaultyPageFile file(256, 60);
  BufferPool pool_unused(&file, 4, nullptr);  // not used by tree
  MemPageFile seg_file(256);
  BufferPool seg_pool(&seg_file, 4, nullptr);
  SegmentTable table(&seg_pool);
  IndexOptions opt;
  opt.page_size = 256;
  opt.buffer_frames = 4;
  opt.world_log2 = 10;
  RStarTree tree(opt, &file, &table);
  Status st = tree.Init();
  Rng rng(5);
  int i = 0;
  while (st.ok() && i < 100000) {
    const Segment s{{static_cast<Coord>(rng.Uniform(1024)),
                     static_cast<Coord>(rng.Uniform(1024))},
                    {static_cast<Coord>(rng.Uniform(1024)),
                     static_cast<Coord>(rng.Uniform(1024))}};
    auto id = table.Append(s);
    ASSERT_TRUE(id.ok());
    st = tree.Insert(*id, s);
    ++i;
  }
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, SegmentTablePropagatesIoErrors) {
  FaultyPageFile file(256, 5);
  BufferPool pool(&file, 4, nullptr);
  SegmentTable table(&pool);
  Status st;
  int i = 0;
  while (st.ok() && i < 10000) {
    auto id = table.Append(Segment{{0, 0}, {1, 1}});
    st = id.ok() ? Status::OK() : id.status();
    ++i;
  }
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace lsdb
