#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "lsdb/btree/btree.h"
#include "lsdb/introspect/profiler.h"
#include "lsdb/util/random.h"

namespace lsdb {
namespace {

struct TreeFixture {
  // Small pages force deep trees quickly (leaf capacity (128-12)/8 = 14).
  explicit TreeFixture(uint32_t page_size = 128, uint32_t frames = 16)
      : file(page_size), pool(&file, frames, &metrics), tree(&pool) {
    EXPECT_TRUE(tree.Init().ok());
  }
  MetricCounters metrics;
  MemPageFile file;
  BufferPool pool;
  BTree tree;
};

TEST(BTreeTest, EmptyTree) {
  TreeFixture f;
  EXPECT_EQ(f.tree.size(), 0u);
  EXPECT_EQ(f.tree.height(), 1u);
  auto c = f.tree.Contains(42);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(*c);
  EXPECT_TRUE(f.tree.SeekLE(42).status().IsNotFound());
  EXPECT_TRUE(f.tree.SeekGE(42).status().IsNotFound());
  EXPECT_TRUE(f.tree.CheckInvariants().ok());
}

TEST(BTreeTest, InsertAndContains) {
  TreeFixture f;
  for (uint64_t k : {5, 1, 9, 3, 7}) ASSERT_TRUE(f.tree.Insert(k).ok());
  EXPECT_EQ(f.tree.size(), 5u);
  for (uint64_t k : {1, 3, 5, 7, 9}) {
    auto c = f.tree.Contains(k);
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE(*c) << k;
  }
  auto c = f.tree.Contains(4);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(*c);
}

TEST(BTreeTest, DuplicateInsertRejected) {
  TreeFixture f;
  ASSERT_TRUE(f.tree.Insert(7).ok());
  EXPECT_TRUE(f.tree.Insert(7).IsInvalidArgument());
  EXPECT_EQ(f.tree.size(), 1u);
}

TEST(BTreeTest, EraseMissingIsNotFound) {
  TreeFixture f;
  ASSERT_TRUE(f.tree.Insert(7).ok());
  EXPECT_TRUE(f.tree.Erase(8).IsNotFound());
  EXPECT_EQ(f.tree.size(), 1u);
}

TEST(BTreeTest, SplitsGrowHeight) {
  TreeFixture f;
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(f.tree.Insert(k).ok());
  EXPECT_GT(f.tree.height(), 2u);
  EXPECT_EQ(f.tree.size(), 1000u);
  EXPECT_TRUE(f.tree.CheckInvariants().ok()) <<
      f.tree.CheckInvariants().ToString();
}

TEST(BTreeTest, SeekLE) {
  TreeFixture f;
  for (uint64_t k = 10; k <= 1000; k += 10) ASSERT_TRUE(f.tree.Insert(k).ok());
  auto le = f.tree.SeekLE(55);
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(*le, 50u);
  le = f.tree.SeekLE(60);
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(*le, 60u);  // exact hit
  le = f.tree.SeekLE(5000);
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(*le, 1000u);
  EXPECT_TRUE(f.tree.SeekLE(9).status().IsNotFound());
}

TEST(BTreeTest, SeekGE) {
  TreeFixture f;
  for (uint64_t k = 10; k <= 1000; k += 10) ASSERT_TRUE(f.tree.Insert(k).ok());
  auto ge = f.tree.SeekGE(55);
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(*ge, 60u);
  ge = f.tree.SeekGE(60);
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(*ge, 60u);
  ge = f.tree.SeekGE(0);
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(*ge, 10u);
  EXPECT_TRUE(f.tree.SeekGE(1001).status().IsNotFound());
}

TEST(BTreeTest, ScanRange) {
  TreeFixture f;
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(f.tree.Insert(k * 2).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(f.tree.Scan(100, 120, [&](uint64_t k, const uint8_t*) {
    got.push_back(k);
    return true;
  }).ok());
  EXPECT_EQ(got, std::vector<uint64_t>({100, 102, 104, 106, 108, 110, 112,
                                        114, 116, 118, 120}));
}

TEST(BTreeTest, ScanEarlyStop) {
  TreeFixture f;
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(f.tree.Insert(k).ok());
  int count = 0;
  ASSERT_TRUE(f.tree.Scan(0, 99, [&](uint64_t, const uint8_t*) {
    return ++count < 5;
  }).ok());
  EXPECT_EQ(count, 5);
}

TEST(BTreeTest, ScanEmptyRange) {
  TreeFixture f;
  for (uint64_t k = 0; k < 100; k += 10) ASSERT_TRUE(f.tree.Insert(k).ok());
  int count = 0;
  ASSERT_TRUE(f.tree.Scan(41, 49, [&](uint64_t, const uint8_t*) {
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 0);
  ASSERT_TRUE(f.tree.Scan(49, 41, [&](uint64_t, const uint8_t*) {
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 0);
}

TEST(BTreeTest, EraseWithRebalancing) {
  TreeFixture f;
  const int n = 2000;
  for (int k = 0; k < n; ++k) ASSERT_TRUE(f.tree.Insert(k).ok());
  // Erase everything in an order that exercises borrows and merges.
  for (int k = 0; k < n; k += 2) ASSERT_TRUE(f.tree.Erase(k).ok());
  EXPECT_TRUE(f.tree.CheckInvariants().ok())
      << f.tree.CheckInvariants().ToString();
  for (int k = n - 1; k >= 1; k -= 2) ASSERT_TRUE(f.tree.Erase(k).ok());
  EXPECT_EQ(f.tree.size(), 0u);
  EXPECT_EQ(f.tree.height(), 1u);
  EXPECT_TRUE(f.tree.CheckInvariants().ok())
      << f.tree.CheckInvariants().ToString();
}

// Randomized differential test against std::set, checking structural
// invariants as the tree grows and shrinks.
class BTreeRandomTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(BTreeRandomTest, MatchesReferenceSet) {
  const auto [seed, page_size] = GetParam();
  TreeFixture f(page_size);
  Rng rng(seed);
  std::set<uint64_t> ref;
  for (int op = 0; op < 4000; ++op) {
    const uint64_t key = rng.Uniform(800);  // dense domain → collisions
    if (rng.Bernoulli(0.6)) {
      const Status st = f.tree.Insert(key);
      if (ref.insert(key).second) {
        ASSERT_TRUE(st.ok()) << st.ToString();
      } else {
        ASSERT_TRUE(st.IsInvalidArgument());
      }
    } else {
      const Status st = f.tree.Erase(key);
      if (ref.erase(key) > 0) {
        ASSERT_TRUE(st.ok()) << st.ToString();
      } else {
        ASSERT_TRUE(st.IsNotFound());
      }
    }
    if (op % 500 == 499) {
      ASSERT_TRUE(f.tree.CheckInvariants().ok())
          << f.tree.CheckInvariants().ToString();
    }
  }
  ASSERT_EQ(f.tree.size(), ref.size());
  // Full content check via scan.
  std::vector<uint64_t> got;
  ASSERT_TRUE(f.tree.Scan(0, ~uint64_t{0}, [&](uint64_t k, const uint8_t*) {
    got.push_back(k);
    return true;
  }).ok());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), ref.begin(), ref.end()));
  // Seek checks on random probes.
  for (int i = 0; i < 200; ++i) {
    const uint64_t probe = rng.Uniform(1000);
    auto le = f.tree.SeekLE(probe);
    auto it = ref.upper_bound(probe);
    if (it == ref.begin()) {
      EXPECT_TRUE(le.status().IsNotFound());
    } else {
      ASSERT_TRUE(le.ok());
      EXPECT_EQ(*le, *std::prev(it));
    }
    auto ge = f.tree.SeekGE(probe);
    auto it2 = ref.lower_bound(probe);
    if (it2 == ref.end()) {
      EXPECT_TRUE(ge.status().IsNotFound());
    } else {
      ASSERT_TRUE(ge.ok());
      EXPECT_EQ(*ge, *it2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPageSizes, BTreeRandomTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(128u, 256u, 512u)));

TEST(BTreeTest, WorksWithTinyBufferPool) {
  // 2 frames only: every operation must survive heavy eviction.
  TreeFixture f(128, 2);
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(f.tree.Insert(k).ok());
  EXPECT_TRUE(f.tree.CheckInvariants().ok());
  for (uint64_t k = 0; k < 500; ++k) {
    auto c = f.tree.Contains(k);
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE(*c);
  }
  EXPECT_GT(f.metrics.disk_reads, 0u);
}

TEST(BTreeTest, PageAccountingTracksFrees) {
  TreeFixture f;
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(f.tree.Insert(k).ok());
  const uint32_t peak = f.tree.live_pages();
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(f.tree.Erase(k).ok());
  EXPECT_LT(f.tree.live_pages(), peak);
  EXPECT_EQ(f.tree.live_pages(), 1u);  // only the (empty leaf) root remains
  EXPECT_EQ(f.tree.bytes(), f.pool.page_size());
}

TEST(BTreeTest, ProbeVisitsEachLevelOnce) {
  // The descent hands its pinned leaf to the search, so a probe fetches
  // each level once and the query profile sees each page once.
  TreeFixture f;
  for (uint64_t k = 0; f.tree.height() < 3; k += 2) {
    ASSERT_TRUE(f.tree.Insert(k).ok());
  }
  const uint32_t h = f.tree.height();
  ASSERT_EQ(h, 3u);
  // Key 0 sits in the leftmost leaf with larger keys after it, so no probe
  // below walks the leaf chain.
  auto check = [&](const char* what, const std::function<void()>& probe) {
    introspect::QueryProfile prof;
    const uint64_t before = f.metrics.page_fetches;
    {
      introspect::ScopedQueryProfile scope(&prof);
      probe();
    }
    EXPECT_EQ(f.metrics.page_fetches - before, h) << what;
    EXPECT_EQ(prof.nodes_visited, h) << what;
    EXPECT_EQ(prof.leaves_visited, 1u) << what;
  };
  check("SeekLE", [&] {
    auto r = f.tree.SeekLE(1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 0u);
  });
  check("SeekGE", [&] {
    auto r = f.tree.SeekGE(0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 0u);
  });
  check("Contains", [&] {
    auto r = f.tree.Contains(0);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(*r);
  });
  check("Scan", [&] {
    int seen = 0;
    ASSERT_TRUE(f.tree.Scan(0, 1, [&](uint64_t, const uint8_t*) {
      ++seen;
      return true;
    }).ok());
    EXPECT_EQ(seen, 1);
  });
}

// ---- Hostile pages that pass their checksum ----

// The on-page layout these tests rewrite: byte 0 is the kind (1 leaf,
// 2 internal), bytes 2-3 the record count, bytes 4-7 and 8-11 a leaf's
// prev and next links; an internal page's child i sits at 12 + 12 * i.
uint16_t PageCount(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p + 2, 2);
  return v;
}
void SetCount(uint8_t* p, uint16_t v) { std::memcpy(p + 2, &v, 2); }
void SetPrev(uint8_t* p, PageId v) { std::memcpy(p + 4, &v, 4); }
void SetNext(uint8_t* p, PageId v) { std::memcpy(p + 8, &v, 4); }
PageId ChildAt(const uint8_t* p, uint32_t i) {
  PageId v;
  std::memcpy(&v, p + 12 + 12 * i, 4);
  return v;
}

// A two-level tree over the keys 10, 20, ..., 700: five full leaves of 14
// keys (128-byte pages) under one internal root. Pages are rewritten
// through the pool, and FlushAll stamps a fresh checksum over each edit;
// Reader() then opens the tree through a second, empty pool, so every
// page is read back from the file and passes its checksum. Only the
// B-tree's own checks stand between the hostile bytes and the caller.
class BTreeCorruptionTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kMaxKey = 700;

  void SetUp() override {
    std::vector<uint64_t> keys;
    for (uint64_t k = 10; k <= kMaxKey; k += 10) keys.push_back(k);
    ASSERT_TRUE(f_.tree.BulkLoad(keys, nullptr).ok());
    ASSERT_EQ(f_.tree.height(), 2u);
    auto root = f_.pool.Fetch(f_.tree.root());
    ASSERT_TRUE(root.ok());
    for (uint32_t i = 0; i <= PageCount(root->data()); ++i) {
      leaves_.push_back(ChildAt(root->data(), i));
    }
    ASSERT_EQ(leaves_.size(), 5u);
  }

  void Rewrite(PageId id, const std::function<void(uint8_t*)>& edit) {
    {
      auto ref = f_.pool.Fetch(id);
      ASSERT_TRUE(ref.ok());
      edit(ref->data());
      ref->MarkDirty();
    }
    ASSERT_TRUE(f_.pool.FlushAll().ok());
  }

  BTree& Reader() {
    reader_.reset();
    pool_ = std::make_unique<BufferPool>(&f_.file, 4, nullptr);
    reader_ = std::make_unique<BTree>(pool_.get());
    reader_->Restore(f_.tree.root(), f_.tree.size(), f_.tree.height(),
                     f_.tree.live_pages());
    return *reader_;
  }

  static Status ScanAll(BTree& t, uint64_t lo, uint64_t hi) {
    return t.Scan(lo, hi, [](uint64_t, const uint8_t*) { return true; });
  }

  TreeFixture f_;
  std::vector<PageId> leaves_;  // left to right
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> reader_;
};

void ExpectCorruption(const Status& s, const char* what, const char* msg) {
  EXPECT_TRUE(s.IsCorruption()) << what << ": " << s.ToString();
  EXPECT_EQ(s.message(), msg) << what;
}

TEST_F(BTreeCorruptionTest, LeafCountOverCapacity) {
  // Leaf 1 holds the keys 150..280; 15 records do not fit a 128-byte page.
  Rewrite(leaves_[1], [](uint8_t* p) { SetCount(p, 15); });
  BTree& t = Reader();
  const char* msg = "btree leaf count exceeds capacity";
  ExpectCorruption(t.SeekLE(200).status(), "SeekLE", msg);
  ExpectCorruption(t.SeekGE(200).status(), "SeekGE", msg);
  ExpectCorruption(t.Contains(200).status(), "Contains", msg);
  ExpectCorruption(ScanAll(t, 200, 210), "Scan", msg);
  // A scan that starts in the next leaf never reads the hostile page.
  EXPECT_TRUE(ScanAll(t, 300, 310).ok());
}

TEST_F(BTreeCorruptionTest, UnknownKindByte) {
  Rewrite(leaves_[2], [](uint8_t* p) { p[0] = 7; });
  BTree& t = Reader();
  const char* msg = "bad btree node kind";
  ExpectCorruption(t.SeekLE(350).status(), "SeekLE", msg);
  ExpectCorruption(t.SeekGE(350).status(), "SeekGE", msg);
  ExpectCorruption(t.Contains(350).status(), "Contains", msg);
  ExpectCorruption(ScanAll(t, 350, 360), "Scan", msg);
  // The same byte on the root stops every descent at its first page.
  Rewrite(f_.tree.root(), [](uint8_t* p) { p[0] = 0; });
  BTree& t2 = Reader();
  ExpectCorruption(t2.SeekLE(10).status(), "root SeekLE", msg);
  ExpectCorruption(t2.Contains(10).status(), "root Contains", msg);
}

TEST_F(BTreeCorruptionTest, InternalPageInLeafChain) {
  // Every leaf's prev and next name the (internal) root.
  for (PageId leaf : leaves_) {
    Rewrite(leaf, [this](uint8_t* p) {
      SetPrev(p, f_.tree.root());
      SetNext(p, f_.tree.root());
    });
  }
  BTree& t = Reader();
  const char* msg = "btree leaf chain reaches a non-leaf page";
  // Below the least key SeekLE walks prev; above the greatest SeekGE walks
  // next; a scan across a leaf boundary follows next.
  ExpectCorruption(t.SeekLE(5).status(), "SeekLE", msg);
  ExpectCorruption(t.SeekGE(kMaxKey + 5).status(), "SeekGE", msg);
  ExpectCorruption(ScanAll(t, 100, 200), "Scan", msg);
  // Contains never follows the chain: it still answers.
  auto c = t.Contains(150);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(*c);
}

TEST_F(BTreeCorruptionTest, LeafChainLoopsToItself) {
  const PageId first = leaves_.front(), last = leaves_.back();
  Rewrite(first, [first](uint8_t* p) { SetPrev(p, first); });
  Rewrite(last, [last](uint8_t* p) { SetNext(p, last); });
  {
    BTree& t = Reader();
    // A scan runs round the loop until the hop bound (the page count)
    // stops it; a seek past the end finds keys on the wrong side.
    ExpectCorruption(ScanAll(t, 0, ~uint64_t{0}), "Scan",
                     "btree leaf chain cycle");
    ExpectCorruption(t.SeekGE(kMaxKey + 5).status(), "SeekGE",
                     "btree leaf chain out of order");
    ExpectCorruption(t.SeekLE(5).status(), "SeekLE",
                     "btree leaf chain out of order");
    auto c = t.Contains(kMaxKey);
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE(*c);
  }
  // Emptied, the looping leaves give a seek nothing to stop at: only the
  // hop bound ends the walk.
  Rewrite(first, [](uint8_t* p) { SetCount(p, 0); });
  Rewrite(last, [](uint8_t* p) { SetCount(p, 0); });
  BTree& t = Reader();
  ExpectCorruption(t.SeekLE(5).status(), "SeekLE", "btree leaf chain cycle");
  ExpectCorruption(t.SeekGE(kMaxKey + 5).status(), "SeekGE",
                   "btree leaf chain cycle");
  auto c = t.Contains(kMaxKey);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(*c);
}

// ---- Payload records (the PMR "3-tuple" substrate) ----

struct PayloadFixture {
  explicit PayloadFixture(uint32_t page_size = 128)
      : file(page_size), pool(&file, 16, nullptr), tree(&pool, 8) {
    EXPECT_TRUE(tree.Init().ok());
  }
  static std::array<uint8_t, 8> PayloadFor(uint64_t key) {
    std::array<uint8_t, 8> p;
    uint64_t v = key * 0x9e3779b97f4a7c15ULL + 1;
    std::memcpy(p.data(), &v, 8);
    return p;
  }
  MemPageFile file;
  BufferPool pool;
  BTree tree;
};

TEST(BTreePayloadTest, RoundTrip) {
  PayloadFixture f;
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(f.tree.Insert(k, PayloadFixture::PayloadFor(k).data()).ok());
  }
  int count = 0;
  ASSERT_TRUE(f.tree.Scan(0, 99, [&](uint64_t k, const uint8_t* p) {
    EXPECT_NE(p, nullptr);
    EXPECT_EQ(std::memcmp(p, PayloadFixture::PayloadFor(k).data(), 8), 0)
        << k;
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 100);
}

TEST(BTreePayloadTest, CapacityShrinksWithPayload) {
  MemPageFile file(128);
  BufferPool pool(&file, 4, nullptr);
  BTree plain(&pool, 0);
  BTree with_payload(&pool, 8);
  // (128-12)/8 = 14 records vs (128-12)/16 = 7 records per leaf; both
  // trees must still work (capacities are internal, verified via heavier
  // splitting below).
  (void)plain;
  (void)with_payload;
  PayloadFixture f;
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(f.tree.Insert(k, PayloadFixture::PayloadFor(k).data()).ok());
  }
  EXPECT_GT(f.tree.height(), 2u);
  EXPECT_TRUE(f.tree.CheckInvariants().ok())
      << f.tree.CheckInvariants().ToString();
}

TEST(BTreePayloadTest, PayloadsSurviveRebalancing) {
  PayloadFixture f;
  Rng rng(3);
  std::set<uint64_t> ref;
  for (int op = 0; op < 3000; ++op) {
    const uint64_t key = rng.Uniform(400);
    if (rng.Bernoulli(0.6)) {
      const Status st =
          f.tree.Insert(key, PayloadFixture::PayloadFor(key).data());
      if (ref.insert(key).second) {
        ASSERT_TRUE(st.ok());
      } else {
        ASSERT_TRUE(st.IsInvalidArgument());
      }
    } else {
      const Status st = f.tree.Erase(key);
      ASSERT_EQ(st.ok(), ref.erase(key) > 0);
    }
  }
  // Every surviving record still carries its original payload.
  size_t checked = 0;
  ASSERT_TRUE(f.tree.Scan(0, ~uint64_t{0}, [&](uint64_t k,
                                               const uint8_t* p) {
    EXPECT_EQ(std::memcmp(p, PayloadFixture::PayloadFor(k).data(), 8), 0);
    ++checked;
    return true;
  }).ok());
  EXPECT_EQ(checked, ref.size());
  EXPECT_TRUE(f.tree.CheckInvariants().ok());
}

}  // namespace
}  // namespace lsdb
