// Snapshot subsystem: round-trip equivalence of a service served zero-copy
// from a single-file snapshot, hostile-file validation (every structural
// corruption is a typed error, never a crash), snapshot serving under the
// storage fault injector, mutation and queries refused on thawed snapshot
// indexes, and the lock-free zero-copy read path under concurrent traffic,
// on snapshot-served and built services.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lsdb/data/county_generator.h"
#include "lsdb/harness/experiment.h"
#include "lsdb/service/query_service.h"
#include "lsdb/snapshot/snapshot_format.h"
#include "lsdb/snapshot/snapshot_reader.h"
#include "lsdb/util/random.h"
#include "test_util.h"

namespace lsdb {
namespace {

PolygonalMap SmallMap(uint64_t seed = 11) {
  CountyProfile p;
  p.name = "snapshot-test";
  p.lattice = 14;
  p.meander_steps = 5;
  p.seed = seed;
  return GenerateCounty(p, /*world_log2=*/14);
}

std::vector<QueryRequest> MixedBatch(const PolygonalMap& map, size_t n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryRequest> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Segment& s =
        map.segments[rng.Uniform(static_cast<uint32_t>(map.segments.size()))];
    switch (i % 4) {
      case 0:
        batch.push_back(QueryRequest::PointQ(s.a));
        break;
      case 1: {
        const Coord x = static_cast<Coord>(rng.Uniform(15000));
        const Coord y = static_cast<Coord>(rng.Uniform(15000));
        batch.push_back(
            QueryRequest::WindowQ(Rect::Of(x, y, x + 700, y + 700)));
        break;
      }
      case 2:
        batch.push_back(QueryRequest::NearestQ(
            Point{static_cast<Coord>(rng.Uniform(16000)),
                  static_cast<Coord>(rng.Uniform(16000))}));
        break;
      default:
        batch.push_back(QueryRequest::IncidentQ(s.b));
        break;
    }
  }
  return batch;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// -- Round-trip equivalence ---------------------------------------------------

TEST(SnapshotTest, RoundTripServesIdenticalResponses) {
  const PolygonalMap map = SmallMap();
  const std::string path = ::testing::TempDir() + "/lsdb_roundtrip.lsnap";
  ServiceOptions opt;
  opt.num_threads = 2;
  opt.bulk_build = true;
  auto built = QueryService::Build(map, opt);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->WriteSnapshot(path).ok());

  auto via_mmap = QueryService::OpenFromSnapshot(path, opt);
  ASSERT_TRUE(via_mmap.ok()) << via_mmap.status().ToString();
  // A snapshot service serves zero-copy only: pool-copy is refused.
  EXPECT_TRUE(QueryService::OpenFromSnapshot(path, opt, /*zero_copy=*/false)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE((*via_mmap)->from_snapshot());
  EXPECT_FALSE((*built)->from_snapshot());
  EXPECT_EQ((*via_mmap)->segment_count(), (*built)->segment_count());

  const auto batch = MixedBatch(map, 600, 23);
  for (ServedIndex which : kAllServedIndexes) {
    auto truth = (*built)->ExecuteBatch(which, batch);
    auto mm = (*via_mmap)->ExecuteBatch(which, batch);
    ASSERT_TRUE(truth.ok() && mm.ok()) << ServedIndexName(which);
    EXPECT_TRUE(SameResponses(*truth, *mm)) << ServedIndexName(which);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, ReaderExposesHeaderAndVerifiesAllSections) {
  const PolygonalMap map = SmallMap();
  const std::string path = ::testing::TempDir() + "/lsdb_reader.lsnap";
  ServiceOptions opt;
  opt.bulk_build = true;
  opt.num_threads = 1;
  auto built = QueryService::Build(map, opt);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->WriteSnapshot(path).ok());

  auto reader = snapshot::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const snapshot::Header& h = (*reader)->header();
  EXPECT_EQ(h.version, snapshot::kSnapshotVersion);
  EXPECT_EQ(h.page_size, opt.index.page_size);
  EXPECT_EQ(h.world_log2, opt.index.world_log2);
  EXPECT_EQ(h.segment_count, map.segments.size());
  ASSERT_EQ(h.section_count, 4u);
  const snapshot::SectionKind expected[] = {
      snapshot::SectionKind::kSegments, snapshot::SectionKind::kRStar,
      snapshot::SectionKind::kRPlus, snapshot::SectionKind::kPmr};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*reader)->sections()[i].kind,
              static_cast<uint32_t>(expected[i]));
    EXPECT_GT((*reader)->sections()[i].page_count, 0u);
    EXPECT_TRUE((*reader)->VerifySection(i).ok()) << i;
    auto lookup = (*reader)->Section(expected[i]);
    ASSERT_TRUE(lookup.ok());
    EXPECT_EQ(*lookup, &(*reader)->sections()[i]);
  }
  EXPECT_TRUE((*reader)->VerifyAll().ok());
  std::remove(path.c_str());
}

// A service opened from a snapshot can itself be snapshotted, and the
// result is byte-identical: serialization is canonical (page ids, dead
// pages, CRCs, and header parameters all survive the round trip exactly).
TEST(SnapshotTest, ResnapshotOfSnapshotServiceIsByteIdentical) {
  const PolygonalMap map = SmallMap();
  const std::string p1 = ::testing::TempDir() + "/lsdb_resnap1.lsnap";
  const std::string p2 = ::testing::TempDir() + "/lsdb_resnap2.lsnap";
  ServiceOptions opt;
  opt.bulk_build = true;
  opt.num_threads = 1;
  auto built = QueryService::Build(map, opt);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->WriteSnapshot(p1).ok());
  auto reopened = QueryService::OpenFromSnapshot(p1, opt);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->WriteSnapshot(p2).ok());
  EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// Thawing a snapshot-served index must not make it mutable: its pages are
// a read-only mapping. Insert/Erase are refused before any page is fetched,
// the service refuses its queries while it is thawed, and it answers
// exactly as before once the index is frozen again.
TEST(SnapshotTest, ThawedSnapshotIndexRefusesMutation) {
  const PolygonalMap map = SmallMap();
  const std::string path = ::testing::TempDir() + "/lsdb_thaw_" +
                           std::to_string(::getpid()) + ".lsnap";
  ServiceOptions opt;
  opt.bulk_build = true;
  opt.num_threads = 2;
  {
    auto built = QueryService::Build(map, opt);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE((*built)->WriteSnapshot(path).ok());
  }
  const auto batch = MixedBatch(map, 200, 61);
  const Segment seg = map.segments[0];
  auto svc = QueryService::OpenFromSnapshot(path, opt);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (ServedIndex which : kAllServedIndexes) {
    SCOPED_TRACE(ServedIndexName(which));
    auto before = (*svc)->ExecuteBatch(which, batch);
    ASSERT_TRUE(before.ok());
    SpatialIndex* idx = (*svc)->index(which);
    idx->Thaw();
    EXPECT_FALSE(idx->frozen());
    EXPECT_TRUE(idx->Erase(0, seg).IsInvalidArgument());
    EXPECT_TRUE(idx->Insert(0, seg).IsInvalidArgument());
    testing::ExpectThawedIndexRefused(svc->get(), which, batch);
    ASSERT_TRUE(idx->Freeze().ok());
    auto after = (*svc)->ExecuteBatch(which, batch);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(SameResponses(*before, *after));
  }
  std::remove(path.c_str());
}

// The paper harness produces byte-identical Table 1 / Table 2 numbers from
// a snapshot-opened experiment. Structure-shape stats (bytes, height,
// occupancy) must match exactly; per-query metrics are compared on a
// second warmed pass, where the 16-frame LRU state is a function of the
// access-sequence suffix and therefore identical in both services.
TEST(SnapshotTest, HarnessMetricsIdenticalFromSnapshot) {
  CountyProfile p;
  p.name = "snap-harness";
  p.lattice = 16;
  p.meander_steps = 5;
  p.seed = 13;
  const PolygonalMap map = GenerateCounty(p, 12);
  const std::string path = ::testing::TempDir() + "/lsdb_harness.lsnap";

  ExperimentOptions opt;
  opt.index.page_size = 512;
  opt.index.world_log2 = 12;
  opt.index.pmr_max_depth = 12;
  opt.num_queries = 50;
  opt.bulk_build = true;
  opt.snapshot_out = path;
  Experiment built(map, opt);
  ASSERT_TRUE(built.BuildAll().ok());

  ExperimentOptions sopt = opt;
  sopt.snapshot_out.clear();
  sopt.snapshot_in = path;
  Experiment snap(map, sopt);
  const Status open = snap.BuildAll();
  ASSERT_TRUE(open.ok()) << open.ToString();

  // Table 1 shape stats: identical structures, so identical bytes,
  // heights, and occupancies (cpu/disk columns measure different
  // operations — build vs open — and are reported, not compared).
  ASSERT_EQ(snap.build_stats().size(), built.build_stats().size());
  for (size_t i = 0; i < built.build_stats().size(); ++i) {
    const BuildStats& b = built.build_stats()[i];
    const BuildStats& s = snap.build_stats()[i];
    EXPECT_EQ(b.kind, s.kind);
    EXPECT_EQ(b.bytes, s.bytes) << StructureName(b.kind);
    EXPECT_EQ(b.height, s.height) << StructureName(b.kind);
    EXPECT_DOUBLE_EQ(b.avg_occupancy, s.avg_occupancy)
        << StructureName(b.kind);
  }

  // Table 2 metrics: warm both services with one full pass, then compare
  // the second pass field-for-field.
  std::vector<QueryStats> warm_b, warm_s, pass_b, pass_s;
  ASSERT_TRUE(built.RunAllQueries(&warm_b).ok());
  ASSERT_TRUE(snap.RunAllQueries(&warm_s).ok());
  ASSERT_TRUE(built.RunAllQueries(&pass_b).ok());
  ASSERT_TRUE(snap.RunAllQueries(&pass_s).ok());
  ASSERT_EQ(pass_b.size(), pass_s.size());
  for (size_t i = 0; i < pass_b.size(); ++i) {
    const QueryStats& b = pass_b[i];
    const QueryStats& s = pass_s[i];
    ASSERT_EQ(b.kind, s.kind);
    ASSERT_EQ(b.workload, s.workload);
    const std::string tag = std::string(StructureName(b.kind)) + "/" +
                            WorkloadName(b.workload);
    EXPECT_EQ(b.disk_accesses, s.disk_accesses) << tag;
    EXPECT_EQ(b.segment_comps, s.segment_comps) << tag;
    EXPECT_EQ(b.bbox_comps, s.bbox_comps) << tag;
    EXPECT_EQ(b.bucket_comps, s.bucket_comps) << tag;
    EXPECT_EQ(b.avg_result_size, s.avg_result_size) << tag;
  }
  std::remove(path.c_str());
}

// -- Hostile files ------------------------------------------------------------

/// Builds one valid snapshot per suite; each test mutates a copy.
class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ctest runs each test in its own process; pid-unique paths keep
    // concurrent fixture setups from racing on the same file.
    base_path_ = new std::string(::testing::TempDir() + "/lsdb_corrupt_" +
                                 std::to_string(::getpid()) + ".lsnap");
    map_ = new PolygonalMap(SmallMap(29));
    ServiceOptions opt;
    opt.bulk_build = true;
    opt.num_threads = 1;
    auto built = QueryService::Build(*map_, opt);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE((*built)->WriteSnapshot(*base_path_).ok());
    bytes_ = new std::vector<uint8_t>(ReadFileBytes(*base_path_));
    ASSERT_GT(bytes_->size(),
              snapshot::kHeaderSize + 4 * snapshot::kSectionEntrySize +
                  snapshot::kFooterSize);
  }
  static void TearDownTestSuite() {
    std::remove(base_path_->c_str());
    delete base_path_;
    delete bytes_;
    delete map_;
    base_path_ = nullptr;
    bytes_ = nullptr;
    map_ = nullptr;
  }

  /// Writes `bytes` to a per-test path and returns SnapshotReader::Open's
  /// status for it.
  Status OpenStatus(const std::vector<uint8_t>& bytes) {
    path_ = ::testing::TempDir() + "/lsdb_corrupt_case_" +
            std::to_string(::getpid()) + ".lsnap";
    WriteFileBytes(path_, bytes);
    auto reader = snapshot::SnapshotReader::Open(path_);
    return reader.ok() ? Status::OK() : reader.status();
  }

  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  static std::string* base_path_;
  static std::vector<uint8_t>* bytes_;
  static PolygonalMap* map_;
  std::string path_;
};

std::string* SnapshotCorruptionTest::base_path_ = nullptr;
std::vector<uint8_t>* SnapshotCorruptionTest::bytes_ = nullptr;
PolygonalMap* SnapshotCorruptionTest::map_ = nullptr;

TEST_F(SnapshotCorruptionTest, TruncatedFileIsCorruption) {
  std::vector<uint8_t> b(*bytes_);
  b.resize(40);
  const Status st = OpenStatus(b);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  b.clear();
  EXPECT_TRUE(OpenStatus(b).IsCorruption());
}

TEST_F(SnapshotCorruptionTest, BadMagicIsCorruption) {
  std::vector<uint8_t> b(*bytes_);
  b[0] ^= 0xFF;
  const Status st = OpenStatus(b);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(SnapshotCorruptionTest, UnsupportedVersionIsInvalidArgument) {
  std::vector<uint8_t> b(*bytes_);
  snapshot::PutU32(b.data() + 4, snapshot::kSnapshotVersion + 7);
  const Status st = OpenStatus(b);
  // A newer, possibly valid file: typed as InvalidArgument, not Corruption.
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST_F(SnapshotCorruptionTest, FlippedStoredSectionCrcIsCorruption) {
  std::vector<uint8_t> b(*bytes_);
  // Flip one bit inside the first section entry's stored crc field; the
  // header CRC chains over the table, so this is caught at Open.
  b[snapshot::kHeaderSize + 24] ^= 0x01;
  const Status st = OpenStatus(b);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(SnapshotCorruptionTest, OutOfBoundsSectionOffsetIsCorruption) {
  std::vector<uint8_t> b(*bytes_);
  // Point the last section far past EOF, then re-seal the header CRC and
  // the footer's echo of it so only the bounds check can object.
  const size_t table_off = snapshot::kHeaderSize;
  const size_t table_len = 4 * snapshot::kSectionEntrySize;
  uint8_t* entry3 = b.data() + table_off + 3 * snapshot::kSectionEntrySize;
  snapshot::PutU64(entry3 + 8, b.size() * 2);
  const uint32_t crc =
      snapshot::ComputeHeaderCrc(b.data(), b.data() + table_off, table_len);
  snapshot::PutU32(b.data() + snapshot::kHeaderCrcOffset, crc);
  uint8_t* footer = b.data() + b.size() - snapshot::kFooterSize;
  snapshot::PutU32(footer + 16, crc);
  snapshot::PutU32(footer + 20, snapshot::ComputeFooterCrc(footer));
  const Status st = OpenStatus(b);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(SnapshotCorruptionTest, MissingFooterMeansMidWriteCrash) {
  std::vector<uint8_t> b(*bytes_);
  // A crash between the payload writes and the footer write leaves a file
  // without the completeness witness.
  b.resize(b.size() - snapshot::kFooterSize);
  const Status st = OpenStatus(b);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(SnapshotCorruptionTest, FlippedPayloadByteFailsSectionVerify) {
  std::vector<uint8_t> b(*bytes_);
  // Flip a byte in the middle of the R*-tree payload: the header and
  // offset table stay valid, so Open succeeds and the damage is caught by
  // section verification (and page-level verify-on-first-touch below).
  path_ = ::testing::TempDir() + "/lsdb_corrupt_case_" +
          std::to_string(::getpid()) + ".lsnap";
  auto probe = snapshot::SnapshotReader::Open(*base_path_);
  ASSERT_TRUE(probe.ok());
  auto rstar = (*probe)->Section(snapshot::SectionKind::kRStar);
  ASSERT_TRUE(rstar.ok());
  const uint64_t mid = (*rstar)->offset + (*rstar)->length / 2;
  b[mid] ^= 0x20;
  WriteFileBytes(path_, b);

  auto reader = snapshot::SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const Status verify = (*reader)->VerifyAll();
  EXPECT_TRUE(verify.IsCorruption()) << verify.ToString();

  // Serving from the damaged file must never crash: every query outcome is
  // ok or typed, and the flipped page itself surfaces as Corruption when
  // its first touch verifies it.
  ServiceOptions opt;
  opt.num_threads = 2;
  auto svc = QueryService::OpenFromSnapshot(path_, opt);
  if (!svc.ok()) {
    // The flipped page was on the structure-open path.
    EXPECT_TRUE(svc.status().IsCorruption()) << svc.status().ToString();
    return;
  }
  const std::vector<QueryRequest> windows(
      50, QueryRequest::WindowQ(Rect::Of(0, 0, 16383, 16383)));
  auto res = (*svc)->ExecuteBatch(ServedIndex::kRStar, windows);
  ASSERT_TRUE(res.ok());
  size_t corruptions = 0;
  for (const QueryResponse& r : res->responses) {
    ASSERT_TRUE(r.status.ok() || r.status.IsCorruption() ||
                r.status.IsUnavailable() || r.status.IsIoError())
        << r.status.ToString();
    corruptions += r.status.IsCorruption();
  }
  EXPECT_GT(corruptions, 0u);
}

// -- Fault injection over snapshot serving -----------------------------------

TEST(SnapshotFaultTest, TransientMapFaultsAreRetriedAndTyped) {
  const PolygonalMap map = SmallMap(31);
  const std::string path = ::testing::TempDir() + "/lsdb_fault.lsnap";
  ServiceOptions build_opt;
  build_opt.bulk_build = true;
  build_opt.num_threads = 1;
  auto built = QueryService::Build(map, build_opt);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->WriteSnapshot(path).ok());

  ServiceOptions opt;
  opt.num_threads = 2;
  opt.inject_faults = true;
  opt.fault_plan.read_transient_rate = 0.01;
  auto svc = QueryService::OpenFromSnapshot(path, opt);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  const auto batch = MixedBatch(map, 2000, 47);
  uint64_t faults = 0;
  for (ServedIndex which : kAllServedIndexes) {
    auto res = (*svc)->ExecuteBatch(which, batch);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    size_t ok = 0;
    for (const QueryResponse& r : res->responses) {
      ASSERT_TRUE(r.status.ok() || r.status.IsIoError() ||
                  r.status.IsCorruption() || r.status.IsUnavailable())
          << ServedIndexName(which) << ": " << r.status.ToString();
      ok += r.status.ok();
    }
    // Bounded retries absorb most 1% transient faults.
    EXPECT_GT(ok, batch.size() / 2) << ServedIndexName(which);
    faults += (*svc)->fault_injector(which)->stats().total_faults();
  }
  EXPECT_GT(faults, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotFaultTest, DeadStructureDegradesWhileSiblingsServe) {
  const PolygonalMap map = SmallMap(37);
  const std::string path = ::testing::TempDir() + "/lsdb_dead.lsnap";
  ServiceOptions build_opt;
  build_opt.bulk_build = true;
  build_opt.num_threads = 1;
  auto built = QueryService::Build(map, build_opt);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->WriteSnapshot(path).ok());

  ServiceOptions opt;
  opt.num_threads = 2;
  auto svc = QueryService::OpenFromSnapshot(path, opt);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  (*svc)->fault_injector(ServedIndex::kRPlus)->FailAllReads(true);
  const std::vector<QueryRequest> windows(
      100, QueryRequest::WindowQ(Rect::Of(0, 0, 16383, 16383)));
  auto dead = (*svc)->ExecuteBatchSequential(ServedIndex::kRPlus, windows);
  ASSERT_TRUE(dead.ok());
  for (const QueryResponse& r : dead->responses) {
    ASSERT_TRUE(r.status.IsIoError() || r.status.IsUnavailable())
        << r.status.ToString();
  }
  EXPECT_TRUE((*svc)->degraded(ServedIndex::kRPlus));

  const auto probe = MixedBatch(map, 200, 53);
  for (ServedIndex which : {ServedIndex::kRStar, ServedIndex::kPmr}) {
    auto res = (*svc)->ExecuteBatch(which, probe);
    ASSERT_TRUE(res.ok());
    for (const QueryResponse& r : res->responses) {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    }
    EXPECT_FALSE((*svc)->degraded(which));
  }
  std::remove(path.c_str());
}

// -- Lock-free zero-copy serving under concurrency ----------------------------

/// Fetches served by `pool` so far (hits + misses).
uint64_t Fetches(const BufferPool* pool) {
  return pool->hits() + pool->misses();
}

/// Pages of snapshot section `name` verified on first touch so far.
uint64_t PagesVerified(QueryService* svc, const char* name) {
  return static_cast<uint64_t>(
      svc->stats()
          .GetGauge(std::string("lsdb_snapshot_pages_verified{section=\"") +
                    name + "\"}")
          ->value());
}

/// Pages of MemPageFile-backed `pool` (possibly behind a fault injector)
/// verified on first touch so far.
uint64_t PagesVerified(BufferPool* pool) {
  PageFile* file = pool->file();
  if (auto* injector = dynamic_cast<FaultInjectingPageFile*>(file)) {
    file = injector->base();
  }
  auto* mem = dynamic_cast<MemPageFile*>(file);
  return mem == nullptr ? 0 : mem->pages_verified();
}

/// Runs concurrent ExecuteBatch and SubmitQuery streams of `batch` on all
/// three structures of `s` at once, `kRounds` each, and checks every
/// answer against `truth`.
void RaceStreams(QueryService* s, const std::vector<QueryRequest>& batch,
                 const BatchResult* truth) {
  constexpr int kRounds = 3;
  std::vector<std::string> errors(2 * std::size(kAllServedIndexes));
  std::vector<std::thread> clients;
  for (ServedIndex which : kAllServedIndexes) {
    const size_t i = static_cast<size_t>(which);
    clients.emplace_back([&, which, i] {
      for (int r = 0; r < kRounds && errors[2 * i].empty(); ++r) {
        auto res = s->ExecuteBatch(which, batch);
        if (!res.ok() || !SameResponses(*res, truth[i])) {
          errors[2 * i] = std::string("ExecuteBatch ") + ServedIndexName(which);
        }
      }
    });
    clients.emplace_back([&, which, i] {
      for (int r = 0; r < kRounds && errors[2 * i + 1].empty(); ++r) {
        auto res = s->ExecuteBatchAdmitted(which, batch);
        if (!res.ok() || !SameResponses(*res, truth[i])) {
          errors[2 * i + 1] =
              std::string("SubmitQuery ") + ServedIndexName(which);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& e : errors) EXPECT_TRUE(e.empty()) << e;
}

/// ExecuteBatch alone: the pools' hits + misses advance by exactly the
/// page fetches the workers' counter sinks recorded.
void ExpectPoolFetchesMatchSinks(QueryService* s,
                                 const std::vector<QueryRequest>& batch,
                                 const BatchResult* truth) {
  for (ServedIndex which : kAllServedIndexes) {
    const BufferPool* pools[] = {s->index(which)->pool(),
                                 s->segment_table()->pool()};
    const uint64_t before = Fetches(pools[0]) + Fetches(pools[1]);
    auto res = s->ExecuteBatch(which, batch);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(SameResponses(*res, truth[static_cast<size_t>(which)]));
    uint64_t sink_fetches = 0;
    for (const MetricCounters& c : res->per_worker) {
      sink_fetches += c.page_fetches;
    }
    EXPECT_GT(sink_fetches, 0u);
    EXPECT_EQ(Fetches(pools[0]) + Fetches(pools[1]) - before, sink_fetches)
        << ServedIndexName(which);
  }
}

// A cold zero-copy service serves concurrent ExecuteBatch and SubmitQuery
// streams on all three structures at once, so first touches race on every
// page. Every answer must match the sequential ground truth, each page's
// first touch must be counted exactly once, and every fetch must land in
// exactly one hit or miss.
TEST(SnapshotConcurrencyTest, ConcurrentStreamsMatchSequentialAndCountExactly) {
  const PolygonalMap map = SmallMap(41);
  const std::string path = ::testing::TempDir() + "/lsdb_concurrent_" +
                           std::to_string(::getpid()) + ".lsnap";
  {
    ServiceOptions build_opt;
    build_opt.bulk_build = true;
    build_opt.num_threads = 1;
    auto built = QueryService::Build(map, build_opt);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE((*built)->WriteSnapshot(path).ok());
  }
  ServiceOptions opt;
  opt.num_threads = 4;
  opt.admission.max_queue = 1 << 16;  // nothing sheds
  const auto batch = MixedBatch(map, 300, 59);

  // Ground truth from a second service, so the one under test starts cold.
  BatchResult truth[std::size(kAllServedIndexes)];
  {
    auto ref = QueryService::OpenFromSnapshot(path, opt);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (ServedIndex which : kAllServedIndexes) {
      auto r = (*ref)->ExecuteBatchSequential(which, batch);
      ASSERT_TRUE(r.ok());
      truth[static_cast<size_t>(which)] = std::move(*r);
    }
  }

  auto svc = QueryService::OpenFromSnapshot(path, opt);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  QueryService* s = svc->get();
  RaceStreams(s, batch, truth);

  // Each page's first touch was claimed by exactly one racing fetch.
  const char* sections[] = {"R*", "R+", "PMR"};
  for (ServedIndex which : kAllServedIndexes) {
    const char* name = sections[static_cast<size_t>(which)];
    EXPECT_GT(s->index(which)->pool()->misses(), 0u) << name;
    EXPECT_EQ(s->index(which)->pool()->misses(), PagesVerified(s, name))
        << name;
  }
  EXPECT_EQ(s->segment_table()->pool()->misses(),
            PagesVerified(s, "segments"));

  ExpectPoolFetchesMatchSinks(s, batch, truth);
  std::remove(path.c_str());
}

// The built twin: QueryService::Build freezes every in-memory pool onto the
// same lock-free zero-copy path, so the same race must give the same
// guarantees. Misses are counted from the freeze on (the build itself
// missed through the LRU frames).
TEST(BuiltServiceConcurrencyTest,
     ConcurrentStreamsMatchSequentialAndCountExactly) {
  const PolygonalMap map = SmallMap(41);
  ServiceOptions opt;
  opt.bulk_build = true;
  opt.num_threads = 4;
  opt.admission.max_queue = 1 << 16;  // nothing sheds
  const auto batch = MixedBatch(map, 300, 59);

  // Ground truth from a second service, so the one under test starts cold.
  BatchResult truth[std::size(kAllServedIndexes)];
  {
    auto ref = QueryService::Build(map, opt);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (ServedIndex which : kAllServedIndexes) {
      auto r = (*ref)->ExecuteBatchSequential(which, batch);
      ASSERT_TRUE(r.ok());
      truth[static_cast<size_t>(which)] = std::move(*r);
    }
  }

  auto svc = QueryService::Build(map, opt);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  QueryService* s = svc->get();
  BufferPool* pools[] = {s->index(ServedIndex::kRStar)->mutable_pool(),
                         s->index(ServedIndex::kRPlus)->mutable_pool(),
                         s->index(ServedIndex::kPmr)->mutable_pool(),
                         s->segment_table()->pool()};
  uint64_t misses0[std::size(pools)];
  for (size_t i = 0; i < std::size(pools); ++i) {
    ASSERT_TRUE(pools[i]->frozen()) << i;
    EXPECT_EQ(PagesVerified(pools[i]), 0u) << i;
    misses0[i] = pools[i]->misses();
  }

  RaceStreams(s, batch, truth);

  // Each page's first touch was claimed by exactly one racing fetch, and
  // a lent page pins no frame.
  for (size_t i = 0; i < std::size(pools); ++i) {
    EXPECT_GT(PagesVerified(pools[i]), 0u) << i;
    EXPECT_EQ(pools[i]->misses() - misses0[i], PagesVerified(pools[i])) << i;
    EXPECT_EQ(pools[i]->pinned_frames(), 0u) << i;
  }

  ExpectPoolFetchesMatchSinks(s, batch, truth);
}

}  // namespace
}  // namespace lsdb
