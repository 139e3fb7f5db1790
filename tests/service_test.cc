#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lsdb/data/county_generator.h"
#include "lsdb/query/incident.h"
#include "lsdb/service/query_service.h"
#include "lsdb/service/worker_pool.h"
#include "lsdb/util/random.h"
#include "test_util.h"

namespace lsdb {
namespace {

PolygonalMap SmallMap(uint64_t seed = 11) {
  CountyProfile p;
  p.name = "service-test";
  p.lattice = 20;
  p.meander_steps = 5;
  p.seed = seed;
  return GenerateCounty(p, /*world_log2=*/14);
}

/// Mixed batch of the four request kinds, derived from the map so point
/// and incident queries actually hit segments.
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

TEST(WorkerPoolTest, RunsEveryItemExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr uint64_t kItems = 10000;
  std::vector<std::atomic<uint32_t>> seen(kItems);
  pool.ParallelFor(kItems, [&](uint32_t, uint64_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(seen[i].load(), 1u) << "item " << i;
  }
}

TEST(WorkerPoolTest, ReusableAcrossJobsAndEmptyJobIsNoop) {
  WorkerPool pool(2);
  pool.ParallelFor(0, [](uint32_t, uint64_t) { FAIL(); });
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(100, [&](uint32_t, uint64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 5u * (99u * 100u / 2));
}

TEST(WorkerPoolTest, ZeroThreadsClampsToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> n{0};
  pool.ParallelFor(7, [&](uint32_t w, uint64_t) {
    EXPECT_EQ(w, 0u);
    ++n;
  });
  EXPECT_EQ(n.load(), 7);
}

TEST(WorkerPoolTest, HugeThreadCountClampsToMax) {
  // A negative count pushed through uint32_t must not try to spawn ~4
  // billion OS threads.
  WorkerPool pool(static_cast<uint32_t>(-3));
  EXPECT_EQ(pool.size(), WorkerPool::kMaxThreads);
}

class QueryServiceTest : public ::testing::Test {
 protected:
  void Build(uint32_t threads) {
    map_ = SmallMap();
    ServiceOptions opt;
    opt.num_threads = threads;
    auto svc = QueryService::Build(map_, opt);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    svc_ = std::move(*svc);
  }

  PolygonalMap map_;
  std::unique_ptr<QueryService> svc_;
};

TEST_F(QueryServiceTest, IndexesAreFrozenAfterBuild) {
  Build(2);
  const Segment s = map_.segments[0];
  for (ServedIndex which : kAllServedIndexes) {
    SpatialIndex* idx = svc_->index(which);
    ASSERT_NE(idx, nullptr);
    EXPECT_TRUE(idx->frozen());
    EXPECT_FALSE(idx->Insert(999999, s).ok());
    EXPECT_FALSE(idx->Erase(0, s).ok());
  }
}

TEST_F(QueryServiceTest, FrozenIndexStillAnswersQueries) {
  Build(2);
  const Segment s = map_.segments[0];
  for (ServedIndex which : kAllServedIndexes) {
    std::vector<SegmentHit> hits;
    ASSERT_TRUE(svc_->index(which)->PointQueryEx(s.a, &hits).ok());
    bool found = false;
    for (const SegmentHit& h : hits) found |= (h.id == 0);
    EXPECT_TRUE(found) << ServedIndexName(which);
  }
}

// A thawed index is mutable, and the service refuses its queries until it
// is frozen again: service queries read only frozen, lent pages.
TEST_F(QueryServiceTest, ThawReenablesMutation) {
  Build(2);
  const ServedIndex which = ServedIndex::kRStar;
  SpatialIndex* idx = svc_->index(which);
  const auto batch = MixedBatch(map_, 40, 19);
  idx->Thaw();
  const Segment s = map_.segments[0];
  EXPECT_TRUE(idx->Erase(0, s).ok());
  EXPECT_TRUE(idx->Insert(0, s).ok());
  testing::ExpectThawedIndexRefused(svc_.get(), which, batch);
  // The refusal precedes the breaker: an open breaker neither rejects the
  // queries as Unavailable nor is closed by them (the breaker counts
  // InvalidArgument as a success). The admitted path would shed them at
  // submit while the breaker is open, so only the batch paths run here.
  CircuitBreaker& breaker = svc_->breaker(which);
  for (uint32_t i = 0; i < breaker.options().failure_threshold; ++i) {
    breaker.RecordFailure();
  }
  ASSERT_TRUE(breaker.open());
  for (const auto& res : {svc_->ExecuteBatch(which, batch),
                          svc_->ExecuteBatchSequential(which, batch)}) {
    ASSERT_TRUE(res.ok());
    for (const QueryResponse& r : res->responses) {
      EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
    }
  }
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.times_opened(), 1u);
  breaker.Reset();

  ASSERT_TRUE(idx->Freeze().ok());
  auto truth = svc_->ExecuteBatchSequential(which, batch);
  auto par = svc_->ExecuteBatch(which, batch);
  ASSERT_TRUE(truth.ok() && par.ok());
  EXPECT_TRUE(SameResponses(*par, *truth));
  for (const QueryResponse& r : truth->responses) {
    EXPECT_FALSE(r.status.IsInvalidArgument()) << r.status.ToString();
  }
}

TEST_F(QueryServiceTest, BatchMatchesDirectQueries) {
  Build(2);
  auto batch = MixedBatch(map_, 64, 3);
  for (ServedIndex which : kAllServedIndexes) {
    auto par = svc_->ExecuteBatch(which, batch);
    ASSERT_TRUE(par.ok());
    ASSERT_EQ(par->responses.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const QueryResponse& r = par->responses[i];
      ASSERT_TRUE(r.status.ok() || batch[i].type == QueryType::kNearest)
          << r.status.ToString();
      if (batch[i].type == QueryType::kWindow) {
        // Cross-check against a direct window query on the same index.
        std::vector<SegmentHit> direct;
        ASSERT_TRUE(
            svc_->index(which)->WindowQueryEx(batch[i].window, &direct).ok());
        ASSERT_EQ(direct.size(), r.hits.size());
        for (size_t k = 0; k < direct.size(); ++k) {
          EXPECT_EQ(direct[k].id, r.hits[k].id);
        }
      }
    }
  }
}

TEST_F(QueryServiceTest, BatchMetricsAreMergedFromWorkers) {
  Build(4);
  auto batch = MixedBatch(map_, 200, 5);
  auto res = svc_->ExecuteBatch(ServedIndex::kPmr, batch);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->per_worker.size(), 4u);
  MetricCounters sum;
  for (const MetricCounters& c : res->per_worker) sum += c;
  EXPECT_EQ(sum.page_fetches, res->metrics.page_fetches);
  EXPECT_EQ(sum.segment_comps, res->metrics.segment_comps);
  // Queries did real work and it was attributed to the batch...
  EXPECT_GT(res->metrics.page_fetches, 0u);
  EXPECT_GT(res->metrics.segment_comps, 0u);
}

TEST_F(QueryServiceTest, ServingDoesNotPerturbIndexCounters) {
  Build(2);
  for (ServedIndex which : kAllServedIndexes) {
    const MetricCounters before = svc_->index(which)->metrics();
    auto res = svc_->ExecuteBatch(which, MixedBatch(map_, 50, 7));
    ASSERT_TRUE(res.ok());
    const MetricCounters after = svc_->index(which)->metrics();
    EXPECT_EQ((after - before).page_fetches, 0u) << ServedIndexName(which);
    EXPECT_EQ((after - before).segment_comps, 0u);
    EXPECT_EQ((after - before).bbox_comps, 0u);
    EXPECT_EQ((after - before).bucket_comps, 0u);
  }
}

/// Replays `batch` directly on `idx`, outside the service, and returns what
/// it added to the index-owned counters: the paper harness's accounting.
MetricCounters DirectReplay(SpatialIndex* idx,
                            const std::vector<QueryRequest>& batch) {
  const MetricCounters before = idx->metrics();
  for (const QueryRequest& q : batch) {
    std::vector<SegmentHit> hits;
    switch (q.type) {
      case QueryType::kPoint:
        EXPECT_TRUE(idx->PointQueryEx(q.point, &hits).ok());
        break;
      case QueryType::kWindow:
        EXPECT_TRUE(idx->WindowQueryEx(q.window, &hits).ok());
        break;
      case QueryType::kNearest:
        EXPECT_TRUE(idx->Nearest(q.point).ok());
        break;
      case QueryType::kIncident:
        EXPECT_TRUE(IncidentSegments(idx, q.point, &hits).ok());
        break;
    }
  }
  return idx->metrics() - before;
}

// The service counts each comparison once, as the harness does: both
// executors report the same segment, bbox and bucket comparisons as a
// direct replay on the index-owned counters. (Disk reads and page fetches
// differ by design: first-touch accounting, and the service's counters
// also receive the segment table pool's fetches.)
TEST_F(QueryServiceTest, ServiceComparisonCountsEqualDirectIndexCounts) {
  Build(4);
  const auto batch = MixedBatch(map_, 400, 23);
  for (ServedIndex which : kAllServedIndexes) {
    SCOPED_TRACE(ServedIndexName(which));
    const MetricCounters direct = DirectReplay(svc_->index(which), batch);
    EXPECT_GT(direct.segment_comps, 0u);
    auto seq = svc_->ExecuteBatchSequential(which, batch);
    auto par = svc_->ExecuteBatch(which, batch);
    ASSERT_TRUE(seq.ok() && par.ok());
    for (const MetricCounters& served : {seq->metrics, par->metrics}) {
      EXPECT_EQ(served.segment_comps, direct.segment_comps);
      EXPECT_EQ(served.bbox_comps, direct.bbox_comps);
      EXPECT_EQ(served.bucket_comps, direct.bucket_comps);
    }
  }
}

// The tentpole stress test: 4 threads x 10k mixed queries per structure,
// checked element-for-element against sequential ground truth. Run under
// ThreadSanitizer by scripts/ci.sh.
TEST_F(QueryServiceTest, StressParallelMatchesSequentialGroundTruth) {
  Build(4);
  auto batch = MixedBatch(map_, 10000, 42);
  for (ServedIndex which : kAllServedIndexes) {
    auto seq = svc_->ExecuteBatchSequential(which, batch);
    ASSERT_TRUE(seq.ok());
    auto par = svc_->ExecuteBatch(which, batch);
    ASSERT_TRUE(par.ok());
    EXPECT_TRUE(SameResponses(*par, *seq)) << ServedIndexName(which);
    // Same total logical work regardless of interleaving: segment and
    // bounding-box comparisons are storage-state independent.
    EXPECT_EQ(par->metrics.segment_comps, seq->metrics.segment_comps);
    EXPECT_EQ(par->metrics.bbox_comps, seq->metrics.bbox_comps);
    EXPECT_EQ(par->metrics.bucket_comps, seq->metrics.bucket_comps);
  }
}

// Observability: per-worker histogram shards must merge to the exact batch
// composition once the workers have joined (single-writer shards, merged
// with relaxed loads). Run under ThreadSanitizer by scripts/ci.sh.
TEST_F(QueryServiceTest, HistogramShardsMergeExactlyUnderFourWorkers) {
  Build(4);
  constexpr size_t kN = 800;  // kN / 4 queries of each kind
  auto batch = MixedBatch(map_, kN, 13);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(svc_->ExecuteBatch(ServedIndex::kRStar, batch).ok());
  }
  uint64_t total = 0;
  for (QueryType type : kAllQueryTypes) {
    const LatencyHistogram::Snapshot s =
        svc_->latency_histogram(ServedIndex::kRStar, type).Merge();
    EXPECT_EQ(s.count, 3u * kN / 4) << QueryTypeName(type);
    uint64_t in_buckets = 0;
    for (uint64_t b : s.buckets) in_buckets += b;
    EXPECT_EQ(in_buckets, s.count) << "lost samples, kind "
                                   << QueryTypeName(type);
    total += s.count;
  }
  EXPECT_EQ(total, 3u * kN);
  // Other structures served nothing, so their histograms stay empty.
  EXPECT_EQ(
      svc_->latency_histogram(ServedIndex::kPmr, QueryType::kPoint).Merge()
          .count,
      0u);
  // Responses carry per-query wall time from the parallel path.
  auto res = svc_->ExecuteBatch(ServedIndex::kPmr, batch);
  ASSERT_TRUE(res.ok());
  uint64_t timed = 0;
  for (const QueryResponse& r : res->responses) timed += r.latency_ns > 0;
  EXPECT_GT(timed, 0u);
}

// Concurrent batches on *different* structures share the segment table's
// buffer pool; run them from two extra threads to cross-contend.
TEST_F(QueryServiceTest, ConcurrentCallersOnSharedSegmentTable) {
  Build(2);
  auto batch = MixedBatch(map_, 2000, 9);
  auto seq_rstar = svc_->ExecuteBatchSequential(ServedIndex::kRStar, batch);
  auto seq_pmr = svc_->ExecuteBatchSequential(ServedIndex::kPmr, batch);
  ASSERT_TRUE(seq_rstar.ok() && seq_pmr.ok());

  StatusOr<BatchResult> r1 = Status::Internal("unset");
  std::thread t([&] {
    // Direct sequential execution from a second thread, racing the pool.
    r1 = svc_->ExecuteBatchSequential(ServedIndex::kRStar, batch);
  });
  auto r2 = svc_->ExecuteBatch(ServedIndex::kPmr, batch);
  t.join();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(SameResponses(*r1, *seq_rstar));
  EXPECT_TRUE(SameResponses(*r2, *seq_pmr));
}

// -- Robustness --------------------------------------------------------------

bool IsTypedServingStatus(const Status& s) {
  return s.ok() || s.IsIoError() || s.IsCorruption() || s.IsUnavailable() ||
         s.IsNotFound();
}

class ServiceRobustnessTest : public ::testing::Test {
 protected:
  void Build(const ServiceOptions& base) {
    map_ = SmallMap();
    // A built service's frozen pools reach the (possibly faulty) page
    // files on every fetch: no warm cache absorbs a read.
    auto svc = QueryService::Build(map_, base);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    svc_ = std::move(*svc);
  }

  /// Full-world windows: each reads many pages of the structure.
  std::vector<QueryRequest> FullWindows(size_t n) {
    return std::vector<QueryRequest>(
        n, QueryRequest::WindowQ(Rect::Of(0, 0, 16383, 16383)));
  }

  PolygonalMap map_;
  std::unique_ptr<QueryService> svc_;
};

TEST_F(ServiceRobustnessTest, BreakerTripsWhileOtherStructuresKeepServing) {
  Build(ServiceOptions{});
  std::ostringstream trace;
  svc_->tracer().AttachStream(&trace);
  auto probe_batch = MixedBatch(map_, 100, 21);
  auto rstar_baseline =
      svc_->ExecuteBatchSequential(ServedIndex::kRStar, probe_batch);
  auto pmr_baseline =
      svc_->ExecuteBatchSequential(ServedIndex::kPmr, probe_batch);
  ASSERT_TRUE(rstar_baseline.ok() && pmr_baseline.ok());

  // Kill the R+-tree's storage outright.
  svc_->fault_injector(ServedIndex::kRPlus)->FailAllReads(true);
  auto dead = svc_->ExecuteBatchSequential(ServedIndex::kRPlus,
                                           FullWindows(100));
  ASSERT_TRUE(dead.ok());
  size_t io_errors = 0, unavailable = 0;
  for (const QueryResponse& r : dead->responses) {
    ASSERT_TRUE(r.status.IsIoError() || r.status.IsUnavailable())
        << r.status.ToString();
    io_errors += r.status.IsIoError();
    unavailable += r.status.IsUnavailable();
  }
  EXPECT_TRUE(svc_->degraded(ServedIndex::kRPlus));
  EXPECT_GE(io_errors, svc_->breaker(ServedIndex::kRPlus)
                           .options().failure_threshold);
  EXPECT_GT(unavailable, 0u);  // breaker rejected the bulk without I/O
  EXPECT_GE(svc_->breaker(ServedIndex::kRPlus).times_opened(), 1u);
  EXPECT_NE(trace.str().find("\"state\":\"breaker_open\""), std::string::npos);

  // The sibling structures are untouched and still answer correctly.
  auto rstar_now =
      svc_->ExecuteBatchSequential(ServedIndex::kRStar, probe_batch);
  auto pmr_now = svc_->ExecuteBatchSequential(ServedIndex::kPmr, probe_batch);
  ASSERT_TRUE(rstar_now.ok() && pmr_now.ok());
  EXPECT_TRUE(SameResponses(*rstar_now, *rstar_baseline));
  EXPECT_TRUE(SameResponses(*pmr_now, *pmr_baseline));
  EXPECT_FALSE(svc_->degraded(ServedIndex::kRStar));
  EXPECT_FALSE(svc_->degraded(ServedIndex::kPmr));

  // Storage heals: a half-open probe succeeds and the breaker closes.
  svc_->fault_injector(ServedIndex::kRPlus)->FailAllReads(false);
  auto healed = svc_->ExecuteBatchSequential(
      ServedIndex::kRPlus,
      FullWindows(2 * svc_->breaker(ServedIndex::kRPlus)
                          .options().probe_interval + 2));
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(svc_->degraded(ServedIndex::kRPlus));
  EXPECT_TRUE(healed->responses.back().status.ok());
  EXPECT_NE(trace.str().find("\"state\":\"breaker_closed\""),
            std::string::npos);
  svc_->tracer().Close();
}

// The acceptance scenario of the fault suite: a seeded 1% transient-read +
// 0.1% bit-flip plan, 10k mixed queries per structure across 4 workers.
// The batch must complete with every response either ok or a typed
// kIoError / kCorruption / kUnavailable — no crashes, no untyped errors.
// The service serves lent pages, where no bit can be flipped (see
// FaultInjectingPageFile::MapPage), so the plan's flips never fire here.
// PoolRetryTest.BitflipCorruptionIsDetectedByChecksum pins flip detection
// on the copying path; the snapshot corruption tests and
// FrozenPoolTest.PageRewrittenWithABadChecksumFailsItsNextFrozenFetch pin
// it on the lent path.
TEST_F(ServiceRobustnessTest, SeededFaultPlanTenThousandQueriesAllTyped) {
  ServiceOptions opt;
  opt.num_threads = 4;
  opt.inject_faults = true;
  opt.fault_plan.read_transient_rate = 0.01;
  opt.fault_plan.bitflip_rate = 0.001;
  Build(opt);
  auto batch = MixedBatch(map_, 10000, 42);
  for (ServedIndex which : kAllServedIndexes) {
    auto res = svc_->ExecuteBatch(which, batch);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    size_t ok = 0;
    for (const QueryResponse& r : res->responses) {
      ASSERT_TRUE(IsTypedServingStatus(r.status))
          << ServedIndexName(which) << ": " << r.status.ToString();
      ok += r.status.ok();
    }
    // Retries absorb most transient faults; the vast majority succeeds.
    EXPECT_GT(ok, batch.size() / 2) << ServedIndexName(which);
    const FaultStats& st = svc_->fault_injector(which)->stats();
    EXPECT_EQ(st.bitflips.load(), 0u) << ServedIndexName(which);
    EXPECT_GT(st.transient_read_faults.load(), 0u) << ServedIndexName(which);
  }
  // The robustness metrics are exported through the /metrics snapshot.
  const std::string prom = svc_->stats().RenderPrometheus();
  for (const char* metric :
       {"lsdb_fault_reads", "lsdb_fault_read_transient", "lsdb_fault_bitflips",
        "lsdb_fault_total", "lsdb_degraded", "lsdb_breaker_rejected_total",
        "lsdb_pool_io_retries", "lsdb_pool_checksum_failures"}) {
    EXPECT_NE(prom.find(metric), std::string::npos) << metric;
  }
}

TEST_F(ServiceRobustnessTest, InjectionOffLeavesServingFaultFree) {
  Build(ServiceOptions{});
  for (ServedIndex which : kAllServedIndexes) {
    auto res = svc_->ExecuteBatch(which, MixedBatch(map_, 200, 17));
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(svc_->fault_injector(which)->stats().total_faults(), 0u);
    EXPECT_FALSE(svc_->degraded(which));
    EXPECT_EQ(svc_->breaker(which).times_opened(), 0u);
  }
}

}  // namespace
}  // namespace lsdb
