// Concurrent read-query service over the three paper structures.
//
// QueryService owns a built index set — R*-tree, R+-tree, PMR quadtree —
// over one shared disk-resident segment table, all frozen after the build,
// plus a fixed pool of worker threads. ExecuteBatch spreads a vector of
// heterogeneous requests (point / window / nearest / incident) across the
// pool and returns per-request responses plus aggregated per-worker
// metrics.
//
// Concurrency model: the build is single-threaded; serving is read-only and
// reads only frozen, lent pages. Build flushes and freezes every structure
// and the segment table, whose pools then serve their in-memory pages
// zero-copy with no lock, exactly as a snapshot service serves its mapping.
// Every page a query reads goes through BufferPool::Fetch, so no read
// bypasses the fault injector or the pool's disk-access count. Frozen
// indexes reject Insert/Erase; a thawed one, whose LRU frames serve one
// thread, gets InvalidArgument for every service query. Every query runs
// under its own QueryContext (util/query_context.h), whose private
// counters receive its metrics — the index-owned counters have a single
// writer and are not touched while serving, and the sequential paper
// harness, which never freezes, is unaffected.
//
// The paper-replication numbers (Table 1 / Table 2) are still produced by
// the sequential harness in lsdb/harness; this subsystem is the
// throughput-oriented serving layer on top of the same structures.

#ifndef LSDB_SERVICE_QUERY_SERVICE_H_
#define LSDB_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lsdb/data/polygonal_map.h"
#include "lsdb/index/spatial_index.h"
#include "lsdb/introspect/page_heat.h"
#include "lsdb/introspect/profiler.h"
#include "lsdb/obs/latency_histogram.h"
#include "lsdb/obs/stats_registry.h"
#include "lsdb/obs/tracer.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/rplus/rplus_tree.h"
#include "lsdb/rtree/rstar_tree.h"
#include "lsdb/seg/segment_table.h"
#include "lsdb/service/admission.h"
#include "lsdb/service/cancel.h"
#include "lsdb/service/circuit_breaker.h"
#include "lsdb/service/request.h"
#include "lsdb/service/worker_pool.h"
#include "lsdb/snapshot/snapshot_reader.h"
#include "lsdb/storage/buffer_pool.h"
#include "lsdb/storage/fault_injection.h"
#include "lsdb/storage/mmap_page_file.h"
#include "lsdb/storage/page_file.h"

namespace lsdb {

struct ServiceOptions {
  /// Structure parameters (page size, PMR threshold, ...). The
  /// buffer_frames field is overridden by serving_buffer_frames below.
  IndexOptions index;
  /// Worker threads executing batches.
  uint32_t num_threads = 4;
  /// Buffer frames per structure pool. They are used only while Build runs
  /// and while an index is thawed; every service query reads lent pages
  /// and no frame. The paper harness keeps its own 16-frame pools and is
  /// not affected.
  uint32_t serving_buffer_frames = 256;
  /// Build the served structures with the bottom-up bulk builders
  /// (src/lsdb/build/) instead of one-at-a-time insertion. Served query
  /// results are identical; startup is much faster on large maps.
  bool bulk_build = false;

  /// If non-empty, the service opens a Tracer on this file and emits one
  /// JSONL span per served query plus sampled buffer-pool events. Empty
  /// (default) leaves tracing disabled: the per-query cost is one relaxed
  /// atomic load.
  std::string trace_path;
  /// 1-in-N sampling for buffer-pool trace events (1 = every event,
  /// 0 = none). Query spans are never sampled.
  uint64_t trace_pool_sample_every = 100;
  /// Byte budget for the trace file (0 = unlimited). Past it, further
  /// lines are dropped and counted in Tracer::lines_dropped().
  uint64_t trace_max_bytes = 0;

  /// Start with query-path introspection on (see set_introspection()).
  /// Off by default: the per-hook cost is one thread-local load and an
  /// untaken branch, and the paper metrics never depend on this either way.
  bool introspect = false;

  // -- Robustness ----------------------------------------------------------

  /// Arm `fault_plan` on every index's fault injector once the build is
  /// frozen. The build itself always runs fault-free, so structures and
  /// paper metrics are unaffected; only serving reads see faults.
  bool inject_faults = false;
  /// The seeded plan to arm (per-index injectors derive decorrelated seeds
  /// from plan.seed so the three structures fail independently).
  FaultPlan fault_plan;
  /// Per-structure circuit-breaker thresholds.
  CircuitBreaker::Options breaker;

  // -- Overload protection -------------------------------------------------

  /// Admission queue bound, shedding policy, per-kind outstanding limits,
  /// default deadline budget, and brownout behaviour for the
  /// SubmitQuery/ExecuteBatchAdmitted path (see admission.h). The batch
  /// paths (ExecuteBatch*) bypass admission but still honor per-request
  /// deadlines and cancel tokens.
  AdmissionOptions admission;
};

class QueryService {
 public:
  /// Builds the segment table and all three structures over `map`
  /// (single-threaded), flushes and freezes them — their in-memory pages
  /// are then served zero-copy — and spins up the worker pool.
  [[nodiscard]] static StatusOr<std::unique_ptr<QueryService>> Build(
      const PolygonalMap& map, const ServiceOptions& options);

  /// Opens a service directly from a *.lsnap snapshot — zero index builds.
  /// Structure options recorded in the snapshot header (page size, world
  /// extent, PMR parameters) override the corresponding fields of
  /// `options.index` so superblock validation matches the frozen state.
  /// Pages are always served zero-copy, straight from the mapping; the
  /// `zero_copy` parameter stays only because perfbench passes `true`,
  /// and `false` returns InvalidArgument before the file is opened.
  [[nodiscard]] static StatusOr<std::unique_ptr<QueryService>> OpenFromSnapshot(
      const std::string& path, const ServiceOptions& options,
      bool zero_copy = true);

  /// Serializes the (frozen) service into a single-file snapshot at
  /// `path`, published atomically via write-to-temp + rename. Every file
  /// it streams was flushed when its structure was frozen.
  [[nodiscard]] Status WriteSnapshot(const std::string& path);

  /// True when this service was opened from a snapshot rather than built.
  bool from_snapshot() const { return snapshot_ != nullptr; }

  ~QueryService();

  /// Executes `batch` on `which` across the worker pool. Response i
  /// corresponds to request i; per-request errors are reported in
  /// QueryResponse::status (the call itself only fails on empty service
  /// misuse). Responses are identical to ExecuteBatchSequential. Every
  /// query runs through RunQuery and is recorded by Observe: its latency,
  /// its profile while introspection is on, and a span when tracing.
  [[nodiscard]] StatusOr<BatchResult> ExecuteBatch(ServedIndex which,
                                     const std::vector<QueryRequest>& batch);

  /// Ground-truth execution of `batch` on the calling thread, in order.
  /// It records no latency, profile or trace span, so it shares no
  /// worker's single-writer shard with a concurrent ExecuteBatch.
  [[nodiscard]] StatusOr<BatchResult> ExecuteBatchSequential(
      ServedIndex which, const std::vector<QueryRequest>& batch);

  // -- Overload-protected path ---------------------------------------------

  /// Submits one query through the admission queue; `done` is invoked
  /// exactly once — on a worker thread with the response, or inline with
  /// Status::Unavailable when the request is shed (and Status::Cancelled
  /// at shutdown). Per-query deadline = request.deadline_ns if set, else
  /// AdmissionOptions::default_deadline_ns; request.cancel (if any) is
  /// linked so the caller can abort mid-descent. Unlike ExecuteBatch,
  /// QueryResponse::latency_ns here is submit-to-completion (queueing
  /// included) — that is the latency an overloaded caller experiences.
  void SubmitQuery(ServedIndex which, const QueryRequest& q,
                   std::function<void(QueryResponse)> done);

  /// Convenience synchronous wrapper over SubmitQuery: submits the whole
  /// batch through admission and blocks until every response (executed or
  /// shed) lands. Response i corresponds to request i. Metric counters are
  /// NOT aggregated on this path: BatchResult carries none, and stats()
  /// counts admitted queries only in lsdb_queries_total, with no paper
  /// totals. Each query's own counters reach its trace span.
  [[nodiscard]] StatusOr<BatchResult> ExecuteBatchAdmitted(
      ServedIndex which, const std::vector<QueryRequest>& batch);

  /// Scoreboard of the admission queue (depth, sheds by reason, timeouts).
  AdmissionStats admission_stats() const { return admission_->Snapshot(); }

  SpatialIndex* index(ServedIndex which);
  SegmentTable* segment_table() { return segs_.get(); }
  uint32_t num_threads() const { return workers_->size(); }
  uint32_t segment_count() const { return segs_->size(); }

  // -- Robustness ----------------------------------------------------------

  /// The fault injector wrapping `which`'s page file. Always present (a
  /// transparent pass-through unless a plan is armed); tests use it to arm
  /// plans or kill a structure outright (FailAllReads).
  FaultInjectingPageFile* fault_injector(ServedIndex which) {
    return injectors_[static_cast<size_t>(which)].get();
  }
  /// The circuit breaker guarding `which`.
  CircuitBreaker& breaker(ServedIndex which) {
    return breakers_[static_cast<size_t>(which)];
  }
  /// True while `which`'s breaker is open (requests fail fast with
  /// kUnavailable except half-open probes).
  bool degraded(ServedIndex which) {
    return breakers_[static_cast<size_t>(which)].open();
  }

  // -- Observability ------------------------------------------------------

  /// Per-service metric registry (no globals anywhere in the obs layer).
  /// Query counts, per-query metric totals, latency summaries, and
  /// buffer-pool gauges, all named lsdb_*. Pool/worker gauges are
  /// refreshed on every stats() call, so render from this accessor.
  StatsRegistry& stats();

  /// Latency histogram for one structure x query kind, sharded per worker
  /// and fed by ExecuteBatch and admitted queries. Merge() for percentiles.
  const LatencyHistogram& latency_histogram(ServedIndex which,
                                            QueryType type) const;

  /// The service's tracer (disabled unless ServiceOptions::trace_path was
  /// set; tests may AttachStream before issuing batches).
  Tracer& tracer() { return tracer_; }

  // -- Introspection ------------------------------------------------------

  /// Toggles query-path profiling for queries that start after the store
  /// becomes visible. Safe to flip live while batches run: each query
  /// installs a thread-local recording target and aggregates land in
  /// sharded relaxed atomics. Responses and paper metrics are identical
  /// either way; when off, every descent hook costs one thread-local load
  /// and an untaken branch.
  void set_introspection(bool on) {
    introspect_on_.store(on, std::memory_order_relaxed);
  }
  bool introspection() const {
    return introspect_on_.load(std::memory_order_relaxed);
  }

  /// Merged query-path profile for one structure x query kind, aggregated
  /// since service start. Empty (queries == 0) unless introspection was on
  /// while ExecuteBatch or admitted queries ran.
  introspect::ProfileAccumulator::Summary profile_summary(
      ServedIndex which, QueryType type) const;

  /// Attaches a per-page heat map to every structure's buffer pool plus
  /// the shared segment pool. Idempotent. Call before issuing the batches
  /// whose page traffic should be recorded.
  void EnablePageHeat();
  /// Heat map over `which`'s index pages; null until EnablePageHeat().
  const introspect::PageHeatMap* page_heat(ServedIndex which) const {
    return heat_[static_cast<size_t>(which) + 1].get();
  }
  /// Heat map over the shared segment-table pages; null until enabled.
  const introspect::PageHeatMap* segment_page_heat() const {
    return heat_[0].get();
  }

  /// Concrete structure accessors for offline walkers (structure x-ray,
  /// lsdb_inspect). The served structures are frozen, so walking them is
  /// safe alongside read batches.
  RStarTree* rstar() { return rstar_.get(); }
  RPlusTree* rplus() { return rplus_.get(); }
  PmrQuadtree* pmr() { return pmr_.get(); }

 private:
  explicit QueryService(const ServiceOptions& options);

  [[nodiscard]] Status BuildIndexes(const PolygonalMap& map);
  [[nodiscard]] Status OpenIndexesFromSnapshot();
  void ArmFaultInjectors();
  [[nodiscard]] Status SetUpObservability();
  void RefreshGauges();
  /// One query's own counters and, if introspection was on as it started,
  /// its profile: RunQuery's context points at them, Observe reads them.
  struct QueryRecord {
    explicit QueryRecord(bool profiled) {
      if (profiled) profile.emplace();
    }
    MetricCounters counters;
    std::optional<introspect::QueryProfile> profile;
  };
  /// The query body of every path: arms a stack CancelToken (the
  /// `admitted` ticket's deadline, else q.deadline_ns from now; parent
  /// q.cancel), installs the context, takes a breaker ticket, runs the
  /// query and records the breaker outcome. An admitted query whose budget
  /// ran out in the queue, or whose caller cancelled, skips the descent; a
  /// brownout probe already holds its breaker ticket. A thawed index is
  /// refused with InvalidArgument before the breaker is consulted.
  QueryResponse RunQuery(ServedIndex which, const QueryRequest& q,
                         const AdmissionQueue::Ticket* admitted,
                         QueryRecord* rec);
  /// Records one finished query: its latency and profile in `worker`'s
  /// single-writer shards, and a trace span with the query's own counters.
  void Observe(uint32_t worker, ServedIndex which, QueryType type,
               uint64_t latency_ns, const QueryRecord& rec);
  /// One breaker ticket: OK, or Unavailable while `which` is degraded.
  Status BreakerGate(ServedIndex which);
  /// Feeds a query's status to `which`'s breaker, tracing transitions.
  void RecordBreakerOutcome(ServedIndex which, const Status& status);
  /// Worker-side body of the admission path: takes the next ticket,
  /// completes CoDel sheds, runs and observes the query.
  void DispatchOne(uint32_t worker);
  /// Completes a shed ticket with Unavailable (Cancelled for kShutdown)
  /// and settles its admission accounting.
  void CompleteShed(AdmissionQueue::Shed&& shed);
  LatencyHistogram* histogram(ServedIndex which, QueryType type) {
    return histograms_[static_cast<size_t>(which)][static_cast<size_t>(type)]
        .get();
  }
  /// lsdb_queries_total{index,kind}, resolved in the registry on first use
  /// and cached, so admitted queries never build its name or take the
  /// registry mutex.
  StatsRegistry::Counter* QueryCounter(ServedIndex which, QueryType type);

  ServiceOptions options_;

  /// Set only on the OpenFromSnapshot path. Declared before every page
  /// file: the files are views into the reader's mapping, so the reader
  /// must be destroyed last (members destruct in reverse order).
  std::unique_ptr<snapshot::SnapshotReader> snapshot_;
  /// [segments, R*, R+, PMR] borrowed view pointers for the obs gauges;
  /// null unless from_snapshot(). Owned via the *_file_ members below.
  MmapPageFile* snapshot_views_[4] = {};

  std::unique_ptr<PageFile> seg_file_;
  std::unique_ptr<BufferPool> seg_pool_;
  std::unique_ptr<SegmentTable> segs_;

  std::unique_ptr<PageFile> rstar_file_, rplus_file_, pmr_file_;
  /// [ServedIndex] fault injectors between each structure's pool and its
  /// backing file; transparent until a plan is armed.
  std::unique_ptr<FaultInjectingPageFile>
      injectors_[std::size(kAllServedIndexes)];
  std::unique_ptr<RStarTree> rstar_;
  std::unique_ptr<RPlusTree> rplus_;
  std::unique_ptr<PmrQuadtree> pmr_;
  /// [ServedIndex] per-structure degradation breakers.
  CircuitBreaker breakers_[std::size(kAllServedIndexes)];

  std::unique_ptr<WorkerPool> workers_;
  /// Bounded admission queue for the SubmitQuery path. Closed and drained
  /// explicitly in ~QueryService BEFORE workers_ is reset, because
  /// dispatch tasks queued in the pool dereference it.
  std::unique_ptr<AdmissionQueue> admission_;

  // Observability state (per service instance; see SetUpObservability).
  StatsRegistry stats_;
  Tracer tracer_;
  /// [structure][query kind] latency histograms, shards == worker count.
  std::unique_ptr<LatencyHistogram>
      histograms_[std::size(kAllServedIndexes)][std::size(kAllQueryTypes)];
  std::atomic<uint64_t> next_query_id_{0};  ///< Trace span ids.
  /// [structure][query kind] cache behind QueryCounter(); null until the
  /// first query of that kind.
  std::atomic<StatsRegistry::Counter*>
      query_counters_[std::size(kAllServedIndexes)]
                     [std::size(kAllQueryTypes)] = {};

  // Introspection state (see set_introspection / EnablePageHeat).
  std::atomic<bool> introspect_on_{false};
  /// [structure][query kind] profile aggregates, shards == worker count.
  std::unique_ptr<introspect::ProfileAccumulator>
      profiles_[std::size(kAllServedIndexes)][std::size(kAllQueryTypes)];
  /// [segments, R*, R+, PMR] page heat maps; null until EnablePageHeat().
  std::unique_ptr<introspect::PageHeatMap>
      heat_[std::size(kAllServedIndexes) + 1];
};

}  // namespace lsdb

#endif  // LSDB_SERVICE_QUERY_SERVICE_H_
