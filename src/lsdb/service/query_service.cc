#include "lsdb/service/query_service.h"

#include <chrono>

#include "lsdb/build/bulk_loader.h"
#include "lsdb/query/incident.h"
#include "lsdb/snapshot/snapshot_writer.h"
#include "lsdb/util/mutex.h"

namespace lsdb {

const char* ServedIndexName(ServedIndex s) {
  switch (s) {
    case ServedIndex::kRStar:
      return "R*";
    case ServedIndex::kRPlus:
      return "R+";
    case ServedIndex::kPmr:
      return "PMR";
  }
  return "?";
}

const char* QueryTypeName(QueryType t) {
  switch (t) {
    case QueryType::kPoint:
      return "point";
    case QueryType::kWindow:
      return "window";
    case QueryType::kNearest:
      return "nearest";
    case QueryType::kIncident:
      return "incident";
  }
  return "?";
}

bool SameResponse(const QueryResponse& a, const QueryResponse& b) {
  if (a.status.code() != b.status.code()) return false;
  if (a.hits.size() != b.hits.size()) return false;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].id != b.hits[i].id || !(a.hits[i].seg == b.hits[i].seg)) {
      return false;
    }
  }
  return a.nearest.id == b.nearest.id &&
         a.nearest.squared_distance == b.nearest.squared_distance &&
         a.nearest.seg == b.nearest.seg;
}

bool SameResponses(const BatchResult& a, const BatchResult& b) {
  if (a.responses.size() != b.responses.size()) return false;
  for (size_t i = 0; i < a.responses.size(); ++i) {
    if (!SameResponse(a.responses[i], b.responses[i])) return false;
  }
  return true;
}

QueryService::QueryService(const ServiceOptions& options)
    : options_(options) {}

QueryService::~QueryService() {
  // Shutdown order matters: close the admission queue first (future
  // Offers shed with kShutdown), complete every drained ticket, then
  // destroy the worker pool. The pool's destructor drains already-queued
  // dispatch tasks — they find the queue empty and no-op — so no ticket
  // is ever silently dropped and no dispatch task outlives admission_.
  if (admission_ != nullptr) {
    std::vector<AdmissionQueue::Ticket> drained;
    admission_->Close(&drained);
    for (AdmissionQueue::Ticket& t : drained) {
      admission_->OnFinished(t.request.type);
      QueryResponse r;
      r.status = Status::Cancelled("query service shutting down");
      if (t.done) t.done(std::move(r));
    }
  }
  workers_.reset();
}

StatusOr<std::unique_ptr<QueryService>> QueryService::Build(
    const PolygonalMap& map, const ServiceOptions& options) {
  std::unique_ptr<QueryService> svc(new QueryService(options));
  LSDB_RETURN_IF_ERROR(svc->BuildIndexes(map));
  svc->workers_ = std::make_unique<WorkerPool>(options.num_threads);
  LSDB_RETURN_IF_ERROR(svc->SetUpObservability());
  return svc;
}

StatusOr<std::unique_ptr<QueryService>> QueryService::OpenFromSnapshot(
    const std::string& path, const ServiceOptions& options, bool zero_copy) {
  LSDB_ASSIGN_OR_RETURN(std::unique_ptr<snapshot::SnapshotReader> reader,
                        snapshot::SnapshotReader::Open(path));
  // The snapshot header is authoritative for the structure parameters: the
  // superblocks were written with them, and each index's Open() re-checks
  // its options against its superblock.
  ServiceOptions opts = options;
  const snapshot::Header& h = reader->header();
  opts.index.page_size = h.page_size;
  opts.index.world_log2 = h.world_log2;
  opts.index.pmr_split_threshold = h.pmr_split_threshold;
  opts.index.pmr_max_depth = h.pmr_max_depth;
  opts.index.pmr_store_bboxes = h.pmr_store_bboxes;
  std::unique_ptr<QueryService> svc(new QueryService(opts));
  svc->snapshot_ = std::move(reader);
  svc->snapshot_zero_copy_ = zero_copy;
  LSDB_RETURN_IF_ERROR(svc->OpenIndexesFromSnapshot(zero_copy));
  svc->workers_ = std::make_unique<WorkerPool>(opts.num_threads);
  LSDB_RETURN_IF_ERROR(svc->SetUpObservability());
  svc->stats_.GetCounter("lsdb_snapshot_opens_total")->Add(1);
  return svc;
}

Status QueryService::WriteSnapshot(const std::string& path) {
  // Every served file is already byte-complete: Build flushed each
  // structure and the segment table when it froze them, and snapshot
  // sections never change.
  snapshot::SnapshotParams params;
  params.page_size = options_.index.page_size;
  params.world_log2 = options_.index.world_log2;
  params.pmr_split_threshold = options_.index.pmr_split_threshold;
  params.pmr_max_depth = options_.index.pmr_max_depth;
  params.pmr_store_bboxes = options_.index.pmr_store_bboxes;
  params.segment_count = segs_->size();
  // Stream from the raw backends, below the injectors, so an armed fault
  // plan cannot perturb the serialized bytes.
  return snapshot::WriteSnapshot(path, params, seg_file_.get(),
                                 rstar_file_.get(), rplus_file_.get(),
                                 pmr_file_.get());
}

Status QueryService::SetUpObservability() {
  // Histograms are created after the worker pool so shard count == worker
  // count (one single-writer shard per worker).
  for (ServedIndex which : kAllServedIndexes) {
    for (QueryType type : kAllQueryTypes) {
      auto& slot = histograms_[static_cast<size_t>(which)]
                              [static_cast<size_t>(type)];
      slot = std::make_unique<LatencyHistogram>(workers_->size());
      stats_.RegisterHistogram(
          "lsdb_query_latency_ns",
          std::string("index=\"") + ServedIndexName(which) + "\",kind=\"" +
              QueryTypeName(type) + "\"",
          slot.get());
      // Profile aggregates share the histograms' sharding scheme: one
      // single-writer shard per worker.
      profiles_[static_cast<size_t>(which)][static_cast<size_t>(type)] =
          std::make_unique<introspect::ProfileAccumulator>(workers_->size());
    }
  }
  introspect_on_.store(options_.introspect, std::memory_order_relaxed);
  if (!options_.trace_path.empty()) {
    TracerOptions topt;
    topt.pool_event_sample_every = options_.trace_pool_sample_every;
    topt.max_bytes = options_.trace_max_bytes;
    LSDB_RETURN_IF_ERROR(tracer_.OpenFile(options_.trace_path, topt));
  }
  admission_ = std::make_unique<AdmissionQueue>(options_.admission);
  // Pool events flow to the service tracer (no-ops while it is disabled).
  seg_pool_->SetTracer(&tracer_, "segments");
  // The index-owned pools are private to each structure; their cache
  // behaviour reaches the registry via RefreshGauges() instead.
  return Status::OK();
}

StatsRegistry::Counter* QueryService::QueryCounter(ServedIndex which,
                                                   QueryType type) {
  std::atomic<StatsRegistry::Counter*>& slot =
      query_counters_[static_cast<size_t>(which)][static_cast<size_t>(type)];
  StatsRegistry::Counter* c = slot.load(std::memory_order_acquire);
  if (c == nullptr) {
    // First query of this kind: the counter enters the registry (and so
    // /metrics) now. Racing first uses resolve the same stable pointer.
    c = stats_.GetCounter(std::string("lsdb_queries_total{index=\"") +
                          ServedIndexName(which) + "\",kind=\"" +
                          QueryTypeName(type) + "\"}");
    slot.store(c, std::memory_order_release);
  }
  return c;
}

StatsRegistry& QueryService::stats() {
  RefreshGauges();
  return stats_;
}

const LatencyHistogram& QueryService::latency_histogram(
    ServedIndex which, QueryType type) const {
  return *histograms_[static_cast<size_t>(which)][static_cast<size_t>(type)];
}

introspect::ProfileAccumulator::Summary QueryService::profile_summary(
    ServedIndex which, QueryType type) const {
  const auto& acc =
      profiles_[static_cast<size_t>(which)][static_cast<size_t>(type)];
  if (acc == nullptr) return {};
  return acc->Merge();
}

void QueryService::EnablePageHeat() {
  BufferPool* pools[] = {seg_pool_.get(), rstar_->mutable_pool(),
                         rplus_->mutable_pool(), pmr_->mutable_pool()};
  const PageFile* files[] = {seg_file_.get(), rstar_file_.get(),
                             rplus_file_.get(), pmr_file_.get()};
  for (size_t i = 0; i < std::size(pools); ++i) {
    if (heat_[i] != nullptr) continue;  // idempotent; keep existing counts
    // Served structures are frozen, so page_count() is final: no accesses
    // land in the overflow bucket.
    heat_[i] = std::make_unique<introspect::PageHeatMap>(
        files[i]->page_count(), workers_->size());
    pools[i]->SetPageHeat(heat_[i].get());
  }
}

void QueryService::RefreshGauges() {
  const struct {
    const char* name;
    const BufferPool* pool;
  } pools[] = {
      {"segments", seg_pool_.get()},
      {"R*", rstar_->pool()},
      {"R+", rplus_->pool()},
      {"PMR", pmr_->pool()},
  };
  for (const auto& p : pools) {
    const std::string labels = std::string("{pool=\"") + p.name + "\"}";
    stats_.GetGauge("lsdb_bufferpool_hit_ratio" + labels)
        ->Set(p.pool->hit_ratio());
    stats_.GetGauge("lsdb_bufferpool_hits" + labels)
        ->Set(static_cast<double>(p.pool->hits()));
    stats_.GetGauge("lsdb_bufferpool_misses" + labels)
        ->Set(static_cast<double>(p.pool->misses()));
    stats_.GetGauge("lsdb_bufferpool_evictions" + labels)
        ->Set(static_cast<double>(p.pool->evictions()));
    stats_.GetGauge("lsdb_bufferpool_pin_waits" + labels)
        ->Set(static_cast<double>(p.pool->pin_waits()));
    stats_.GetGauge("lsdb_pool_io_retries" + labels)
        ->Set(static_cast<double>(p.pool->io_retries()));
    stats_.GetGauge("lsdb_pool_checksum_failures" + labels)
        ->Set(static_cast<double>(p.pool->checksum_failures()));
  }
  for (ServedIndex which : kAllServedIndexes) {
    const std::string labels =
        std::string("{index=\"") + ServedIndexName(which) + "\"}";
    const CircuitBreaker& b = breakers_[static_cast<size_t>(which)];
    stats_.GetGauge("lsdb_degraded" + labels)->Set(b.open() ? 1.0 : 0.0);
    stats_.GetGauge("lsdb_breaker_rejected_total" + labels)
        ->Set(static_cast<double>(b.rejected()));
    stats_.GetGauge("lsdb_breaker_times_opened" + labels)
        ->Set(static_cast<double>(b.times_opened()));
    const FaultStats& fs = fault_injector(which)->stats();
    stats_.GetGauge("lsdb_fault_reads" + labels)
        ->Set(static_cast<double>(fs.reads.value()));
    stats_.GetGauge("lsdb_fault_read_transient" + labels)
        ->Set(static_cast<double>(fs.transient_read_faults.load()));
    stats_.GetGauge("lsdb_fault_read_permanent" + labels)
        ->Set(static_cast<double>(fs.permanent_read_faults.load()));
    stats_.GetGauge("lsdb_fault_bitflips" + labels)
        ->Set(static_cast<double>(fs.bitflips.load()));
    stats_.GetGauge("lsdb_fault_total" + labels)
        ->Set(static_cast<double>(fs.total_faults()));
  }
  for (uint32_t w = 0; w < workers_->size(); ++w) {
    stats_
        .GetGauge("lsdb_worker_items_processed{worker=\"" +
                  std::to_string(w) + "\"}")
        ->Set(static_cast<double>(workers_->items_processed(w)));
  }
  if (admission_ != nullptr) {
    const AdmissionStats a = admission_->Snapshot();
    stats_.GetGauge("lsdb_admission_queue_depth")
        ->Set(static_cast<double>(a.depth));
    stats_.GetGauge("lsdb_admission_queue_max_depth")
        ->Set(static_cast<double>(a.max_depth));
    stats_.GetGauge("lsdb_admission_admitted_total")
        ->Set(static_cast<double>(a.admitted));
    stats_.GetGauge("lsdb_admission_executed_total")
        ->Set(static_cast<double>(a.executed));
    stats_.GetGauge("lsdb_admission_timeouts_total")
        ->Set(static_cast<double>(a.timeouts));
    stats_.GetGauge("lsdb_admission_cancelled_total")
        ->Set(static_cast<double>(a.cancelled));
    stats_.GetGauge("lsdb_admission_last_queue_delay_ns")
        ->Set(static_cast<double>(a.last_queue_delay_ns));
    for (size_t i = 0; i < kNumShedReasons; ++i) {
      if (a.shed[i] == 0) continue;  // gauges appear once sheds exist
      stats_
          .GetGauge(std::string("lsdb_admission_shed_total{reason=\"") +
                    ShedReasonName(static_cast<ShedReason>(i)) + "\"}")
          ->Set(static_cast<double>(a.shed[i]));
    }
    stats_.GetGauge("lsdb_worker_tasks_pending")
        ->Set(static_cast<double>(workers_->tasks_pending()));
  }
  stats_.GetGauge("lsdb_introspect_enabled")
      ->Set(introspection() ? 1.0 : 0.0);
  stats_.GetGauge("lsdb_trace_lines_emitted")
      ->Set(static_cast<double>(tracer_.lines_emitted()));
  stats_.GetGauge("lsdb_trace_lines_dropped")
      ->Set(static_cast<double>(tracer_.lines_dropped()));
  for (ServedIndex which : kAllServedIndexes) {
    for (QueryType type : kAllQueryTypes) {
      const auto& acc =
          profiles_[static_cast<size_t>(which)][static_cast<size_t>(type)];
      if (acc == nullptr) continue;
      const introspect::ProfileAccumulator::Summary s = acc->Merge();
      if (s.queries == 0) continue;  // gauges appear once data exists
      const std::string labels = std::string("{index=\"") +
                                 ServedIndexName(which) + "\",kind=\"" +
                                 QueryTypeName(type) + "\"}";
      stats_.GetGauge("lsdb_introspect_queries" + labels)
          ->Set(static_cast<double>(s.queries));
      stats_.GetGauge("lsdb_introspect_nodes_per_query" + labels)
          ->Set(s.nodes_per_query());
      stats_.GetGauge("lsdb_introspect_false_leaf_read_rate" + labels)
          ->Set(s.false_leaf_read_rate());
      stats_.GetGauge("lsdb_introspect_false_bucket_read_rate" + labels)
          ->Set(s.false_bucket_read_rate());
      stats_.GetGauge("lsdb_introspect_prune_rate" + labels)
          ->Set(s.prune_rate());
    }
  }
  for (size_t i = 0; i < std::size(heat_); ++i) {
    if (heat_[i] == nullptr) continue;
    const char* heat_names[] = {"segments", "R*", "R+", "PMR"};
    const std::string labels =
        std::string("{pool=\"") + heat_names[i] + "\"}";
    stats_.GetGauge("lsdb_page_heat_touches" + labels)
        ->Set(static_cast<double>(heat_[i]->total()));
  }
  if (snapshot_ != nullptr) {
    stats_.GetGauge("lsdb_snapshot_zero_copy")
        ->Set(snapshot_zero_copy_ ? 1.0 : 0.0);
    const char* section_names[] = {"segments", "R*", "R+", "PMR"};
    for (size_t i = 0; i < 4; ++i) {
      if (snapshot_views_[i] == nullptr) continue;
      const std::string labels =
          std::string("{section=\"") + section_names[i] + "\"}";
      stats_.GetGauge("lsdb_snapshot_pages_verified" + labels)
          ->Set(static_cast<double>(snapshot_views_[i]->pages_verified()));
      stats_.GetGauge("lsdb_snapshot_section_pages" + labels)
          ->Set(static_cast<double>(snapshot_views_[i]->page_count()));
    }
  }
}

Status QueryService::BuildIndexes(const PolygonalMap& map) {
  IndexOptions io = options_.index;
  io.buffer_frames = options_.serving_buffer_frames;

  // Shared segment table. Its metrics pointer is null, as in the harness:
  // segment comparisons are counted by the per-worker sinks while serving.
  seg_file_ = std::make_unique<MemPageFile>(io.page_size);
  seg_pool_ =
      std::make_unique<BufferPool>(seg_file_.get(), io.buffer_frames,
                                   nullptr);
  segs_ = std::make_unique<SegmentTable>(seg_pool_.get(), nullptr);
  for (const Segment& s : map.segments) {
    LSDB_ASSIGN_OR_RETURN([[maybe_unused]] const SegmentId id,
                          segs_->Append(s));
  }

  rstar_file_ = std::make_unique<MemPageFile>(io.page_size);
  rplus_file_ = std::make_unique<MemPageFile>(io.page_size);
  pmr_file_ = std::make_unique<MemPageFile>(io.page_size);
  // Each structure's pool talks to its file through a fault injector. The
  // injectors stay transparent (no plan) during the build, so structure
  // layout and paper metrics are byte-identical with or without them.
  PageFile* files[] = {rstar_file_.get(), rplus_file_.get(),
                       pmr_file_.get()};
  for (ServedIndex which : kAllServedIndexes) {
    injectors_[static_cast<size_t>(which)] =
        std::make_unique<FaultInjectingPageFile>(
            files[static_cast<size_t>(which)]);
    breakers_[static_cast<size_t>(which)].set_options(options_.breaker);
  }
  rstar_ = std::make_unique<RStarTree>(
      io, fault_injector(ServedIndex::kRStar), segs_.get());
  rplus_ = std::make_unique<RPlusTree>(
      io, fault_injector(ServedIndex::kRPlus), segs_.get());
  pmr_ = std::make_unique<PmrQuadtree>(
      io, fault_injector(ServedIndex::kPmr), segs_.get());
  LSDB_RETURN_IF_ERROR(rstar_->Init());
  LSDB_RETURN_IF_ERROR(rplus_->Init());
  LSDB_RETURN_IF_ERROR(pmr_->Init());

  BulkItems items;
  if (options_.bulk_build) {
    items.reserve(map.segments.size());
    for (SegmentId id = 0; id < map.segments.size(); ++id) {
      items.emplace_back(id, map.segments[id]);
    }
  }
  for (SpatialIndex* idx :
       {static_cast<SpatialIndex*>(rstar_.get()),
        static_cast<SpatialIndex*>(rplus_.get()),
        static_cast<SpatialIndex*>(pmr_.get())}) {
    if (options_.bulk_build) {
      LSDB_RETURN_IF_ERROR(lsdb::BulkLoad(idx, items));
    } else {
      for (SegmentId id = 0; id < map.segments.size(); ++id) {
        LSDB_RETURN_IF_ERROR(idx->Insert(id, map.segments[id]));
      }
    }
    // Flushes the structure, then serves its in-memory pages zero-copy.
    LSDB_RETURN_IF_ERROR(idx->Freeze());
  }
  // The segment table is read by every refinement: flush it and serve it
  // zero-copy too.
  LSDB_RETURN_IF_ERROR(segs_->Flush());
  LSDB_RETURN_IF_ERROR(seg_pool_->Freeze());
  if (options_.inject_faults) ArmFaultInjectors();
  return Status::OK();
}

void QueryService::ArmFaultInjectors() {
  // Arm only once everything is built (or opened) and frozen. Decorrelate
  // the per-structure streams so one structure's fault draw sequence does
  // not mirror another's.
  for (ServedIndex which : kAllServedIndexes) {
    FaultPlan plan = options_.fault_plan;
    plan.seed +=
        0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(which) + 1);
    fault_injector(which)->set_plan(plan);
  }
}

Status QueryService::OpenIndexesFromSnapshot(bool zero_copy) {
  IndexOptions io = options_.index;
  io.buffer_frames = options_.serving_buffer_frames;
  using snapshot::SectionKind;

  // Segment table view + pool. The table is always served through the
  // pool-copy path in spirit (Get() goes through Fetch either way); with
  // zero_copy its Fetches borrow mapped bytes like the indexes'.
  LSDB_ASSIGN_OR_RETURN(
      std::unique_ptr<MmapPageFile> seg_view,
      snapshot_->OpenSection(SectionKind::kSegments, zero_copy));
  snapshot_views_[0] = seg_view.get();
  seg_file_ = std::move(seg_view);
  seg_pool_ = std::make_unique<BufferPool>(seg_file_.get(),
                                           io.buffer_frames, nullptr);
  segs_ = std::make_unique<SegmentTable>(seg_pool_.get(), nullptr);
  LSDB_RETURN_IF_ERROR(segs_->Open());
  if (segs_->size() != snapshot_->header().segment_count) {
    return Status::Corruption(
        "segment count mismatch between snapshot header and segment table");
  }

  const SectionKind kinds[] = {SectionKind::kRStar, SectionKind::kRPlus,
                               SectionKind::kPmr};
  std::unique_ptr<PageFile>* slots[] = {&rstar_file_, &rplus_file_,
                                        &pmr_file_};
  for (ServedIndex which : kAllServedIndexes) {
    const size_t i = static_cast<size_t>(which);
    LSDB_ASSIGN_OR_RETURN(std::unique_ptr<MmapPageFile> view,
                          snapshot_->OpenSection(kinds[i], zero_copy));
    snapshot_views_[i + 1] = view.get();
    *slots[i] = std::move(view);
    injectors_[i] =
        std::make_unique<FaultInjectingPageFile>(slots[i]->get());
    breakers_[i].set_options(options_.breaker);
  }
  rstar_ = std::make_unique<RStarTree>(
      io, fault_injector(ServedIndex::kRStar), segs_.get());
  rplus_ = std::make_unique<RPlusTree>(
      io, fault_injector(ServedIndex::kRPlus), segs_.get());
  pmr_ = std::make_unique<PmrQuadtree>(
      io, fault_injector(ServedIndex::kPmr), segs_.get());
  LSDB_RETURN_IF_ERROR(rstar_->Open());
  LSDB_RETURN_IF_ERROR(rplus_->Open());
  LSDB_RETURN_IF_ERROR(pmr_->Open());
  for (SpatialIndex* idx :
       {static_cast<SpatialIndex*>(rstar_.get()),
        static_cast<SpatialIndex*>(rplus_.get()),
        static_cast<SpatialIndex*>(pmr_.get())}) {
    LSDB_RETURN_IF_ERROR(idx->Freeze());
  }
  if (options_.inject_faults) ArmFaultInjectors();
  return Status::OK();
}

SpatialIndex* QueryService::index(ServedIndex which) {
  switch (which) {
    case ServedIndex::kRStar:
      return rstar_.get();
    case ServedIndex::kRPlus:
      return rplus_.get();
    case ServedIndex::kPmr:
      return pmr_.get();
  }
  return nullptr;
}

namespace {
using Clock = CancelToken::Clock;

uint64_t NanosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Cache-line-padded per-worker counters so concurrent increments on
/// neighbouring workers do not false-share.
struct alignas(64) PaddedCounters {
  MetricCounters c;
};
}  // namespace

Status QueryService::BreakerGate(ServedIndex which) {
  if (breakers_[static_cast<size_t>(which)].AllowRequest()) {
    return Status::OK();
  }
  return Status::Unavailable(std::string(ServedIndexName(which)) +
                             " index degraded: breaker open");
}

void QueryService::RecordBreakerOutcome(ServedIndex which,
                                        const Status& status) {
  CircuitBreaker& breaker = breakers_[static_cast<size_t>(which)];
  if (CircuitBreaker::IsFailure(status)) {
    if (breaker.RecordFailure()) {
      tracer_.EmitHealthEvent(ServedIndexName(which), "breaker_open");
    }
  } else if (CircuitBreaker::IsSuccess(status)) {
    if (breaker.RecordSuccess()) {
      tracer_.EmitHealthEvent(ServedIndexName(which), "breaker_closed");
    }
  }
}

QueryResponse QueryService::RunQuery(ServedIndex which, const QueryRequest& q,
                                     const AdmissionQueue::Ticket* admitted,
                                     QueryRecord* rec) {
  // A request with neither a deadline nor a caller token leaves the
  // context's token null, so the descent checkpoints stay on their
  // one-load untaken-branch path and paper metrics are byte-identical.
  CancelToken token;
  if (admitted != nullptr) {
    if (admitted->deadline) token.ArmDeadline(*admitted->deadline);
  } else if (q.deadline_ns > 0) {
    token.ArmBudget(q.deadline_ns);
  }
  token.LinkParent(q.cancel);
  const bool armed = token.has_deadline() || q.cancel != nullptr;
  QueryResponse r;
  // An admitted query's budget started at submit: one that ran out in the
  // queue, or whose caller gave up meanwhile, costs no descent.
  if (admitted != nullptr && armed) {
    r.status = token.StatusNow();
    if (!r.status.ok()) return r;
  }
  // A brownout probe already took its breaker ticket at submit.
  if (admitted == nullptr || !admitted->breaker_preapproved) {
    r.status = BreakerGate(which);
    if (!r.status.ok()) return r;
  }
  SpatialIndex* idx = index(which);
  {
    ScopedQueryContext scope({.counters = &rec->counters,
                              .profile = rec->profile ? &*rec->profile
                                                      : nullptr,
                              .cancel = armed ? &token : nullptr});
    switch (q.type) {
      case QueryType::kPoint:
        r.status = idx->PointQueryEx(q.point, &r.hits);
        break;
      case QueryType::kWindow:
        r.status = idx->WindowQueryEx(q.window, &r.hits);
        break;
      case QueryType::kNearest: {
        auto n = idx->Nearest(q.point);
        if (n.ok()) r.nearest = *n;
        r.status = n.status();
        break;
      }
      case QueryType::kIncident:
        r.status = IncidentSegments(idx, q.point, &r.hits);
        break;
    }
  }
  RecordBreakerOutcome(which, r.status);
  return r;
}

void QueryService::Observe(uint32_t worker, ServedIndex which, QueryType type,
                           uint64_t latency_ns, const QueryRecord& rec) {
  histogram(which, type)->Record(worker, latency_ns);
  if (rec.profile) {
    profiles_[static_cast<size_t>(which)][static_cast<size_t>(type)]->Record(
        worker, *rec.profile);
  }
  if (!tracer_.enabled()) return;
  QuerySpan span;
  span.query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  span.kind = QueryTypeName(type);
  span.structure = ServedIndexName(which);
  span.latency_ns = latency_ns;
  span.disk_reads = rec.counters.disk_reads;
  span.segment_comps = rec.counters.segment_comps;
  span.bbox_comps = rec.counters.bbox_comps;
  span.bucket_comps = rec.counters.bucket_comps;
  span.worker = worker;
  if (rec.profile) {
    span.has_introspect = true;
    span.nodes_visited = rec.profile->nodes_visited;
    span.nodes_pruned = rec.profile->entries_pruned();
    span.false_leaf_reads = rec.profile->false_leaf_reads;
    span.false_bucket_reads = rec.profile->false_bucket_reads;
    span.max_depth = rec.profile->max_depth;
  }
  tracer_.EmitQuerySpan(span);
}

StatusOr<BatchResult> QueryService::ExecuteBatch(
    ServedIndex which, const std::vector<QueryRequest>& batch) {
  if (index(which) == nullptr) {
    return Status::InvalidArgument("unknown index");
  }
  BatchResult out;
  out.responses.resize(batch.size());
  std::vector<PaddedCounters> locals(workers_->size());
  workers_->ParallelFor(batch.size(), [&](uint32_t worker, uint64_t i) {
    // The introspection toggle is re-read per query, so a live flip takes
    // effect at the next query boundary.
    QueryRecord rec(introspection());
    const Clock::time_point t0 = Clock::now();
    QueryResponse& r = out.responses[i];
    r = RunQuery(which, batch[i], nullptr, &rec);
    r.latency_ns = NanosSince(t0);
    locals[worker].c += rec.counters;
    Observe(worker, which, batch[i].type, r.latency_ns, rec);
  });
  out.per_worker.reserve(locals.size());
  for (const PaddedCounters& pc : locals) {
    out.per_worker.push_back(pc.c);
    out.metrics += pc.c;
  }
  // Batch-level registry rollup: one atomic add per (kind, metric), not
  // per query, so the per-item hot path never contends on shared counters.
  const char* iname = ServedIndexName(which);
  uint64_t per_kind[std::size(kAllQueryTypes)] = {};
  for (const QueryRequest& q : batch) ++per_kind[static_cast<size_t>(q.type)];
  for (QueryType type : kAllQueryTypes) {
    const uint64_t n = per_kind[static_cast<size_t>(type)];
    if (n == 0) continue;
    QueryCounter(which, type)->Add(n);
  }
  const std::string mlabel = std::string("{index=\"") + iname + "\"}";
  stats_.GetCounter("lsdb_disk_reads_total" + mlabel)
      ->Add(out.metrics.disk_reads);
  stats_.GetCounter("lsdb_segment_comps_total" + mlabel)
      ->Add(out.metrics.segment_comps);
  stats_.GetCounter("lsdb_bbox_comps_total" + mlabel)
      ->Add(out.metrics.bbox_comps);
  stats_.GetCounter("lsdb_bucket_comps_total" + mlabel)
      ->Add(out.metrics.bucket_comps);
  stats_.GetCounter("lsdb_batches_total" + mlabel)->Add(1);
  return out;
}

StatusOr<BatchResult> QueryService::ExecuteBatchSequential(
    ServedIndex which, const std::vector<QueryRequest>& batch) {
  if (index(which) == nullptr) {
    return Status::InvalidArgument("unknown index");
  }
  BatchResult out;
  out.responses.resize(batch.size());
  out.per_worker.resize(1);
  for (size_t i = 0; i < batch.size(); ++i) {
    QueryRecord rec(/*profiled=*/false);
    out.responses[i] = RunQuery(which, batch[i], nullptr, &rec);
    out.per_worker[0] += rec.counters;
  }
  out.metrics = out.per_worker[0];
  return out;
}

void QueryService::CompleteShed(AdmissionQueue::Shed&& shed) {
  // kEvicted / kCoDel tickets were admitted (Offer counted their kind
  // slot); the other reasons reject before admission.
  if (shed.reason == ShedReason::kEvicted ||
      shed.reason == ShedReason::kCoDel) {
    admission_->OnFinished(shed.ticket.request.type);
  }
  if (tracer_.enabled()) {
    tracer_.EmitAdmissionEvent(ServedIndexName(shed.ticket.which),
                               ShedReasonName(shed.reason));
  }
  QueryResponse r;
  r.status = shed.reason == ShedReason::kShutdown
                 ? Status::Cancelled("shed: query service shutting down")
                 : Status::Unavailable(std::string("shed: ") +
                                       ShedReasonName(shed.reason));
  if (shed.ticket.done) shed.ticket.done(std::move(r));
}

void QueryService::SubmitQuery(ServedIndex which, const QueryRequest& q,
                               std::function<void(QueryResponse)> done) {
  // Brownout: while the structure's breaker is open, shed at submit
  // instead of occupying queue space behind requests that will fail
  // anyway. AllowRequest() still lets half-open probes through — those
  // carry their grant into execution via breaker_preapproved.
  bool preapproved = false;
  CircuitBreaker& b = breakers_[static_cast<size_t>(which)];
  if (options_.admission.brownout_on_breaker && b.open()) {
    if (!b.AllowRequest()) {
      admission_->RecordShed(ShedReason::kBrownout);
      if (tracer_.enabled()) {
        tracer_.EmitAdmissionEvent(ServedIndexName(which),
                                   ShedReasonName(ShedReason::kBrownout));
      }
      QueryResponse r;
      r.status = Status::Unavailable(
          std::string("shed: ") + ServedIndexName(which) +
          " degraded (breaker open)");
      if (done) done(std::move(r));
      return;
    }
    preapproved = true;
  }
  AdmissionQueue::Ticket t;
  t.which = which;
  t.request = q;
  t.done = std::move(done);
  t.enqueued = Clock::now();
  const uint64_t budget = q.deadline_ns > 0
                              ? q.deadline_ns
                              : options_.admission.default_deadline_ns;
  if (budget > 0) t.deadline = t.enqueued + std::chrono::nanoseconds(budget);
  t.breaker_preapproved = preapproved;
  std::vector<AdmissionQueue::Shed> shed;
  const bool enqueued = admission_->Offer(std::move(t), &shed);
  for (AdmissionQueue::Shed& s : shed) CompleteShed(std::move(s));
  if (!enqueued) return;
  // One dispatch task per admitted ticket. Submit only fails while the
  // pool destructor runs, which ~QueryService sequences after Close() —
  // but complete inline rather than strand a ticket if it ever happens.
  if (!workers_->Submit([this](uint32_t w) { DispatchOne(w); })) {
    DispatchOne(0);
  }
}

void QueryService::DispatchOne(uint32_t worker) {
  AdmissionQueue::Ticket t;
  std::vector<AdmissionQueue::Shed> shed;
  const bool have = admission_->Take(&t, &shed);
  for (AdmissionQueue::Shed& s : shed) CompleteShed(std::move(s));
  // Drained by Close() or shed by CoDel before this task ran: nothing to
  // execute (the ticket was completed elsewhere).
  if (!have) return;
  QueryRecord rec(introspection());
  QueryResponse r = RunQuery(t.which, t.request, &t, &rec);
  // Latency is submit-to-completion: queueing delay is the overload
  // signal, so it belongs in the admitted path's histograms.
  r.latency_ns = NanosSince(t.enqueued);
  Observe(worker, t.which, t.request.type, r.latency_ns, rec);
  QueryCounter(t.which, t.request.type)->Add(1);
  if (tracer_.enabled()) {
    if (r.status.IsDeadlineExceeded()) {
      tracer_.EmitAdmissionEvent(ServedIndexName(t.which), "timeout");
    } else if (r.status.IsCancelled()) {
      tracer_.EmitAdmissionEvent(ServedIndexName(t.which), "cancelled");
    }
  }
  admission_->OnExecuted(t.request.type, r.status);
  if (t.done) t.done(std::move(r));
}

StatusOr<BatchResult> QueryService::ExecuteBatchAdmitted(
    ServedIndex which, const std::vector<QueryRequest>& batch) {
  if (index(which) == nullptr) {
    return Status::InvalidArgument("unknown index");
  }
  BatchResult out;
  out.responses.resize(batch.size());
  Mutex mu("QueryService.batch_done");
  CondVar all_done;
  size_t remaining = batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    SubmitQuery(which, batch[i], [&, i](QueryResponse r) {
      MutexLock lk(mu);
      out.responses[i] = std::move(r);
      if (--remaining == 0) all_done.NotifyOne();
    });
  }
  MutexLock lk(mu);
  // Bounded by construction, not by a wait deadline: every submitted
  // ticket is completed exactly once (executed, shed, or drained at
  // shutdown), so `remaining` always reaches zero.
  // NOLINTNEXTLINE(lsdb-unbounded-wait)
  all_done.Wait(mu, [&] { return remaining == 0; });
  return out;
}

}  // namespace lsdb
