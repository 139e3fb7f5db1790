#include "lsdb/harness/experiment.h"

#include <chrono>
#include <cmath>

#include "lsdb/build/bulk_loader.h"
#include "lsdb/query/incident.h"
#include "lsdb/snapshot/snapshot_writer.h"
#include "lsdb/query/point_gen.h"
#include "lsdb/query/polygon.h"

namespace lsdb {

const char* StructureName(StructureKind k) {
  switch (k) {
    case StructureKind::kRStar:
      return "R*";
    case StructureKind::kRPlus:
      return "R+";
    case StructureKind::kPmr:
      return "PMR";
    case StructureKind::kGrid:
      return "grid";
  }
  return "?";
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPoint1:
      return "Point1";
    case Workload::kPoint2:
      return "Point2";
    case Workload::kNearest2Stage:
      return "Nearest(2-stage)";
    case Workload::kNearest1Stage:
      return "Nearest(1-stage)";
    case Workload::kPolygon2Stage:
      return "Polygon(2-stage)";
    case Workload::kPolygon1Stage:
      return "Polygon(1-stage)";
    case Workload::kRange:
      return "Range";
  }
  return "?";
}

struct Experiment::QueryInputs {
  // Point1/Point2: (segment id, endpoint selector).
  std::vector<std::pair<SegmentId, bool>> endpoint_queries;
  std::vector<Point> points_1stage;
  std::vector<Point> points_2stage;
  std::vector<Rect> windows;
};

Experiment::Experiment(const PolygonalMap& map,
                       const ExperimentOptions& options)
    : map_(map), options_(options) {}

Experiment::~Experiment() = default;

Status Experiment::BuildAll() {
  if (!options_.snapshot_in.empty()) {
    if (options_.include_grid) {
      return Status::InvalidArgument(
          "snapshot_in is incompatible with include_grid: the grid "
          "baseline is not part of the snapshot format");
    }
    if (!options_.snapshot_out.empty()) {
      return Status::InvalidArgument(
          "set snapshot_in or snapshot_out, not both");
    }
    LSDB_RETURN_IF_ERROR(OpenAllFromSnapshot());
    return PrepareInputs();
  }
  // Shared, disk-resident segment table. Its metrics pointer is null: each
  // index counts its own segment comparisons.
  seg_file_ = std::make_unique<MemPageFile>(options_.index.page_size);
  seg_pool_ = std::make_unique<BufferPool>(
      seg_file_.get(), options_.index.buffer_frames, nullptr);
  segs_ = std::make_unique<SegmentTable>(seg_pool_.get());
  for (const Segment& s : map_.segments) {
    auto id = segs_->Append(s);
    if (!id.ok()) return id.status();
  }

  rstar_file_ = std::make_unique<MemPageFile>(options_.index.page_size);
  rplus_file_ = std::make_unique<MemPageFile>(options_.index.page_size);
  pmr_file_ = std::make_unique<MemPageFile>(options_.index.page_size);
  rstar_ = std::make_unique<RStarTree>(options_.index, rstar_file_.get(),
                                       segs_.get());
  rplus_ = std::make_unique<RPlusTree>(options_.index, rplus_file_.get(),
                                       segs_.get());
  pmr_ = std::make_unique<PmrQuadtree>(options_.index, pmr_file_.get(),
                                       segs_.get());
  LSDB_RETURN_IF_ERROR(rstar_->Init());
  LSDB_RETURN_IF_ERROR(rplus_->Init());
  LSDB_RETURN_IF_ERROR(pmr_->Init());
  if (options_.include_grid) {
    grid_file_ = std::make_unique<MemPageFile>(options_.index.page_size);
    grid_ = std::make_unique<UniformGrid>(options_.index, grid_file_.get(),
                                          segs_.get());
    LSDB_RETURN_IF_ERROR(grid_->Init());
  }

  auto build = [this](StructureKind kind, SpatialIndex* idx) -> Status {
    const MetricCounters before = idx->metrics();
    const auto t0 = std::chrono::steady_clock::now();
    if (options_.bulk_build) {
      BulkItems items;
      items.reserve(map_.segments.size());
      for (SegmentId id = 0; id < map_.segments.size(); ++id) {
        items.emplace_back(id, map_.segments[id]);
      }
      LSDB_RETURN_IF_ERROR(lsdb::BulkLoad(idx, items));
    } else {
      for (SegmentId id = 0; id < map_.segments.size(); ++id) {
        LSDB_RETURN_IF_ERROR(idx->Insert(id, map_.segments[id]));
      }
    }
    LSDB_RETURN_IF_ERROR(idx->Flush());
    const auto t1 = std::chrono::steady_clock::now();
    BuildStats st;
    st.kind = kind;
    st.bytes = idx->bytes();
    st.disk_accesses = (idx->metrics() - before).disk_accesses();
    st.cpu_seconds = std::chrono::duration<double>(t1 - t0).count();
    switch (kind) {
      case StructureKind::kRStar:
        st.avg_occupancy = rstar_->AverageLeafOccupancy();
        st.height = rstar_->height();
        break;
      case StructureKind::kRPlus:
        st.avg_occupancy = rplus_->AverageLeafOccupancy();
        st.height = rplus_->height();
        break;
      case StructureKind::kPmr: {
        auto occ = pmr_->AverageBucketOccupancy();
        st.avg_occupancy = occ.ok() ? *occ : 0.0;
        st.height = pmr_->btree()->height();
        break;
      }
      case StructureKind::kGrid:
        st.avg_occupancy = 0.0;
        st.height = 1;
        break;
    }
    build_stats_.push_back(st);
    return Status::OK();
  };

  LSDB_RETURN_IF_ERROR(build(StructureKind::kRStar, rstar_.get()));
  LSDB_RETURN_IF_ERROR(build(StructureKind::kRPlus, rplus_.get()));
  LSDB_RETURN_IF_ERROR(build(StructureKind::kPmr, pmr_.get()));
  if (grid_ != nullptr) {
    LSDB_RETURN_IF_ERROR(build(StructureKind::kGrid, grid_.get()));
  }
  if (!options_.snapshot_out.empty()) {
    LSDB_RETURN_IF_ERROR(WriteSnapshotFile(options_.snapshot_out));
  }
  return PrepareInputs();
}

Status Experiment::WriteSnapshotFile(const std::string& path) {
  // The indexes were flushed by the build lambda; the segment table still
  // needs its superblock written so a reader can restore the count.
  LSDB_RETURN_IF_ERROR(segs_->Flush());
  snapshot::SnapshotParams params;
  params.page_size = options_.index.page_size;
  params.world_log2 = options_.index.world_log2;
  params.pmr_split_threshold = options_.index.pmr_split_threshold;
  params.pmr_max_depth = options_.index.pmr_max_depth;
  params.pmr_store_bboxes = options_.index.pmr_store_bboxes;
  params.segment_count = segs_->size();
  return snapshot::WriteSnapshot(path, params, seg_file_.get(),
                                 rstar_file_.get(), rplus_file_.get(),
                                 pmr_file_.get());
}

Status Experiment::OpenAllFromSnapshot() {
  LSDB_ASSIGN_OR_RETURN(reader_,
                        snapshot::SnapshotReader::Open(options_.snapshot_in));
  const snapshot::Header& h = reader_->header();
  // The header is authoritative: each structure's Open() validates its
  // options against the superblock written at build time.
  options_.index.page_size = h.page_size;
  options_.index.world_log2 = h.world_log2;
  options_.index.pmr_split_threshold = h.pmr_split_threshold;
  options_.index.pmr_max_depth = h.pmr_max_depth;
  options_.index.pmr_store_bboxes = h.pmr_store_bboxes;

  using snapshot::SectionKind;
  // Pool-copy mode (zero_copy = false): every page still moves through
  // the 16-frame LRU pools, so workload disk-access counts follow the
  // paper's model exactly — only the build is skipped.
  LSDB_ASSIGN_OR_RETURN(seg_file_, reader_->OpenSection(
                                       SectionKind::kSegments, false));
  seg_pool_ = std::make_unique<BufferPool>(
      seg_file_.get(), options_.index.buffer_frames, nullptr);
  segs_ = std::make_unique<SegmentTable>(seg_pool_.get());
  LSDB_RETURN_IF_ERROR(segs_->Open());
  if (segs_->size() != h.segment_count) {
    return Status::Corruption(
        "segment count mismatch between snapshot header and segment table");
  }

  LSDB_ASSIGN_OR_RETURN(rstar_file_,
                        reader_->OpenSection(SectionKind::kRStar, false));
  LSDB_ASSIGN_OR_RETURN(rplus_file_,
                        reader_->OpenSection(SectionKind::kRPlus, false));
  LSDB_ASSIGN_OR_RETURN(pmr_file_,
                        reader_->OpenSection(SectionKind::kPmr, false));
  rstar_ = std::make_unique<RStarTree>(options_.index, rstar_file_.get(),
                                       segs_.get());
  rplus_ = std::make_unique<RPlusTree>(options_.index, rplus_file_.get(),
                                       segs_.get());
  pmr_ = std::make_unique<PmrQuadtree>(options_.index, pmr_file_.get(),
                                       segs_.get());

  auto open = [this](StructureKind kind, SpatialIndex* idx,
                     Status (*do_open)(SpatialIndex*)) -> Status {
    const MetricCounters before = idx->metrics();
    const auto t0 = std::chrono::steady_clock::now();
    LSDB_RETURN_IF_ERROR(do_open(idx));
    const auto t1 = std::chrono::steady_clock::now();
    BuildStats st;
    st.kind = kind;
    st.bytes = idx->bytes();
    st.disk_accesses = (idx->metrics() - before).disk_accesses();
    st.cpu_seconds = std::chrono::duration<double>(t1 - t0).count();
    switch (kind) {
      case StructureKind::kRStar:
        st.avg_occupancy = rstar_->AverageLeafOccupancy();
        st.height = rstar_->height();
        break;
      case StructureKind::kRPlus:
        st.avg_occupancy = rplus_->AverageLeafOccupancy();
        st.height = rplus_->height();
        break;
      case StructureKind::kPmr: {
        auto occ = pmr_->AverageBucketOccupancy();
        st.avg_occupancy = occ.ok() ? *occ : 0.0;
        st.height = pmr_->btree()->height();
        break;
      }
      case StructureKind::kGrid:
        break;
    }
    build_stats_.push_back(st);
    return Status::OK();
  };
  LSDB_RETURN_IF_ERROR(open(StructureKind::kRStar, rstar_.get(),
                            [](SpatialIndex* i) {
                              return static_cast<RStarTree*>(i)->Open();
                            }));
  LSDB_RETURN_IF_ERROR(open(StructureKind::kRPlus, rplus_.get(),
                            [](SpatialIndex* i) {
                              return static_cast<RPlusTree*>(i)->Open();
                            }));
  LSDB_RETURN_IF_ERROR(open(StructureKind::kPmr, pmr_.get(),
                            [](SpatialIndex* i) {
                              return static_cast<PmrQuadtree*>(i)->Open();
                            }));
  return Status::OK();
}

Status Experiment::PrepareInputs() {
  inputs_ = std::make_unique<QueryInputs>();
  Rng rng(options_.query_seed);
  const uint32_t n = options_.num_queries;
  const uint32_t world_log2 = options_.index.world_log2;
  const Coord world = Coord{1} << world_log2;

  inputs_->endpoint_queries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    inputs_->endpoint_queries.emplace_back(
        static_cast<SegmentId>(rng.Uniform(map_.segments.size())),
        rng.Bernoulli(0.5));
  }
  inputs_->points_1stage.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    inputs_->points_1stage.push_back(UniformQueryPoint(&rng, world_log2));
  }
  // 2-stage: "we first generated the PMR quadtree block at random using a
  // uniform distribution based on the total number of blocks". The block
  // list is captured outside the measured workloads.
  auto twostage = TwoStageQueryPointGenerator::Create(pmr_.get());
  if (!twostage.ok()) return twostage.status();
  inputs_->points_2stage.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    inputs_->points_2stage.push_back(twostage->Next(&rng));
  }
  // Windows: 0.01% of the map area (paper: as in the original R*-tree
  // evaluation), i.e. side = world * sqrt(0.0001) = world / 100.
  const Coord side = std::max<Coord>(
      1, static_cast<Coord>(std::lround(
             world * std::sqrt(options_.window_area_fraction))));
  inputs_->windows.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const Coord x = static_cast<Coord>(rng.Uniform(world - side));
    const Coord y = static_cast<Coord>(rng.Uniform(world - side));
    inputs_->windows.push_back(Rect::Of(x, y, x + side, y + side));
  }
  return Status::OK();
}

SpatialIndex* Experiment::index(StructureKind kind) {
  switch (kind) {
    case StructureKind::kRStar:
      return rstar_.get();
    case StructureKind::kRPlus:
      return rplus_.get();
    case StructureKind::kPmr:
      return pmr_.get();
    case StructureKind::kGrid:
      return grid_.get();
  }
  return nullptr;
}

Status Experiment::RunWorkload(StructureKind kind, Workload w,
                               QueryStats* out) {
  SpatialIndex* idx = index(kind);
  if (idx == nullptr) return Status::InvalidArgument("structure not built");
  const MetricCounters before = idx->metrics();
  uint64_t total_results = 0;
  const uint32_t n = options_.num_queries;

  switch (w) {
    case Workload::kPoint1:
      for (const auto& [sid, pick_b] : inputs_->endpoint_queries) {
        const Segment& s = map_.segments[sid];
        std::vector<SegmentHit> hits;
        LSDB_RETURN_IF_ERROR(
            IncidentSegments(idx, pick_b ? s.b : s.a, &hits));
        total_results += hits.size();
      }
      break;
    case Workload::kPoint2:
      for (const auto& [sid, pick_b] : inputs_->endpoint_queries) {
        const Segment& s = map_.segments[sid];
        std::vector<SegmentHit> hits;
        LSDB_RETURN_IF_ERROR(
            IncidentAtOtherEndpoint(idx, s, pick_b ? s.b : s.a, &hits));
        total_results += hits.size();
      }
      break;
    case Workload::kNearest2Stage:
    case Workload::kNearest1Stage: {
      const auto& pts = w == Workload::kNearest2Stage
                            ? inputs_->points_2stage
                            : inputs_->points_1stage;
      for (const Point& p : pts) {
        auto r = idx->Nearest(p);
        if (!r.ok()) return r.status();
        ++total_results;
      }
      break;
    }
    case Workload::kPolygon2Stage:
    case Workload::kPolygon1Stage: {
      const auto& pts = w == Workload::kPolygon2Stage
                            ? inputs_->points_2stage
                            : inputs_->points_1stage;
      for (const Point& p : pts) {
        PolygonResult res;
        LSDB_RETURN_IF_ERROR(EnclosingPolygon(idx, p, &res));
        total_results += res.segments.size();
      }
      break;
    }
    case Workload::kRange:
      for (const Rect& win : inputs_->windows) {
        std::vector<SegmentHit> hits;
        LSDB_RETURN_IF_ERROR(idx->WindowQueryEx(win, &hits));
        total_results += hits.size();
      }
      break;
  }

  const MetricCounters d = idx->metrics() - before;
  out->kind = kind;
  out->workload = w;
  out->disk_accesses = static_cast<double>(d.disk_accesses()) / n;
  out->segment_comps = static_cast<double>(d.segment_comps) / n;
  out->bbox_comps = static_cast<double>(d.bbox_comps) / n;
  out->bucket_comps = static_cast<double>(d.bucket_comps) / n;
  out->avg_result_size = static_cast<double>(total_results) / n;
  return Status::OK();
}

Status Experiment::RunAllQueries(std::vector<QueryStats>* out) {
  std::vector<StructureKind> kinds = {StructureKind::kPmr,
                                      StructureKind::kRPlus,
                                      StructureKind::kRStar};
  if (grid_ != nullptr) kinds.push_back(StructureKind::kGrid);
  for (StructureKind kind : kinds) {
    for (Workload w : kAllWorkloads) {
      QueryStats qs;
      LSDB_RETURN_IF_ERROR(RunWorkload(kind, w, &qs));
      out->push_back(qs);
    }
  }
  return Status::OK();
}

StatusOr<BuildStats> Experiment::BuildOne(const PolygonalMap& map,
                                          StructureKind kind,
                                          const IndexOptions& index_options,
                                          bool bulk) {
  MemPageFile seg_file(index_options.page_size);
  BufferPool seg_pool(&seg_file, index_options.buffer_frames, nullptr);
  SegmentTable segs(&seg_pool);
  for (const Segment& s : map.segments) {
    auto id = segs.Append(s);
    if (!id.ok()) return id.status();
  }
  MemPageFile file(index_options.page_size);
  std::unique_ptr<SpatialIndex> idx;
  switch (kind) {
    case StructureKind::kRStar: {
      auto t = std::make_unique<RStarTree>(index_options, &file, &segs);
      LSDB_RETURN_IF_ERROR(t->Init());
      idx = std::move(t);
      break;
    }
    case StructureKind::kRPlus: {
      auto t = std::make_unique<RPlusTree>(index_options, &file, &segs);
      LSDB_RETURN_IF_ERROR(t->Init());
      idx = std::move(t);
      break;
    }
    case StructureKind::kPmr: {
      auto t = std::make_unique<PmrQuadtree>(index_options, &file, &segs);
      LSDB_RETURN_IF_ERROR(t->Init());
      idx = std::move(t);
      break;
    }
    case StructureKind::kGrid: {
      auto t = std::make_unique<UniformGrid>(index_options, &file, &segs);
      LSDB_RETURN_IF_ERROR(t->Init());
      idx = std::move(t);
      break;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (bulk) {
    BulkItems items;
    items.reserve(map.segments.size());
    for (SegmentId id = 0; id < map.segments.size(); ++id) {
      items.emplace_back(id, map.segments[id]);
    }
    LSDB_RETURN_IF_ERROR(lsdb::BulkLoad(idx.get(), items));
  } else {
    for (SegmentId id = 0; id < map.segments.size(); ++id) {
      LSDB_RETURN_IF_ERROR(idx->Insert(id, map.segments[id]));
    }
  }
  LSDB_RETURN_IF_ERROR(idx->Flush());
  const auto t1 = std::chrono::steady_clock::now();
  BuildStats st;
  st.kind = kind;
  st.bytes = idx->bytes();
  st.disk_accesses = idx->metrics().disk_accesses();
  st.cpu_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (auto* rstar = dynamic_cast<RStarTree*>(idx.get())) {
    st.avg_occupancy = rstar->AverageLeafOccupancy();
    st.height = rstar->height();
  } else if (auto* rplus = dynamic_cast<RPlusTree*>(idx.get())) {
    st.avg_occupancy = rplus->AverageLeafOccupancy();
    st.height = rplus->height();
  } else if (auto* pmr = dynamic_cast<PmrQuadtree*>(idx.get())) {
    auto occ = pmr->AverageBucketOccupancy();
    st.avg_occupancy = occ.ok() ? *occ : 0.0;
    st.height = pmr->btree()->height();
  } else {
    st.height = 1;
  }
  return st;
}

}  // namespace lsdb
