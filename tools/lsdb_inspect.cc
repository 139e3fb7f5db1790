// lsdb_inspect: explain a frozen index set from a single-file snapshot.
//
//   lsdb_inspect xray <file.lsnap> [--prometheus]
//       Walk all three structures and print structural quality metrics —
//       occupancy histograms, R* MBR overlap/coverage/dead space, R+
//       duplication factor, PMR quadrant-depth distribution — as a JSON
//       array (default) or Prometheus exposition text.
//
//   lsdb_inspect profile <file.lsnap> [--queries N] [--threads T]
//       Serve a deterministic mixed workload generated from the snapshot's
//       own segments with query-path profiling on, and print the per
//       structure x kind descent profiles (nodes/query, false-positive
//       leaf and bucket read rates, prune rates, per-level fanout).
//
//   lsdb_inspect heatmap <file.lsnap> [--queries N] [--threads T]
//                        [--top N] [--svg prefix]
//       Same workload with per-page heat counters attached; prints the
//       rank-ordered hot-page report per structure and optionally writes
//       one SVG tile heatmap per structure (prefix + "_R*.svg", ...).
//
// All subcommands open the snapshot zero-copy and never mutate it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "lsdb/introspect/page_heat.h"
#include "lsdb/introspect/profiler.h"
#include "lsdb/introspect/xray.h"
#include "lsdb/service/query_service.h"
#include "lsdb/util/random.h"
#include "lsdb/viz/svg.h"

using namespace lsdb;  // NOLINT

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: lsdb_inspect xray <file.lsnap> [--prometheus]\n"
      "       lsdb_inspect profile <file.lsnap> [--queries N] [--threads T]\n"
      "       lsdb_inspect heatmap <file.lsnap> [--queries N] [--threads T]"
      " [--top N] [--svg prefix]\n");
  return 2;
}

StatusOr<std::unique_ptr<QueryService>> OpenSnapshot(const std::string& path,
                                                     uint32_t threads) {
  ServiceOptions opt;
  opt.num_threads = threads;
  return QueryService::OpenFromSnapshot(path, opt);
}

Status XRayOne(QueryService* svc, ServedIndex which,
               introspect::XRayReport* out) {
  switch (which) {
    case ServedIndex::kRStar:
      return introspect::XRayRStar(svc->rstar(), out);
    case ServedIndex::kRPlus:
      return introspect::XRayRPlus(svc->rplus(), out);
    case ServedIndex::kPmr:
      return introspect::XRayPmr(svc->pmr(), out);
  }
  return Status::InvalidArgument("unknown index");
}

/// Deterministic mixed workload drawn from the snapshot's own segment
/// table: point/incident queries at stored endpoints, windows and nearest
/// probes over the world extent. The same seed always produces the same
/// batch, so reports are comparable across runs.
StatusOr<std::vector<QueryRequest>> SnapshotWorkload(QueryService* svc,
                                                     size_t n) {
  Rng rng(2026);
  std::vector<QueryRequest> batch;
  batch.reserve(n);
  const uint32_t seg_count = svc->segment_count();
  if (seg_count == 0) return Status::InvalidArgument("empty snapshot");
  for (size_t i = 0; i < n; ++i) {
    Segment s;
    LSDB_RETURN_IF_ERROR(
        svc->segment_table()->Get(rng.Uniform(seg_count), &s));
    switch (i % 4) {
      case 0:
        batch.push_back(QueryRequest::PointQ(s.a));
        break;
      case 1: {
        const Coord x = static_cast<Coord>(rng.Uniform(15500));
        const Coord y = static_cast<Coord>(rng.Uniform(15500));
        batch.push_back(
            QueryRequest::WindowQ(Rect::Of(x, y, x + 512, y + 512)));
        break;
      }
      case 2:
        batch.push_back(QueryRequest::NearestQ(
            Point{static_cast<Coord>(rng.Uniform(16384)),
                  static_cast<Coord>(rng.Uniform(16384))}));
        break;
      default:
        batch.push_back(QueryRequest::IncidentQ(s.b));
        break;
    }
  }
  return batch;
}

int RunXray(const std::string& path, bool prometheus) {
  auto svc = OpenSnapshot(path, 1);
  if (!svc.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 svc.status().ToString().c_str());
    return 1;
  }
  std::string json = "[";
  for (ServedIndex which : kAllServedIndexes) {
    introspect::XRayReport xr;
    const Status st = XRayOne(svc->get(), which, &xr);
    if (!st.ok()) {
      std::fprintf(stderr, "x-ray of %s failed: %s\n",
                   ServedIndexName(which), st.ToString().c_str());
      return 1;
    }
    if (prometheus) {
      std::fputs(xr.ToPrometheus().c_str(), stdout);
    } else {
      if (json.size() > 1) json += ",";
      json += xr.ToJson();
    }
  }
  if (!prometheus) {
    json += "]\n";
    std::fputs(json.c_str(), stdout);
  }
  return 0;
}

int RunProfile(const std::string& path, size_t queries, uint32_t threads) {
  auto svc = OpenSnapshot(path, threads);
  if (!svc.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 svc.status().ToString().c_str());
    return 1;
  }
  (*svc)->set_introspection(true);
  auto batch = SnapshotWorkload(svc->get(), queries);
  if (!batch.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 batch.status().ToString().c_str());
    return 1;
  }
  std::string json = "[";
  for (ServedIndex which : kAllServedIndexes) {
    auto res = (*svc)->ExecuteBatch(which, *batch);
    if (!res.ok()) {
      std::fprintf(stderr, "batch failed: %s\n",
                   res.status().ToString().c_str());
      return 1;
    }
    for (QueryType type : kAllQueryTypes) {
      const introspect::ProfileAccumulator::Summary s =
          (*svc)->profile_summary(which, type);
      if (json.size() > 1) json += ",";
      json += "{\"index\":\"" + std::string(ServedIndexName(which)) +
              "\",\"kind\":\"" + QueryTypeName(type) + "\"," +
              s.ToJson().substr(1);
    }
  }
  json += "]\n";
  std::fputs(json.c_str(), stdout);
  return 0;
}

int RunHeatmap(const std::string& path, size_t queries, uint32_t threads,
               size_t top_n, const std::string& svg_prefix) {
  auto svc = OpenSnapshot(path, threads);
  if (!svc.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 svc.status().ToString().c_str());
    return 1;
  }
  (*svc)->EnablePageHeat();
  auto batch = SnapshotWorkload(svc->get(), queries);
  if (!batch.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 batch.status().ToString().c_str());
    return 1;
  }
  for (ServedIndex which : kAllServedIndexes) {
    auto res = (*svc)->ExecuteBatch(which, *batch);
    if (!res.ok()) {
      std::fprintf(stderr, "batch failed: %s\n",
                   res.status().ToString().c_str());
      return 1;
    }
    const introspect::PageHeatMap* heat = (*svc)->page_heat(which);
    std::printf("== %s ==\n%s", ServedIndexName(which),
                heat->RankedReport(top_n).c_str());
    if (!svg_prefix.empty()) {
      const std::string out = svg_prefix + "_" +
                              std::string(ServedIndexName(which)) + ".svg";
      const Status st = WriteHeatmapSvg(heat->Merge(), out);
      if (!st.ok()) {
        std::fprintf(stderr, "svg write failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", out.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];

  bool prometheus = false;
  size_t queries = 4000;
  uint32_t threads = 4;
  size_t top_n = 10;
  std::string svg_prefix;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--prometheus") {
      prometheus = true;
    } else if (a == "--queries" && i + 1 < argc) {
      queries = static_cast<size_t>(atoi(argv[++i]));
    } else if (a == "--threads" && i + 1 < argc) {
      threads = static_cast<uint32_t>(atoi(argv[++i]));
    } else if (a == "--top" && i + 1 < argc) {
      top_n = static_cast<size_t>(atoi(argv[++i]));
    } else if (a == "--svg" && i + 1 < argc) {
      svg_prefix = argv[++i];
    } else {
      return Usage();
    }
  }

  if (cmd == "xray") return RunXray(path, prometheus);
  if (cmd == "profile") return RunProfile(path, queries, threads);
  if (cmd == "heatmap") {
    return RunHeatmap(path, queries, threads, top_n, svg_prefix);
  }
  return Usage();
}
