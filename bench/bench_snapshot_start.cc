// Measures the snapshot subsystem's headline claim: a service opened from
// a single-file snapshot is ready orders of magnitude faster than one
// bulk-built from raw segments, and serves identical results.
//
//   $ bench_snapshot_start [--smoke] [county] [out.json] [threads]
//
// Flow: bulk-build a ~50K-segment county service (the PR-4 fast path, so
// the speedup is measured against the *best* build, not the paper's
// incremental one) -> WriteSnapshot -> reopen zero-copy (mmap, pages
// served in place) -> timed mixed batches on all three structures ->
// element-wise response equivalence against the built service.
//
// Output (default BENCH_snapshot.json) schema, one object:
//   {"bench": "snapshot_start", "county": ..., "segments": N,
//    "smoke": false, "threads": T, "build_seconds": ...,
//    "snapshot_write_seconds": ..., "snapshot_bytes": B,
//    "snapshot_open_mmap_seconds": ..., "speedup": ..., "mmap_qps": ...,
//    "equivalent": true}
// scripts/ci.sh validates this shape and the exit code enforces both the
// >=10x service-ready speedup and response equivalence.

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lsdb/service/query_service.h"
#include "lsdb/util/random.h"

using namespace lsdb;         // NOLINT
using namespace lsdb::bench;  // NOLINT

namespace {

std::vector<QueryRequest> MixedBatch(const PolygonalMap& map, size_t n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryRequest> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Segment& s = map.segments[rng.Uniform(map.segments.size())];
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

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Warm batch then timed batch on every structure; returns aggregate qps
/// across the three structures (timed pass only).
double MeasureQps(QueryService* svc, const std::vector<QueryRequest>& batch,
                  bool* ok) {
  double total_secs = 0;
  size_t total_queries = 0;
  for (ServedIndex which : kAllServedIndexes) {
    auto warm = svc->ExecuteBatch(which, batch);
    if (!warm.ok()) {
      *ok = false;
      return 0;
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto res = svc->ExecuteBatch(which, batch);
    const auto t1 = std::chrono::steady_clock::now();
    if (!res.ok()) {
      *ok = false;
      return 0;
    }
    total_secs += Seconds(t0, t1);
    total_queries += batch.size();
  }
  *ok = true;
  return static_cast<double>(total_queries) / total_secs;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string county = "Charles";
  std::string out_path = "BENCH_snapshot.json";
  uint32_t threads = 4;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (positional == 0) {
      county = argv[i];
      ++positional;
    } else if (positional == 1) {
      out_path = argv[i];
      ++positional;
    } else {
      threads = static_cast<uint32_t>(atoi(argv[i]));
    }
  }
  const size_t kBatch = smoke ? 400 : 8000;
  const std::string snap_path = out_path + ".lsnap";

  CountyProfile profile = MarylandProfiles()[0];
  bool known = county == profile.name;
  for (const CountyProfile& c : MarylandProfiles()) {
    if (c.name == county) {
      profile = c;
      known = true;
    }
  }
  if (!known) {
    std::fprintf(stderr, "unknown county %s\n", county.c_str());
    return 1;
  }
  PolygonalMap map = GenerateCounty(profile, 14);
  if (!smoke) {
    // Paper-scale maps hold ~50k TIGER segments; the stock profiles land
    // slightly under, so grow the road lattice the same way
    // bench_bulk_build does until the map reaches that floor.
    while (map.segments.size() < 50000) {
      profile.lattice += 4;
      map = GenerateCounty(profile, 14);
    }
  }
  std::printf("snapshot start bench: %s county (%zu segments), "
              "%zu-query batch, %u workers%s\n\n",
              county.c_str(), map.segments.size(), kBatch, threads,
              smoke ? " [smoke]" : "");

  // 1. Baseline: the bulk-build fast path, timed to service-ready.
  ServiceOptions opt;
  opt.num_threads = threads;
  opt.bulk_build = true;
  const auto b0 = std::chrono::steady_clock::now();
  auto built = QueryService::Build(map, opt);
  const auto b1 = std::chrono::steady_clock::now();
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const double build_seconds = Seconds(b0, b1);
  std::printf("bulk build to service-ready:   %8.3f s\n", build_seconds);

  // 2. Freeze it into the single-file container.
  const auto w0 = std::chrono::steady_clock::now();
  const Status wst = (*built)->WriteSnapshot(snap_path);
  const auto w1 = std::chrono::steady_clock::now();
  if (!wst.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n",
                 wst.ToString().c_str());
    return 1;
  }
  const double write_seconds = Seconds(w0, w1);
  struct stat stbuf;
  const uint64_t snapshot_bytes =
      stat(snap_path.c_str(), &stbuf) == 0
          ? static_cast<uint64_t>(stbuf.st_size)
          : 0;
  std::printf("snapshot write:                %8.3f s  (%.1f MB)\n",
              write_seconds,
              static_cast<double>(snapshot_bytes) / (1024.0 * 1024.0));

  // 3. Reopen: zero-copy mmap serving.
  const auto m0 = std::chrono::steady_clock::now();
  auto mmap_svc = QueryService::OpenFromSnapshot(snap_path, opt);
  const auto m1 = std::chrono::steady_clock::now();
  if (!mmap_svc.ok()) {
    std::fprintf(stderr, "mmap open failed: %s\n",
                 mmap_svc.status().ToString().c_str());
    return 1;
  }
  const double open_mmap_seconds = Seconds(m0, m1);
  const double speedup =
      open_mmap_seconds > 0 ? build_seconds / open_mmap_seconds : 0;
  std::printf("snapshot open (mmap):          %8.3f s  -> %.0fx faster\n\n",
              open_mmap_seconds, speedup);

  // 4. Serve the same mixed batch on both services and compare
  // element-wise.
  const std::vector<QueryRequest> batch = MixedBatch(map, kBatch, 2026);
  bool equivalent = true;
  for (ServedIndex which : kAllServedIndexes) {
    auto truth = (*built)->ExecuteBatch(which, batch);
    auto via_mmap = (*mmap_svc)->ExecuteBatch(which, batch);
    if (!truth.ok() || !via_mmap.ok()) {
      std::fprintf(stderr, "batch failed on %s\n", ServedIndexName(which));
      return 1;
    }
    const bool same_mmap = SameResponses(*truth, *via_mmap);
    std::printf("%-4s responses: mmap %s\n", ServedIndexName(which),
                same_mmap ? "identical" : "DIFFER");
    equivalent = equivalent && same_mmap;
  }

  // 5. Steady-state throughput of mmap serving.
  bool qok = false;
  const double mmap_qps = MeasureQps(mmap_svc->get(), batch, &qok);
  if (!qok) return 1;
  std::printf("\nthroughput (all structures):  mmap %.0f q/s\n", mmap_qps);

  std::string json = "{\"bench\":\"snapshot_start\"";
  json += ",\"county\":\"" + county + "\"";
  json += ",\"segments\":" + std::to_string(map.segments.size());
  json += ",\"smoke\":";
  json += smoke ? "true" : "false";
  json += ",\"threads\":" + std::to_string(threads);
  json += ",\"build_seconds\":" + FormatDouble(build_seconds);
  json += ",\"snapshot_write_seconds\":" + FormatDouble(write_seconds);
  json += ",\"snapshot_bytes\":" + std::to_string(snapshot_bytes);
  json += ",\"snapshot_open_mmap_seconds\":" + FormatDouble(open_mmap_seconds);
  json += ",\"speedup\":" + FormatDouble(speedup);
  json += ",\"mmap_qps\":" + FormatDouble(mmap_qps);
  json += ",\"equivalent\":";
  json += equivalent ? "true" : "false";
  json += "}\n";

  std::ofstream out(out_path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  out.close();
  std::remove(snap_path.c_str());
  std::printf("wrote %s\n", out_path.c_str());

  if (!equivalent) {
    std::fprintf(stderr, "FAIL: snapshot-served responses differ\n");
    return 1;
  }
  if (speedup < 10.0) {
    std::fprintf(stderr, "FAIL: service-ready speedup %.1fx < 10x\n",
                 speedup);
    return 1;
  }
  return 0;
}
