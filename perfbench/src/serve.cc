// serve-uniform and serve-hot: the concurrent QueryService on Charles
// county, one workload larger than the service's buffer pools and one
// that fits (see NOTES.md for why each exists).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "lsdb/harness/experiment.h"
#include "lsdb/service/query_service.h"
#include "lsdb/util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using lsdb::Coord;
using lsdb::Point;
using lsdb::QueryRequest;
using lsdb::QueryResponse;
using lsdb::QueryService;
using lsdb::Rect;
using lsdb::ServedIndex;

constexpr size_t kUniformStreamLen = 4096;
/// serve-hot's p99 falls among its slowest nearest queries (1/8 of the
/// stream), so the stream is long enough to hold 2,048 of them: fewer
/// would let the seed pick the tail.
constexpr size_t kHotStreamLen = 16384;
constexpr Coord kWorld = Coord{1} << 14;  // IndexOptions::world_log2 = 14
constexpr Coord kWindowSide = 160;        // The paper's 0.01%-area window.
constexpr Coord kTile = 2048;             // serve-hot: 1/64 of the map.
constexpr uint32_t kBatch = 64;
constexpr uint32_t kUniformWorkers = 4;
constexpr uint32_t kHotWorkers = 3;
constexpr uint32_t kOutstanding = 6;
constexpr uint32_t kHotQueueBound = 64;
/// Timed phases are cut into this many consecutive slices (see
/// AddSliceMetrics).
constexpr int kSlices = 50;
/// A failed request sorts after every real latency.
constexpr double kFailedLatencyNs = 1e15;

using Expected = std::vector<QueryResponse>[3];

Point UniformPoint(lsdb::Rng* rng, Coord x0, Coord y0, Coord side) {
  return Point{x0 + static_cast<Coord>(rng->Uniform(side)),
               y0 + static_cast<Coord>(rng->Uniform(side))};
}

QueryRequest WindowIn(lsdb::Rng* rng, Coord x0, Coord y0, Coord side) {
  const Point p = UniformPoint(rng, x0, y0, side - kWindowSide);
  return QueryRequest::WindowQ(
      Rect::Of(p.x, p.y, p.x + kWindowSide, p.y + kWindowSide));
}

/// 1:1:1:1 point / incident / nearest / window, uniform over the map.
std::vector<QueryRequest> UniformStream(const lsdb::PolygonalMap& map,
                                        uint64_t seed) {
  lsdb::Rng rng(seed);
  const size_t n = map.segments.size();
  std::vector<QueryRequest> s;
  s.reserve(kUniformStreamLen);
  for (size_t i = 0; i < kUniformStreamLen; ++i) {
    switch (i % 4) {
      case 0:
        s.push_back(QueryRequest::PointQ(map.segments[rng.Uniform(n)].a));
        break;
      case 1:
        s.push_back(QueryRequest::IncidentQ(map.segments[rng.Uniform(n)].b));
        break;
      case 2:
        s.push_back(QueryRequest::NearestQ(UniformPoint(&rng, 0, 0, kWorld)));
        break;
      default:
        s.push_back(WindowIn(&rng, 0, 0, kWorld));
        break;
    }
  }
  return s;
}

/// 3/8 point, 3/8 incident, 1/8 nearest, 1/8 window, all inside one
/// 2048x2048 tile; the seed picks the requests. Point and incident
/// queries sit on endpoints of segments lying wholly inside the tile.
std::vector<QueryRequest> TileStream(const lsdb::PolygonalMap& map,
                                     uint64_t seed, Rect* tile) {
  constexpr Coord kTilesPerSide = kWorld / kTile;
  std::vector<std::vector<size_t>> inside(kTilesPerSide * kTilesPerSide);
  const auto tile_of = [](const Point& p) {
    return static_cast<size_t>(p.y / kTile) * kTilesPerSide +
           static_cast<size_t>(p.x / kTile);
  };
  for (size_t i = 0; i < map.segments.size(); ++i) {
    const lsdb::Segment& s = map.segments[i];
    if (s.a.x < 0 || s.a.y < 0 || s.a.x >= kWorld || s.a.y >= kWorld ||
        s.b.x < 0 || s.b.y < 0 || s.b.x >= kWorld || s.b.y >= kWorld) {
      continue;
    }
    if (tile_of(s.a) == tile_of(s.b)) inside[tile_of(s.a)].push_back(i);
  }
  // The densest tile, whatever the seed: when the seed picked the tile,
  // it picked the cost per query with it, and over five seeds disk
  // accesses per query spread by 20% and node comparisons by 14%.
  size_t t = 0;
  for (size_t i = 1; i < inside.size(); ++i) {
    if (inside[i].size() > inside[t].size()) t = i;
  }
  lsdb::Rng rng(seed);
  const Coord x0 = static_cast<Coord>(t % kTilesPerSide) * kTile;
  const Coord y0 = static_cast<Coord>(t / kTilesPerSide) * kTile;
  *tile = Rect::Of(x0, y0, x0 + kTile - 1, y0 + kTile - 1);
  const std::vector<size_t>& segs = inside[t];
  const auto pick = [&]() -> const lsdb::Segment& {
    return map.segments[segs[rng.Uniform(segs.size())]];
  };
  static const char kPattern[] = "PIPINPIW";
  std::vector<QueryRequest> s;
  s.reserve(kHotStreamLen);
  for (size_t i = 0; i < kHotStreamLen; ++i) {
    switch (kPattern[i % 8]) {
      case 'P':
        s.push_back(QueryRequest::PointQ(pick().a));
        break;
      case 'I':
        s.push_back(QueryRequest::IncidentQ(pick().b));
        break;
      case 'N':
        s.push_back(QueryRequest::NearestQ(UniformPoint(&rng, x0, y0, kTile)));
        break;
      default:
        s.push_back(WindowIn(&rng, x0, y0, kTile));
        break;
    }
  }
  return s;
}

/// Direct replays of the stream on all three structures, then the
/// cross-structure agreement check.
bool ReplayAll(QueryService* svc, const std::vector<QueryRequest>& stream,
               const char* span_name, Context ctx, DirectPass (&out)[3],
               Outcome* o) {
  const uint32_t parent = ctx.spans->Open(span_name);
  for (int s = 0; s < 3; ++s) {
    out[s] = ReplayDirect(svc->index(lsdb::kAllServedIndexes[s]), stream,
                          ctx.spans, parent);
    o->attempted += stream.size();
    o->failed += out[s].failed;
  }
  ctx.spans->Close(parent);
  std::string why;
  if (!CrossCheck(stream, out, &why)) {
    o->correct = false;
    o->error = why;
    return false;
  }
  return true;
}

// -- serve-uniform: closed loop of ExecuteBatch calls --------------------

/// One slice of a timed phase: a structure's throughput and latency
/// quantiles over it.
struct Slice {
  double qps = 0, p50_us = 0, p99_us = 0;
};

/// qps.<s>, p50_us.<s> and p99_us.<s>: the level three quarters of the
/// slices meet, i.e. the lower quartile of the slices' throughput and the
/// upper quartile of their latency quantiles. A virtual machine shares its
/// host's cores with other guests, and the host's speed drifts as they
/// come and go. A median moves with how much of a run the faster
/// stretches cover; the slow quartile moves less (NOTES.md has the runs
/// that chose it).
void AddSliceMetrics(int s, const std::vector<Slice>& slices, Metrics* out) {
  std::vector<double> qps, p50, p99;
  for (const Slice& sl : slices) {
    qps.push_back(sl.qps);
    p50.push_back(sl.p50_us);
    p99.push_back(sl.p99_us);
  }
  const std::string key = kStructureKeys[s];
  (*out)["qps." + key] = {Quantile(qps, 0.25), "1/s"};
  (*out)["p50_us." + key] = {Quantile(p50, 0.75), "us"};
  (*out)["p99_us." + key] = {Quantile(p99, 0.75), "us"};
}

Slice MakeSlice(double completions, double ns, std::vector<double> lat) {
  return Slice{completions / ns * 1e9, Quantile(lat, 0.50) / 1e3,
               Quantile(lat, 0.99) / 1e3};
}

struct BatchSamples {
  std::vector<double> batch_ns;  ///< One per ExecuteBatch call.
  std::vector<uint32_t> batch_n;
  std::vector<int> batch_slice;  ///< Time slice each call started in.
  std::vector<double> lat_ns;    ///< Per request, in call order.
};

struct BatchLoop {
  BatchSamples s[3];
  std::vector<double> all_batch_ns;
  uint64_t attempted = 0, failed = 0;
  uint64_t wall_ns = 0, inside_ns = 0;
  std::string mismatch;
};

/// Back-to-back ExecuteBatch calls of kBatch requests, rotating
/// R* -> R+ -> PMR, each structure walking the stream in order. Stops
/// after `max_rounds` rotations, or at the deadline when that is 0; a
/// timed loop is cut into kSlices equal spans of time. `between_slices`,
/// when set, runs at each slice boundary of a timed loop, between two
/// ExecuteBatch calls; throughput counts only time inside the calls.
BatchLoop RunBatchLoop(QueryService* svc,
                       const std::vector<std::vector<QueryRequest>>& batches,
                       const Expected& expected, double seconds,
                       size_t max_rounds, SpanLog* spans, uint32_t parent,
                       const std::function<void()>& between_slices = nullptr) {
  BatchLoop out;
  const uint64_t start = NowNs();
  const uint64_t len = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t deadline = start + len;
  int slice = 0;
  for (size_t round = 0;; ++round) {
    const uint64_t now = NowNs();
    if (max_rounds != 0 ? round >= max_rounds : now >= deadline) break;
    if (max_rounds == 0) {
      const int g = std::min<int>(
          kSlices - 1, static_cast<int>((now - start) * kSlices / len));
      if (g != slice && between_slices) between_slices();
      slice = g;
    }
    const size_t b = round % batches.size();
    for (int s = 0; s < 3; ++s) {
      const uint64_t t0 = NowNs();
      auto res = svc->ExecuteBatch(lsdb::kAllServedIndexes[s], batches[b]);
      const uint64_t t1 = NowNs();
      spans->Add("ExecuteBatch", t0, t1, parent,
                 static_cast<int64_t>(b * kBatch));
      out.inside_ns += t1 - t0;
      if (!res.ok()) {
        out.mismatch = std::string("ExecuteBatch failed: ") +
                       res.status().ToString();
        out.wall_ns = NowNs() - start;
        return out;
      }
      BatchSamples& bs = out.s[s];
      bs.batch_ns.push_back(static_cast<double>(t1 - t0));
      bs.batch_n.push_back(static_cast<uint32_t>(batches[b].size()));
      bs.batch_slice.push_back(slice);
      out.all_batch_ns.push_back(static_cast<double>(t1 - t0));
      for (size_t j = 0; j < res->responses.size(); ++j) {
        const QueryResponse& r = res->responses[j];
        const size_t i = b * kBatch + j;
        ++out.attempted;
        if (!r.status.ok()) ++out.failed;
        bs.lat_ns.push_back(r.status.ok()
                                ? static_cast<double>(r.latency_ns)
                                : kFailedLatencyNs);
        if (out.mismatch.empty() && !lsdb::SameResponse(r, expected[s][i])) {
          out.mismatch = DescribeRequest(s, i, batches[b][j].type);
        }
      }
      if (!out.mismatch.empty()) {
        out.wall_ns = NowNs() - start;
        return out;
      }
    }
  }
  out.wall_ns = NowNs() - start;
  return out;
}

/// A structure's slices of a timed loop hold the batches it started in
/// each time slice.
void AddBatchLatency(int s, const BatchLoop& l, Metrics* out) {
  const BatchSamples& bs = l.s[s];
  std::vector<double> ns(kSlices), n(kSlices);
  std::vector<std::vector<double>> lat(kSlices);
  size_t r = 0;
  for (size_t b = 0; b < bs.batch_ns.size(); ++b) {
    const int g = bs.batch_slice[b];
    ns[g] += bs.batch_ns[b];
    n[g] += bs.batch_n[b];
    lat[g].insert(lat[g].end(), bs.lat_ns.begin() + r,
                  bs.lat_ns.begin() + r + bs.batch_n[b]);
    r += bs.batch_n[b];
  }
  std::vector<Slice> slices;
  for (size_t g = 0; g < ns.size(); ++g) {
    if (n[g] > 0) {
      slices.push_back(MakeSlice(n[g], ns[g], lat[g]));
    }
  }
  AddSliceMetrics(s, slices, out);
}

/// Seconds per query of structure `s` over a loop (inside its calls).
double SecondsPerQuery(const BatchSamples& bs) {
  double ns = 0, n = 0;
  for (size_t b = 0; b < bs.batch_ns.size(); ++b) {
    ns += bs.batch_ns[b];
    n += bs.batch_n[b];
  }
  return n == 0 ? 0.0 : ns / n / 1e9;
}

double LoopQps(const BatchLoop& l) {
  double ns = 0, n = 0;
  for (const BatchSamples& bs : l.s) {
    for (size_t b = 0; b < bs.batch_ns.size(); ++b) {
      ns += bs.batch_ns[b];
      n += bs.batch_n[b];
    }
  }
  return ns == 0 ? 0.0 : n / ns * 1e9;
}

void PoolSnapshot(QueryService* svc, PoolCounts (&out)[4]) {
  for (int s = 0; s < 3; ++s) {
    out[s] = ReadPool(svc->index(lsdb::kAllServedIndexes[s])->pool());
  }
  out[3] = ReadPool(svc->segment_table()->pool());
}

/// storage.* over a phase in which each structure served `per_structure`
/// queries (the segment table serves all of them).
void AddStorage(const PoolCounts (&before)[4], const PoolCounts (&after)[4],
                const double (&per_structure)[3], Metrics* out) {
  uint64_t pin_waits = 0;
  double total = 0;
  for (int s = 0; s < 3; ++s) {
    const PoolCounts d = after[s] - before[s];
    AddPoolMetrics(kStructureKeys[s], d, per_structure[s], out);
    pin_waits += d.pin_waits;
    total += per_structure[s];
  }
  const PoolCounts d = after[3] - before[3];
  AddPoolMetrics("seg", d, total, out);
  pin_waits += d.pin_waits;
  (*out)["storage.pin_waits"] = {static_cast<double>(pin_waits), "count"};
}

void Fail(Outcome* o, const std::string& why) {
  o->correct = false;
  if (o->error.empty()) o->error = why;
}

void AddOkFrac(Outcome* o) {
  o->e2e["ok_frac"] = {
      o->attempted == 0 ? 0.0
                        : static_cast<double>(o->attempted - o->failed) /
                              static_cast<double>(o->attempted),
      "ratio"};
}

/// The introspected pass: the whole stream once per structure through
/// ExecuteBatch with set_introspection(true).
bool IntrospectPass(QueryService* svc,
                    const std::vector<std::vector<QueryRequest>>& batches,
                    const Expected& expected, Context ctx, Outcome* o) {
  svc->set_introspection(true);
  const uint32_t span = ctx.spans->Open("introspect_pass");
  const BatchLoop l = RunBatchLoop(svc, batches, expected, 0, batches.size(),
                                   ctx.spans, span);
  ctx.spans->Close(span);
  svc->set_introspection(false);
  o->attempted += l.attempted;
  o->failed += l.failed;
  if (!l.mismatch.empty()) {
    Fail(o, "service answer differs from direct call: " + l.mismatch);
    return false;
  }
  AddProfileMetrics(svc, &o->layer);
  return true;
}

std::vector<std::vector<QueryRequest>> Batches(
    const std::vector<QueryRequest>& stream) {
  std::vector<std::vector<QueryRequest>> out;
  for (size_t i = 0; i < stream.size(); i += kBatch) {
    out.emplace_back(stream.begin() + i, stream.begin() + i + kBatch);
  }
  return out;
}

}  // namespace

Outcome RunServeUniform(const Context& ctx) {
  Outcome o;
  o.workers = kUniformWorkers;
  o.outstanding = 1;
  o.batch = kBatch;
  const std::vector<QueryRequest> stream = UniformStream(*ctx.map, ctx.seed);
  const auto batches = Batches(stream);

  lsdb::ServiceOptions opt;
  opt.num_threads = kUniformWorkers;
  opt.bulk_build = true;
  TrimHeap();
  const uint64_t rss0 = RssBytes();
  std::vector<double> setup_s;
  const auto build = [&](const lsdb::ServiceOptions& so)
      -> std::unique_ptr<QueryService> {
    const uint64_t t0 = NowNs();
    auto svc = QueryService::Build(*ctx.map, so);
    const uint64_t t1 = NowNs();
    ctx.spans->Add("Build", t0, t1);
    if (!svc.ok()) {
      Fail(&o, "QueryService::Build failed: " + svc.status().ToString());
      return nullptr;
    }
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    return std::move(*svc);
  };
  std::unique_ptr<QueryService> svc = build(opt);
  if (svc == nullptr) return o;

  // Answer checks before timing: a cold single-thread replay (its
  // structure-owned counts are the paper's counts for this stream), then
  // one warm-up pass of the whole stream through the service.
  DirectPass cold[3];
  if (!ReplayAll(svc.get(), stream, "direct_replay", ctx, cold, &o)) return o;
  Expected expected;
  for (int s = 0; s < 3; ++s) expected[s] = cold[s].responses;
  const uint32_t warm_span = ctx.spans->Open("warm_up");
  const BatchLoop warm = RunBatchLoop(svc.get(), batches, expected, 0,
                                      batches.size(), ctx.spans, warm_span);
  ctx.spans->Close(warm_span);
  o.attempted += warm.attempted;
  o.failed += warm.failed;
  if (!warm.mismatch.empty()) {
    Fail(&o, "service answer differs from direct call: " + warm.mismatch);
    return o;
  }
  const uint64_t rss1 = RssBytes();

  // Untraced runs time the whole phase; a traced run times half of it
  // untraced (the reference for the tracing overhead) and half traced.
  // The set-up is timed again at every slice boundary of the timed phase
  // (a service is built and closed): back-to-back builds all see the host
  // of one moment, and the median of 21 of them moved by 25% between two
  // sets of ten runs.
  SpanLog off(false);
  const double untraced_s = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  const auto rebuild = [&] {
    if (!ctx.companion && o.correct) build(opt);
  };
  const BatchLoop timed = RunBatchLoop(svc.get(), batches, expected,
                                       untraced_s, 0, &off, 0, rebuild);
  o.attempted += timed.attempted;
  o.failed += timed.failed;
  if (!timed.mismatch.empty()) {
    Fail(&o, "service answer differs from direct call: " + timed.mismatch);
    return o;
  }
  if (!o.correct) return o;
  for (int s = 0; s < 3; ++s) AddBatchLatency(s, timed, &o.e2e);
  o.e2e["setup_s"] = {Median(setup_s), "s"};
  o.e2e["rss_mib"] = {
      static_cast<double>(rss1 - std::min(rss0, rss1)) / (1 << 20), "MiB"};
  AddReplayCounts(cold, stream.size(), &o.e2e, &o.layer);

  if (ctx.trace) {
    Metrics& L = o.layer;
    PoolCounts before[4], after[4];
    PoolSnapshot(svc.get(), before);
    const uint32_t loop_span = ctx.spans->Open("timed_loop");
    const BatchLoop traced = RunBatchLoop(
        svc.get(), batches, expected, ctx.seconds / 2, 0, ctx.spans,
        loop_span);
    ctx.spans->Close(loop_span);
    PoolSnapshot(svc.get(), after);
    o.attempted += traced.attempted;
    o.failed += traced.failed;
    if (!traced.mismatch.empty()) {
      Fail(&o, "service answer differs from direct call: " + traced.mismatch);
      return o;
    }
    double per_structure[3];
    for (int s = 0; s < 3; ++s) {
      per_structure[s] = static_cast<double>(traced.s[s].lat_ns.size());
    }
    AddStorage(before, after, per_structure, &L);
    L["service.batch_us.p50"] = {Quantile(traced.all_batch_ns, 0.5) / 1e3,
                                 "us"};
    L["service.batch_us.p99"] = {Quantile(traced.all_batch_ns, 0.99) / 1e3,
                                 "us"};
    L["bench.trace_overhead_frac"] = {
        1.0 - LoopQps(traced) / LoopQps(timed), "ratio"};
    L["bench.caller_us_per_query"] = {
        static_cast<double>(traced.wall_ns - traced.inside_ns) / 1e3 /
            static_cast<double>(traced.attempted),
        "us"};
    const lsdb::AdmissionStats a = svc->admission_stats();
    L["service.queue_max_depth"] = {static_cast<double>(a.max_depth),
                                    "count"};
    L["service.shed"] = {static_cast<double>(a.shed_total), "count"};

    // Direct calls on one thread while the service is idle (warm pools).
    DirectPass warm_direct[3];
    if (!ReplayAll(svc.get(), stream, "direct_timed", ctx, warm_direct, &o)) {
      return o;
    }
    for (int s = 0; s < 3; ++s) AddDirectTimings(s, stream, warm_direct[s], &L);
    if (!IntrospectPass(svc.get(), batches, expected, ctx, &o)) return o;

    // The same stream through a 1-worker service: its time per query
    // minus the direct call is the service's own cost; the excess of
    // worker time per query at kUniformWorkers over it is waiting.
    lsdb::ServiceOptions one = opt;
    one.num_threads = 1;
    const std::unique_ptr<QueryService> svc1 = build(one);
    if (svc1 == nullptr) return o;
    RunBatchLoop(svc1.get(), batches, expected, 0, batches.size(), &off, 0);
    const uint32_t one_span = ctx.spans->Open("one_worker_loop");
    const BatchLoop l1 = RunBatchLoop(svc1.get(), batches, expected,
                                      ctx.seconds / 4, 0, ctx.spans, one_span);
    ctx.spans->Close(one_span);
    o.attempted += l1.attempted;
    o.failed += l1.failed;
    if (!l1.mismatch.empty()) {
      Fail(&o, "1-worker service answer differs: " + l1.mismatch);
      return o;
    }
    for (int s = 0; s < 3; ++s) {
      const std::string key = kStructureKeys[s];
      const double t1 = SecondsPerQuery(l1.s[s]) * 1e6;
      const double tn = SecondsPerQuery(traced.s[s]) * 1e6 * kUniformWorkers;
      L["service.self_us." + key] = {
          t1 - L[std::string(kLayerKeys[s]) + ".query_us_1t"].value, "us"};
      L["service.wait_us." + key] = {tn - t1, "us"};
    }

    const uint32_t seg_span = ctx.spans->Open("segment_gets");
    MeasureSegmentGets(svc->segment_table(), HitIds(cold[0]), kUniformWorkers,
                       ctx.spans, seg_span, &L);
    ctx.spans->Close(seg_span);

    // Bulk builds of each structure alone, with the serving pool size.
    lsdb::IndexOptions io;
    io.buffer_frames = opt.serving_buffer_frames;
    const lsdb::StructureKind kinds[] = {lsdb::StructureKind::kRStar,
                                         lsdb::StructureKind::kRPlus,
                                         lsdb::StructureKind::kPmr};
    for (int s = 0; s < 3; ++s) {
      const uint64_t t0 = NowNs();
      auto st = lsdb::Experiment::BuildOne(*ctx.map, kinds[s], io, true);
      ctx.spans->Add("BuildOne", t0, NowNs());
      if (!st.ok()) {
        Fail(&o, "BuildOne failed: " + st.status().ToString());
        return o;
      }
      L[std::string("build.") + kStructureKeys[s] + "_s"] = {st->cpu_seconds,
                                                             "s"};
    }
  }
  AddOkFrac(&o);
  return o;
}

// -- serve-hot: closed loop through SubmitQuery ---------------------------

namespace {

struct HotLoop {
  std::vector<Slice> slices[3];
  double completed[3] = {};  ///< Per structure, over all its slices.
  double time_ns[3] = {};
  size_t cursor[3] = {};     ///< Next stream index per structure.
  uint64_t attempted = 0, failed = 0;
  uint64_t busy_ns = 0;  ///< Caller time not spent waiting for replies.
  std::string mismatch;

  double Qps(int s) const {
    return time_ns[s] == 0 ? 0.0 : completed[s] / time_ns[s] * 1e9;
  }
};

/// One completion slot per outstanding request. A worker's callback fills
/// the slot and raises its flag; the caller reads the reply once the flag
/// is up and lowers it before reusing the slot. The flag hands the reply
/// over without a lock, so the benchmark adds no lock of its own to the
/// path it measures. Shared-owned by every callback, so it outlives the
/// last one even if the caller has already returned.
struct Replies {
  struct alignas(64) Slot {
    std::atomic<bool> done{false};
    uint64_t end_ns = 0;
    QueryResponse r;
  };
  Slot slots[kOutstanding];

  bool AnyDone() const {
    for (const Slot& sl : slots) {
      if (sl.done.load(std::memory_order_acquire)) return true;
    }
    return false;
  }
};

/// Spin-wait hint: lets a hyperthread sibling (possibly a worker) use the
/// core while the caller polls.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// One slice: keeps kOutstanding requests in flight on structure `s`
/// from this one thread until the deadline (or until `max_requests` were
/// issued, when that is nonzero), then drains. The caller polls for
/// replies instead of sleeping: on a 4-vCPU virtual machine a sleeping
/// caller woke late, the admission queue drained, the workers parked, and
/// R* qps swung between 26k and 104k from run to run with the service
/// unchanged.
void ClosedLoop(QueryService* svc, int s,
                const std::vector<QueryRequest>& stream,
                const Expected& expected, double seconds, size_t max_requests,
                SpanLog* spans, uint32_t parent, HotLoop* out) {
  const ServedIndex which = lsdb::kAllServedIndexes[s];
  auto replies = std::make_shared<Replies>();
  struct Pending {
    size_t idx = 0;
    uint64_t submit_ns = 0;
  } pending[kOutstanding];
  size_t issued = 0;
  std::vector<double> lat;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  const auto submit = [&](uint32_t slot) {
    const size_t idx = out->cursor[s]++ % stream.size();
    ++issued;
    pending[slot] = Pending{idx, NowNs()};
    svc->SubmitQuery(which, stream[idx], [replies, slot](QueryResponse r) {
      Replies::Slot& sl = replies->slots[slot];
      sl.end_ns = NowNs();
      sl.r = std::move(r);
      sl.done.store(true, std::memory_order_release);
    });
  };
  uint32_t in_flight = 0;
  for (uint32_t slot = 0; slot < kOutstanding; ++slot) {
    submit(slot);
    ++in_flight;
  }
  uint64_t busy_from = NowNs();
  while (in_flight > 0) {
    if (!replies->AnyDone()) {
      out->busy_ns += NowNs() - busy_from;
      while (!replies->AnyDone()) CpuRelax();
      busy_from = NowNs();
    }
    for (uint32_t slot = 0; slot < kOutstanding; ++slot) {
      Replies::Slot& d = replies->slots[slot];
      if (!d.done.load(std::memory_order_acquire)) continue;
      --in_flight;
      const Pending p = pending[slot];
      const uint64_t end_ns = d.end_ns;
      const QueryResponse r = std::move(d.r);
      d.done.store(false, std::memory_order_relaxed);
      // The next request goes out before this reply is checked, so the
      // admission queue stays as full as the loop allows: a worker that
      // finds it empty parks, and waking it adds the host's wake-up
      // latency to the tail.
      const bool more = max_requests != 0 ? issued < max_requests
                                          : NowNs() < deadline;
      if (more && out->mismatch.empty()) {
        submit(slot);
        ++in_flight;
      }
      spans->Add("SubmitQuery", p.submit_ns, end_ns, parent,
                 static_cast<int64_t>(p.idx));
      ++out->attempted;
      const bool ok = r.status.ok();
      if (!ok) ++out->failed;
      lat.push_back(ok ? static_cast<double>(end_ns - p.submit_ns)
                       : kFailedLatencyNs);
      if (out->mismatch.empty() &&
          !lsdb::SameResponse(r, expected[s][p.idx])) {
        out->mismatch = DescribeRequest(s, p.idx, stream[p.idx].type);
      }
    }
  }
  const uint64_t end = NowNs();
  const double n = static_cast<double>(lat.size());
  out->busy_ns += end - busy_from;
  out->completed[s] += n;
  out->time_ns[s] += static_cast<double>(end - start);
  out->slices[s].push_back(
      MakeSlice(n, static_cast<double>(end - start), std::move(lat)));
}

/// Timed phases: kSlices rounds, each giving every structure one slice of
/// seconds / (3 * kSlices), so all three see the same host conditions.
/// With `full_pass`, one pass of the stream per structure instead.
/// `between_rounds`, when set, runs after each round, outside every slice.
HotLoop RunHotPhases(QueryService* svc,
                     const std::vector<QueryRequest>& stream,
                     const Expected& expected, double seconds, bool full_pass,
                     SpanLog* spans, uint32_t parent,
                     const std::function<void()>& between_rounds = nullptr) {
  HotLoop out;
  const int rounds = full_pass ? 1 : kSlices;
  for (int r = 0; r < rounds && out.mismatch.empty(); ++r) {
    for (int s = 0; s < 3 && out.mismatch.empty(); ++s) {
      const uint32_t ph = spans->Open("slice", parent);
      ClosedLoop(svc, s, stream, expected, seconds / (3 * kSlices),
                 full_pass ? stream.size() : 0, spans, ph, &out);
      spans->Close(ph);
    }
    if (between_rounds) between_rounds();
  }
  return out;
}

/// Deletes the snapshot file when the workload ends, however it ends.
struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

}  // namespace

Outcome RunServeHot(const Context& ctx) {
  Outcome o;
  o.workers = kHotWorkers;
  o.outstanding = kOutstanding;
  o.batch = 1;
  Rect tile;
  const std::vector<QueryRequest> stream = TileStream(*ctx.map, ctx.seed, &tile);
  const auto batches = Batches(stream);
  o.notes = "\"tile\": [" + std::to_string(tile.xmin) + ", " +
            std::to_string(tile.ymin) + ", " + std::to_string(tile.xmax) +
            ", " + std::to_string(tile.ymax) + "]";

  // Untimed preparation: bulk-build once and write the snapshot.
  const FileGuard snap{ctx.workdir + "/serve-hot-" +
                       std::to_string(getpid()) + ".lsnap"};
  {
    lsdb::ServiceOptions prep;
    prep.num_threads = 1;
    prep.bulk_build = true;
    auto built = QueryService::Build(*ctx.map, prep);
    lsdb::Status st = built.ok() ? (*built)->WriteSnapshot(snap.path)
                                 : built.status();
    if (!st.ok()) {
      Fail(&o, "snapshot preparation failed: " + st.ToString());
      return o;
    }
  }

  lsdb::ServiceOptions opt;
  opt.num_threads = kHotWorkers;
  opt.admission.policy = lsdb::AdmissionOptions::Policy::kFifoReject;
  opt.admission.max_queue = kHotQueueBound;
  TrimHeap();
  const uint64_t rss0 = RssBytes();
  std::vector<double> open_s;
  const auto open = [&](const lsdb::ServiceOptions& so)
      -> std::unique_ptr<QueryService> {
    const uint64_t t0 = NowNs();
    auto svc = QueryService::OpenFromSnapshot(snap.path, so, true);
    const uint64_t t1 = NowNs();
    ctx.spans->Add("OpenFromSnapshot", t0, t1);
    if (!svc.ok()) {
      Fail(&o, "OpenFromSnapshot failed: " + svc.status().ToString());
      return nullptr;
    }
    open_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    return std::move(*svc);
  };
  std::unique_ptr<QueryService> svc = open(opt);
  if (svc == nullptr) return o;

  // The first pass after open touches (and checksum-verifies) every page
  // the stream needs; it doubles as the cold answer-check replay.
  const uint64_t ft0 = NowNs();
  DirectPass cold[3];
  if (!ReplayAll(svc.get(), stream, "first_touch", ctx, cold, &o)) return o;
  const double first_touch_s = static_cast<double>(NowNs() - ft0) / 1e9;
  Expected expected;
  for (int s = 0; s < 3; ++s) expected[s] = cold[s].responses;
  const uint32_t warm_span = ctx.spans->Open("warm_up");
  const HotLoop warm = RunHotPhases(svc.get(), stream, expected, 0, true,
                                    ctx.spans, warm_span);
  ctx.spans->Close(warm_span);
  o.attempted += warm.attempted;
  o.failed += warm.failed;
  if (!warm.mismatch.empty()) {
    Fail(&o, "service answer differs from direct call: " + warm.mismatch);
    return o;
  }
  const uint64_t rss1 = RssBytes();

  // An open takes a fraction of a millisecond, and how long switches
  // between levels as the host's load shifts (0.2 or 0.33 ms back to back
  // on a 4-vCPU virtual machine). Opens made back to back all land on one
  // level, so the set-up is timed again after every round of the timed
  // phase (a service is opened and closed), and setup_s is the median
  // over the whole phase.
  SpanLog off(false);
  const double untraced_s = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  const auto reopen = [&] {
    if (!ctx.companion && o.correct) open(opt);
  };
  const HotLoop timed = RunHotPhases(svc.get(), stream, expected, untraced_s,
                                     false, &off, 0, reopen);
  o.attempted += timed.attempted;
  o.failed += timed.failed;
  if (!timed.mismatch.empty()) {
    Fail(&o, "service answer differs from direct call: " + timed.mismatch);
    return o;
  }
  if (!o.correct) return o;
  for (int s = 0; s < 3; ++s) AddSliceMetrics(s, timed.slices[s], &o.e2e);
  o.e2e["setup_s"] = {Median(open_s), "s"};
  o.e2e["rss_mib"] = {
      static_cast<double>(rss1 - std::min(rss0, rss1)) / (1 << 20), "MiB"};
  AddReplayCounts(cold, stream.size(), &o.e2e, &o.layer);

  if (ctx.trace) {
    Metrics& L = o.layer;
    PoolCounts before[4], after[4];
    PoolSnapshot(svc.get(), before);
    const uint32_t loop_span = ctx.spans->Open("timed_phases");
    const HotLoop traced = RunHotPhases(svc.get(), stream, expected,
                                        ctx.seconds / 2, false, ctx.spans,
                                        loop_span);
    ctx.spans->Close(loop_span);
    PoolSnapshot(svc.get(), after);
    o.attempted += traced.attempted;
    o.failed += traced.failed;
    if (!traced.mismatch.empty()) {
      Fail(&o, "service answer differs from direct call: " + traced.mismatch);
      return o;
    }
    double per_structure[3];
    double qps_timed = 0, qps_traced = 0;
    for (int s = 0; s < 3; ++s) {
      per_structure[s] = traced.completed[s];
      qps_timed += timed.Qps(s);
      qps_traced += traced.Qps(s);
    }
    AddStorage(before, after, per_structure, &L);
    L["bench.trace_overhead_frac"] = {1.0 - qps_traced / qps_timed, "ratio"};
    L["bench.caller_us_per_query"] = {
        static_cast<double>(traced.busy_ns) / 1e3 /
            static_cast<double>(traced.attempted),
        "us"};
    const lsdb::AdmissionStats a = svc->admission_stats();
    L["service.queue_max_depth"] = {static_cast<double>(a.max_depth),
                                    "count"};
    L["service.shed"] = {static_cast<double>(a.shed_total), "count"};

    DirectPass warm_direct[3];
    if (!ReplayAll(svc.get(), stream, "direct_timed", ctx, warm_direct, &o)) {
      return o;
    }
    for (int s = 0; s < 3; ++s) AddDirectTimings(s, stream, warm_direct[s], &L);
    if (!IntrospectPass(svc.get(), batches, expected, ctx, &o)) return o;

    lsdb::ServiceOptions one = opt;
    one.num_threads = 1;
    const std::unique_ptr<QueryService> svc1 = open(one);
    if (svc1 == nullptr) return o;
    RunHotPhases(svc1.get(), stream, expected, 0, true, &off, 0);
    const uint32_t one_span = ctx.spans->Open("one_worker_phases");
    const HotLoop l1 = RunHotPhases(svc1.get(), stream, expected,
                                    ctx.seconds / 4, false, ctx.spans,
                                    one_span);
    ctx.spans->Close(one_span);
    o.attempted += l1.attempted;
    o.failed += l1.failed;
    if (!l1.mismatch.empty()) {
      Fail(&o, "1-worker service answer differs: " + l1.mismatch);
      return o;
    }
    for (int s = 0; s < 3; ++s) {
      const std::string key = kStructureKeys[s];
      const double t1 = 1e6 / l1.Qps(s);
      const double tn = 1e6 / traced.Qps(s) * kHotWorkers;
      L["service.self_us." + key] = {
          t1 - L[std::string(kLayerKeys[s]) + ".query_us_1t"].value, "us"};
      L["service.wait_us." + key] = {tn - t1, "us"};
    }

    const uint32_t seg_span = ctx.spans->Open("segment_gets");
    MeasureSegmentGets(svc->segment_table(), HitIds(cold[0]), kHotWorkers,
                       ctx.spans, seg_span, &L);
    ctx.spans->Close(seg_span);

    std::FILE* f = std::fopen(snap.path.c_str(), "rb");
    double file_bytes = 0;
    if (f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      file_bytes = static_cast<double>(std::ftell(f));
      std::fclose(f);
    }
    // A segment is four int32 coordinates of user data.
    L["snapshot.bytes_per_user_byte"] = {
        file_bytes / (16.0 * static_cast<double>(ctx.map->segments.size())),
        "ratio"};
    L["snapshot.open_s"] = {Median(open_s), "s"};
    L["snapshot.first_touch_s"] = {first_touch_s, "s"};
  }
  AddOkFrac(&o);
  return o;
}

}  // namespace perfbench
