// paper: the Hoel-Samet experiment as bench_table2 runs it, sequential on
// one thread: Experiment::BuildAll with the paper's defaults (1 KiB pages,
// 16-frame LRU pools, incremental insertion, PMR threshold 4), then the 7
// Table 2 workloads x 3 structures x 1000 queries through RunWorkload.

#include <algorithm>
#include <string>
#include <vector>

#include "lsdb/harness/experiment.h"
#include "workloads.h"

namespace perfbench {
namespace {

using lsdb::Experiment;
using lsdb::StructureKind;

constexpr int kSetups = 3;
constexpr int kWorkloads = 7;
/// Structure order of Experiment::RunAllQueries (PMR, R+, R*), which the
/// LRU pools' state, and so the disk-access counts, depend on; as indexes
/// into kStructureKeys (R*, R+, PMR).
constexpr int kRunOrder[] = {2, 1, 0};
constexpr StructureKind kKinds[] = {StructureKind::kRStar,
                                    StructureKind::kRPlus,
                                    StructureKind::kPmr};
/// Which harness.<kind>_us group each Table 2 workload belongs to.
constexpr const char* kGroupOf[kWorkloads] = {
    "point", "point", "nearest", "nearest", "polygon", "polygon", "range"};
constexpr const char* kGroups[] = {"point", "nearest", "polygon", "range"};

struct Pass {
  lsdb::QueryStats stats[3][kWorkloads];
  double call_ns[3][kWorkloads] = {};
  double wall_ns = 0;
  bool traced = false;
};

/// One RunAllQueries-ordered pass of the 21 RunWorkload calls.
bool RunPass(Experiment* exp, uint32_t queries, SpanLog* spans,
             uint32_t parent, Pass* p, Outcome* o) {
  const uint64_t start = NowNs();
  for (int s : kRunOrder) {
    for (int w = 0; w < kWorkloads; ++w) {
      const uint64_t t0 = NowNs();
      const lsdb::Status st =
          exp->RunWorkload(kKinds[s], lsdb::kAllWorkloads[w], &p->stats[s][w]);
      const uint64_t t1 = NowNs();
      spans->Add("RunWorkload", t0, t1, parent);
      p->call_ns[s][w] = static_cast<double>(t1 - t0);
      o->attempted += queries;
      if (!st.ok()) {
        o->failed += queries;
        o->correct = false;
        o->error = std::string("RunWorkload ") +
                   lsdb::WorkloadName(lsdb::kAllWorkloads[w]) + " on " +
                   kStructureKeys[s] + " failed: " + st.ToString();
        return false;
      }
    }
  }
  p->wall_ns = static_cast<double>(NowNs() - start);
  return true;
}

double PassQps(const Pass& p, int s, uint32_t queries) {
  double ns = 0;
  for (int w = 0; w < kWorkloads; ++w) ns += p.call_ns[s][w];
  return kWorkloads * static_cast<double>(queries) / ns * 1e9;
}

double PassTotalQps(const Pass& p, uint32_t queries) {
  double ns = 0;
  for (int s = 0; s < 3; ++s) {
    for (int w = 0; w < kWorkloads; ++w) ns += p.call_ns[s][w];
  }
  return 3 * kWorkloads * static_cast<double>(queries) / ns * 1e9;
}

}  // namespace

Outcome RunPaper(const Context& ctx) {
  Outcome o;
  o.workers = 1;
  o.outstanding = 1;
  lsdb::ExperimentOptions opt;  // Paper defaults; the seed picks queries.
  opt.query_seed = ctx.seed;
  o.batch = opt.num_queries;
  const uint32_t n = opt.num_queries;

  TrimHeap();
  const uint64_t rss0 = RssBytes();
  uint64_t rss1 = rss0;
  std::unique_ptr<Experiment> exp;
  std::vector<double> setup_s, build_s[3];
  uint64_t build_disk[3] = {};
  for (int k = 0; k < (ctx.companion ? 1 : kSetups); ++k) {
    auto e = std::make_unique<Experiment>(*ctx.map, opt);
    const uint64_t t0 = NowNs();
    const lsdb::Status st = e->BuildAll();
    const uint64_t t1 = NowNs();
    ctx.spans->Add("BuildAll", t0, t1);
    if (!st.ok()) {
      o.correct = false;
      o.error = "BuildAll failed: " + st.ToString();
      return o;
    }
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    for (const lsdb::BuildStats& b : e->build_stats()) {
      for (int s = 0; s < 3; ++s) {
        if (b.kind != kKinds[s]) continue;
        build_s[s].push_back(b.cpu_seconds);
        build_disk[s] = b.disk_accesses;
      }
    }
    if (k == 0) {
      exp = std::move(e);
      rss1 = RssBytes();
    }
  }

  // Pass 1 is the counted one: its per-query averages are exactly what
  // bench_table2 prints for this seed. Pool counters bracket it.
  const lsdb::BufferPool* pools[4] = {
      exp->index(kKinds[0])->pool(), exp->index(kKinds[1])->pool(),
      exp->index(kKinds[2])->pool(), exp->segment_table()->pool()};
  PoolCounts before[4], after[4];
  for (int i = 0; i < 4; ++i) before[i] = ReadPool(pools[i]);
  std::vector<Pass> passes(1);
  const uint64_t start = NowNs();
  uint32_t span = ctx.spans->Open("pass");
  if (!RunPass(exp.get(), n, ctx.spans, span, &passes[0], &o)) return o;
  ctx.spans->Close(span);
  passes[0].traced = ctx.spans->on();
  for (int i = 0; i < 4; ++i) after[i] = ReadPool(pools[i]);

  // Result sizes of the exact-answer workloads must agree across
  // structures (nearest and polygon answers may tie differently).
  for (int w : {0, 1, 6}) {
    for (int s = 1; s < 3; ++s) {
      if (passes[0].stats[s][w].avg_result_size !=
          passes[0].stats[0][w].avg_result_size) {
        o.correct = false;
        o.error = std::string(kStructureKeys[s]) + " " +
                  lsdb::WorkloadName(lsdb::kAllWorkloads[w]) +
                  " result size disagrees with rstar";
        return o;
      }
    }
  }

  // Further passes fill the timed phase. A traced run alternates untraced
  // and traced passes (at least one of each) for the tracing overhead.
  SpanLog off(false);
  const uint64_t deadline = start + static_cast<uint64_t>(ctx.seconds * 1e9);
  const bool overhead = ctx.trace && !ctx.companion;
  while (!ctx.companion && (NowNs() < deadline ||
                            (overhead && passes.size() < 3))) {
    Pass p;
    p.traced = overhead && passes.size() % 2 == 0;
    span = p.traced ? ctx.spans->Open("pass") : 0;
    if (!RunPass(exp.get(), n, p.traced ? ctx.spans : &off, span, &p, &o)) {
      return o;
    }
    ctx.spans->Close(span);
    passes.push_back(p);
  }

  // Each call's time is its fastest over the passes: the calls repeat
  // exactly, and CPU steal on a shared host only ever slows one down.
  Pass best = passes[0];
  for (const Pass& p : passes) {
    for (int s = 0; s < 3; ++s) {
      for (int w = 0; w < kWorkloads; ++w) {
        best.call_ns[s][w] = std::min(best.call_ns[s][w], p.call_ns[s][w]);
      }
    }
  }
  double disk = 0, seg = 0, node = 0;
  for (int s = 0; s < 3; ++s) {
    const std::string key = kStructureKeys[s];
    o.e2e["qps." + key] = {PassQps(best, s, n), "1/s"};
    // Experiment times nothing finer than a RunWorkload call, so the
    // latency samples are the 7 calls' mean times per query.
    std::vector<double> per_call_us;
    for (int w = 0; w < kWorkloads; ++w) {
      per_call_us.push_back(best.call_ns[s][w] / 1e3 / n);
    }
    o.e2e["p50_us." + key] = {Median(per_call_us), "us"};
    o.e2e["p99_us." + key] = {Quantile(per_call_us, 0.99), "us"};
    for (int w = 0; w < kWorkloads; ++w) {
      const lsdb::QueryStats& q = passes[0].stats[s][w];
      disk += q.disk_accesses / (3 * kWorkloads);
      seg += q.segment_comps / (3 * kWorkloads);
      node += (s == 2 ? q.bucket_comps : q.bbox_comps) / (3 * kWorkloads);
    }
  }
  o.e2e["disk_accesses_per_query"] = {disk, "count"};
  o.e2e["segment_comps_per_query"] = {seg, "count"};
  o.e2e["bbox_bucket_comps_per_query"] = {node, "count"};
  o.e2e["setup_s"] = {Median(setup_s), "s"};
  o.e2e["rss_mib"] = {
      static_cast<double>(rss1 - std::min(rss0, rss1)) / (1 << 20), "MiB"};
  o.e2e["ok_frac"] = {static_cast<double>(o.attempted - o.failed) /
                          static_cast<double>(o.attempted),
                      "ratio"};

  if (ctx.trace) {
    Metrics& L = o.layer;
    const double per_structure[3] = {kWorkloads * 1.0 * n,
                                     kWorkloads * 1.0 * n,
                                     kWorkloads * 1.0 * n};
    uint64_t pin_waits = 0;
    for (int s = 0; s < 3; ++s) {
      const PoolCounts d = after[s] - before[s];
      AddPoolMetrics(kStructureKeys[s], d, per_structure[s], &L);
      pin_waits += d.pin_waits;
    }
    const PoolCounts d = after[3] - before[3];
    AddPoolMetrics("seg", d, 3 * per_structure[0], &L);
    L["storage.pin_waits"] = {static_cast<double>(pin_waits + d.pin_waits),
                              "count"};

    for (int s = 0; s < 3; ++s) {
      const std::string key = kStructureKeys[s];
      double da = 0, sc = 0, nc = 0;
      for (int w = 0; w < kWorkloads; ++w) {
        const lsdb::QueryStats& q = passes[0].stats[s][w];
        da += q.disk_accesses / kWorkloads;
        sc += q.segment_comps / kWorkloads;
        nc += (s == 2 ? q.bucket_comps : q.bbox_comps) / kWorkloads;
      }
      L["harness.disk_accesses_per_query." + key] = {da, "count"};
      L["harness.segment_comps_per_query." + key] = {sc, "count"};
      L["harness.node_comps_per_query." + key] = {nc, "count"};
      L[std::string(kLayerKeys[s]) + ".node_comps_per_query"] = {nc, "count"};
      L["seg.comps_per_query." + key] = {sc, "count"};
      L["harness.build_s." + key] = {Median(build_s[s]), "s"};
      L["harness.build_disk_accesses." + key] = {
          static_cast<double>(build_disk[s]), "count"};
      for (const char* g : kGroups) {
        double ns = 0, q = 0;
        for (int w = 0; w < kWorkloads; ++w) {
          if (std::string(kGroupOf[w]) != g) continue;
          ns += best.call_ns[s][w];
          q += n;
        }
        L[std::string("harness.") + g + "_us." + key] = {ns / 1e3 / q, "us"};
      }
    }
    std::vector<double> traced_qps, untraced_qps;
    double wall = 0, inside = 0, queries = 0;
    for (size_t i = 1; i < passes.size(); ++i) {
      (passes[i].traced ? traced_qps : untraced_qps)
          .push_back(PassTotalQps(passes[i], n));
    }
    for (const Pass& p : passes) {
      wall += p.wall_ns;
      for (int s = 0; s < 3; ++s) {
        for (int w = 0; w < kWorkloads; ++w) inside += p.call_ns[s][w];
      }
      queries += 3 * kWorkloads * n;
    }
    if (!traced_qps.empty() && !untraced_qps.empty()) {
      L["bench.trace_overhead_frac"] = {
          1.0 - Median(traced_qps) / Median(untraced_qps), "ratio"};
    }
    L["bench.caller_us_per_query"] = {(wall - inside) / 1e3 / queries, "us"};
  }
  return o;
}

}  // namespace perfbench
