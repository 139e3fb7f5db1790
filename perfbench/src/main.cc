// lsdb_perfbench: runs one benchmark workload and prints its metrics.
//
//   lsdb_perfbench --workload serve-uniform|serve-hot|paper --seed N
//                  --seconds S --trace 0|1 [--workdir DIR] [--spans FILE]
//                  [--source ID]
//
// Prints an environment header line, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics with --trace 1. A traced run
// also writes every span to --spans. Exits 1 when an answer check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "lsdb/data/county_generator.h"
#include "lsdb/simd/simd.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kCounty = "Charles";  // The paper's Table 2 map.
constexpr const char* kWorkloadNames[] = {"serve-uniform", "serve-hot",
                                          "paper"};
using Runner = Outcome (*)(const Context&);
constexpr Runner kRunners[] = {RunServeUniform, RunServeHot, RunPaper};
/// Phase length of a companion run (see Context::companion).
constexpr double kCompanionSeconds = 2.0;

std::vector<std::string> EndToEndKeys() {
  std::vector<std::string> k;
  for (const char* m : {"qps.", "p50_us.", "p99_us."}) {
    for (const char* s : kStructureKeys) k.push_back(std::string(m) + s);
  }
  for (const char* m : {"setup_s", "rss_mib", "ok_frac",
                        "disk_accesses_per_query", "segment_comps_per_query",
                        "bbox_bucket_comps_per_query"}) {
    k.push_back(m);
  }
  return k;
}

std::vector<std::string> PerLayerKeys() {
  std::vector<std::string> k;
  const auto each = [&k](const std::string& prefix,
                         std::initializer_list<const char*> xs,
                         const std::string& suffix = "") {
    for (const char* x : xs) k.push_back(prefix + x + suffix);
  };
  each("service.self_us.", {"rstar", "rplus", "pmr"});
  each("service.wait_us.", {"rstar", "rplus", "pmr"});
  each("service.", {"batch_us.p50", "batch_us.p99", "queue_max_depth",
                    "shed"});
  each("storage.hit_ratio.", {"rstar", "rplus", "pmr", "seg"});
  each("storage.misses_per_query.", {"rstar", "rplus", "pmr", "seg"});
  each("storage.evictions_per_query.", {"rstar", "rplus", "pmr", "seg"});
  each("storage.fetches_per_query.", {"rstar", "rplus", "pmr"});
  k.push_back("storage.pin_waits");
  for (const char* l : kLayerKeys) {
    const std::string p = std::string(l) + ".";
    each(p, {"query_us_1t", "point_us_1t", "incident_us_1t", "nearest_us_1t",
             "window_us_1t", "nodes_per_query", "false_read_rate",
             "node_comps_per_query"});
  }
  each("seg.comps_per_query.", {"rstar", "rplus", "pmr"});
  each("seg.", {"get_ns_1t", "get_ns"});
  each("build.", {"rstar", "rplus", "pmr"}, "_s");
  each("snapshot.", {"open_s", "first_touch_s", "bytes_per_user_byte"});
  for (const char* s : kStructureKeys) {
    const std::string t = std::string(".") + s;
    k.push_back("harness.build_s" + t);
    k.push_back("harness.build_disk_accesses" + t);
    for (const char* g : {"point", "nearest", "polygon", "range"}) {
      k.push_back(std::string("harness.") + g + "_us" + t);
    }
    for (const char* m : {"disk_accesses", "segment_comps", "node_comps"}) {
      k.push_back(std::string("harness.") + m + "_per_query" + t);
    }
  }
  each("bench.", {"trace_overhead_frac", "caller_us_per_query"});
  return k;
}

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Metrics& m, const std::vector<std::string>& keys) {
  std::string out = "{";
  for (size_t i = 0; i < keys.size(); ++i) {
    const Metric& v = m.at(keys[i]);
    if (i > 0) out += ", ";
    out += Quote(keys[i]) + ": {\"value\": " + Number(v.value) +
           ", \"unit\": " + Quote(v.unit) + "}";
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "lsdb_perfbench: %s\nusage: lsdb_perfbench --workload "
               "serve-uniform|serve-hot|paper --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--spans FILE] [--source ID]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  std::string workload, workdir = ".", spans_path, source = "unknown";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--workdir") {
      workdir = v;
    } else if (flag == "--spans") {
      spans_path = v;
    } else if (flag == "--source") {
      source = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  int w = -1;
  for (int i = 0; i < 3; ++i) {
    if (workload == kWorkloadNames[i]) w = i;
  }
  if (w < 0) return Usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0) || seconds > 60) return Usage("--seconds must be in (0, 60]");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");

  lsdb::PolygonalMap map;
  for (const lsdb::CountyProfile& p : lsdb::MarylandProfiles()) {
    if (p.name == kCounty) map = lsdb::GenerateCounty(p, 14);
  }
  if (map.segments.empty()) {
    std::fprintf(stderr, "lsdb_perfbench: county %s not found\n", kCounty);
    return 1;
  }

  SpanLog spans(trace == 1);
  Context ctx;
  ctx.map = &map;
  ctx.seed = seed;
  ctx.seconds = seconds;
  ctx.trace = trace == 1;
  ctx.workdir = workdir;
  ctx.spans = &spans;
  const uint32_t root = spans.Open(kWorkloadNames[w]);
  Outcome o = kRunners[w](ctx);
  spans.Close(root);

  // A traced run reports every per-layer metric. Metrics of layers this
  // workload does not exercise come from short companion runs of the
  // workloads that do, with the same seed; the header names them.
  std::string provenance;
  if (ctx.trace && o.correct) {
    for (int c = 0; c < 3 && o.correct; ++c) {
      if (c == w) continue;
      Context cc = ctx;
      cc.companion = true;
      cc.seconds = std::min(seconds, kCompanionSeconds);
      const uint32_t span = spans.Open(kWorkloadNames[c]);
      const Outcome co = kRunners[c](cc);
      spans.Close(span);
      if (!co.correct) {
        o.correct = false;
        o.error = std::string(kWorkloadNames[c]) + " companion: " + co.error;
      }
      o.attempted += co.attempted;
      o.failed += co.failed;
      std::string taken;
      for (const auto& [key, m] : co.layer) {
        if (o.layer.count(key) != 0) continue;
        o.layer[key] = m;
        taken += (taken.empty() ? "" : ", ") + Quote(key);
      }
      if (!taken.empty()) {
        provenance += (provenance.empty() ? "" : ", ") +
                      Quote(kWorkloadNames[c]) + ": [" + taken + "]";
      }
    }
  }

  std::string env = "{\"source\": " + Quote(source) +
                    ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  env += ", \"ndebug\": true";
#else
  env += ", \"ndebug\": false";
#endif
  env += ", \"lsdb_lock_debug\": " + std::to_string(LSDB_LOCK_DEBUG) +
         ", \"sanitizer\": " + Quote(Sanitizer()) + ", \"simd_isa\": " +
         Quote(lsdb::simd::IsaName(lsdb::simd::ActiveIsa())) +
         ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"workload\": " + Quote(kWorkloadNames[w]) +
         ", \"workers\": " + std::to_string(o.workers) +
         ", \"outstanding\": " + std::to_string(o.outstanding) +
         ", \"batch\": " + std::to_string(o.batch) +
         ", \"seed\": " + std::to_string(seed) + ", \"seconds\": " +
         Number(seconds) + ", \"trace\": " + std::to_string(trace) +
         ", \"county\": " + Quote(kCounty) + ", \"segments\": " +
         std::to_string(map.segments.size());
  if (!o.notes.empty()) env += ", " + o.notes;
  if (!provenance.empty()) env += ", \"companions\": {" + provenance + "}";
  env += "}";
  std::printf("{\"env\": %s}\n", env.c_str());

  const std::vector<std::string> keys =
      ctx.trace ? PerLayerKeys() : EndToEndKeys();
  const Metrics& metrics = ctx.trace ? o.layer : o.e2e;
  for (const std::string& k : keys) {
    const auto it = metrics.find(k);
    if (o.correct && (it == metrics.end() || !std::isfinite(it->second.value))) {
      o.correct = false;
      o.error = "metric " + k + " was not measured";
    }
  }
  if (!o.correct) {
    std::fprintf(stderr, "lsdb_perfbench: FAILED: %s\n", o.error.c_str());
    return 1;
  }
  const std::string metrics_json = MetricsJson(metrics, keys);
  if (ctx.trace && !spans_path.empty()) {
    std::string self = "{";
    for (const auto& [name, us] : spans.SelfTimeUs()) {
      self += (self.size() > 1 ? ", " : "") + Quote(name) + ": " + Number(us);
    }
    self += "}";
    // Spans past the cap are counted, not written, to bound the file.
    constexpr size_t kMaxSpans = 200000;
    const size_t total = spans.spans().size();
    const std::string trailer =
        "{\"spans\": " + std::to_string(total) + ", \"spans_written\": " +
        std::to_string(std::min(total, kMaxSpans)) +
        ", \"self_us_by_name\": " + self + ", \"metrics\": " + metrics_json +
        "}";
    if (!spans.WriteJsonl(spans_path, "{\"env\": " + env + "}", trailer,
                          kMaxSpans)) {
      std::fprintf(stderr, "lsdb_perfbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(o.attempted),
      static_cast<unsigned long long>(o.failed), metrics_json.c_str());
  return 0;
}
