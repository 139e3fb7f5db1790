#include "util.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "lsdb/introspect/profiler.h"
#include "lsdb/query/incident.h"

namespace perfbench {

using lsdb::QueryRequest;
using lsdb::QueryResponse;
using lsdb::QueryType;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t RssBytes() {
  std::ifstream f("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

void TrimHeap() { malloc_trim(0); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// -- SpanLog --------------------------------------------------------------

uint32_t SpanLog::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                      uint32_t parent, int64_t request) {
  if (!on_) return 0;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<uint32_t>(spans_.size());
}

uint32_t SpanLog::Open(const char* name, uint32_t parent) {
  const uint64_t now = NowNs();
  return Add(name, now, now, parent);
}

void SpanLog::Close(uint32_t id) {
  if (id != 0) spans_[id - 1].end_ns = NowNs();
}

void SpanLog::Append(const std::vector<Span>& more) {
  if (on_) spans_.insert(spans_.end(), more.begin(), more.end());
}

std::map<std::string, double> SpanLog::SelfTimeUs() const {
  std::vector<std::vector<uint32_t>> children(spans_.size());
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    const uint32_t p = spans_[i].parent;
    if (p != 0 && p <= spans_.size()) children[p - 1].push_back(i);
  }
  std::map<std::string, double> self;
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (uint32_t c : children[i]) {
      const uint64_t a = std::max(spans_[c].start_ns, s.start_ns);
      const uint64_t b = std::min(spans_[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_a = 0, cur_b = 0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += cur_b - cur_a;
    const uint64_t len = s.end_ns - s.start_ns;
    self[s.name] += static_cast<double>(len - std::min(len, covered)) / 1e3;
  }
  return self;
}

bool SpanLog::WriteJsonl(const std::string& path, const std::string& header,
                         const std::string& trailer,
                         size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  const size_t n = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%u,\"request\":%lld}\n",
                 i + 1, s.name,
                 static_cast<long long>(s.start_ns) -
                     static_cast<long long>(t0),
                 static_cast<long long>(s.end_ns) -
                     static_cast<long long>(t0),
                 s.parent, static_cast<long long>(s.request));
  }
  std::fprintf(f, "%s\n", trailer.c_str());
  return std::fclose(f) == 0;
}

// -- Queries ----------------------------------------------------------------

namespace {
QueryResponse RunDirect(lsdb::SpatialIndex* idx, const QueryRequest& q) {
  QueryResponse r;
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
      r.status = lsdb::IncidentSegments(idx, q.point, &r.hits);
      break;
  }
  return r;
}

/// Table 2's node work: bbox comps for the R-trees, bucket comps for PMR.
double NodeComps(int which, const lsdb::MetricCounters& c) {
  return static_cast<double>(which == 2 ? c.bucket_comps : c.bbox_comps);
}

const char* SpanNameFor(QueryType t) {
  switch (t) {
    case QueryType::kPoint:
      return "PointQueryEx";
    case QueryType::kWindow:
      return "WindowQueryEx";
    case QueryType::kNearest:
      return "Nearest";
    case QueryType::kIncident:
      return "IncidentSegments";
  }
  return "?";
}

std::vector<lsdb::SegmentId> SortedIds(const QueryResponse& r) {
  std::vector<lsdb::SegmentId> ids;
  ids.reserve(r.hits.size());
  for (const lsdb::SegmentHit& h : r.hits) ids.push_back(h.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}
}  // namespace

DirectPass ReplayDirect(lsdb::SpatialIndex* idx,
                        const std::vector<QueryRequest>& stream,
                        SpanLog* spans, uint32_t parent) {
  DirectPass p;
  p.responses.reserve(stream.size());
  p.call_ns.reserve(stream.size());
  const lsdb::MetricCounters before = idx->metrics();
  for (size_t i = 0; i < stream.size(); ++i) {
    const uint64_t t0 = NowNs();
    p.responses.push_back(RunDirect(idx, stream[i]));
    const uint64_t t1 = NowNs();
    spans->Add(SpanNameFor(stream[i].type), t0, t1, parent,
               static_cast<int64_t>(i));
    p.call_ns.push_back(static_cast<double>(t1 - t0));
    p.total_ns += t1 - t0;
    if (!p.responses.back().status.ok()) ++p.failed;
  }
  p.counts = idx->metrics() - before;
  return p;
}

std::string DescribeRequest(int which, size_t i, QueryType type) {
  static const char* kNames[] = {"R*", "R+", "PMR"};
  return std::string(kNames[which]) + " request " + std::to_string(i) + " (" +
         lsdb::QueryTypeName(type) + ")";
}

bool CrossCheck(const std::vector<QueryRequest>& stream,
                const DirectPass (&passes)[3], std::string* why) {
  for (size_t i = 0; i < stream.size(); ++i) {
    const QueryResponse& ref = passes[0].responses[i];
    for (int s = 1; s < 3; ++s) {
      const QueryResponse& r = passes[s].responses[i];
      bool same = r.status.code() == ref.status.code();
      if (same && ref.status.ok()) {
        same = stream[i].type == QueryType::kNearest
                   ? r.nearest.squared_distance ==
                         ref.nearest.squared_distance
                   : SortedIds(r) == SortedIds(ref);
      }
      if (!same) {
        *why = DescribeRequest(s, i, stream[i].type) + " disagrees with R*";
        return false;
      }
    }
  }
  return true;
}

PoolCounts ReadPool(const lsdb::BufferPool* pool) {
  return PoolCounts{pool->hits(), pool->misses(), pool->evictions(),
                    pool->pin_waits()};
}

PoolCounts operator-(const PoolCounts& a, const PoolCounts& b) {
  return PoolCounts{a.hits - b.hits, a.misses - b.misses,
                    a.evictions - b.evictions, a.pin_waits - b.pin_waits};
}

void AddPoolMetrics(const std::string& key, const PoolCounts& d,
                    double queries, Metrics* out) {
  const double fetches = static_cast<double>(d.hits + d.misses);
  (*out)["storage.hit_ratio." + key] = {
      fetches == 0 ? 0.0 : static_cast<double>(d.hits) / fetches, "ratio"};
  (*out)["storage.misses_per_query." + key] = {
      static_cast<double>(d.misses) / queries, "count"};
  (*out)["storage.evictions_per_query." + key] = {
      static_cast<double>(d.evictions) / queries, "count"};
  if (key != "seg") {
    (*out)["storage.fetches_per_query." + key] = {fetches / queries,
                                                  "count"};
  }
}

void MeasureSegmentGets(lsdb::SegmentTable* table,
                        const std::vector<lsdb::SegmentId>& ids,
                        uint32_t threads, SpanLog* spans, uint32_t parent,
                        Metrics* out) {
  // Each thread walks the whole id list from its own offset, timing every
  // Get; the service's table counts into no shared counter, so concurrent
  // Gets from outside the service are safe.
  const auto run = [&](uint32_t t, uint32_t n_threads, uint32_t par,
                       std::vector<Span>* local, std::vector<double>* ns,
                       bool* ok) {
    lsdb::Segment seg;
    const size_t off = ids.size() * t / n_threads;
    for (size_t k = 0; k < ids.size(); ++k) {
      const lsdb::SegmentId id = ids[(off + k) % ids.size()];
      const uint64_t t0 = NowNs();
      const lsdb::Status st = table->Get(id, &seg);
      const uint64_t t1 = NowNs();
      if (!st.ok()) *ok = false;
      ns->push_back(static_cast<double>(t1 - t0));
      if (spans->on()) local->push_back(Span{"SegmentTable::Get", t0, t1, par, -1});
    }
  };
  bool ok = true;
  const uint32_t one = spans->Open("seg.get_1t", parent);
  std::vector<Span> local;
  std::vector<double> ns;
  run(0, 1, one, &local, &ns, &ok);
  spans->Close(one);
  spans->Append(local);
  (*out)["seg.get_ns_1t"] = {Median(ns), "ns"};

  const uint32_t many = spans->Open("seg.get_mt", parent);
  std::vector<std::vector<Span>> locals(threads);
  std::vector<std::vector<double>> nss(threads);
  std::vector<char> oks(threads, 1);
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      bool thread_ok = true;
      run(t, threads, many, &locals[t], &nss[t], &thread_ok);
      oks[t] = thread_ok ? 1 : 0;
    });
  }
  for (std::thread& th : pool) th.join();
  spans->Close(many);
  std::vector<double> all;
  for (uint32_t t = 0; t < threads; ++t) {
    spans->Append(locals[t]);
    all.insert(all.end(), nss[t].begin(), nss[t].end());
    ok = ok && oks[t] != 0;
  }
  (*out)["seg.get_ns"] = {Median(all), "ns"};
  if (!ok) std::fprintf(stderr, "perfbench: a SegmentTable::Get failed\n");
}

std::vector<lsdb::SegmentId> HitIds(const DirectPass& pass) {
  std::vector<lsdb::SegmentId> ids;
  for (const QueryResponse& r : pass.responses) {
    for (const lsdb::SegmentHit& h : r.hits) ids.push_back(h.id);
    if (r.nearest.id != lsdb::kInvalidSegmentId) ids.push_back(r.nearest.id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void AddDirectTimings(int which, const std::vector<QueryRequest>& stream,
                      const DirectPass& warm, Metrics* out) {
  const std::string layer = kLayerKeys[which];
  (*out)[layer + ".query_us_1t"] = {
      static_cast<double>(warm.total_ns) / 1e3 /
          static_cast<double>(stream.size()),
      "us"};
  for (QueryType t : lsdb::kAllQueryTypes) {
    std::vector<double> ns;
    for (size_t i = 0; i < stream.size(); ++i) {
      if (stream[i].type == t) ns.push_back(warm.call_ns[i]);
    }
    (*out)[layer + "." + lsdb::QueryTypeName(t) + "_us_1t"] = {
        Median(ns) / 1e3, "us"};
  }
}

void AddProfileMetrics(lsdb::QueryService* svc, Metrics* out) {
  for (int s = 0; s < 3; ++s) {
    uint64_t queries = 0, nodes = 0, false_reads = 0, reads = 0;
    for (QueryType t : lsdb::kAllQueryTypes) {
      const auto sum =
          svc->profile_summary(lsdb::kAllServedIndexes[s], t);
      queries += sum.queries;
      nodes += sum.totals.nodes_visited;
      // R-trees waste work on leaves, PMR on buckets.
      false_reads += s == 2 ? sum.totals.false_bucket_reads
                            : sum.totals.false_leaf_reads;
      reads += s == 2 ? sum.totals.buckets_visited
                      : sum.totals.leaves_visited;
    }
    const std::string layer = kLayerKeys[s];
    (*out)[layer + ".nodes_per_query"] = {
        queries == 0 ? 0.0
                     : static_cast<double>(nodes) /
                           static_cast<double>(queries),
        "count"};
    (*out)[layer + ".false_read_rate"] = {
        reads == 0 ? 0.0
                   : static_cast<double>(false_reads) /
                         static_cast<double>(reads),
        "ratio"};
  }
}

void AddReplayCounts(const DirectPass (&passes)[3], size_t queries,
                     Metrics* e2e, Metrics* layer) {
  const double n = static_cast<double>(queries);
  double disk = 0, seg = 0, node = 0;
  for (int s = 0; s < 3; ++s) {
    const lsdb::MetricCounters& c = passes[s].counts;
    disk += static_cast<double>(c.disk_accesses()) / n / 3.0;
    seg += static_cast<double>(c.segment_comps) / n / 3.0;
    node += NodeComps(s, c) / n / 3.0;
    if (layer != nullptr) {
      (*layer)[std::string(kLayerKeys[s]) + ".node_comps_per_query"] = {
          NodeComps(s, c) / n, "count"};
      (*layer)[std::string("seg.comps_per_query.") + kStructureKeys[s]] = {
          static_cast<double>(c.segment_comps) / n, "count"};
    }
  }
  (*e2e)["disk_accesses_per_query"] = {disk, "count"};
  (*e2e)["segment_comps_per_query"] = {seg, "count"};
  (*e2e)["bbox_bucket_comps_per_query"] = {node, "count"};
}

}  // namespace perfbench
