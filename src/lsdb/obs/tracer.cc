#include "lsdb/obs/tracer.h"

#include <cstdio>

namespace lsdb {

const char* PoolEventName(PoolEvent e) {
  switch (e) {
    case PoolEvent::kHit:
      return "hit";
    case PoolEvent::kMiss:
      return "miss";
    case PoolEvent::kEviction:
      return "eviction";
  }
  return "?";
}

Tracer::~Tracer() { Close(); }

Status Tracer::OpenFile(const std::string& path,
                        const TracerOptions& options) {
  MutexLock lk(mu_);
  if (out_ != nullptr) return Status::InvalidArgument("tracer already open");
  file_.open(path, std::ios::out | std::ios::trunc);
  if (!file_.is_open()) {
    return Status::IoError("cannot open trace file: " + path);
  }
  options_ = options;
  out_ = &file_;
  bytes_written_ = 0;
  enabled_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

void Tracer::AttachStream(std::ostream* out,
                          const TracerOptions& options) {
  MutexLock lk(mu_);
  options_ = options;
  out_ = out;
  bytes_written_ = 0;
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Flush() {
  MutexLock lk(mu_);
  if (out_ != nullptr) out_->flush();
}

void Tracer::Close() {
  MutexLock lk(mu_);
  enabled_.store(false, std::memory_order_relaxed);
  if (out_ != nullptr) out_->flush();
  if (file_.is_open()) file_.close();
  out_ = nullptr;
}

void Tracer::JsonEscape(const char* s, std::string* out) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += static_cast<char>(c);
        }
    }
  }
}

void Tracer::EmitQuerySpan(const QuerySpan& span) {
  if (!enabled()) return;
  std::string line;
  line.reserve(192);
  line += "{\"event\":\"span\",\"query_id\":";
  line += std::to_string(span.query_id);
  line += ",\"kind\":\"";
  JsonEscape(span.kind, &line);
  line += "\",\"structure\":\"";
  JsonEscape(span.structure, &line);
  line += "\",\"latency_ns\":";
  line += std::to_string(span.latency_ns);
  line += ",\"disk_reads\":";
  line += std::to_string(span.disk_reads);
  line += ",\"segment_comps\":";
  line += std::to_string(span.segment_comps);
  line += ",\"bbox_comps\":";
  line += std::to_string(span.bbox_comps);
  line += ",\"bucket_comps\":";
  line += std::to_string(span.bucket_comps);
  line += ",\"worker\":";
  line += std::to_string(span.worker);
  if (span.has_introspect) {
    line += ",\"nodes_visited\":";
    line += std::to_string(span.nodes_visited);
    line += ",\"nodes_pruned\":";
    line += std::to_string(span.nodes_pruned);
    line += ",\"false_leaf_reads\":";
    line += std::to_string(span.false_leaf_reads);
    line += ",\"false_bucket_reads\":";
    line += std::to_string(span.false_bucket_reads);
    line += ",\"max_depth\":";
    line += std::to_string(span.max_depth);
  }
  line += "}";
  WriteLine(line);
}

void Tracer::EmitPoolEvent(const char* pool_name, PoolEvent event) {
  if (!enabled()) return;
  uint64_t every;
  {
    MutexLock lk(mu_);
    every = options_.pool_event_sample_every;
  }
  if (every == 0) return;
  // Counter-based 1-in-N sampling: deterministic and RNG-free.
  const uint64_t seq =
      pool_event_seq_.fetch_add(1, std::memory_order_relaxed);
  if (seq % every != 0) return;
  std::string line;
  line.reserve(96);
  line += "{\"event\":\"pool\",\"pool\":\"";
  JsonEscape(pool_name, &line);
  line += "\",\"kind\":\"";
  line += PoolEventName(event);
  line += "\",\"sampled_every\":";
  line += std::to_string(every);
  line += "}";
  WriteLine(line);
}

void Tracer::EmitHealthEvent(const char* structure, const char* event) {
  if (!enabled()) return;
  std::string line;
  line.reserve(64);
  line += "{\"event\":\"health\",\"structure\":\"";
  JsonEscape(structure, &line);
  line += "\",\"state\":\"";
  JsonEscape(event, &line);
  line += "\"}";
  WriteLine(line);
}

void Tracer::EmitAdmissionEvent(const char* structure, const char* event) {
  if (!enabled()) return;
  uint64_t every;
  {
    MutexLock lk(mu_);
    every = options_.pool_event_sample_every;
  }
  if (every == 0) return;
  const uint64_t seq =
      admission_event_seq_.fetch_add(1, std::memory_order_relaxed);
  if (seq % every != 0) return;
  std::string line;
  line.reserve(96);
  line += "{\"event\":\"admission\",\"structure\":\"";
  JsonEscape(structure, &line);
  line += "\",\"outcome\":\"";
  JsonEscape(event, &line);
  line += "\",\"sampled_every\":";
  line += std::to_string(every);
  line += "}";
  WriteLine(line);
}

void Tracer::WriteLine(const std::string& line) {
  MutexLock lk(mu_);
  if (out_ == nullptr) return;  // closed between the enabled() test and now
  if (options_.max_bytes != 0 &&
      bytes_written_ + line.size() + 1 > options_.max_bytes) {
    lines_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  *out_ << line << '\n';
  bytes_written_ += line.size() + 1;
  lines_emitted_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace lsdb
