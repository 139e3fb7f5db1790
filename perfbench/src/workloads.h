// The benchmark's three workloads. Each one builds its inputs from the
// seed before timing, checks every answer, and fills the end-to-end
// metrics; a traced run also fills the per-layer metrics and spans.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "lsdb/data/polygonal_map.h"
#include "util.h"

namespace perfbench {

struct Context {
  const lsdb::PolygonalMap* map = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< Length of the timed phase.
  bool trace = false;     ///< Per-layer metrics and spans.
  /// Traced run of another workload that only supplies the per-layer
  /// metrics its owner does not measure: one set-up, short phases.
  bool companion = false;
  std::string workdir;    ///< Scratch files (the serve-hot snapshot).
  SpanLog* spans = nullptr;
};

struct Outcome {
  bool correct = true;
  std::string error;  ///< First failed check, names the request.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics e2e;
  Metrics layer;
  /// Environment header fields that depend on the workload.
  uint32_t workers = 0;
  uint32_t outstanding = 0;
  uint32_t batch = 0;
  std::string notes;  ///< Extra header fields, as `"key": value, ...`.
};

Outcome RunServeUniform(const Context& ctx);
Outcome RunServeHot(const Context& ctx);
Outcome RunPaper(const Context& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
