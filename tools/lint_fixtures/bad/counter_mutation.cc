// lsdb-lint-pretend-path: src/lsdb/rtree/rstar_tree.cc
// Golden-bad fixture: MetricCounters fields mutated without CounterSink,
// which would make the paper metrics invisible to a query's QueryContext.
// Not compiled — scanned by lsdb_lint in the lint_fixture_* ctests.

#include "lsdb/util/counters.h"

namespace lsdb {

void Demo(MetricCounters* metrics) {
  ++metrics->bbox_comps;        // bypasses the thread-local sink
  metrics->disk_reads += 2;     // same, compound assignment
  metrics->segment_comps--;     // decrements bypass the sink as well
}

}  // namespace lsdb
