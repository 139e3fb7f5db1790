// Request/response types of the concurrent query service.
//
// A batch is a vector of tagged QueryRequests covering the paper's query
// repertoire (point, window, nearest, incident-segments); the service
// executes it across a worker pool and returns one QueryResponse per
// request plus the merged metric counters. Responses are deterministic: a
// batch executed on N threads is element-for-element identical to the same
// batch executed sequentially, because every query runs read-only against a
// frozen index and writes only its own response slot.

#ifndef LSDB_SERVICE_REQUEST_H_
#define LSDB_SERVICE_REQUEST_H_

#include <vector>

#include "lsdb/geom/point.h"
#include "lsdb/geom/rect.h"
#include "lsdb/index/spatial_index.h"
#include "lsdb/util/counters.h"
#include "lsdb/util/status.h"

namespace lsdb {

class CancelToken;  // full definition in lsdb/service/cancel.h

/// Which of the study's structures serves a batch.
enum class ServedIndex { kRStar, kRPlus, kPmr };
const char* ServedIndexName(ServedIndex s);
inline constexpr ServedIndex kAllServedIndexes[] = {
    ServedIndex::kRStar, ServedIndex::kRPlus, ServedIndex::kPmr};

enum class QueryType : uint8_t {
  kPoint,     ///< All segments whose geometry contains `point`.
  kWindow,    ///< All segments intersecting the closed `window`.
  kNearest,   ///< Nearest segment to `point` (Euclidean).
  kIncident,  ///< Segments with `point` as an endpoint (paper query 1).
};
/// Stable lowercase name for metric labels and trace spans ("point", ...).
const char* QueryTypeName(QueryType t);
inline constexpr QueryType kAllQueryTypes[] = {
    QueryType::kPoint, QueryType::kWindow, QueryType::kNearest,
    QueryType::kIncident};

struct QueryRequest {
  QueryType type = QueryType::kPoint;
  Point point{0, 0};  ///< kPoint / kNearest / kIncident.
  Rect window;        ///< kWindow.

  /// Overload protection (both optional; the defaults keep the layer
  /// inert and the descent checkpoints on their one-load untaken-branch
  /// path, so paper metrics are unaffected):
  ///  * deadline_ns — per-query execution budget. The service arms a
  ///    monotonic deadline (submit time + budget) and the query unwinds
  ///    with Status::DeadlineExceeded at its next descent checkpoint
  ///    once it expires. 0 = no deadline (an admitted request may still
  ///    inherit AdmissionOptions::default_deadline_ns).
  ///  * cancel — caller-owned token (must outlive the response). Calling
  ///    Cancel() on it unwinds the query with Status::Cancelled.
  uint64_t deadline_ns = 0;
  const CancelToken* cancel = nullptr;

  static QueryRequest PointQ(Point p) {
    return QueryRequest{QueryType::kPoint, p, Rect{}};
  }
  static QueryRequest WindowQ(const Rect& w) {
    return QueryRequest{QueryType::kWindow, Point{0, 0}, w};
  }
  static QueryRequest NearestQ(Point p) {
    return QueryRequest{QueryType::kNearest, p, Rect{}};
  }
  static QueryRequest IncidentQ(Point p) {
    return QueryRequest{QueryType::kIncident, p, Rect{}};
  }
};

struct QueryResponse {
  Status status;
  std::vector<SegmentHit> hits;  ///< kPoint / kWindow / kIncident.
  NearestResult nearest;         ///< kNearest (meaningful when status ok).
  /// Observability only: execution wall time from ExecuteBatch,
  /// submit-to-completion time from SubmitQuery, 0 from the sequential
  /// ground-truth path.
  uint64_t latency_ns = 0;
};

/// Exact equality of two responses, including result order (used to check
/// parallel batches against sequential ground truth). Observability fields
/// (latency_ns) are deliberately excluded.
bool SameResponse(const QueryResponse& a, const QueryResponse& b);

struct BatchResult {
  std::vector<QueryResponse> responses;    ///< 1:1 with the batch.
  MetricCounters metrics;                  ///< Merged across all workers.
  std::vector<MetricCounters> per_worker;  ///< One entry per worker thread.
};

/// Element-wise SameResponse over two batch results.
bool SameResponses(const BatchResult& a, const BatchResult& b);

}  // namespace lsdb

#endif  // LSDB_SERVICE_REQUEST_H_
