// Per-query context: the state a query's descent reaches from deep inside
// the indexes, buffer pools and segment table — the counters its paper
// metrics land in (util/counters.h), the profile it records
// (introspect/profiler.h) and the token its checkpoints poll
// (service/cancel.h) — held in one thread-local slot rather than on the
// shared structures, and installed for the query by one block-scoped
// ScopedQueryContext.
//
// Every target is nullable. A null `counters` leaves increments on the
// structure-owned counters (the paper harness's accounting); a null
// `profile` or `cancel` keeps those hooks on their disabled path. With no
// context installed, each hook is one thread-local load and an untaken
// branch.

#ifndef LSDB_UTIL_QUERY_CONTEXT_H_
#define LSDB_UTIL_QUERY_CONTEXT_H_

namespace lsdb {

struct MetricCounters;  // util/counters.h
class CancelToken;      // service/cancel.h
namespace introspect {
struct QueryProfile;  // introspect/profiler.h
}  // namespace introspect

/// What the calling thread's query records into and polls. The installer
/// owns the pointees; they must outlive its ScopedQueryContext.
struct QueryContext {
  MetricCounters* counters = nullptr;           ///< Null: structure-owned.
  introspect::QueryProfile* profile = nullptr;  ///< Null: profiling off.
  CancelToken* cancel = nullptr;                ///< Null: no checkpoints.
};

namespace internal {
/// The calling thread's context (all-null when none). Written only by
/// ScopedQueryContext; read through CounterSink(), ThreadProfile() and
/// ThreadCancelToken().
inline thread_local QueryContext tls_query_context;
}  // namespace internal

/// RAII install: while alive, the constructing thread's context is `ctx`,
/// wholesale (a target `ctx` leaves null is off even if an enclosing
/// context set it). Scopes nest, restoring the enclosing context on exit,
/// and must be destroyed on the thread that created them.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(const QueryContext& ctx)
      : prev_(internal::tls_query_context) {
    internal::tls_query_context = ctx;
  }
  ~ScopedQueryContext() { internal::tls_query_context = prev_; }

  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext prev_;
};

}  // namespace lsdb

#endif  // LSDB_UTIL_QUERY_CONTEXT_H_
