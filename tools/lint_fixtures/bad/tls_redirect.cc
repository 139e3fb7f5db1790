// lsdb-lint-pretend-path: src/lsdb/service/query_service.cc
// Golden-bad fixture: the query context guard held in non-scoped storage.
// The guard saves the thread_local query context in its constructor and
// restores it in its destructor; anything that decouples destruction from
// block scope (heap, static, containers) corrupts the LIFO save/restore
// chain for every later frame on the thread.
// Not compiled — scanned by lsdb_lint in the lint_fixture_* ctests.

#include <memory>
#include <vector>

#include "lsdb/util/query_context.h"

namespace lsdb {

struct BadHolder {
  // Heap storage: destructor order is whatever the owner decides.
  std::unique_ptr<ScopedQueryContext> scope =
      std::make_unique<ScopedQueryContext>(QueryContext{});
  ScopedQueryContext* raw = new ScopedQueryContext(QueryContext{});
};

void BadStatic() {
  // Static storage: restored at process exit, on some other thread.
  static ScopedQueryContext scope(QueryContext{});
  thread_local ScopedQueryContext per_thread(QueryContext{});
  std::vector<ScopedQueryContext> scopes;
}

}  // namespace lsdb
