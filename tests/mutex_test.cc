// Tests for the concurrency-contract layer: the lock-order verifier
// behind lsdb::Mutex, the CondVar held-stack bookkeeping, the query
// context guard's nesting discipline, and live CircuitBreaker
// reconfiguration.
//
// The LockRegistry tests drive the registry with synthetic ids (and, for
// one end-to-end case, real single-threaded lock sequences), so they
// exercise inversion detection without constructing an actual deadlock.
// They require LSDB_LOCK_DEBUG builds — which is every build type except
// Release — and are skipped otherwise.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lsdb/introspect/profiler.h"
#include "lsdb/service/cancel.h"
#include "lsdb/service/circuit_breaker.h"
#include "lsdb/util/counters.h"
#include "lsdb/util/mutex.h"
#include "lsdb/util/query_context.h"

// TSan ships its own lock-order-inversion detector, which (correctly)
// flags the tests that invert REAL mutexes on purpose. Those tests skip
// under TSan; the synthetic-id registry tests don't touch pthread
// mutexes, so they run everywhere.
#if defined(__SANITIZE_THREAD__)
#define LSDB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LSDB_TSAN_BUILD 1
#endif
#endif
#ifndef LSDB_TSAN_BUILD
#define LSDB_TSAN_BUILD 0
#endif

namespace lsdb {
namespace {

#if LSDB_LOCK_DEBUG

using lock_debug::LockRegistry;
using lock_debug::Report;
using lock_debug::ScopedRecordMode;

TEST(LockRegistryTest, TwoLockInversionDetected) {
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  const uint32_t a = reg.RegisterMutex("inv2.A");
  const uint32_t b = reg.RegisterMutex("inv2.B");

  // Establish the order A -> B.
  reg.NoteAcquiring(a, "inv2.A");
  reg.NoteAcquired(a, "inv2.A");
  reg.NoteAcquiring(b, "inv2.B");
  reg.NoteAcquired(b, "inv2.B");
  reg.NoteReleased(b);
  reg.NoteReleased(a);
  EXPECT_TRUE(reg.TakeReports().empty());

  // Acquire in the inverted order: B held, then A closes the cycle.
  reg.NoteAcquiring(b, "inv2.B");
  reg.NoteAcquired(b, "inv2.B");
  reg.NoteAcquiring(a, "inv2.A");
  reg.NoteAcquired(a, "inv2.A");
  reg.NoteReleased(a);
  reg.NoteReleased(b);

  std::vector<Report> reports = reg.TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].reentrant);
  EXPECT_NE(std::find(reports[0].ids.begin(), reports[0].ids.end(), a),
            reports[0].ids.end());
  EXPECT_NE(std::find(reports[0].ids.begin(), reports[0].ids.end(), b),
            reports[0].ids.end());
  EXPECT_NE(reports[0].text.find("inv2.A"), std::string::npos);
  EXPECT_NE(reports[0].text.find("inv2.B"), std::string::npos);
}

TEST(LockRegistryTest, ThreeLockCycleDetected) {
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  const uint32_t a = reg.RegisterMutex("inv3.A");
  const uint32_t b = reg.RegisterMutex("inv3.B");
  const uint32_t c = reg.RegisterMutex("inv3.C");

  auto pair = [&reg](uint32_t first, const char* fn, uint32_t second,
                     const char* sn) {
    reg.NoteAcquiring(first, fn);
    reg.NoteAcquired(first, fn);
    reg.NoteAcquiring(second, sn);
    reg.NoteAcquired(second, sn);
    reg.NoteReleased(second);
    reg.NoteReleased(first);
  };
  pair(a, "inv3.A", b, "inv3.B");  // A -> B
  pair(b, "inv3.B", c, "inv3.C");  // B -> C
  EXPECT_TRUE(reg.TakeReports().empty());
  pair(c, "inv3.C", a, "inv3.A");  // C -> A closes the 3-cycle

  std::vector<Report> reports = reg.TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].reentrant);
  EXPECT_GE(reports[0].ids.size(), 3u);
  EXPECT_NE(reports[0].text.find("inv3.A"), std::string::npos);
  EXPECT_NE(reports[0].text.find("inv3.B"), std::string::npos);
  EXPECT_NE(reports[0].text.find("inv3.C"), std::string::npos);
}

TEST(LockRegistryTest, ReentrantAcquisitionReported) {
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  const uint32_t a = reg.RegisterMutex("reent.A");

  EXPECT_TRUE(reg.NoteAcquiring(a, "reent.A"));
  reg.NoteAcquired(a, "reent.A");
  // Second acquisition of the same non-recursive mutex on this thread.
  EXPECT_FALSE(reg.NoteAcquiring(a, "reent.A"));
  reg.NoteReleased(a);

  std::vector<Report> reports = reg.TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].reentrant);
  ASSERT_EQ(reports[0].ids.size(), 1u);
  EXPECT_EQ(reports[0].ids[0], a);
}

TEST(LockRegistryTest, HierarchicalOrderIsNotAFalsePositive) {
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  const uint32_t hi = reg.RegisterMutex("hier.hi");
  const uint32_t mid = reg.RegisterMutex("hier.mid");
  const uint32_t lo = reg.RegisterMutex("hier.lo");

  // A strict hierarchy (hi -> mid -> lo), exercised repeatedly and with
  // skipping (hi -> lo), never reports.
  for (int round = 0; round < 8; ++round) {
    reg.NoteAcquiring(hi, "hier.hi");
    reg.NoteAcquired(hi, "hier.hi");
    reg.NoteAcquiring(mid, "hier.mid");
    reg.NoteAcquired(mid, "hier.mid");
    reg.NoteAcquiring(lo, "hier.lo");
    reg.NoteAcquired(lo, "hier.lo");
    reg.NoteReleased(lo);
    reg.NoteReleased(mid);
    reg.NoteReleased(hi);

    reg.NoteAcquiring(hi, "hier.hi");
    reg.NoteAcquired(hi, "hier.hi");
    reg.NoteAcquiring(lo, "hier.lo");
    reg.NoteAcquired(lo, "hier.lo");
    reg.NoteReleased(lo);
    reg.NoteReleased(hi);
  }
  EXPECT_TRUE(reg.TakeReports().empty());
}

TEST(LockRegistryTest, CycleReportedOnce) {
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  const uint32_t a = reg.RegisterMutex("once.A");
  const uint32_t b = reg.RegisterMutex("once.B");

  auto invert = [&reg, a, b]() {
    reg.NoteAcquiring(a, "once.A");
    reg.NoteAcquired(a, "once.A");
    reg.NoteAcquiring(b, "once.B");
    reg.NoteAcquired(b, "once.B");
    reg.NoteReleased(b);
    reg.NoteReleased(a);
    reg.NoteAcquiring(b, "once.B");
    reg.NoteAcquired(b, "once.B");
    reg.NoteAcquiring(a, "once.A");
    reg.NoteAcquired(a, "once.A");
    reg.NoteReleased(a);
    reg.NoteReleased(b);
  };
  invert();
  EXPECT_EQ(reg.TakeReports().size(), 1u);
  // The same inversion again is already known: no duplicate report.
  invert();
  EXPECT_TRUE(reg.TakeReports().empty());
}

TEST(LockRegistryTest, RealMutexInversionSingleThread) {
  // End-to-end: real lsdb::Mutex objects, a single thread, no deadlock —
  // the verifier still catches the ordering violation.
  if (LSDB_TSAN_BUILD) {
    GTEST_SKIP() << "deliberate real-mutex inversion trips TSan's own "
                    "lock-order detector";
  }
  ScopedRecordMode record;
  auto& reg = LockRegistry::Instance();
  Mutex a("real.A");
  Mutex b("real.B");

  a.Lock();
  b.Lock();
  b.Unlock();
  a.Unlock();
  EXPECT_TRUE(reg.TakeReports().empty());

  b.Lock();
  a.Lock();
  a.Unlock();
  b.Unlock();

  std::vector<Report> reports = reg.TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].text.find("real.A"), std::string::npos);
  EXPECT_NE(reports[0].text.find("real.B"), std::string::npos);
}

TEST(LockRegistryTest, CondVarWaitKeepsHeldStackBalanced) {
  Mutex mu("cvdepth.mu");
  CondVar cv;
  EXPECT_EQ(LockRegistry::HeldDepthForTest(), 0u);
  mu.Lock();
  EXPECT_EQ(LockRegistry::HeldDepthForTest(), 1u);
  // Timed wait with an always-false predicate: releases and reacquires
  // internally, times out, and must leave the held stack at depth 1.
  const bool ok = cv.WaitFor(mu, std::chrono::milliseconds(1),
                             []() { return false; });
  EXPECT_FALSE(ok);
  EXPECT_EQ(LockRegistry::HeldDepthForTest(), 1u);
  mu.Unlock();
  EXPECT_EQ(LockRegistry::HeldDepthForTest(), 0u);
}

TEST(LockRegistryTest, TryLockFeedsOrderGraph) {
  if (LSDB_TSAN_BUILD) {
    GTEST_SKIP() << "deliberate real-mutex inversion trips TSan's own "
                    "lock-order detector";
  }
  auto& reg = LockRegistry::Instance();
  ScopedRecordMode record;
  Mutex a("try.A");
  Mutex b("try.B");

  a.Lock();
  ASSERT_TRUE(b.TryLock());  // records try.A -> try.B
  b.Unlock();
  a.Unlock();
  EXPECT_TRUE(reg.TakeReports().empty());

  b.Lock();
  a.Lock();  // inverts against the try-lock edge
  a.Unlock();
  b.Unlock();
  EXPECT_EQ(reg.TakeReports().size(), 1u);
}

#endif  // LSDB_LOCK_DEBUG

// ScopedQueryContext saves its thread's previous context and restores it
// on destruction; nested scopes must restore the *outer* context, not an
// empty one. These pins back the lsdb-tls-redirect-pairing lint rule with
// runtime evidence.

/// One descent checkpoint, as an index runs it.
Status Checkpoint() {
  LSDB_RETURN_IF_CANCELLED();
  return Status::OK();
}

TEST(QueryContextTest, InnerContextReplacesOuterWholesaleAndRestoresIt) {
  MetricCounters fallback, outer_counters, inner_counters;
  introspect::QueryProfile outer_profile, inner_profile;
  CancelToken outer_token, inner_token;
  const auto expect_none = [&] {
    EXPECT_EQ(CounterSink(&fallback), &fallback);
    EXPECT_EQ(introspect::ThreadProfile(), nullptr);
    EXPECT_EQ(ThreadCancelToken(), nullptr);
  };
  const auto expect_outer = [&] {
    EXPECT_EQ(CounterSink(&fallback), &outer_counters);
    EXPECT_EQ(introspect::ThreadProfile(), &outer_profile);
    EXPECT_EQ(ThreadCancelToken(), &outer_token);
  };
  expect_none();
  // With no context installed the hooks are safe no-ops.
  LSDB_INTROSPECT(OnNode(0, true, 10, 5, 1));
  EXPECT_TRUE(Checkpoint().ok());
  {
    ScopedQueryContext outer({&outer_counters, &outer_profile, &outer_token});
    expect_outer();
    {
      ScopedQueryContext inner(
          {&inner_counters, &inner_profile, &inner_token});
      EXPECT_EQ(CounterSink(&fallback), &inner_counters);
      EXPECT_EQ(introspect::ThreadProfile(), &inner_profile);
      EXPECT_EQ(ThreadCancelToken(), &inner_token);
      LSDB_INTROSPECT(OnNode(0, false, 4, 2, 0));
    }
    expect_outer();
    {
      // A target the inner context leaves null is off inside it, even
      // though the outer context set it: profiling, checkpoints and the
      // counter redirect all fall back to their disabled path. The
      // service relies on this to honor a live introspection toggle.
      ScopedQueryContext off(QueryContext{});
      expect_none();
      LSDB_INTROSPECT(OnNode(0, false, 100, 100, 0));
      outer_token.Cancel();
      EXPECT_TRUE(Checkpoint().ok());
    }
    expect_outer();
    EXPECT_TRUE(Checkpoint().IsCancelled());
    LSDB_INTROSPECT(OnNode(1, true, 8, 3, 2));
  }
  expect_none();
  EXPECT_EQ(inner_profile.nodes_visited, 1u);
  EXPECT_EQ(inner_profile.entries_scanned, 4u);
  // The off window recorded nowhere.
  EXPECT_EQ(outer_profile.nodes_visited, 1u);
  EXPECT_EQ(outer_profile.entries_scanned, 8u);
  EXPECT_EQ(outer_profile.results, 2u);
}

TEST(QueryContextTest, NullCountersExposeTheStructureOwnedFallback) {
  // The paper harness's introspection re-run installs a profile and no
  // counters: increments must keep landing on the structure's own
  // counters, and a null fallback keeps dropping them.
  MetricCounters fallback, outer;
  introspect::QueryProfile profile;
  {
    ScopedQueryContext with_counters({.counters = &outer});
    EXPECT_EQ(CounterSink(&fallback), &outer);
    {
      ScopedQueryContext profile_only({.profile = &profile});
      EXPECT_EQ(introspect::ThreadProfile(), &profile);
      EXPECT_EQ(CounterSink(&fallback), &fallback);
      EXPECT_EQ(&CounterSink(fallback), &fallback);
      EXPECT_EQ(CounterSink(nullptr), nullptr);
    }
    // Unwinding the profile-only context restores the outer counters.
    EXPECT_EQ(CounterSink(&fallback), &outer);
    EXPECT_EQ(introspect::ThreadProfile(), nullptr);
  }
  EXPECT_EQ(CounterSink(&fallback), &fallback);
}

TEST(QueryContextTest, ContextIsInvisibleOnAnotherThread) {
  MetricCounters fallback, redirected;
  introspect::QueryProfile profile;
  CancelToken token;
  ScopedQueryContext scope({&redirected, &profile, &token});
  ASSERT_EQ(CounterSink(&fallback), &redirected);
  MetricCounters* seen_counters = &redirected;
  introspect::QueryProfile* seen_profile = &profile;
  CancelToken* seen_token = &token;
  std::thread other([&]() {
    seen_counters = CounterSink(&fallback);
    seen_profile = introspect::ThreadProfile();
    seen_token = ThreadCancelToken();
  });
  other.join();
  EXPECT_EQ(seen_counters, &fallback);
  EXPECT_EQ(seen_profile, nullptr);
  EXPECT_EQ(seen_token, nullptr);
}

// Each target also nests on its own: a context that sets only one of them
// restores the enclosing one on exit, and a null target re-exposes the
// disabled path inside it.

TEST(TlsRedirectGuardTest, CounterSinkNestingRestoresPrevious) {
  MetricCounters fallback;
  MetricCounters outer;
  MetricCounters inner;
  EXPECT_EQ(CounterSink(&fallback), &fallback);
  {
    ScopedQueryContext s1({.counters = &outer});
    EXPECT_EQ(CounterSink(&fallback), &outer);
    {
      ScopedQueryContext s2({.counters = &inner});
      EXPECT_EQ(CounterSink(&fallback), &inner);
    }
    // The inner scope must restore the outer redirect, not null.
    EXPECT_EQ(CounterSink(&fallback), &outer);
    {
      // A null redirect re-exposes the fallback...
      ScopedQueryContext s3({.counters = nullptr});
      EXPECT_EQ(CounterSink(&fallback), &fallback);
    }
    // ...and unwinding it still restores the outer redirect.
    EXPECT_EQ(CounterSink(&fallback), &outer);
  }
  EXPECT_EQ(CounterSink(&fallback), &fallback);
}

TEST(TlsRedirectGuardTest, QueryProfileNestingRestoresPrevious) {
  introspect::QueryProfile outer;
  introspect::QueryProfile inner;
  EXPECT_EQ(introspect::ThreadProfile(), nullptr);
  {
    ScopedQueryContext s1({.profile = &outer});
    EXPECT_EQ(introspect::ThreadProfile(), &outer);
    {
      ScopedQueryContext s2({.profile = &inner});
      EXPECT_EQ(introspect::ThreadProfile(), &inner);
    }
    EXPECT_EQ(introspect::ThreadProfile(), &outer);
  }
  EXPECT_EQ(introspect::ThreadProfile(), nullptr);
}

TEST(TlsRedirectGuardTest, CancelScopeNestingRestoresPrevious) {
  CancelToken outer;
  CancelToken inner;
  EXPECT_EQ(ThreadCancelToken(), nullptr);
  {
    ScopedQueryContext s1({.cancel = &outer});
    EXPECT_EQ(ThreadCancelToken(), &outer);
    {
      ScopedQueryContext s2({.cancel = &inner});
      EXPECT_EQ(ThreadCancelToken(), &inner);
    }
    EXPECT_EQ(ThreadCancelToken(), &outer);
  }
  EXPECT_EQ(ThreadCancelToken(), nullptr);
}

// Pins the fix for the CircuitBreaker reconfiguration race: options()
// and set_options() now go through per-knob atomics, so a live
// reconfigure while workers classify outcomes can neither tear nor trip
// TSan (this test runs under the full-suite TSan tier).

TEST(BreakerReconfigTest, LiveReconfigureWhileServing) {
  CircuitBreaker breaker(CircuitBreaker::Options{.failure_threshold = 3,
                                                 .probe_interval = 4});
  std::atomic<bool> stop{false};
  std::thread reconfig([&]() {
    uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      CircuitBreaker::Options o;
      o.failure_threshold = 1 + (i % 7);
      o.probe_interval = 1 + (i % 5);
      breaker.set_options(o);
      ++i;
    }
  });
  for (int i = 0; i < 20000; ++i) {
    (void)breaker.AllowRequest();
    if (i % 3 == 0) {
      (void)breaker.RecordFailure();
    } else {
      (void)breaker.RecordSuccess();
    }
    const CircuitBreaker::Options seen = breaker.options();
    ASSERT_GE(seen.probe_interval, 1u);
    ASSERT_LE(seen.failure_threshold, 7u);
  }
  stop.store(true, std::memory_order_relaxed);
  reconfig.join();
  // Leave the breaker closed and deterministic for good measure.
  breaker.RecordSuccess();
  EXPECT_FALSE(breaker.open());
}

TEST(BreakerReconfigTest, ProbeIntervalClampedToOne) {
  CircuitBreaker breaker;
  CircuitBreaker::Options o;
  o.failure_threshold = 1;
  o.probe_interval = 0;  // would divide by zero in AllowRequest
  breaker.set_options(o);
  EXPECT_GE(breaker.options().probe_interval, 1u);
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.open());
  // Division-by-zero would crash here without the clamp.
  (void)breaker.AllowRequest();
  breaker.RecordSuccess();
  EXPECT_FALSE(breaker.open());
}

}  // namespace
}  // namespace lsdb
