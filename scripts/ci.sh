#!/usr/bin/env bash
# CI entry point.
#
# Tier 0: scripts/lint.sh — clang-tidy (when installed), the lsdb_lint
#         domain rules, and clang-format --dry-run (when installed).
#         Fails fast: nothing else runs on a lint violation.
# Tier 1: configure with -DLSDB_WERROR=ON (warnings are errors, which
#         also hardens the [[nodiscard]] Status discipline into a build
#         break), build, and run the full test suite.
# Tier 2: rebuild with ThreadSanitizer (-DLSDB_SAN=thread) and re-run the
#         ENTIRE ctest suite (the lock-order verifier is armed in this
#         build too, so TSan races and acquisition-order inversions are
#         caught in the same pass), which must report zero races. The
#         `concurrency` ctest label marks the suites that exercise
#         cross-thread behavior for local selection (ctest -L
#         concurrency); CI runs everything.
# Tier 2b: rebuild with AddressSanitizer (-DLSDB_SAN=address) and run the
#         `needs-disk` ctest label — checksums, corruption round trips,
#         retries, breaker trips, the snapshot round-trip and
#         corrupt-snapshot suites (hostile *.lsnap files, snapshot
#         serving under the fault injector), the concurrent
#         robustness suite, the lock-free zero-copy suites over a mapped
#         snapshot and over a built service's lent in-memory pages
#         (SnapshotConcurrencyTest, BuiltServiceConcurrencyTest), the
#         frozen-pool and frozen-index suites (FrozenPoolTest,
#         FrozenPoolLruTest, FrozenIndexReadTest: a read through a freed
#         MemPageFile page is something only ASan reports), the
#         cancelled-retry suite on both pool paths
#         (PoolRetryCancelTest), and the B-tree and PMR suites, whose
#         reads index raw page bytes in place (BTreeCorruptionTest feeds
#         them hostile pages with valid checksums) — which must report
#         zero memory errors even while pages are corrupted, reads fail,
#         and workers race on first touches. Test selection lives in
#         tests/CMakeLists.txt as labels, not in hard-coded filter lists
#         here.
# Tier 2c: rebuild with UndefinedBehaviorSanitizer (-DLSDB_SAN=undefined,
#         which also enables the float checks GCC leaves out of the
#         default group and compiles every hit as non-recoverable) and
#         re-run the ENTIRE ctest suite. halt_on_error turns any UB into
#         a test failure.
# Tier 2d: rebuild with -DLSDB_SIMD=off (every kernel call pinned to the
#         scalar oracle) and run the SIMD differential and paper-
#         equivalence suites — the same tests the default (native-dispatch)
#         build already ran in Tier 1, so the suites execute with
#         vectorization both on and off.
# Tier 3: smoke-run the machine-readable benches — service observability
#         (BENCH_service.json), bulk build (BENCH_build.json, whose exit
#         status already enforces bulk-vs-incremental equivalence),
#         snapshot cold-start (BENCH_snapshot.json, >=10x speedup
#         enforced), query-path introspection (BENCH_introspect.json),
#         and the overload sweep (BENCH_overload.json, whose exit status
#         already enforces the bounded-p99 and accounting invariants at
#         3x saturation).
# Tier 4: scripts/check_bench.py validates every generated BENCH_*.json
#         against its schema and gates tracked throughput/latency metrics
#         (service qps/p99, snapshot qps) against the committed baselines
#         in the repo root: a >25% regression fails the build.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

./scripts/lint.sh

cmake -B build -S . -DLSDB_WERROR=ON
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure -j"${JOBS}"

cmake -B build-tsan -S . -DLSDB_SAN=thread
cmake --build build-tsan -j"${JOBS}"
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure -j"${JOBS}"

cmake -B build-asan -S . -DLSDB_SAN=address
cmake --build build-asan -j"${JOBS}" --target lsdb_tests
ASAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-asan --output-on-failure -j"${JOBS}" -L needs-disk

cmake -B build-scalar -S . -DLSDB_SIMD=off
cmake --build build-scalar -j"${JOBS}" --target lsdb_tests
./build-scalar/tests/lsdb_tests \
  --gtest_filter='SimdTest.*:Equivalence*:ExperimentTest.*'

cmake -B build-ubsan -S . -DLSDB_SAN=undefined
cmake --build build-ubsan -j"${JOBS}"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-ubsan --output-on-failure -j"${JOBS}"

./build/bench/bench_service_observability Charles 2000 build/BENCH_service.json 4
./build/bench/bench_bulk_build --smoke Charles build/BENCH_build.json
./build/bench/bench_snapshot_start --smoke Charles build/BENCH_snapshot.json 4
./build/bench/bench_introspect Charles 500 build/BENCH_introspect.json 4
./build/bench/bench_overload --smoke Charles build/BENCH_overload.json 2

python3 scripts/check_bench.py --dir build --baseline .

echo "ci: all checks passed"
