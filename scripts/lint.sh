#!/usr/bin/env bash
# Static-analysis gate. Four stages, fail-fast:
#
#   1. clang-tidy (.clang-tidy profile, warnings as errors) over every TU
#      in src/, bench/, tests/, examples/ — skipped with a notice when the
#      toolchain has no clang-tidy; the domain linter below still runs.
#   2. tools/lsdb_lint — the always-on domain rules (ignored Status, page
#      casts, assert-on-disk, counter mutation, determinism, raw mutexes,
#      query-context guard pairing, TSA escape justification). Builds
#      with the standard library only, so this stage has no optional deps.
#   3. clang++ -fsyntax-only -Wthread-safety -Werror over every library TU
#      — the compile-time concurrency contract check (GUARDED_BY /
#      REQUIRES / EXCLUDES annotations from util/thread_annotations.h).
#      Skipped with a notice when the toolchain has no clang++; the
#      annotations compile to nothing elsewhere, so this stage is the
#      only one that can see them.
#   4. clang-format --dry-run — skipped with a notice when absent.
#
# Exit status: nonzero on the first stage that finds a violation.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

# compile_commands.json for clang-tidy; lsdb_lint needs only the binary.
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
cmake --build build -j"${JOBS}" --target lsdb_lint

mapfile -t LINT_FILES < <(git ls-files \
    'src/*.cc' 'src/*.h' 'bench/*.cc' 'bench/*.h' \
    'tests/*.cc' 'tests/*.h' 'examples/*.cc' 'tools/*.cc' \
    ':(exclude)tools/lint_fixtures/*')

if command -v clang-tidy > /dev/null 2>&1; then
  mapfile -t TIDY_TUS < <(git ls-files \
      'src/*.cc' 'bench/*.cc' 'tests/*.cc' 'examples/*.cc')
  clang-tidy -p build --quiet "${TIDY_TUS[@]}"
  echo "lint: clang-tidy clean"
else
  echo "lint: clang-tidy not installed; skipped (lsdb_lint still enforced)"
fi

./build/tools/lsdb_lint "${LINT_FILES[@]}"
echo "lint: lsdb_lint clean"

if command -v clang++ > /dev/null 2>&1; then
  # Thread-safety analysis is a Clang-only pass; -fsyntax-only keeps it
  # cheap (no codegen) and independent of the GCC build tree. The lock
  # debug registry is irrelevant to the static analysis, so pin it off
  # for a stable TU surface.
  mapfile -t TSA_TUS < <(git ls-files 'src/*.cc')
  clang++ -fsyntax-only -std=c++20 -Isrc -DLSDB_LOCK_DEBUG=0 \
      -Wthread-safety -Wthread-safety-beta -Werror "${TSA_TUS[@]}"
  echo "lint: clang thread-safety clean"
else
  echo "lint: clang++ not installed; thread-safety analysis skipped" \
       "(annotations are no-ops on this toolchain)"
fi

if command -v clang-format > /dev/null 2>&1; then
  clang-format --dry-run -Werror "${LINT_FILES[@]}"
  echo "lint: clang-format clean"
else
  echo "lint: clang-format not installed; skipped"
fi

echo "lint: ok"
