#!/usr/bin/env sh
# Coverage lane: build the tree with gcov instrumentation, run the test
# suite, and produce an lcov-style per-directory line-coverage summary for
# src/, gated on the committed floors in tools/coverage_floor.txt.
#
# Usage: tools/run_coverage.sh [build-dir]
# Defaults to build-coverage/ (a dedicated tree — do not reuse the normal
# build: --coverage objects poison every later non-coverage link).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-$repo_root/build-coverage}"

command -v gcov >/dev/null 2>&1 || {
  echo "run_coverage: gcov not found on PATH" >&2
  exit 2
}

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug -DECHOIMAGE_COVERAGE=ON
cmake --build "$build_dir" -j "$(nproc)"

# Stale counters from a previous run would inflate the numbers.
find "$build_dir" -name '*.gcda' -delete

# The lint label is static analysis — it executes no instrumented code, so
# it only costs time here. A failing test must not hide the report: record
# ctest's status, always report, then fail if either step failed.
test_status=0
(cd "$build_dir" && ctest --output-on-failure -LE lint) || test_status=$?

report_status=0
python3 "$repo_root/tools/coverage_report.py" \
  --build-dir "$build_dir" \
  --root "$repo_root" \
  --floor "$repo_root/tools/coverage_floor.txt" || report_status=$?

if [ "$test_status" -ne 0 ]; then
  echo "run_coverage: ctest failed (status $test_status)" >&2
fi
if [ "$test_status" -ne 0 ] || [ "$report_status" -ne 0 ]; then
  exit 1
fi
