#!/usr/bin/env bash
# Regenerates every reproduced table and figure plus the test evidence,
# and refreshes the checked-in reports (bench/suite_report.json,
# bench/accuracy_report.json, bench/opt_report.json and
# bench/tune_report.json). They must come from a Release build: wall
# times from an unoptimized build are misleading, so this script
# configures Release and fails loudly if the build directory disagrees.
# Speed is not baselined here: scripts/perf_ab.py compares a change
# with its parent on the same machine, and its records go to
# bench/history.jsonl.
# Usage: scripts/regenerate.sh [build-dir]
set -euo pipefail

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release

BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt")"
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "regenerate.sh: FATAL: '$BUILD' is configured as" \
    "'${BUILD_TYPE:-<unset>}', not Release." >&2
  echo "regenerate.sh: baselines must be regenerated from a Release" \
    "build; delete '$BUILD' (or pass a fresh build dir) and re-run." >&2
  exit 1
fi

cmake --build "$BUILD"

ctest --test-dir "$BUILD" -j"$(nproc)" 2>&1 | tee test_output.txt

for b in "$BUILD"/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "===== $(basename "$b") ====="
  "$b"
  echo
done 2>&1 | tee bench_output.txt

# Refresh the checked-in suite run report (per-program compile time,
# per-input wall time and resource usage; its step counts are held
# exact by Baselines.SuiteStepCountsMatchTheCheckedInReport), the
# accuracy baseline (per-entity divergence attribution; see
# docs/OBSERVABILITY.md) and the optimizer baseline (static vs profile
# vs oracle layout / inlining outcomes; see docs/OPTIMIZATION.md). The
# accuracy and optimizer documents have no wall-clock fields, so they
# are diff-clean on any machine unless estimates or optimizer decisions
# actually changed; CI byte-compares fresh copies against them.
"$BUILD"/tools/sestc --suite \
  --report bench/suite_report.json \
  --accuracy-report bench/accuracy_report.json \
  --opt-report bench/opt_report.json

# Refresh the autotuner baseline (static- vs profile-oracle search over
# the pass-pipeline configuration space; see docs/TUNING.md). Also
# byte-deterministic and byte-compared in CI.
"$BUILD"/tools/sestune --report bench/tune_report.json
