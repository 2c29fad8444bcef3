#!/usr/bin/env bash
# Regenerates every reproduced table and figure plus the test evidence,
# and refreshes the checked-in baselines (bench/suite_report.json,
# bench/accuracy_report.json, bench/opt_report.json,
# bench/tune_report.json and the bench JSON files below). Baselines
# must come from a Release build:
# wall times from an unoptimized build are misleading, and mixing build
# types makes the perf baseline incomparable — so this script configures
# Release and fails loudly if the build directory disagrees.
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
# per-input wall time and resource usage) — the trajectory baseline —
# the accuracy baseline (per-entity divergence attribution; see
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

# Refresh the pipeline stage latency baseline (per-stage p50/p90/p99;
# advisory guard in scripts/check_perf.py). Wall-clock, so expect the
# numbers to move between machines — the guard has 3x slack.
"$BUILD"/bench/bench_pipeline_latency --json bench/pipeline_latency.json

# Refresh the service throughput baseline (cold vs warm over the
# million-request zipfian mix; see docs/SERVICE.md). The warm-over-cold
# speedup floor in scripts/check_perf.py is machine-independent; the
# absolute req/s numbers are wall-clock.
"$BUILD"/bench/bench_service --json bench/service_throughput.json

# Record the refreshed headline numbers (service rps, solver speedup,
# stage p99s) in the bench history, with deltas vs the previous entry
# (see scripts/bench_history.py; history is bench/history.jsonl).
python3 "$ROOT"/scripts/bench_history.py
