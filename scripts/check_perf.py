#!/usr/bin/env python3
"""Compare fresh performance runs against the checked-in baselines.

Five checks, all with deliberately generous machine-variance tolerance:

1. Suite wall times: runs ``sestc --suite --report`` and compares
   per-program wall times with ``bench/suite_report.json`` (flag only at
   3x slower); step counts are deterministic and must match exactly when
   both reports used the same engine.

2. Solver / pipeline timings: runs ``bench_analysis_time`` on the
   solver-scaling and parallel-pipeline benchmarks and compares
   per-benchmark real time with ``bench/analysis_time.json``. Also
   enforces the structural invariant that the sparse SCC solver beats
   the dense oracle by at least 5x at 1000 blocks — that ratio is
   machine-independent, so it is checked at full strength.

3. Pipeline stage latency: runs ``bench_pipeline_latency`` and compares
   per-stage p90 latency with ``bench/pipeline_latency.json`` (flag only
   at ``--tolerance`` times slower — advisory, wall-clock dependent).

4. Service throughput: runs ``bench_service`` (the million-request
   zipfian mix against the sestd service core) and enforces the
   machine-independent invariant that warm (memoized) throughput beats
   cold (cache-disabled) throughput by at least 5x; warm requests/s
   against ``bench/service_throughput.json`` is advisory wall-clock.

5. Execution tiers: runs ``bench_interp --tiers-json`` (the three-tier
   suite comparison) and enforces the machine-independent invariant
   that the native tier beats the bytecode VM by at least 3x across the
   suite — the ratio both tiers measure on the same machine in the same
   process; absolute native wall time against
   ``bench/interp_tiers.json`` is advisory. When the host has no C
   compiler the native tier is a capability skip, not a failure.

When anything fails, the log ends with one line per failed gate naming
the gate with its baseline-vs-current numbers, so the verdict needs no
scrolling: ``check_perf: FAILED <gate>: baseline X vs current Y (...)``.

Exit status: 0 = within tolerance, 1 = regression flagged, 2 = could not
run. Intended as a non-blocking CI signal (continue-on-error).

Usage: scripts/check_perf.py [--build BUILD_DIR] [--baseline FILE]
                             [--bench-baseline FILE] [--tolerance RATIO]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every flagged floor/tolerance lands here as one self-contained line
# ("<gate>: baseline X vs current Y (bound Z)"), so the tail of the log
# names exactly which gates failed with the numbers that failed them —
# no scrolling back through per-program tables.
FAILED_GATES = []


def flag_gate(gate, baseline, current, bound):
    """Record one failed gate as a single baseline-vs-current line."""
    FAILED_GATES.append(
        f"{gate}: baseline {baseline} vs current {current} ({bound})"
    )


def load_programs(report):
    return {p["name"]: p for p in report.get("programs", [])}


def total_wall_ms(program):
    return sum(r.get("wall_ms", 0.0) for r in program.get("runs", []))


BENCH_FILTER = "solver|pipeline"
MIN_SPARSE_SPEEDUP = 5.0


def bench_times(report):
    """name -> real_time (ns) for a google-benchmark JSON document."""
    times = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        times[b["name"]] = float(b.get("real_time", 0.0))
    return times


def check_bench(build, baseline_path, tolerance):
    """Solver / pipeline timing check. Returns 0/1/2 like main."""
    bench = os.path.join(build, "bench", "bench_analysis_time")
    if not os.path.exists(bench):
        print(f"check_perf: {bench} not built", file=sys.stderr)
        return 2
    try:
        with open(baseline_path) as f:
            baseline = bench_times(json.load(f))
    except OSError as e:
        print(f"check_perf: cannot read bench baseline: {e}", file=sys.stderr)
        return 2

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        fresh_path = tmp.name
    try:
        subprocess.run(
            [
                bench,
                f"--benchmark_filter={BENCH_FILTER}",
                f"--benchmark_out={fresh_path}",
                "--benchmark_out_format=json",
            ],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(fresh_path) as f:
            fresh = bench_times(json.load(f))
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        print(f"check_perf: bench run failed: {e}", file=sys.stderr)
        return 2
    finally:
        os.unlink(fresh_path)

    failed = False
    print(f"\n{'benchmark':<28} {'base ms':>9} {'fresh ms':>9} {'ratio':>6}")
    for name, base_ns in sorted(baseline.items()):
        fresh_ns = fresh.get(name)
        if fresh_ns is None:
            print(f"{name:<28} missing from fresh run")
            failed = True
            continue
        ratio = fresh_ns / base_ns if base_ns > 0 else float("inf")
        flag = ""
        if ratio > tolerance:
            flag = f"  <-- slower than {tolerance:.1f}x baseline"
            failed = True
            flag_gate(
                f"bench {name}",
                f"{base_ns / 1e6:.3f} ms",
                f"{fresh_ns / 1e6:.3f} ms",
                f"tolerance {tolerance:.1f}x",
            )
        print(
            f"{name:<28} {base_ns / 1e6:>9.3f} {fresh_ns / 1e6:>9.3f}"
            f" {ratio:>6.2f}{flag}"
        )

    # Machine-independent invariant: sparse must stay well ahead of the
    # dense oracle at 1000 blocks.
    sparse = fresh.get("solver/sparse/1000")
    dense = fresh.get("solver/dense/1000")
    if sparse and dense:
        speedup = dense / sparse
        ok = speedup >= MIN_SPARSE_SPEEDUP
        print(
            f"sparse-vs-dense speedup at 1000 blocks: {speedup:.1f}x"
            + ("" if ok else f"  <-- below {MIN_SPARSE_SPEEDUP:.0f}x floor")
        )
        if not ok:
            flag_gate(
                "solver sparse-vs-dense speedup",
                f"{MIN_SPARSE_SPEEDUP:.0f}x floor",
                f"{speedup:.1f}x",
                "machine-independent floor",
            )
        failed = failed or not ok
    else:
        print("check_perf: solver benchmarks missing from fresh run")
        failed = True

    return 1 if failed else 0


def check_latency(build, baseline_path, tolerance):
    """Per-stage pipeline latency percentile check. Returns 0/1/2.

    Percentiles are wall-clock, so this is the same advisory contract as
    the suite wall-time check: flag only when a stage's p90 exceeds the
    baseline by ``tolerance``x.
    """
    bench = os.path.join(build, "bench", "bench_pipeline_latency")
    if not os.path.exists(bench):
        print(f"check_perf: {bench} not built", file=sys.stderr)
        return 2
    try:
        with open(baseline_path) as f:
            baseline = json.load(f).get("stages", {})
    except OSError as e:
        print(f"check_perf: cannot read latency baseline: {e}",
              file=sys.stderr)
        return 2

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        fresh_path = tmp.name
    try:
        subprocess.run(
            [bench, "--json", fresh_path],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(fresh_path) as f:
            fresh = json.load(f).get("stages", {})
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        print(f"check_perf: latency bench run failed: {e}", file=sys.stderr)
        return 2
    finally:
        os.unlink(fresh_path)

    failed = False
    print(f"\n{'stage':<12} {'base p90':>9} {'fresh p90':>9} {'ratio':>6}")
    for name, base in sorted(baseline.items()):
        freshs = fresh.get(name)
        if freshs is None:
            print(f"{name:<12} missing from fresh run")
            failed = True
            continue
        base_p90 = float(base.get("p90_us", 0.0))
        fresh_p90 = float(freshs.get("p90_us", 0.0))
        ratio = fresh_p90 / base_p90 if base_p90 > 0 else float("inf")
        flag = ""
        if ratio > tolerance:
            flag = f"  <-- slower than {tolerance:.1f}x baseline"
            failed = True
            flag_gate(
                f"latency {name} p90",
                f"{base_p90:.1f} us",
                f"{fresh_p90:.1f} us",
                f"tolerance {tolerance:.1f}x",
            )
        print(
            f"{name:<12} {base_p90:>9.1f} {fresh_p90:>9.1f} {ratio:>6.2f}{flag}"
        )
    return 1 if failed else 0


MIN_SERVICE_WARM_SPEEDUP = 5.0


def check_service(build, baseline_path, tolerance):
    """Service memoization throughput check. Returns 0/1/2 like main.

    The warm-over-cold speedup ratio is machine-independent (both
    phases run on the same machine in the same process), so the 5x
    floor is checked at full strength; absolute warm throughput is
    wall-clock and compared advisorily against the baseline.
    """
    bench = os.path.join(build, "bench", "bench_service")
    if not os.path.exists(bench):
        print(f"check_perf: {bench} not built", file=sys.stderr)
        return 2
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except OSError as e:
        print(f"check_perf: cannot read service baseline: {e}",
              file=sys.stderr)
        return 2

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        fresh_path = tmp.name
    try:
        subprocess.run(
            [bench, "--json", fresh_path],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(fresh_path) as f:
            fresh = json.load(f)
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        print(f"check_perf: service bench run failed: {e}", file=sys.stderr)
        return 2
    finally:
        os.unlink(fresh_path)

    failed = False

    speedup = float(fresh.get("warm_speedup", 0.0))
    flag = ""
    if speedup < MIN_SERVICE_WARM_SPEEDUP:
        flag = f"  <-- below {MIN_SERVICE_WARM_SPEEDUP:.0f}x floor"
        failed = True
        flag_gate(
            "service warm-over-cold speedup",
            f"{MIN_SERVICE_WARM_SPEEDUP:.0f}x floor",
            f"{speedup:.1f}x",
            "machine-independent floor",
        )
    print(f"\nservice: warm-over-cold speedup {speedup:.1f}x{flag}")

    bad = int(fresh.get("cold", {}).get("bad_responses", 0)) + int(
        fresh.get("warm", {}).get("bad_responses", 0)
    )
    if bad:
        print(f"service: {bad} ok:false responses in the mix  <-- FAILED")
        failed = True
        flag_gate("service ok:false responses", "0", str(bad),
                  "deterministic invariant")

    base_rps = float(baseline.get("warm", {}).get("rps", 0.0))
    fresh_rps = float(fresh.get("warm", {}).get("rps", 0.0))
    ratio = base_rps / fresh_rps if fresh_rps > 0 else float("inf")
    flag = ""
    if ratio > tolerance:
        flag = f"  <-- slower than {tolerance:.1f}x baseline"
        failed = True
        flag_gate(
            "service warm throughput",
            f"{base_rps:,.0f} req/s",
            f"{fresh_rps:,.0f} req/s",
            f"tolerance {tolerance:.1f}x",
        )
    print(
        f"service: warm throughput {fresh_rps:,.0f} req/s"
        f" (baseline {base_rps:,.0f}){flag}"
    )
    return 1 if failed else 0


MIN_NATIVE_OVER_BYTECODE = 3.0


def check_tiers(build, baseline_path, tolerance):
    """Three-tier execution comparison check. Returns 0/1/2 like main.

    The bytecode-over-native speedup is machine-independent (both tiers
    run the same steps on the same machine in the same process), so the
    3x floor is checked at full strength; absolute suite native wall
    time is advisory against the checked-in baseline. A host with no C
    compiler skips the native checks cleanly (the report says why).
    """
    bench = os.path.join(build, "bench", "bench_interp")
    if not os.path.exists(bench):
        print(f"check_perf: {bench} not built", file=sys.stderr)
        return 2

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        fresh_path = tmp.name
    try:
        subprocess.run(
            [bench, "--tiers-json", fresh_path],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(fresh_path) as f:
            fresh = json.load(f)
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        print(f"check_perf: tier bench run failed: {e}", file=sys.stderr)
        return 2
    finally:
        os.unlink(fresh_path)

    if not fresh.get("native_available", False):
        print(
            "\ntiers: native engine unavailable"
            f" ({fresh.get('native_unavailable_reason', '?')}); skipped"
        )
        return 0

    failed = False
    suite = fresh.get("suite", {})
    speedup = float(suite.get("bytecode_over_native", 0.0))
    flag = ""
    if speedup < MIN_NATIVE_OVER_BYTECODE:
        flag = f"  <-- below {MIN_NATIVE_OVER_BYTECODE:.0f}x floor"
        failed = True
        flag_gate(
            "tiers native-over-bytecode speedup",
            f"{MIN_NATIVE_OVER_BYTECODE:.0f}x floor",
            f"{speedup:.2f}x",
            "machine-independent floor",
        )
    print(f"\ntiers: native-over-bytecode speedup {speedup:.2f}x{flag}")
    print(
        f"tiers: native break-even {suite.get('breakeven_runs', 0.0):.0f}"
        " suite runs (compile cost / per-run gain)"
    )

    baseline = None
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except OSError as e:
        print(f"check_perf: cannot read tiers baseline: {e}", file=sys.stderr)
    if baseline and baseline.get("native_available", False):
        base_ms = float(baseline.get("suite", {}).get("native_ms", 0.0))
        fresh_ms = float(suite.get("native_ms", 0.0))
        ratio = fresh_ms / base_ms if base_ms > 0 else float("inf")
        flag = ""
        if ratio > tolerance:
            flag = f"  <-- slower than {tolerance:.1f}x baseline"
            failed = True
            flag_gate(
                "tiers suite native wall",
                f"{base_ms:.1f} ms",
                f"{fresh_ms:.1f} ms",
                f"tolerance {tolerance:.1f}x",
            )
        print(
            f"tiers: suite native wall {fresh_ms:.1f} ms"
            f" (baseline {base_ms:.1f}, ratio {ratio:.2f}){flag}"
        )
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build", default="build", help="build directory")
    ap.add_argument(
        "--baseline",
        default=os.path.join(ROOT, "bench", "suite_report.json"),
        help="checked-in baseline report",
    )
    ap.add_argument(
        "--bench-baseline",
        default=os.path.join(ROOT, "bench", "analysis_time.json"),
        help="checked-in bench_analysis_time baseline",
    )
    ap.add_argument(
        "--latency-baseline",
        default=os.path.join(ROOT, "bench", "pipeline_latency.json"),
        help="checked-in bench_pipeline_latency baseline",
    )
    ap.add_argument(
        "--service-baseline",
        default=os.path.join(ROOT, "bench", "service_throughput.json"),
        help="checked-in bench_service baseline",
    )
    ap.add_argument(
        "--tiers-baseline",
        default=os.path.join(ROOT, "bench", "interp_tiers.json"),
        help="checked-in bench_interp --tiers-json baseline",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="flag a program when fresh/baseline wall time exceeds this",
    )
    args = ap.parse_args()

    sestc = os.path.join(args.build, "tools", "sestc")
    if not os.path.exists(sestc):
        print(f"check_perf: {sestc} not built", file=sys.stderr)
        return 2
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except OSError as e:
        print(f"check_perf: cannot read baseline: {e}", file=sys.stderr)
        return 2

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        fresh_path = tmp.name
    try:
        subprocess.run(
            [sestc, "--suite", "--report", fresh_path],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(fresh_path) as f:
            fresh = json.load(f)
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        print(f"check_perf: suite run failed: {e}", file=sys.stderr)
        return 2
    finally:
        os.unlink(fresh_path)

    base_progs = load_programs(baseline)
    fresh_progs = load_programs(fresh)
    same_engine = baseline.get("engine") == fresh.get("engine")

    failed = False
    print(f"{'program':<10} {'base ms':>9} {'fresh ms':>9} {'ratio':>6}")
    for name, base in sorted(base_progs.items()):
        freshp = fresh_progs.get(name)
        if freshp is None:
            print(f"{name:<10} missing from fresh report")
            failed = True
            continue
        if not freshp.get("ok", False):
            print(f"{name:<10} FAILED: {freshp.get('error', '?')}")
            failed = True
            continue
        base_ms = total_wall_ms(base)
        fresh_ms = total_wall_ms(freshp)
        ratio = fresh_ms / base_ms if base_ms > 0 else float("inf")
        flag = ""
        if ratio > args.tolerance:
            flag = f"  <-- slower than {args.tolerance:.1f}x baseline"
            failed = True
            flag_gate(f"suite {name} wall time", f"{base_ms:.1f} ms",
                      f"{fresh_ms:.1f} ms",
                      f"tolerance {args.tolerance:.1f}x")
        if same_engine:
            base_steps = sum(r.get("steps", 0) for r in base.get("runs", []))
            fresh_steps = sum(
                r.get("steps", 0) for r in freshp.get("runs", [])
            )
            if base_steps != fresh_steps:
                flag += (
                    f"  <-- steps drifted: {base_steps} -> {fresh_steps}"
                )
                failed = True
                flag_gate(f"suite {name} steps", str(base_steps),
                          str(fresh_steps), "deterministic invariant")
        print(f"{name:<10} {base_ms:>9.1f} {fresh_ms:>9.1f} {ratio:>6.2f}{flag}")

    bench_rc = check_bench(args.build, args.bench_baseline, args.tolerance)
    latency_rc = check_latency(
        args.build, args.latency_baseline, args.tolerance
    )
    service_rc = check_service(
        args.build, args.service_baseline, args.tolerance
    )
    tiers_rc = check_tiers(args.build, args.tiers_baseline, args.tolerance)
    if failed or bench_rc != 0 or latency_rc != 0 or service_rc != 0 \
            or tiers_rc != 0:
        print("\ncheck_perf: regression flagged (non-blocking signal)")
        for line in FAILED_GATES:
            print(f"check_perf: FAILED {line}")
        return 1 if failed else max(
            1, bench_rc, latency_rc, service_rc, tiers_rc
        )
    print("check_perf: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
