#!/usr/bin/env python3
"""The repository benchmark.

Builds sestd and the harness (perfbench/sestbench.cpp) from the sources
next to this directory, runs one workload, checks every output against
its reference, and prints one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload sestd_warm --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. perfbench/README.md says what each workload and metric
measures. Build output, references (kept per build, keyed by a digest
of the two binaries) and per-run artifacts (with the machine
fingerprint) go under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_build"
BUILD = STATE / "perfbench"
WORKLOADS = ("sestd_warm", "suite")
RUN_LIMIT_S = 170  # the whole run, build excluded


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        fail("build step failed: " + " ".join(cmd))


def read_cmake_cache():
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(("//", "#")) or "=" not in line:
            continue
        key, value = line.split("=", 1)
        cache[key.split(":", 1)[0]] = value
    return cache


def build():
    """Configures once, then brings sestd and the harness up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no project sources next to perfbench/ (need CMakeLists.txt and src/)", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release", *generator])
    run_quiet(["cmake", "--build", str(BUILD), "--target", "sestd", "sestbench",
               "-j", str(len(os.sched_getaffinity(0)))])
    cache = read_cmake_cache()
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        fail("refusing to measure a %r build; only Release is timed"
             % cache.get("CMAKE_BUILD_TYPE"))
    return cache


def git_commit():
    """HEAD, or None in a checkout that is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def file_digest(paths):
    digest = hashlib.sha256()
    for f in paths:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def source_digest():
    """The sources as they are, uncommitted changes included."""
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    return file_digest(files)


def fingerprint(cache, build_digest):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": cxx,
        "compiler_version": version[0] if version else "unknown",
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "cxx_flags": cache.get("CMAKE_CXX_FLAGS_RELEASE", ""),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "build_sha256": build_digest,
    }


class Runner:
    """Runs harness subcommands in their own process group, so that a
    sestd child is stopped with its parent whatever happens."""

    def __init__(self, exe, work, deadline):
        self.exe = exe
        self.work = work
        self.deadline = deadline

    def json(self, *args):
        proc = subprocess.Popen([str(self.exe), *map(str, args)], cwd=self.work,
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            out = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if out is None:
            fail("sestbench %s ran past the time limit" % args[0])
        if proc.returncode != 0:
            fail("sestbench %s failed (exit %d)" % (args[0], proc.returncode))
        return json.loads(out.strip().splitlines()[-1])


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run_sestd(runner, args, refs, sestd):
    r = runner.json("sestd", "--workload", args.workload, "--seed", args.seed,
                    "--seconds", args.seconds, "--trace", args.trace,
                    "--sestd", sestd, "--refs", refs)
    if not r["generator_valid"]:
        fail("open-loop generator fell behind its schedule (p99 %.0f us late):"
             " latency was not measured at the stated rate; run invalid"
             % r["generator_late_p99_us"])
    metrics = {
        "setup_s": statistics.median(r["setup_s"]),
        "requests_per_s": r["requests_per_s"],
        "latency_p50_us": r["latency_p50_us"],
        "latency_p90_us": r["latency_p90_us"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    failed = r.get("failed_with_layers", r["failed"])
    metrics.update(r.get("layers", {}))
    return r["attempted"], failed, metrics, r


SUITE_STAGES = ("profile_s", "estimate_s", "optimize_s", "tune_s",
                "native_compile_s", "native_run_s")


def run_suite(runner, args, refs, sestd):
    runner.json("suite-refs", "--refs", refs, "--seed", args.seed)
    # Set-up is process start until the suite is loaded; probes add
    # samples so the median is steady.
    setups = []
    for _ in range(15):
        start = time.monotonic()
        setups.append(runner.json("suite-pass", "--probe", "--seed", args.seed)["ready_s"] - start)
    passes = []
    begin = time.monotonic()
    while True:
        start = time.monotonic()
        p = runner.json("suite-pass", "--seed", args.seed, "--refs", refs)
        setups.append(p["ready_s"] - start)
        passes.append(p)
        elapsed = time.monotonic() - begin
        # At least two passes, so every program's best-of-passes latency
        # has the same footing; more while another pass still ends within
        # the measuring time (a traced run needs one pass for its totals).
        if args.trace or (len(passes) >= 2 and
                          elapsed + (time.monotonic() - start) > args.seconds):
            break
    # Other tenants of a shared machine only ever slow a pass down, so
    # each program's latency is its best over the passes, and throughput
    # is that of the fastest pass.
    latencies = [min(p["requests"][i]["latency_s"] for p in passes) * 1e6
                 for i in range(len(passes[0]["requests"]))]
    metrics = {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(latencies) / min(p["pass_s"] for p in passes),
        "latency_p50_us": quantile(latencies, 0.5),
        "latency_p90_us": quantile(latencies, 0.9),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    for stage in SUITE_STAGES:
        metrics["suite." + stage] = sum(q[stage] for p in passes for q in p["requests"]) / len(passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    raw = {"passes": passes, "setup_samples": setups}
    if args.trace:
        layers = runner.json("suite-layers", "--seed", args.seed)
        # A short sestd session over the suite's programs, for the
        # service-side layers. None of its latencies is reported, so a
        # late generator does not void the run; its lateness still is.
        service = runner.json("sestd", "--workload", "suite_service", "--seed", args.seed,
                              "--seconds", 4, "--trace", 1, "--sestd", sestd,
                              "--refs", refs)
        failed += layers["failed"] + service["failed_with_layers"]
        attempted += service["attempted"]
        for name, value in service["layers"].items():
            if name.split(".")[0] in ("sestd", "service", "support"):
                metrics[name] = value
        metrics.update(layers["layers"])
        metrics["bench.generator_late_p99_us"] = service["generator_late_p99_us"]
        stage_us = sum(metrics["suite." + s] for s in SUITE_STAGES) * 1e6
        metrics["bench.unaccounted_frac"] = 1.0 - sum(layers["stage_us"].values()) / stage_us
        raw.update(layers=layers, service=service)
    return attempted, failed, metrics, raw


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root", 2)
    spec = json.loads(spec_path.read_text())
    cache = build()
    deadline = time.monotonic() + RUN_LIMIT_S

    exe = BUILD / "sestbench"
    sestd = BUILD / "sest" / "tools" / "sestd"
    # References come from the code under test and are reused only by the
    # build that made them.
    build_digest = file_digest([exe, sestd])
    refs = STATE / "refs" / build_digest
    refs.mkdir(parents=True, exist_ok=True)
    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(exe, work, deadline)
        run = run_suite if args.workload == "suite" else run_sestd
        attempted, failed, metrics, raw = run(runner, args, refs, sestd)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        fail("workload did not produce " + ", ".join(missing))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    machine = fingerprint(cache, build_digest)
    artifact = STATE / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json")
    artifact.parent.mkdir(parents=True, exist_ok=True)
    artifact.write_text(json.dumps({"machine": machine, "args": vars(args),
                                    "result": result, "all_metrics": metrics,
                                    "raw": raw}, indent=1))
    print(json.dumps({"machine": machine, "artifact": str(artifact.relative_to(ROOT))}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
