#!/usr/bin/env python3
"""Same-machine A/B comparison of the working tree against a parent revision.

Builds REV (default HEAD) offline from `git archive` under
.bench_build/ab/, then runs the repository benchmark (perfbench/run.py)
there and in the working tree in ten alternating pairs: the side that
runs first alternates from pair to pair. Run length, workloads, metrics,
their direction and their bounds come from BENCHMARK.json; --workload,
--seed and --trace pass through to run.py (default: every workload,
seed 1, trace 0). At --trace 0 every end-to-end metric is compared, and
on `suite` also its per-stage totals; at --trace 1 the front-end layers.

A table per workload goes to stderr, and one sest-perf-ab/1 record per
workload to stdout, for appending to bench/history.jsonl:

    python3 scripts/perf_ab.py --parent HEAD~1 >> bench/history.jsonl

Each metric gets one verdict:
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither side), and the medians differ by more than the
              parent's quartile spread;
  regression  the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's quartile spread is wider than bound x its
              median, unless every change run beats every parent run;
  within      otherwise.
A run fails on a non-zero exit or correct:false; perfbench reads
correct:false whenever `failed` is above 0, so also when a change run
fails more operations than the parent's. Failed runs are listed, and
their pairs left out of the metrics. Exit status: 1 on any regression
or failed run, else 0.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SUITE_STAGES = ("profile_s", "estimate_s", "optimize_s", "tune_s",
                "native_compile_s", "native_run_s")
LAYERS = ("lang.parse_us", "cfg.build_us", "callgraph.build_us",
          "estimators.estimate_us")
MACHINE_KEYS = ("nproc", "cpu_model", "compiler_version", "build_type",
                "cxx_flags")


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def parent_tree(rev):
    """A checkout of `rev`, extracted once from `git archive`."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = ROOT / ".bench_build" / "ab" / sha[:12]
    if not tree.is_dir():
        part = tree.with_name(tree.name + ".part")
        shutil.rmtree(part, ignore_errors=True)
        part.mkdir(parents=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(part)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"perf_ab: git archive {sha} failed")
        part.rename(tree)
    return sha, tree


def metric_specs(spec, workload, trace):
    """(name, unit, better, bound) of every metric compared."""
    default_bound = min(m["bound"] for m in spec["end_to_end"])
    if trace:
        layers = {m["name"]: m for m in spec["per_layer"]}
        return [(n, layers[n]["unit"], layers[n]["better"], default_bound)
                for n in LAYERS]
    specs = [(m["name"], m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]]
    if workload == "suite":
        specs += [("suite." + s, "s", "lower", default_bound)
                  for s in SUITE_STAGES]
    return specs


def run_side(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`: {rc, correct, failed, metrics, machine}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        return {"rc": proc.returncode or 1, "correct": False, "failed": None,
                "metrics": {}, "machine": {}}
    result = json.loads(lines[-1])
    artifact = tree / json.loads(lines[-2])["artifact"]
    artifact = json.loads(artifact.read_text())
    return {"rc": 0, "correct": result["correct"], "failed": result["failed"],
            "metrics": artifact["all_metrics"], "machine": artifact["machine"]}


def quantile(values, q):
    """Linear interpolation between closest ranks, as perfbench uses."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def summary(values):
    return {"q1": quantile(values, 0.25), "median": quantile(values, 0.5),
            "q3": quantile(values, 0.75)}


def verdict(parent, change, better, bound, pairs_run):
    """The guide's rule; parent[i] and change[i] ran in pair i. A gain
    needs 9 wins in 10 of all pairs run, failed ones included."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    spread = p["q3"] - p["q1"]
    gain = sign * (c["median"] - p["median"])
    if wins * 10 >= 9 * pairs_run and gain > spread:
        outcome = "gain"
    elif -gain > bound * abs(p["median"]):
        outcome = "regression"
    elif (spread > bound * abs(p["median"]) and
          min(sign * x for x in change) <= max(sign * x for x in parent)):
        outcome = "unresolved"
    else:
        outcome = "within"
    return {"parent": p, "change": c, "wins": wins, "losses": losses,
            "verdict": outcome}


def failed_runs(pairs):
    """One line per failed run in `pairs`, [(parent run, change run)]."""
    out = []
    for i, (p, c) in enumerate(pairs, 1):
        for side, run in (("parent", p), ("change", c)):
            if run["rc"] != 0:
                out.append(f"pair {i} {side}: exit {run['rc']}")
            elif not run["correct"]:
                out.append(f"pair {i} {side}: correct:false, "
                           f"{run['failed']} failed")
    return out


def compare(specs, pairs):
    """Verdicts for `specs` over the pairs in which no run failed, the
    number of those pairs, and the failed runs."""
    failures = failed_runs(pairs)
    ok = [(p, c) for p, c in pairs if p["correct"] and c["correct"]]
    metrics = {}
    for name, unit, better, bound in specs if ok else ():
        metrics[name] = dict(
            unit=unit, better=better, bound=bound,
            **verdict([p["metrics"][name] for p, _ in ok],
                      [c["metrics"][name] for _, c in ok], better, bound,
                      len(pairs)))
    return metrics, len(ok), failures


def number(x):
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def print_table(record):
    err = sys.stderr
    change = record["change"]["git"]  # a commit, or a commit + "-dirty"
    err.write(f"\n{record['workload']} seed {record['seed']} trace "
              f"{record['trace']}: {record['pairs']} pairs, parent "
              f"{record['parent']['git'][:9]} vs change "
              f"{change[:9]}{change[40:]}\n")
    err.write(f"{'metric':<24} {'parent median (q1-q3)':>30} "
              f"{'change median (q1-q3)':>30} {'won':>6}  verdict\n")
    for name, m in record["metrics"].items():
        cells = [f"{number(s['median'])} ({number(s['q1'])}-"
                 f"{number(s['q3'])})"
                 for s in (m["parent"], m["change"])]
        err.write(f"{name:<24} {cells[0]:>30} {cells[1]:>30} "
                  f"{m['wins']:>3}/{record['pairs_compared']:<2}"
                  f"  {m['verdict']}\n")
    for line in record["failed_runs"]:
        err.write(f"FAILED {line}\n")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload:
        workloads = [args.workload]
    parent_sha, parent = parent_tree(args.parent)
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    status = 0
    for workload in workloads:
        pairs = []
        for i in range(PAIRS):
            sides = {}
            for side in (("parent", "change") if i % 2 == 0
                         else ("change", "parent")):
                tree = parent if side == "parent" else ROOT
                sides[side] = run_side(tree, workload, args.seed,
                                       spec["run_seconds"], args.trace)
                sys.stderr.write(f"{workload} pair {i + 1} {side}: "
                                 f"exit {sides[side]['rc']}\n")
            pairs.append((sides["parent"], sides["change"]))
        metrics, compared, failures = compare(
            metric_specs(spec, workload, args.trace), pairs)
        machines = [next((r["machine"] for r in runs if r["machine"]), {})
                    for runs in zip(*pairs)]
        record = {
            "schema": "sest-perf-ab/1", "workload": workload,
            "seed": args.seed, "trace": args.trace, "pairs": PAIRS,
            "pairs_compared": compared, "run_seconds": spec["run_seconds"],
            "parent": {"git": parent_sha,
                       "source_sha256": machines[0].get("source_sha256")},
            "change": {"git": head + ("-dirty" if dirty else ""),
                       "source_sha256": machines[1].get("source_sha256")},
            "machine": {k: machines[1].get(k) for k in MACHINE_KEYS},
            "metrics": metrics, "failed_runs": failures,
        }
        print_table(record)
        print(json.dumps(record, sort_keys=True), flush=True)
        if failures or any(m["verdict"] == "regression"
                           for m in metrics.values()):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
