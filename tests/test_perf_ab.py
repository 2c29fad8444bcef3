#!/usr/bin/env python3
"""The verdict rule of scripts/perf_ab.py, on canned parent and change runs.

No benchmark runs: each case builds the runs perf_ab.py would have read
from perfbench and checks the verdict the rule gives them.
"""

import importlib.util
import json
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("perf_ab",
                                              ROOT / "scripts" / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(perf_ab)

LATENCY = [("latency_p50_us", "us", "lower", 0.25)]
THROUGHPUT = [("requests_per_s", "1/s", "higher", 0.25)]


def run(value=None, rc=0, failed=0, name="latency_p50_us"):
    return {"rc": rc, "correct": rc == 0 and failed == 0,
            "failed": None if rc else failed,
            "metrics": {} if value is None else {name: value}, "machine": {}}


def pairs(parent, change, name="latency_p50_us"):
    return [(run(p, name=name), run(c, name=name))
            for p, c in zip(parent, change)]


def outcome(specs, parent, change):
    metrics, _, failures = perf_ab.compare(specs, pairs(parent, change,
                                                        specs[0][0]))
    assert not failures, failures
    return metrics[specs[0][0]]


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0,
          109.0]  # quartiles 102.25 and 106.75: a spread of 4.5


class Verdicts(unittest.TestCase):
    def test_nine_of_ten_wins_beyond_the_spread_is_a_gain(self):
        change = [p - 10 for p in PARENT]
        change[0] = PARENT[0] + 1
        m = outcome(LATENCY, PARENT, change)
        self.assertEqual((m["wins"], m["losses"]), (9, 1))
        self.assertEqual(m["verdict"], "gain")
        # The same rule for a metric where higher is better.
        m = outcome(THROUGHPUT, PARENT, [p + 10 for p in PARENT])
        self.assertEqual((m["wins"], m["verdict"]), (10, "gain"))

    def test_eight_of_ten_wins_is_not_a_gain(self):
        change = [p - 10 for p in PARENT]
        change[0] = change[1] = 200.0
        m = outcome(LATENCY, PARENT, change)
        self.assertEqual(m["wins"], 8)
        self.assertEqual(m["verdict"], "within")

    def test_nine_wins_inside_the_spread_is_not_a_gain(self):
        m = outcome(LATENCY, PARENT, [p - 1 for p in PARENT])
        self.assertEqual(m["wins"], 10)
        self.assertEqual(m["verdict"], "within")

    def test_a_median_worse_by_more_than_the_bound_is_a_regression(self):
        m = outcome(LATENCY, PARENT, [p * 1.3 for p in PARENT])
        self.assertEqual(m["verdict"], "regression")
        m = outcome(THROUGHPUT, PARENT, [p * 0.7 for p in PARENT])
        self.assertEqual(m["verdict"], "regression")
        # Worse, but within the bound.
        m = outcome(LATENCY, PARENT, [p * 1.2 for p in PARENT])
        self.assertEqual(m["verdict"], "within")

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        wide = [50.0, 51.0, 52.0, 53.0, 54.0, 200.0, 201.0, 202.0, 203.0,
                204.0]
        change = [w - 0.5 for w in wide]
        change[9] = 204.5
        m = outcome(LATENCY, wide, change)
        self.assertEqual(m["verdict"], "unresolved")

    def test_every_change_run_beating_every_parent_run_resolves_it(self):
        wide = [50.0, 51.0, 52.0, 53.0, 54.0, 200.0, 201.0, 202.0, 203.0,
                204.0]
        m = outcome(LATENCY, wide, [49.0] * 10)
        # Not a gain (127 - 49 is inside the spread of 149.5), and not
        # unresolved either.
        self.assertEqual(m["wins"], 10)
        self.assertEqual(m["verdict"], "within")

    def test_ties_count_for_neither_side(self):
        flat = [100.0] * 10
        m = outcome(LATENCY, flat, [99.0] * 8 + [100.0] * 2)
        self.assertEqual((m["wins"], m["losses"]), (8, 0))
        self.assertEqual(m["verdict"], "within")
        m = outcome(LATENCY, flat, [99.0] * 9 + [100.0])
        self.assertEqual((m["wins"], m["losses"]), (9, 0))
        self.assertEqual(m["verdict"], "gain")

    def test_failed_runs_are_reported_and_left_out(self):
        canned = pairs(PARENT, PARENT)
        canned[1] = (run(101.0), run(rc=1))
        canned[2] = (run(rc=2), run(102.0))
        canned[3] = (run(103.0), run(103.0, failed=4))
        canned[4] = (run(104.0, failed=1), run(104.0, failed=3))
        metrics, compared, failures = perf_ab.compare(LATENCY, canned)
        self.assertEqual(failures, [
            "pair 2 change: exit 1",
            "pair 3 parent: exit 2",
            "pair 4 change: correct:false, 4 failed",
            "pair 5 parent: correct:false, 1 failed",
            "pair 5 change: correct:false, 3 failed",
        ])
        self.assertEqual(compared, 6)
        self.assertEqual(metrics["latency_p50_us"]["verdict"], "within")
        # A failed pair is not won: 6 wins of 10 pairs run is no gain.
        faster = [(p, run(p["metrics"]["latency_p50_us"] - 10))
                  if p["correct"] and c["correct"] else (p, c)
                  for p, c in canned]
        metrics, _, _ = perf_ab.compare(LATENCY, faster)
        self.assertEqual(metrics["latency_p50_us"]["wins"], 6)
        self.assertEqual(metrics["latency_p50_us"]["verdict"], "within")


class Metrics(unittest.TestCase):
    def test_metrics_and_bounds_come_from_the_benchmark(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        end_to_end = [(m["name"], m["better"], m["bound"])
                      for m in spec["end_to_end"]]
        warm = perf_ab.metric_specs(spec, "sestd_warm", 0)
        self.assertEqual([(n, b, x) for n, _, b, x in warm], end_to_end)
        suite = perf_ab.metric_specs(spec, "suite", 0)
        self.assertEqual(suite[:len(warm)], warm)
        self.assertEqual([n for n, *_ in suite[len(warm):]],
                         ["suite." + s for s in perf_ab.SUITE_STAGES])
        layers = perf_ab.metric_specs(spec, "sestd_warm", 1)
        self.assertEqual([n for n, *_ in layers], list(perf_ab.LAYERS))
        self.assertTrue(all(b == "lower" for _, _, b, _ in layers))


if __name__ == "__main__":
    unittest.main()
