#!/usr/bin/env python3
"""Unit tests of compare.py on synthetic run sets.

    python3 perfbench/test_compare.py
"""

import unittest

import compare

SPEC = {
    "workloads": [{"name": "w", "why": "synthetic"}],
    "end_to_end": [
        {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.10},
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.10},
    ],
}
COUNTS = {"sim.cache.l1d.accesses": [274, 274], "sim.cpu.retired": [58, 58]}


def run(seed, tput, lat, time=0.0):
    return {"workload": "w", "seed": seed, "trace": 0, "time": time,
            "result": {"correct": True,
                       "metrics": {"tput": {"value": tput}, "lat": {"value": lat}}},
            "raw": {"sim_counts": {}}}


def traced(seed, overhead, counts):
    return {"workload": "w", "seed": seed, "trace": 1, "time": 0.0,
            "result": {"correct": True,
                       "metrics": {"obs.trace_overhead_frac": {"value": overhead}}},
            "raw": {"sim_counts": counts}}


def runs(tputs, lats):
    return [run(seed, t, l) for seed, (t, l) in enumerate(zip(tputs, lats))]


# Ten runs with a 2% interquartile spread around 100.
BASE_T = [98, 99, 99.5, 100, 100, 100, 100.5, 101, 101, 102]


def row(report, metric):
    return next(r for r in report["rows"] if r["metric"] == metric)


class VerdictTest(unittest.TestCase):
    def test_same_code_is_no_regression(self):
        report = compare.compare(runs(BASE_T, BASE_T), runs(BASE_T[::-1], BASE_T[::-1]), SPEC)
        self.assertEqual(row(report, "tput")["verdict"], "no regression")
        self.assertEqual(row(report, "lat")["verdict"], "no regression")

    def test_clear_gain_in_the_better_direction(self):
        faster = [t * 1.2 for t in BASE_T]
        shorter = [t * 0.8 for t in BASE_T]
        report = compare.compare(runs(BASE_T, BASE_T), runs(faster, shorter), SPEC)
        tput = row(report, "tput")
        self.assertEqual(tput["verdict"], "gain")
        self.assertEqual((tput["wins"], tput["pairs"]), (10, 10))
        self.assertEqual(row(report, "lat")["verdict"], "gain")

    def test_worse_beyond_bound_is_a_regression(self):
        slower = [t * 0.85 for t in BASE_T]
        longer = [t * 1.15 for t in BASE_T]
        report = compare.compare(runs(BASE_T, BASE_T), runs(slower, longer), SPEC)
        self.assertEqual(row(report, "tput")["verdict"], "regression")
        self.assertEqual(row(report, "lat")["verdict"], "regression")
        self.assertAlmostEqual(row(report, "tput")["worse_frac"], 0.15)

    def test_worse_within_bound_is_no_regression(self):
        slower = [t * 0.95 for t in BASE_T]
        report = compare.compare(runs(BASE_T, BASE_T), runs(slower, BASE_T), SPEC)
        self.assertEqual(row(report, "tput")["verdict"], "no regression")

    def test_spread_wider_than_bound_is_unresolved(self):
        wide = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
        report = compare.compare(runs(wide, BASE_T), runs(wide[::-1], BASE_T), SPEC)
        self.assertEqual(row(report, "tput")["verdict"], "unresolved")

    def test_too_few_pairs_cannot_claim_a_gain(self):
        report = compare.compare(runs(BASE_T[:3], BASE_T[:3]),
                                 runs([t * 2 for t in BASE_T[:3]], BASE_T[:3]), SPEC)
        self.assertEqual(row(report, "tput")["verdict"], "better")

    def test_ties_count_for_neither_side(self):
        change = list(BASE_T)
        change[0] = 200
        report = compare.compare(runs(BASE_T, BASE_T), runs(change, BASE_T), SPEC)
        self.assertEqual((row(report, "tput")["wins"], row(report, "tput")["pairs"]), (1, 10))

    def test_runs_pair_by_seed(self):
        base = [run(7, 100, 1), run(8, 200, 1)]
        change = [run(8, 210, 1), run(7, 90, 1)]
        self.assertEqual(compare.pair_runs(
            [(r["seed"], r["time"], r["result"]["metrics"]["tput"]["value"]) for r in base],
            [(r["seed"], r["time"], r["result"]["metrics"]["tput"]["value"]) for r in change]),
            [(100, 90), (200, 210)])

    def test_failed_runs_are_excluded(self):
        bad = run(0, 1e9, 1e-9)
        bad["result"]["correct"] = False
        report = compare.compare(runs(BASE_T, BASE_T), runs(BASE_T, BASE_T) + [bad], SPEC)
        self.assertEqual(row(report, "tput")["verdict"], "no regression")
        self.assertEqual(len(report["excluded"]), 1)


class SimulatedCountsTest(unittest.TestCase):
    def test_identical_counts(self):
        report = compare.compare([traced(1, 0.01, COUNTS)], [traced(2, 0.03, COUNTS)], SPEC)
        self.assertTrue(report["sim_identical"])
        self.assertEqual(report["overhead"], [("w", 0.01, 0.03)])

    def test_a_changed_count_is_reported(self):
        changed = dict(COUNTS, **{"sim.cpu.retired": [58, 59]})
        report = compare.compare([traced(1, 0.0, COUNTS)], [traced(1, 0.0, changed)], SPEC)
        self.assertFalse(report["sim_identical"])
        self.assertEqual(report["sim"],
                         ["simulated behaviour changed: sim.cpu.retired [58, 58] -> [58, 59]"])

    def test_counts_that_do_not_repeat_within_one_side_fail(self):
        drifted = dict(COUNTS, **{"sim.cache.l1d.accesses": [274, 275]})
        report = compare.compare([traced(1, 0.0, COUNTS), traced(2, 0.0, drifted)],
                                 [traced(1, 0.0, COUNTS)], SPEC)
        self.assertFalse(report["sim_identical"])
        self.assertEqual(report["sim"], ["simulated counts not repeatable: traced base runs "
                                         "differ in sim.cache.l1d.accesses"])

    def test_every_run_of_a_side_is_compared(self):
        changed = dict(COUNTS, **{"sim.cpu.retired": [58, 59]})
        report = compare.compare([traced(1, 0.0, COUNTS)],
                                 [traced(1, 0.0, COUNTS), traced(2, 0.0, changed)], SPEC)
        self.assertFalse(report["sim_identical"])
        self.assertIn("simulated counts not repeatable: traced change runs differ in "
                      "sim.cpu.retired", report["sim"])

    def test_counts_not_compared_without_traced_runs(self):
        report = compare.compare(runs(BASE_T, BASE_T), [traced(1, 0.0, COUNTS)], SPEC)
        self.assertNotIn("sim_identical", report)


if __name__ == "__main__":
    unittest.main()
