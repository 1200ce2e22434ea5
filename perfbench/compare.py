#!/usr/bin/env python3
"""Compares two sets of benchmark runs, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records run.py saves (--record-dir). For every
workload x end-to-end metric it prints both sides' medians and quartiles,
the fraction of paired runs the change wins, and a verdict:

  gain           the change wins >= 9/10 of at least 10 pairs and the medians
                 differ by more than the base runs' interquartile distance
  better         every change run beats every base run (too few pairs to
                 claim a gain)
  unresolved     the base runs spread wider than the metric's bound
  regression     the change's median is worse than the base median by more
                 than the bound
  no regression  otherwise

Runs pair by seed where both sides ran it, else in the order they were made.
It also prints obs.trace_overhead_frac from traced runs and compares the
simulated counts exactly: a count that differs between the sides is reported
as "simulated behaviour changed", one that differs between traced runs of one
side as "not repeatable". Exits 1 on a regression or on either.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(directory):
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    return [r for r in records if "result" in r]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pair_runs(base, change):
    """Lists of (base value, change value) from runs of one workload, given
    as (seed, time, value) triples."""
    base_by_seed = {}
    for seed, t, v in sorted(base, key=lambda r: r[1]):
        base_by_seed.setdefault(seed, []).append(v)
    change_by_seed = {}
    for seed, t, v in sorted(change, key=lambda r: r[1]):
        change_by_seed.setdefault(seed, []).append(v)
    common = sorted(set(base_by_seed) & set(change_by_seed))
    if common:
        return [pair for s in common for pair in zip(base_by_seed[s], change_by_seed[s])]
    return list(zip([v for _, _, v in sorted(base, key=lambda r: r[1])],
                    [v for _, _, v in sorted(change, key=lambda r: r[1])]))


def verdict(base, change, pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    improved = sign * (c_med - b_med) > 0
    worse_frac = -sign * (c_med - b_med) / b_med if b_med else 0.0
    spread = (b_q3 - b_q1) / b_med if b_med else 0.0
    if len(pairs) >= 10 and win_frac >= 0.9 and improved and abs(c_med - b_med) > b_q3 - b_q1:
        text = "gain"
    elif all(sign * (c - b) > 0 for b in base for c in change):
        text = "better"
    elif spread > bound:
        text = "unresolved"
    elif worse_frac > bound:
        text = "regression"
    else:
        text = "no regression"
    return {"base": (b_q1, b_med, b_q3), "change": (c_q1, c_med, c_q3), "wins": wins,
            "pairs": len(pairs), "win_frac": win_frac, "worse_frac": worse_frac,
            "spread": spread, "verdict": text}


def changed_counts(a, b):
    """Names of the simulated counts that differ between two runs."""
    return [name for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]


def compare(base_records, change_records, spec):
    report = {"rows": [], "overhead": [], "sim": [], "notes": [], "excluded": []}
    for side, records in (("base", base_records), ("change", change_records)):
        for r in records:
            if not r["result"]["correct"]:
                report["excluded"].append(f"{side}: {r['workload']} seed {r['seed']} "
                                          f"failed its output check")
    ok_base = [r for r in base_records if r["result"]["correct"]]
    ok_change = [r for r in change_records if r["result"]["correct"]]

    def values(records, workload, trace, metric):
        return [(r["seed"], r["time"], r["result"]["metrics"][metric]["value"])
                for r in records
                if r["workload"] == workload and r["trace"] == trace
                and metric in r["result"]["metrics"]]

    for workload in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            base = values(ok_base, workload, 0, m["name"])
            change = values(ok_change, workload, 0, m["name"])
            if not base or not change:
                continue
            row = verdict([v for _, _, v in base], [v for _, _, v in change],
                          pair_runs(base, change), m["better"], m["bound"])
            row.update(workload=workload, metric=m["name"], unit=m["unit"], bound=m["bound"])
            report["rows"].append(row)
        overhead = [[v for _, _, v in values(recs, workload, 1, "obs.trace_overhead_frac")]
                    for recs in (ok_base, ok_change)]
        if all(overhead):
            report["overhead"].append((workload, statistics.median(overhead[0]),
                                       statistics.median(overhead[1])))

    counts = []
    for side, records in (("base", ok_base), ("change", ok_change)):
        seen = [r["raw"]["sim_counts"] for r in records if r["trace"] == 1]
        differing = sorted({name for other in seen[1:] for name in changed_counts(seen[0], other)})
        if differing:
            report["sim"].append(f"simulated counts not repeatable: traced {side} runs differ "
                                 f"in {', '.join(differing)}")
        counts.append(seen[0] if seen else None)
    if counts[0] is None or counts[1] is None:
        report["notes"].append("no traced runs on both sides; simulated counts not compared")
    else:
        for name in changed_counts(counts[0], counts[1]):
            report["sim"].append(f"simulated behaviour changed: {name} "
                                 f"{counts[0].get(name)} -> {counts[1].get(name)}")
        report["sim_identical"] = not report["sim"]
    return report


def render(report):
    def q(v):
        return f"{v[1]:.6g} [{v[0]:.6g}, {v[2]:.6g}]"

    lines = [f"{'workload':16} {'metric':14} {'base median [q1, q3]':>36} "
             f"{'change median [q1, q3]':>36} {'delta':>7} {'wins':>7}  verdict"]
    for r in report["rows"]:
        b, c = r["base"], r["change"]
        delta = (c[1] - b[1]) / b[1] if b[1] else 0.0
        lines.append(f"{r['workload']:16} {r['metric']:14} {q(b):>36} {q(c):>36} "
                     f"{delta:>+7.1%} {r['wins']:>3}/{r['pairs']:<3}  {r['verdict']} "
                     f"(bound {r['bound']:.0%}, base spread {r['spread']:.1%})")
    for workload, base, change in report["overhead"]:
        lines.append(f"obs.trace_overhead_frac {workload}: base {base:+.3f}, change {change:+.3f}")
    lines += report["sim"] + report["notes"]
    if report.get("sim_identical"):
        lines.append("simulated counts identical")
    lines += [f"excluded: {e}" for e in report["excluded"]]
    return "\n".join(lines)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = compare(load_records(sys.argv[1]), load_records(sys.argv[2]), spec)
    print(render(report))
    bad = any(r["verdict"] == "regression" for r in report["rows"]) or bool(report["sim"])
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
