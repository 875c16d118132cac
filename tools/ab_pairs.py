"""Alternating benchmark runs of two checkouts, and their summary.

    python tools/ab_pairs.py PARENT CHANGE --workload kernel --pairs 10 --seconds 25 --seed 100

Pair i runs ``python3 perfbench/run.py --workload W --seed S0+i --seconds S``
in both checkouts, one after the other: the parent first on even pairs, the
change first on odd ones.  Each run is printed as it ends.  Then, for each
end-to-end metric of the parent's ``BENCHMARK.json``: the first quartile,
median and third quartile of each side, the pairs the change wins (strictly
better in the metric's direction), whether the change's median is within the
metric's bound of the parent's, and whether it is better than the parent's
by more than the parent's interquartile range.  Nothing under ``perfbench/``
is changed; the exit code is 1 when a run fails or a metric leaves its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds):
    """The end-to-end metrics (name to value) and the failed count of one
    benchmark run in ``checkout``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result["failed"]


def quartiles(values):
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, metrics):
    """One row per metric of ``metrics`` (BENCHMARK.json's ``end_to_end``)
    over ``pairs``, a list of (parent metrics, change metrics) dicts."""
    rows = []
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        gain = sign * (cm - pm)   # > 0: the change is better
        rows.append({"name": name, "parent": (p1, pm, p3), "change": (c1, cm, c3),
                     "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                     "pairs": len(pairs),
                     "within_bound": -gain <= spec["bound"] * abs(pm),
                     "beats_parent_iqr": gain > p3 - p1})
    return rows


def format_rows(rows):
    lines = [f"{'metric':16s} {'parent q1/median/q3':>30s} {'change q1/median/q3':>30s} "
             f"{'wins':>6s}  bound  >IQR"]
    for r in rows:
        def three(q):
            return "/".join(f"{v:.4g}" for v in q)
        lines.append(f"{r['name']:16s} {three(r['parent']):>30s} {three(r['change']):>30s} "
                     f"{r['wins']:>3d}/{r['pairs']:<2d}  {'ok' if r['within_bound'] else 'OUT':5s}"
                     f"  {'yes' if r['beats_parent_iqr'] else 'no'}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    pairs, failed = [], 0
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)]
        result = {}
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            result[side], bad = run_once(checkout, args.workload, args.seed + i, args.seconds)
            failed += bad
            print(f"pair {i} seed {args.seed + i} {side:6s} failed {bad} "
                  + " ".join(f"{k}={v:.4g}" for k, v in result[side].items()), flush=True)
        pairs.append((result["parent"], result["change"]))
    rows = summarize(pairs, metrics)
    print(format_rows(rows))
    return 1 if failed or not all(r["within_bound"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
