#!/usr/bin/env python3
"""Run the benchmark in two checkouts by alternating pairs and judge each
end-to-end metric.

    python scripts/bench_pairs.py --parent ../parent --change . --workload su-ladder --pairs 10 --seconds 25

Each pair runs the benchmark command of the parent's BENCHMARK.json
(perfbench/run.py) once in each checkout, for one workload, with --trace 0
and a seed no other pair uses; the parent runs first in even pairs and the
change first in odd ones. Each run prints one line, `run` and a JSON object:
the pair, seed, tree, which tree ran first, correct, attempted, failed and
each end-to-end metric. Then one row per end-to-end metric: each side's
median and quartiles, the change's median against the parent's, the pairs
the change won (ties count for neither) and the verdict:

    gain         the change won at least nine tenths of at least ten pairs
                 and its median is better than the parent's by more than
                 the parent's interquartile range ("gain (<10 pairs)" when
                 fewer pairs ran)
    worse        the change's median is worse than the parent's by more
                 than the metric's bound in BENCHMARK.json
    unresolved   neither, and the parent's interquartile range is wider
                 than the bound, unless every change run is better than
                 every parent run
    within bound otherwise

The exit status is 1 when a run is not correct or fails an operation, 2
when a run gives no result.
"""
from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")


def run_once(checkout: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in a checkout."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(f"bench_pairs: no result from {checkout} (exit {done.returncode}):\n{done.stderr[-2000:]}", file=sys.stderr)
        sys.exit(2)
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def judge(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric's summary over paired runs (parent[k] and change[k] are pair k)."""
    sign = 1.0 if better == "lower" else -1.0  # positive: the change is better by that much
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap, iqr = sign * (pm - cm), p3 - p1
    if wins >= 0.9 * len(parent) and gap > iqr:
        verdict = "gain" if len(parent) >= 10 else "gain (<10 pairs)"
    elif -gap > bound * abs(pm):
        verdict = "worse"
    elif iqr > bound * abs(pm) and not all(sign * (p - c) > 0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    change_pct = (cm - pm) / pm * 100.0 if pm else float("nan")
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3), "change_pct": change_pct,
            "wins": f"{wins}/{len(parent)}", "verdict": verdict}


def summary_rows(runs: list, metrics: list) -> list:
    """One text row per end-to-end metric of BENCHMARK.json over the run records, in pair order."""
    rows = [f"{'metric':<12} {'unit':<4} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
            f" {'change':>8} {'wins':>6}  verdict"]
    for metric in metrics:
        name = metric["name"]
        parent, change = ([r[name] for r in runs if r["tree"] == tree] for tree in TREES)
        j = judge(parent, change, metric["better"], metric["bound"])
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*j[tree]) for tree in TREES]
        rows.append(f"{name:<12} {metric['unit']:<4} {cells[0]:>32} {cells[1]:>32} {j['change_pct']:>+7.2f}%"
                    f" {j['wins']:>6}  {j['verdict']}")
    return rows


def record(result: dict, pair: int, seed: int, tree: str, first: str) -> dict:
    """One run's line: where it ran, its checks and its end-to-end metrics."""
    out = {"pair": pair, "seed": seed, "tree": tree, "first": first}
    out.update({key: result[key] for key in ("correct", "attempted", "failed")})
    out.update({name: m["value"] for name, m in result["metrics"].items()})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    first_seed = random.SystemRandom().randrange(10**6)
    runs = []
    for pair in range(args.pairs):
        order = TREES if pair % 2 == 0 else TREES[::-1]
        seed = first_seed + pair
        for tree in order:
            result = run_once(checkouts[tree], benchmark["command"], args.workload, seed, args.seconds)
            runs.append(record(result, pair, seed, tree, order[0]))
            print("run", json.dumps(runs[-1]), flush=True)
    print("\n".join(summary_rows(runs, benchmark["end_to_end"])))
    return 0 if all(r["correct"] is True and r["failed"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
