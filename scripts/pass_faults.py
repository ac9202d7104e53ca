#!/usr/bin/env python3
"""Count the minor page faults of each in-process benchmark pass.

    python scripts/pass_faults.py [--workload spin-ladder] [--passes 30]

For catalog-sweep, su-ladder and spin-ladder (or the workloads named), a
child process with one BLAS thread builds perfbench's shuffled passes from
the fixed seed 0 (perfbench/workloads.py: generated_inputs, build_pass and
run_in_process, read as they are), runs one warm-up pass and then the
given number of passes, and reads resource.getrusage's ru_minflt around
each pass. One line per workload:

    <workload> minflt/pass p50 <median> max <max> pass_ms p50 <median>

A pass that takes faults has memory returned to the system by one run and
touched again by the next. The counts depend on the C library and the
machine, so compare two trees on the same one. The exit status is 1 when
a run raises or a child fails.
"""
from __future__ import annotations

import argparse
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog-sweep", "su-ladder", "spin-ladder")


def measure(workload: str, passes: int) -> str:
    """The result line of one workload, measured in this process; raises when a run does."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import build_pass, generated_inputs, run_in_process

    rng, docs = random.Random(0), generated_inputs(workload)
    faults, times = [], []
    for _ in range(passes + 1):  # the first pass warms up and is not counted
        jobs = build_pass(workload, rng, docs, {})
        before, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        for spec in (spec for job in jobs for spec in job):
            error = run_in_process(spec).error
            if error:
                raise RuntimeError(f"{spec.key}: {error}")
        times.append((time.perf_counter() - start) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    faults, times = faults[1:], times[1:]
    return (f"{workload} minflt/pass p50 {statistics.median_low(faults)} max {max(faults)}"
            f" pass_ms p50 {statistics.median(times):.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; all three if absent")
    parser.add_argument("--passes", type=int, default=30)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)  # measure here, one workload
    args = parser.parse_args(argv)
    if args.child:
        print(measure(args.workload[0], args.passes), flush=True)
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    status = 0
    for workload in args.workload or WORKLOADS:  # one process each, so no workload inherits another's heap
        done = subprocess.run([sys.executable, __file__, "--child", "--workload", workload, "--passes",
                               str(args.passes)], env=env, capture_output=True, text=True)
        print(done.stdout, end="", flush=True)
        if done.returncode:
            print(f"pass_faults: {workload} failed (exit {done.returncode}):\n{done.stderr[-2000:]}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
