#!/usr/bin/env python3
"""coreplie benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload su-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The lines before it
record the environment and the checks. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 5
CLI_PROBES = 3  # traced CLI processes for the cli.* metrics of in-process workloads
NEGATIVE_PERTURB = 1e-2
# Each workload's smallest input whose generators the perturbation can move
# (u1's single 1x1 generator cannot fail a closure check). The negative
# control perturbs it; the traced CLI probes classify it.
SMALL_INPUT = {
    "cli-catalog": "so3",
    "catalog-sweep": "so3",
    "su-ladder": "su2",
    "spin-ladder": "spin1-2",
}


# OpenBLAS runs one worker thread per core by default. On a two-core machine
# shared with other tenants that worker spins a whole core between calls, and
# whenever either core is taken the verification stalls on it: catalog-sweep
# measured 27x slower with two competing busy loops, against 1.04x with one
# thread. The benchmark pins the count so that it measures the program, not
# the host's scheduler; the environment line records what the libraries run.
BLAS_THREADS = "1"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


# --- environment -------------------------------------------------------------


def cpu_pressure_total():
    """The "some" total (microseconds) of /proc/pressure/cpu, if readable."""
    try:
        with open("/proc/pressure/cpu", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("some"):
                    return int(line.split("total=")[1])
    except (OSError, IndexError, ValueError):
        return None
    return None


def blas_info() -> list:
    """Each BLAS library loaded (numpy and scipy bring their own) and the
    thread count it runs with."""
    import ctypes

    import numpy  # noqa: F401  (loads numpy's BLAS)
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    out = []
    for path in libs:
        entry = {"library": os.path.basename(path), "threads": None}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            lib = None
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                entry["threads"] = int(fn())
                break
        out.append(entry)
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": blas_info(),
        "blas_threads_pinned": BLAS_THREADS,
    }


# --- traced-child import lines ---------------------------------------------


def import_split(stderr: str) -> dict:
    """numpy and scipy shares (ms) of the import lines before IMPORTS_DONE.

    An import counts for numpy or scipy when it is the outermost import of
    that package, so numpy modules pulled in by scipy count for scipy.
    """
    from cli_child import IMPORTS_DONE

    lines = []
    for line in stderr.splitlines():
        if line.startswith(IMPORTS_DONE):
            break
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
        if m:
            lines.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    out = {"numpy": 0.0, "scipy": 0.0}
    stack = []  # ancestors of the current line, walking the post-order backwards
    for depth, name, cumulative_us in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in out and not any(a[1].split(".")[0] in out for a in stack):
            out[top] += cumulative_us / 1000.0
        stack.append((depth, name))
    return out


# --- the benchmark -----------------------------------------------------------


class Bench:
    def __init__(self, workload: str, trace: bool):
        import coreplie
        from check import load_reference
        from tracing import Tracer

        self.coreplie = coreplie
        self.workload = workload
        self.trace = trace
        self.reference = load_reference()
        self.cli = workload == "cli-catalog"
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.report_bytes = 0
        self.speeds = []  # calibration kernel times of the timed passes
        self.child_counter = 0
        # traced results
        self.self_s = defaultdict(float)
        self.verify_s = 0.0
        self.counts = Counter()
        self.cli_samples = defaultdict(list)
        self.child_spans = []  # (child process, span) of traced CLI runs

    # -- setup ---------------------------------------------------------------

    def setup(self, rng) -> float:
        """One set-up: cold import of the program in a fresh interpreter,
        input generation with its self-check, and a warm-up run of the
        workload's smallest input. Returns its time in seconds."""
        from workloads import build_pass, child_env, generated_inputs, self_check

        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import coreplie.cli"],
            env=child_env(), cwd=ROOT, check=True, timeout=120,
        )
        self.docs = generated_inputs(self.workload)
        self.paths = {}
        for name, doc in self.docs.items():
            path = OUT / f"input-{os.getpid()}-{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.paths[name] = str(path.relative_to(ROOT))
        for problem in self_check(self.docs):
            self.note(problem)
        jobs = build_pass(self.workload, rng, self.docs, self.paths)
        name = SMALL_INPUT[self.workload]
        warm_up = next(spec for job in jobs for spec in job if spec.key.startswith(name + "/"))
        self.run_pass([[warm_up]], traced=False, calibrated=False)
        return time.perf_counter() - start

    # -- runs ----------------------------------------------------------------

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def call(self, traced: bool, fn):
        """fn(), with the tracer installed around it when traced."""
        if not traced:
            return fn()
        self.tracer.install()
        try:
            return fn()
        finally:
            self.tracer.uninstall()

    def execute(self, spec, traced: bool):
        from workloads import run_cli, run_in_process

        if spec.argv is not None:
            if not traced:
                return run_cli(spec.argv, traced=False)
            outcome = self.traced_cli(spec.argv)
            if outcome.child is not None:
                self.take_child(outcome, layers=True)
            return outcome
        return self.call(traced, lambda: run_in_process(spec))

    def traced_cli(self, argv):
        from workloads import run_cli

        self.child_counter += 1
        path = OUT / f"child-{os.getpid()}-{self.child_counter}.json"
        try:
            return run_cli(argv, traced=True, trace_path=path)
        finally:
            path.unlink(missing_ok=True)

    def take_child(self, outcome, layers: bool) -> None:
        """Fold a traced child's timings into cli.*, and with layers=True
        its spans and counts into the layer totals."""
        from tracing import durations, self_times

        child = outcome.child
        if layers:
            spans = [tuple(s) for s in child["spans"]]
            for name, value in self_times(spans).items():
                self.self_s[name] += value
            self.verify_s += durations(spans).get("report.verify", 0.0)
            self.counts.update(child["counts"])
            tag = f"child-{self.child_counter}"
            self.child_spans += [(tag, s[:2] + (self.tracer.job,) + s[3:]) for s in spans]
        split = import_split(outcome.importtime)
        self.cli_samples["cli.interp_ms"].append((child["start"] - child["spawn"]) * 1e3)
        self.cli_samples["cli.import_numpy_ms"].append(split["numpy"])
        self.cli_samples["cli.import_scipy_ms"].append(split["scipy"])
        self.cli_samples["cli.import_coreplie_ms"].append(
            child["import_s"] * 1e3 - split["numpy"] - split["scipy"]
        )
        self.cli_samples["cli.main_ms"].append(child["main_s"] * 1e3)

    def run_pass(self, jobs, traced: bool, calibrated: bool = True) -> list:
        """Run one pass; return the time of each job in seconds. With
        calibrated, the calibration kernel is timed after every run of the
        program (see calibration.py)."""
        from calibration import samples
        from workloads import check

        times = []
        for job in jobs:
            job_s = 0.0
            for spec in job:
                self.tracer.job = self.attempted
                outcome = self.execute(spec, traced)
                if calibrated:
                    self.speeds += samples(outcome.elapsed_s)
                job_s += outcome.elapsed_s
                parse = lambda text: self.call(traced, lambda: self.coreplie.parse_machine(text))  # noqa: E731
                problems = check(spec, outcome, self.reference, parse)
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.note(f"{spec.key}: {'; '.join(problems[:3])}")
                if not spec.key.startswith("classify/"):
                    self.report_bytes += len(outcome.text.encode())
            times.append(job_s)
        return times

    def negative_control(self) -> list:
        """Problems the check finds in a perturbed run compared with the
        unperturbed reference; empty would mean the check is blind."""
        from workloads import CATALOG, RunSpec, check, run_cli, run_in_process

        name = SMALL_INPUT[self.workload]
        source = name if name in CATALOG else self.docs[name]
        spec = RunSpec(f"{name}/exact", source, "exact", 0.0, 0.0)
        if self.cli:
            argv = ("report", "--group", name, "--perturb", repr(NEGATIVE_PERTURB))
            outcome = run_cli(argv, traced=False)
        else:
            outcome = run_in_process(spec, perturb=NEGATIVE_PERTURB)
        return check(spec, outcome, self.reference, self.coreplie.parse_machine)

    def cli_probes(self) -> None:
        """Traced CLI processes classifying one of this workload's inputs;
        they feed the cli.* metrics only."""
        name = SMALL_INPUT[self.workload]
        where = ("--config", self.paths[name]) if name in self.paths else ("--group", name)
        for _ in range(CLI_PROBES):
            outcome = self.traced_cli(("classify", *where))
            if outcome.child is None or outcome.exit_code != 0:
                self.note(f"traced CLI probe failed: {outcome.error or outcome.exit_code}")
                continue
            self.take_child(outcome, layers=False)

    def remove_inputs(self) -> None:
        for path in self.paths.values():
            (ROOT / path).unlink(missing_ok=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy loads; children inherit it
    if not (ROOT / "src" / "coreplie" / "__init__.py").is_file():
        fail(f"no coreplie sources under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from calibration import NOMINAL_S
    from workloads import WORKLOADS, build_pass

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    OUT.mkdir(exist_ok=True)
    pressure_before = cpu_pressure_total()

    bench = Bench(args.workload, bool(args.trace))
    warm_rng = random.Random(f"warm-up {args.seed}")
    setups = [bench.setup(warm_rng) for _ in range(SETUP_REPEATS)]
    negative = bench.negative_control()

    rng = random.Random(args.seed)
    plain, traced, job_times = [], [], []
    start = time.perf_counter()
    bytes_before = bench.report_bytes
    while True:
        is_traced = bench.trace and len(plain) > len(traced)
        times = bench.run_pass(build_pass(args.workload, rng, bench.docs, bench.paths), is_traced)
        (traced if is_traced else plain).append(sum(times))
        if not is_traced:
            job_times.extend(times)
        done = time.perf_counter() - start >= args.seconds
        if done and (not bench.trace or traced):
            break
    if bench.trace and not bench.cli:
        bench.cli_probes()

    bench.remove_inputs()
    # Job times are scaled to the nominal machine speed by the median time of
    # the calibration kernel over the run (see calibration.py). Set-up times
    # are not: process start and imports dominate them, and the kernel does
    # not track those (scaled, their spread between runs doubled).
    scale = NOMINAL_S / median(bench.speeds)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if bench.cli else resource.RUSAGE_SELF)
    pass_bytes = (bench.report_bytes - bytes_before) / (len(plain) + len(traced))
    if bench.trace:
        metrics, stage_check = layer_metrics(bench, plain, traced, pass_bytes)
    else:
        metrics = {
            "job_ms.p50": (median(job_times) * scale * 1e3, "ms"),
            "setup_s": (median(setups), "s"),
            "report_kb": (pass_bytes / 1e3, "KB"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        }

    correct = not bench.problems and bool(negative)
    env = environment()
    env["cpu_pressure_some_total_us"] = {"before": pressure_before, "after": cpu_pressure_total()}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs_timed": len(job_times),
        "job_ms.p90": p90(job_times) * scale * 1e3,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples_s": setups,
        "as_measured": {
            "job_ms.p50": median(job_times) * 1e3,
            "job_ms.p90": p90(job_times) * 1e3,
        },
        "calibration_kernel_ms": median(bench.speeds) * 1e3,
        "fail_ratio": f"{bench.failed}/{bench.attempted}",
        "negative_control": negative[:3] or "NOT FLAGGED: the check cannot see a perturbed run",
        "problems": bench.problems,
    }
    if bench.trace:
        summary["trace_stage_check"] = stage_check
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        record = {"environment": env, "summary": summary, "result": result}
        record["pass_s"] = {"untraced": plain, "traced": traced}
        json.dump(record, fh, indent=1)
    if bench.trace:
        with open(OUT / f"spans-{tag}.jsonl", "w", encoding="utf-8") as fh:
            for process, span in [("main", s) for s in bench.tracer.spans] + bench.child_spans:
                fh.write(json.dumps({"process": process, "span": span}) + "\n")
    print("environment " + json.dumps(env))
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


def layer_metrics(bench: Bench, plain: list, traced: list, report_bytes: float):
    """Per-layer metrics per traced pass (cli.* per traced CLI process), and
    the stage check: run_verification time against the stage self times."""
    from tracing import COUNT_NAMES, SPAN_NAMES, durations, self_times

    self_s, counts = Counter(bench.self_s), Counter(bench.counts)
    self_s.update(self_times(bench.tracer.spans))  # update adds, and keeps every value
    counts.update(bench.tracer.counts)
    verify_s = bench.verify_s + durations(bench.tracer.spans).get("report.verify", 0.0)
    n = len(traced)
    out = {}
    for key in sorted(bench.cli_samples):
        out[key] = (median(bench.cli_samples[key]), "ms")
    for span in SPAN_NAMES:
        metric = "report.verify_self_ms" if span == "report.verify" else f"{span}_ms"
        out[metric] = (self_s.get(span, 0.0) / n * 1e3, "ms")
    for count in COUNT_NAMES:
        out[count] = (counts.get(count, 0) / n, "count")
    out["report.bytes"] = (report_bytes, "B")
    out["trace.overhead_pct"] = ((median(traced) - median(plain)) / median(plain) * 100.0, "%")
    # Stage self times plus the verify self time should account for every
    # run_verification span; the gap is time of those stages spent outside it.
    outside = ("config.load", "report.emit", "report.parse")
    stage_check = {
        "run_verification_ms": verify_s / n * 1e3,
        "stages_plus_verify_self_ms": sum(v for k, v in self_s.items() if k not in outside) / n * 1e3,
    }
    return out, stage_check


if __name__ == "__main__":
    sys.exit(main())
