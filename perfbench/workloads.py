"""What one pass of each workload runs, and how one run is executed and checked.

A run is one call of the program: a CLI process, or one in-process
verification (config, run_verification, emit_machine). A job is the unit
that is timed: one CLI process on cli-catalog, one catalog check (the four
catalog groups) on catalog-sweep, one full ladder on the ladders. A pass is
the list of jobs the workload repeats; every pass draws fresh phases and a
fresh order from the seeded generator.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import mismatches, record
from inputs import config_document, spin_document, su_document

HERE = Path(__file__).resolve().parent
CHILD = HERE / "cli_child.py"

# The catalog as it stands at the commit that defined the benchmark; fixed
# here so that new catalog entries do not change the workload.
CATALOG = ("so2-conj", "su2-tr", "u1", "so3")
SU_LADDER = (2, 3, 4, 5)
SPIN_LADDER = (1, 2, 15, 16, 47, 48)  # 2j; odd is type b, even type a
WORKLOADS = ("cli-catalog", "catalog-sweep", "su-ladder", "spin-ladder")

CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class RunSpec:
    key: str  # reference key: "<input>/<mode>" or "classify/<input>"
    source: object  # catalog name, or a config document
    mode: str
    xi: float
    delta_alpha0: float
    argv: tuple | None = None  # CLI arguments; None runs in process


@dataclass
class Outcome:
    elapsed_s: float
    text: str = ""  # machine report, or the CLI's stdout for classify
    exit_code: int | None = None
    report: object = None  # RunReport of an in-process run
    error: str = ""
    child: dict | None = None  # a traced child's own timings and spans
    importtime: str = ""  # a traced child's -X importtime lines


def generated_inputs(workload: str) -> dict:
    """Config documents the benchmark builds for a workload, by input name."""
    if workload == "cli-catalog":
        return {"su3": su_document(3), "spin3-2": spin_document(3)}
    if workload == "su-ladder":
        return {f"su{n}": su_document(n) for n in SU_LADDER}
    if workload == "spin-ladder":
        return {f"spin{t}-2": spin_document(t) for t in SPIN_LADDER}
    return {}


def self_check(docs: dict) -> list:
    """Every generated document survives JSON and parses to its matrices."""
    import coreplie

    problems = []
    for name, doc in docs.items():
        try:
            cfg = coreplie.parse_config(json.loads(json.dumps(doc)))
        except coreplie.ConfigError as exc:
            problems.append(f"generated input {name} does not parse: {exc}")
            continue
        parsed = config_document(name, cfg.spec.generators, cfg.extension.N, cfg.extension.s)
        if parsed != doc:
            problems.append(f"generated input {name} does not parse back to itself")
    return problems


def _phases(rng) -> tuple:
    return rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)


def _shuffled(rng, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def build_pass(workload: str, rng, docs: dict, paths: dict) -> list:
    """One pass: a list of jobs, each a list of RunSpecs."""
    if workload == "cli-catalog":
        calls = [("classify", "u1")] + [("report", g) for g in CATALOG] + [("report", n) for n in docs]
        jobs = []
        for cmd, name in _shuffled(rng, calls):
            xi, da0 = _phases(rng)
            where = ("--group", name) if name in CATALOG else ("--config", paths[name])
            argv = (cmd, *where, "--xi", repr(xi), "--delta-alpha0", repr(da0))
            key = f"classify/{name}" if cmd == "classify" else f"{name}/exact"
            jobs.append([RunSpec(key, docs.get(name, name), "exact", xi, da0, argv)])
        return jobs
    if workload == "catalog-sweep":
        return [
            [RunSpec(f"{g}/{mode}", g, mode, *_phases(rng)) for g in _shuffled(rng, CATALOG)]
            for mode in ("exact", "fd")
        ]
    return [[RunSpec(f"{name}/exact", docs[name], "exact", *_phases(rng)) for name in _shuffled(rng, docs)]]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def verify_in_process(spec: RunSpec, perturb: float | None = None):
    """The in-process job: build the config, verify, emit. Returns (report, text)."""
    import coreplie
    import coreplie.config

    if isinstance(spec.source, str):
        cfg = coreplie.config.config_for_catalog(spec.source)
    else:
        cfg = coreplie.parse_config(spec.source)
    cfg = coreplie.config.with_overrides(
        cfg, xi=spec.xi, delta_alpha0=spec.delta_alpha0, perturb=perturb
    )
    report = coreplie.run_verification(cfg, mode=spec.mode)
    return report, coreplie.emit_machine(report)


def run_in_process(spec: RunSpec, perturb: float | None = None) -> Outcome:
    from coreplie import cli

    start = time.perf_counter()
    try:
        report, text = verify_in_process(spec, perturb)
    except Exception as exc:  # a raising run counts as failed, not as a crash
        return Outcome(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    code = cli.EXIT_OK if report.passed else cli.EXIT_CLOSURE
    return Outcome(elapsed, text=text, exit_code=code, report=report)


def run_cli(argv, traced: bool, trace_path: Path | None = None) -> Outcome:
    """One cold CLI process. Traced runs go through cli_child.py."""
    env = child_env()
    if traced:
        cmd = [sys.executable, "-X", "importtime", str(CHILD), *argv]
        env["PERFBENCH_TRACE_OUT"] = str(trace_path)
    else:
        cmd = [sys.executable, "-m", "coreplie.cli", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=HERE.parent, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return Outcome(time.perf_counter() - start, error=f"CLI timed out after {CLI_TIMEOUT_S} s")
    elapsed = time.perf_counter() - start
    out = Outcome(elapsed, text=proc.stdout.rstrip("\n"), exit_code=proc.returncode)
    if traced:
        try:
            with open(trace_path, encoding="utf-8") as fh:
                out.child = json.load(fh)
            out.child["spawn"] = start
        except (OSError, ValueError) as exc:
            out.error = f"traced child left no trace: {exc}"
        out.importtime = proc.stderr
    return out


def check(spec: RunSpec, outcome: Outcome, reference: dict, parse) -> list:
    """Problems with one run's output; empty when it matches the reference.

    parse is coreplie.parse_machine, passed in so that the caller decides
    whether the call is traced.
    """
    if outcome.error:
        return [outcome.error]
    ref = reference.get(spec.key)
    if ref is None:
        return [f"no reference for {spec.key}"]
    if spec.key.startswith("classify/"):
        got = {"stdout": outcome.text, "exit_code": outcome.exit_code}
        return [f"{k}: {got[k]!r} != reference {ref[k]!r}" for k in ref if got.get(k) != ref[k]]
    try:
        parsed = parse(outcome.text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output is not a machine report: {exc}"]
    problems = mismatches(record(parsed.to_dict(), outcome.exit_code), ref)
    if outcome.report is not None and parsed != outcome.report:
        problems.append("parse_machine(emit_machine(r)) != r")
    if spec.argv is not None:
        _, expected = verify_in_process(spec)
        if outcome.text != expected:
            problems.append("CLI stdout differs from the in-process emission")
    return problems
