#!/usr/bin/env python3
"""Write perfbench/reference.json from the program's real outputs.

    python3 perfbench/make_reference.py

Runs every input the workloads use through the CLI once, with both phases
at zero, and records what each run decided (see check.py). Each record is
cross-checked against the same run in process before it is written. The
committed file was produced this way; regenerate it only when a change to
the program is meant to change these outputs, and say so in that change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import coreplie  # noqa: E402
from check import REFERENCE, mismatches, record  # noqa: E402
from workloads import (  # noqa: E402
    CATALOG,
    WORKLOADS,
    RunSpec,
    generated_inputs,
    run_cli,
    run_in_process,
)


def main() -> int:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    docs = {}
    for workload in WORKLOADS:
        docs.update(generated_inputs(workload))

    runs = [(f"{g}/{mode}", g, mode) for g in CATALOG for mode in ("exact", "fd")]
    runs += [(f"{name}/exact", doc, "exact") for name, doc in docs.items()]

    reference = {}
    outcome = run_cli(("classify", "--group", "u1"), traced=False)
    reference["classify/u1"] = {"stdout": outcome.text, "exit_code": outcome.exit_code}

    for key, source, mode in runs:
        if isinstance(source, str):
            where = ("--group", source)
        else:
            path = out_dir / f"reference-{key.split('/')[0]}.json"
            path.write_text(json.dumps(source), encoding="utf-8")
            where = ("--config", str(path))
        outcome = run_cli(("report", *where, "--mode", mode), traced=False)
        if outcome.error:
            raise SystemExit(f"{key}: {outcome.error}")
        rec = record(coreplie.parse_machine(outcome.text).to_dict(), outcome.exit_code)
        same = run_in_process(RunSpec(key, source, mode, 0.0, 0.0))
        problems = mismatches(record(same.report.to_dict(), same.exit_code), rec)
        if same.text != outcome.text or problems:
            raise SystemExit(f"{key}: CLI and in-process runs disagree: {problems}")
        reference[key] = rec
        print(f"{key:<20} exit {outcome.exit_code}  {rec['classification']}  "
              f"dim {rec['dimension']['computed']} {rec['dimension']['classification']}")
        if not isinstance(source, str):
            path.unlink()

    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} records to {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
