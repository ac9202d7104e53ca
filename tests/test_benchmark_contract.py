"""The machine report keeps what the benchmark under perfbench/ reads.

Every benchmark run checks its outputs with perfbench's own record() and
mismatches() against perfbench/reference.json. Running that check here on
the report's round trip makes a format change that breaks it fail in the
test suite rather than in the benchmark.
"""
import sys
from pathlib import Path

import pytest

from coreplie import CATALOG_NAMES, emit_machine, parse_config, parse_machine, run_verification
from coreplie.cli import EXIT_CLOSURE, EXIT_OK
from coreplie.config import config_for_catalog

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from check import load_reference, mismatches, record  # noqa: E402
from inputs import spin_document, su_document  # noqa: E402

REFERENCE = load_reference()

GENERATED = {
    "su2": lambda: su_document(2),
    "su3": lambda: su_document(3),
    "su4": lambda: su_document(4),
    "su5": lambda: su_document(5),
    "spin1-2": lambda: spin_document(1),
    "spin2-2": lambda: spin_document(2),
    "spin3-2": lambda: spin_document(3),
    "spin15-2": lambda: spin_document(15),
    "spin16-2": lambda: spin_document(16),
    "spin47-2": lambda: spin_document(47),
    "spin48-2": lambda: spin_document(48),
}

KEYS = [f"{name}/{mode}" for name in CATALOG_NAMES for mode in ("exact", "fd")] + [
    f"{name}/exact" for name in GENERATED
]


def test_every_in_process_reference_key_is_checked():
    assert sorted(KEYS) == sorted(key for key in REFERENCE if not key.startswith("classify/"))


@pytest.mark.parametrize("key", KEYS)
def test_report_matches_benchmark_reference(key):
    name, mode = key.split("/")
    cfg = parse_config(GENERATED[name]()) if name in GENERATED else config_for_catalog(name)
    report = run_verification(cfg, mode=mode)
    parsed = parse_machine(emit_machine(report))
    assert parsed == report
    exit_code = EXIT_OK if report.passed else EXIT_CLOSURE
    assert mismatches(record(parsed.to_dict(), exit_code), REFERENCE[key]) == []
