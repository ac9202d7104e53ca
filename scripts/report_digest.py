#!/usr/bin/env python3
"""Print the sha256 and byte length of every reference machine report, one
line each.

The reports cover the builtin catalog, su(2..5) with N = E, and spin
2j in {1, 2, 3, 15, 16, 47, 48} with time reversal (the last two from
perfbench/inputs.py), in exact and fd mode, at (xi, delta_alpha0) = (0, 0)
and (0.7, -1.3): 60 lines of the form

    <input>/<mode>/<xi>,<delta_alpha0> <sha256> <bytes>

The phases are echoed, never applied: a report at (0.7, -1.3) differs from
its (0, 0) report only in the fields xi and delta_alpha0, so each phased
digest differs from its (0, 0) digest through those two fields alone.
Reports are byte-deterministic for a fixed BLAS thread count; compare
digests made with the same OPENBLAS_NUM_THREADS (1 is the reference).

Only parse_config, config_for_catalog, with_overrides, run_verification and
emit_machine are used, so two source trees can be compared byte for byte:

    PYTHONPATH=src python scripts/report_digest.py > after.txt
    PYTHONPATH=/path/to/other/src python scripts/report_digest.py > before.txt
    diff before.txt after.txt
"""
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from coreplie import CATALOG_NAMES, emit_machine, parse_config, run_verification  # noqa: E402
from coreplie.config import config_for_catalog, with_overrides  # noqa: E402
from inputs import spin_document, su_document  # noqa: E402

SU_RANKS = (2, 3, 4, 5)
SPIN_TWO_J = (1, 2, 3, 15, 16, 47, 48)
MODES = ("exact", "fd")
PHASES = ((0.0, 0.0), (0.7, -1.3))


def configs():
    """Every input's parsed config, catalog first."""
    yield from map(config_for_catalog, CATALOG_NAMES)
    yield from (parse_config(su_document(n)) for n in SU_RANKS)
    yield from (parse_config(spin_document(two_j)) for two_j in SPIN_TWO_J)


def digests():
    """(key, sha256 hex digest, byte length) of each report."""
    for cfg in configs():
        for mode in MODES:
            for xi, delta_alpha0 in PHASES:
                report = run_verification(with_overrides(cfg, xi=xi, delta_alpha0=delta_alpha0), mode=mode)
                data = emit_machine(report).encode()
                key = f"{cfg.spec.name}/{mode}/{xi:g},{delta_alpha0:g}"
                yield key, hashlib.sha256(data).hexdigest(), len(data)


def main() -> int:
    for key, digest, size in digests():
        print(key, digest, size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
