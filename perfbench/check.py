"""Reference records and the comparison every benchmark run is checked with.

A record keeps what a run of the program decides, which does not depend on
the absorbable phases xi and delta_alpha0: the classification, the a0 sign,
the overall and per-family verdicts, the algebra dimension and its class,
the exit code, and each family's worst real and complex residual. The
residuals are compared with the tolerance below, everything else exactly.
"""
from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# |r - r_ref| <= RESIDUAL_ATOL + RESIDUAL_RTOL * |r_ref| for every residual.
# The absolute part sits a decade below the default closure tolerance
# (1e-9), so a residual that crosses the gate cannot pass unnoticed.
RESIDUAL_ATOL = 1e-10
RESIDUAL_RTOL = 1e-9


def record(report: dict, exit_code: int) -> dict:
    """Phase-independent summary of a machine report (as a dict)."""
    closures = report["closures"]
    return {
        "classification": report["classification"],
        "a0_sign": report["a0_sign"],
        "passed": report["passed"],
        "families": {name: fam["passed"] for name, fam in sorted(closures.items())},
        "dimension": {
            "computed": report["dimension"]["computed"],
            "classification": report["dimension"]["classification"],
        },
        "exit_code": exit_code,
        "residuals": {
            name: [fam["max_residual"], fam["max_complex_residual"]]
            for name, fam in sorted(closures.items())
        },
    }


def mismatches(got: dict, ref: dict) -> list:
    """Human-readable differences between a record and its reference."""
    out = []
    for field in sorted(set(got) | set(ref)):
        a, b = got.get(field), ref.get(field)
        if field == "residuals" and isinstance(a, dict) and isinstance(b, dict):
            for fam in sorted(set(a) | set(b)):
                pa, pb = a.get(fam), b.get(fam)
                if pa is None or pb is None or len(pa) != len(pb):
                    out.append(f"residuals.{fam}: {pa} != {pb}")
                    continue
                for x, y in zip(pa, pb):
                    if not abs(x - y) <= RESIDUAL_ATOL + RESIDUAL_RTOL * abs(y):
                        out.append(f"residuals.{fam}: {x!r} vs reference {y!r}")
        elif a != b:
            out.append(f"{field}: {a!r} != reference {b!r}")
    return out


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
