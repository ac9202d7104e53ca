#!/usr/bin/env python3
"""Run the full verification over every builtin catalog entry.

Prints one summary row per group: classification, a0^2 sign, worst real
closure residual, worst complex fallback residual (over the failing pairs,
0 when none fails), and the real algebra dimension. The su2-tr row
shows the type-b phenomenon this package surfaces: the three commutator
families close at machine precision over complex coefficients while the
brackets against the alpha0-direction generator have order-one residuals
against every real span.
"""
import sys

from coreplie import CATALOG_NAMES
from coreplie.config import config_for_catalog
from coreplie.report import run_verification

HEADER = (
    f"{'group':<10} {'type':<5} {'a0^2':>5} {'real resid':>12} "
    f"{'complex resid':>14} {'dim':>4} {'expected':>9} {'verdict':>8}"
)


def main() -> int:
    print(HEADER)
    print("-" * len(HEADER))
    any_failed = False
    for name in CATALOG_NAMES:
        report = run_verification(config_for_catalog(name))
        worst_real = max(
            report.closures[f]["max_residual"] for f in report.closures
        )
        worst_complex = max(
            report.closures[f]["max_complex_residual"] for f in report.closures
        )
        dim = report.dimension
        verdict = "PASS" if report.passed else "FAIL"
        any_failed |= not report.passed
        print(
            f"{name:<10} {report.classification:<5} {report.a0_sign:>+5d} "
            f"{worst_real:>12.3e} {worst_complex:>14.3e} "
            f"{dim['computed']:>4d} {dim['expected']:>9d} {verdict:>8}"
        )
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
