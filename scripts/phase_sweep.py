#!/usr/bin/env python3
"""Sweep the absorbable phases xi and delta_alpha0 and watch the residuals.

Both phases are pure bookkeeping for the closure analysis: xi is absorbed
into the coset parameter before any derivative is taken, and delta_alpha0
multiplies the x' -> x map by a unimodular scalar that cancels out of
every conjugation. In floating point the conjugation rounds differently at
each phase, so the residual profiles agree to rounding, not bit for bit.
The sweep exits 1 when a profile drifts by more than
DRIFT_TOL * (1 + max residual) from its value at zero phases.
"""
import sys
from dataclasses import replace

import numpy as np

from coreplie import generator_basis
from coreplie.algebra import verify_coset_coset_closure, verify_mixed_closure
from coreplie.catalog import catalog_entry

DRIFT_TOL = 1e-12


def residual_profile(name: str, xi: float, delta_alpha0: float):
    spec, ext = catalog_entry(name)
    basis = generator_basis(spec, replace(ext, xi=xi, delta_alpha0=delta_alpha0))
    cc = verify_coset_coset_closure(basis)
    mixed = verify_mixed_closure(basis)
    return np.concatenate([cc.pairs["residual"], mixed.pairs["residual"]])


def main() -> int:
    rng = np.random.default_rng(7)
    flat = True
    for name in ("so2-conj", "su2-tr"):
        baseline = residual_profile(name, 0.0, 0.0)
        drift = 0.0
        for _ in range(8):
            xi = float(rng.uniform(-np.pi, np.pi))
            da0 = float(rng.uniform(-np.pi, np.pi))
            profile = residual_profile(name, xi, da0)
            drift = max(drift, float(np.abs(profile - baseline).max()))
        bound = DRIFT_TOL * (1.0 + float(baseline.max()))
        flat = flat and drift <= bound
        print(
            f"{name}: max residual {baseline.max():.6e}, "
            f"max drift over 8 random (xi, delta_alpha0) draws {drift:.3e} "
            f"(bound {bound:.1e})"
        )
    if not flat:
        print("phases are not absorbable: a residual profile moved beyond rounding")
        return 1
    print("phases are absorbable: residual profiles agree to rounding")
    return 0


if __name__ == "__main__":
    sys.exit(main())
