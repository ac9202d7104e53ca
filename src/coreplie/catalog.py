"""Builtin group catalog.

Four ready-made (subgroup, antilinear extension) pairs:

  so2-conj  SO(2) planar rotations with plain conjugation, N = E, s = +1
  su2-tr    SU(2) spin-1/2 with the time-reversal matrix N = i sigma_y
  u1        U(1) phases, d = 1, N = 1
  so3       SO(3) rotations in the vector irrep, N = E

so2-conj, u1 and so3 classify as type a; su2-tr is the canonical type-b
(Kramers) case, where the coirrep dimension doubles to 4.
"""
from __future__ import annotations

import numpy as np

from .group_core import AntilinearExtension, LieGroupSpec

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _so2_spec() -> LieGroupSpec:
    return LieGroupSpec([[[0.0, -1.0], [1.0, 0.0]]], name="so2-conj")


def _su2_spec() -> LieGroupSpec:
    return LieGroupSpec(-0.5j * np.array([SIGMA_X, SIGMA_Y, SIGMA_Z]), name="su2-tr")


def _u1_spec() -> LieGroupSpec:
    return LieGroupSpec([[[1j]]], name="u1")


def _so3_spec() -> LieGroupSpec:
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c] = 1.0
        eps[a, c, b] = -1.0
    return LieGroupSpec(-eps, name="so3")


_BUILDERS = {
    "so2-conj": lambda: (_so2_spec(), AntilinearExtension(np.eye(2), s=+1)),
    "su2-tr": lambda: (_su2_spec(), AntilinearExtension(1j * SIGMA_Y, s=+1)),
    "u1": lambda: (_u1_spec(), AntilinearExtension(np.eye(1), s=+1)),
    "so3": lambda: (_so3_spec(), AntilinearExtension(np.eye(3), s=+1)),
}

CATALOG_NAMES = tuple(sorted(_BUILDERS))


def catalog_entry(name: str):
    """Return (LieGroupSpec, AntilinearExtension) for a catalog name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(CATALOG_NAMES)
        raise KeyError(f"unknown catalog group {name!r} (known: {known})") from None
    return builder()
