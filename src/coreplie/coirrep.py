"""The coirrep matrices of G + a0*G, one builder for both coirrep types.

coirrep_matrix reads the type from the extension (ext.ctype):

             type a (d x d)              type b (2d x 2d)
  subgroup:  Delta(g)                    blockdiag(Delta(g), Delta(g))
  coset-ga0: e^{i xi} Delta(g) N         [[0, Delta(g) N], [-Delta(g) N, 0]]
  coset-a0g: e^{i xi} N conj(Delta(g))   [[0, N conj(Delta(g))], [-N conj(Delta(g)), 0]]

The coset phase e^{i alpha0} is left to the caller.
"""
from __future__ import annotations

import cmath
from enum import Enum

from .group_core import AntilinearExtension, CoirrepType, GroupElement, Linearity
from .matrices import block_antidiag2, block_diag2


class Side(Enum):
    SUBGROUP = "subgroup"
    COSET_GA0 = "coset-ga0"
    COSET_A0G = "coset-a0g"


def coirrep_matrix(g: GroupElement, ext: AntilinearExtension, side: Side) -> GroupElement:
    """The coirrep matrix of g (subgroup), g a0 (coset-ga0) or a0 g (coset-a0g):
    a linear element on the subgroup side, an antilinear one on a coset side."""
    if not isinstance(side, Side):
        raise ValueError(f"unknown side {side!r}")
    if g.is_antilinear:
        raise ValueError("g must be a linear subgroup element")
    if g.dim != ext.d:
        raise ValueError(f"dimension mismatch: g is {g.dim}x{g.dim}, N is {ext.d}x{ext.d}")
    b_type = ext.ctype is CoirrepType.B
    if side is Side.SUBGROUP:
        return GroupElement(block_diag2(g.matrix, g.matrix) if b_type else g.matrix)
    block = g.matrix @ ext.N if side is Side.COSET_GA0 else ext.N @ g.matrix.conj()
    m = block_antidiag2(block, -block) if b_type else cmath.exp(1j * ext.xi) * block
    return GroupElement(m, Linearity.ANTILINEAR)
