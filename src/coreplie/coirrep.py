"""The coirrep matrices of G + a0*G, one builder per coirrep type.

Type a keeps the dimension d. A subgroup element acts by Delta(g) itself
and a coset element by one d x d block:

  coset-ga0:  e^{i xi} Delta(g) N
  coset-a0g:  e^{i xi} N conj(Delta(g))

Type b doubles the dimension to 2d:

  subgroup:   blockdiag(Delta(g), Delta(g))
  coset-ga0:  [[0, Delta(g) N], [-Delta(g) N, 0]]
  coset-a0g:  [[0, N conj(Delta(g))], [-N conj(Delta(g)), 0]]

The coset phase e^{i alpha0} is left to the caller.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .group_core import (
    AntilinearExtension,
    CoirrepType,
    GroupElement,
    Linearity,
)
from .matrices import block_antidiag2, block_diag2


class Side(Enum):
    SUBGROUP = "subgroup"
    COSET_GA0 = "coset-ga0"
    COSET_A0G = "coset-a0g"


class TypeMismatchError(ValueError):
    """Operation applied to an extension of the wrong coirrep type."""


@dataclass(frozen=True, eq=False)
class CoirrepMatrix:
    """A coirrep matrix with its side and type tags: d x d for type a,
    2d x 2d for type b."""

    matrix: np.ndarray
    side: Side
    ctype: CoirrepType

    def as_group_element(self) -> GroupElement:
        flag = Linearity.LINEAR if self.side is Side.SUBGROUP else Linearity.ANTILINEAR
        return GroupElement(self.matrix, flag)


def _check(g: GroupElement, ext: AntilinearExtension, ctype: CoirrepType):
    if ext.ctype is not ctype:
        raise TypeMismatchError(f"type mismatch: extension is {ext.ctype.value}-type, expected {ctype.value}-type")
    if g.is_antilinear:
        raise ValueError("g must be a linear subgroup element")
    if g.dim != ext.d:
        raise ValueError(f"dimension mismatch: g is {g.dim}x{g.dim}, N is {ext.d}x{ext.d}")


def _coset_block(g: GroupElement, ext: AntilinearExtension, side: Side) -> np.ndarray:
    """Delta(g) N for coset-ga0, N conj(Delta(g)) for coset-a0g."""
    return g.matrix @ ext.N if side is Side.COSET_GA0 else ext.N @ g.matrix.conj()


def build_a_matrix(g: GroupElement, ext: AntilinearExtension, side: Side) -> CoirrepMatrix:
    """The d x d type-a coset matrix of g a0 (coset-ga0) or a0 g (coset-a0g)."""
    if side not in (Side.COSET_GA0, Side.COSET_A0G):
        raise ValueError(f"side must be a coset side, got {side}")
    _check(g, ext, CoirrepType.A)
    return CoirrepMatrix(cmath.exp(1j * ext.xi) * _coset_block(g, ext, side), side, CoirrepType.A)


def build_b_matrix(g: GroupElement, ext: AntilinearExtension, side: Side) -> CoirrepMatrix:
    """The 2d x 2d type-b coirrep matrix of g (subgroup), g a0 (coset-ga0) or
    a0 g (coset-a0g)."""
    _check(g, ext, CoirrepType.B)
    if side is Side.SUBGROUP:
        m = block_diag2(g.matrix, g.matrix)
    elif side in (Side.COSET_GA0, Side.COSET_A0G):
        block = _coset_block(g, ext, side)
        m = block_antidiag2(block, -block)
    else:
        raise ValueError(f"unknown side {side!r}")
    return CoirrepMatrix(m, side, CoirrepType.B)
