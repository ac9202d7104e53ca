"""Transformed coordinates and coirrep block actions.

Coordinates: the original representation space has coordinates y_1..y_2d.
For type-a coirreps they split into two d-blocks x(1), x(2); for type-b the
whole 2d-vector transforms at once. Points carry the half-angle phase
factor exp(i*alpha0/2) as metadata (field `phase` holds alpha0) so the
bookkeeping stays auditable; `materialize` bakes it into the entries.

Type-b coset matrices are block-antidiagonal and their action swaps which
block carries the d-suffixed label; that swap is bookkeeping, recorded in
`block_order`, never a data move.
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
    coirrep_type,
)
from .matrices import as_complex_vector, block_antidiag2, block_diag2


class Frame(Enum):
    Y_ORIGINAL = "y-original"
    X = "x-frame"
    X_PRIME = "x-prime-frame"


class BlockOrder(Enum):
    PLAIN = "plain"        # (x | x_d)
    SWAPPED = "swapped"    # (x_d | x)


class Side(Enum):
    SUBGROUP = "subgroup"
    COSET_GA0 = "coset-ga0"
    COSET_A0G = "coset-a0g"


class TypeMismatchError(ValueError):
    """Operation applied to an extension of the wrong coirrep type."""


@dataclass(frozen=True, eq=False)
class CoordinateVector:
    """A point of the representation space with frame and phase metadata.

    The denoted vector is exp(i*phase/2) * entries; `phase` is the carried
    coset parameter alpha0.
    """

    frame: Frame
    entries: np.ndarray
    phase: float = 0.0
    block_order: BlockOrder = BlockOrder.PLAIN

    def __post_init__(self):
        object.__setattr__(self, "entries", as_complex_vector(self.entries, "entries"))

    def materialize(self) -> np.ndarray:
        """Entries with the half-angle factor exp(i*phase/2) baked in."""
        return cmath.exp(0.5j * self.phase) * self.entries

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class CoirrepMatrix:
    """A 2d x 2d type-b coirrep block matrix with its side tag."""

    matrix: np.ndarray
    side: Side
    ctype: CoirrepType

    def as_group_element(self) -> GroupElement:
        flag = Linearity.LINEAR if self.side is Side.SUBGROUP else Linearity.ANTILINEAR
        return GroupElement(self.matrix, flag)


def transform_coords_a(y, ext: AntilinearExtension):
    """Type-a transformed coordinates of an original 2d-vector y.

    x1_i = (y_i + e^{i xi} (N y_hi)_i) / sqrt(2)
    x2_i = i (-y_i + e^{i xi} (N y_hi)_i) / sqrt(2)
    where y_hi is the upper-index half (y_{d+1}..y_{2d}).
    """
    y = as_complex_vector(y, "y")
    d = ext.d
    if y.shape[0] != 2 * d:
        raise ValueError(f"y must have length {2 * d}, got {y.shape[0]}")
    lo, hi = y[:d], y[d:]
    w = cmath.exp(1j * ext.xi) * (ext.N @ hi)
    x1 = (lo + w) / np.sqrt(2.0)
    x2 = 1j * (-lo + w) / np.sqrt(2.0)
    return x1, x2


def transform_coords_b(y, ext: AntilinearExtension) -> np.ndarray:
    """Type-b transformed coordinates: x_i = -i y_i, x_{d+i} = -i (N y_hi)_i."""
    y = as_complex_vector(y, "y")
    d = ext.d
    if y.shape[0] != 2 * d:
        raise ValueError(f"y must have length {2 * d}, got {y.shape[0]}")
    out = np.empty(2 * d, dtype=complex)
    out[:d] = -1j * y[:d]
    out[d:] = -1j * (ext.N @ y[d:])
    return out


def act_subgroup_a(g: GroupElement, x0: CoordinateVector, alpha0: float) -> CoordinateVector:
    """Subgroup action Delta(g) exp(i alpha0/2) x0 on a type-a point."""
    if g.is_antilinear:
        raise ValueError("subgroup action requires a linear element")
    if x0.frame is not Frame.X:
        raise ValueError(f"point must be in the x frame, got {x0.frame.value}")
    if g.dim != x0.dim:
        raise ValueError(f"dimension mismatch: element is {g.dim}, point is {x0.dim}")
    return CoordinateVector(Frame.X, g.matrix @ x0.entries, x0.phase + alpha0)


def act_coset_a(
    g: GroupElement,
    ext: AntilinearExtension,
    x0: CoordinateVector,
    alpha0: float,
    variant: Side,
) -> CoordinateVector:
    """Single-block coset action for type-a coirreps.

    Variant coset-ga0 applies exp(i alpha0) e^{i xi} Delta(g) N, variant
    coset-a0g applies exp(i alpha0) e^{i xi} N conj(Delta(g)), both on the
    point together with its half-angle factor.
    """
    if variant not in (Side.COSET_GA0, Side.COSET_A0G):
        raise ValueError(f"variant must be a coset side, got {variant}")
    if coirrep_type(ext) is not CoirrepType.A:
        raise TypeMismatchError("type mismatch: extension is b-type, expected a-type")
    if g.is_antilinear:
        raise ValueError("g must be a linear subgroup element")
    if g.dim != ext.d or x0.dim != ext.d:
        raise ValueError("dimension mismatch between g, N and the point")
    if x0.frame is not Frame.X:
        raise ValueError(f"point must be in the x frame, got {x0.frame.value}")
    scalar = cmath.exp(1j * alpha0) * cmath.exp(1j * ext.xi)
    if variant is Side.COSET_GA0:
        block = scalar * (g.matrix @ ext.N)
    else:
        block = scalar * (ext.N @ g.matrix.conj())
    return CoordinateVector(Frame.X_PRIME, block @ x0.entries, x0.phase + alpha0)


def build_b_matrix(g: GroupElement, ext: AntilinearExtension, side: Side) -> CoirrepMatrix:
    """Assemble a 2d x 2d type-b coirrep matrix.

    subgroup:   blockdiag(Delta(g), Delta(g))
    coset-ga0:  [[0, Delta(g) N], [-Delta(g) N, 0]]
    coset-a0g:  [[0, N conj(Delta(g))], [-N conj(Delta(g)), 0]]
    """
    if coirrep_type(ext) is not CoirrepType.B:
        raise TypeMismatchError("type mismatch: extension is a-type, expected b-type")
    if g.is_antilinear:
        raise ValueError("g must be a linear subgroup element")
    if g.dim != ext.d:
        raise ValueError(f"dimension mismatch: g is {g.dim}x{g.dim}, N is {ext.d}x{ext.d}")
    if side is Side.SUBGROUP:
        m = block_diag2(g.matrix, g.matrix)
    elif side is Side.COSET_GA0:
        blk = g.matrix @ ext.N
        m = block_antidiag2(blk, -blk)
    elif side is Side.COSET_A0G:
        blk = ext.N @ g.matrix.conj()
        m = block_antidiag2(blk, -blk)
    else:
        raise ValueError(f"unknown side {side!r}")
    return CoirrepMatrix(m, side, CoirrepType.B)


def act_b(cm: CoirrepMatrix, point: CoordinateVector, alpha0: float) -> CoordinateVector:
    """Apply a type-b coirrep matrix to a stacked 2d point.

    Coset matrices carry the extra full-angle factor exp(i alpha0) and swap
    the block labels of the result, per the right-hand-side ordering of the
    coset actions; subgroup matrices do neither.
    """
    if cm.matrix.shape[0] != point.dim:
        raise ValueError(
            f"dimension mismatch: matrix is {cm.matrix.shape[0]}, point is {point.dim}"
        )
    if cm.side is Side.SUBGROUP:
        entries = cm.matrix @ point.entries
        frame = Frame.X
        order = point.block_order
    else:
        entries = cmath.exp(1j * alpha0) * (cm.matrix @ point.entries)
        frame = Frame.X_PRIME
        order = BlockOrder.SWAPPED if point.block_order is BlockOrder.PLAIN else BlockOrder.PLAIN
    return CoordinateVector(frame, entries, point.phase + alpha0, order)
