"""Group elements with antilinear composition semantics.

A group of the form G + a0*G consists of a linear matrix Lie group G and a
coset of antilinear operations. An antilinear element with matrix A acts as
v -> A * conj(v), so composing two elements conjugates the right factor's
matrix whenever the left factor is antilinear, and the linearity flags
combine like Z2.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matrices import (
    ENTRY_TOL,
    as_square_complex,
    entries_close,
    expm,
    is_invertible,
    real_vectorization,
)


class Linearity(Enum):
    LINEAR = "linear"
    ANTILINEAR = "antilinear"


class CoirrepType(Enum):
    A = "a"
    B = "b"


class InconsistentExtensionError(ValueError):
    """The antilinear extension does not square to plus or minus identity."""


@dataclass(frozen=True)
class GroupElement:
    """An invertible complex matrix together with a linearity flag.

    Subgroup elements are linear; elements of the antilinear coset carry
    linearity ANTILINEAR and act as v -> matrix * conj(v).
    """

    matrix: np.ndarray
    linearity: Linearity = Linearity.LINEAR

    def __post_init__(self):
        m = as_square_complex(self.matrix, "group element matrix")
        if not is_invertible(m):
            raise ValueError("group element matrix is singular")
        object.__setattr__(self, "matrix", m)
        if not isinstance(self.linearity, Linearity):
            raise ValueError(f"invalid linearity flag: {self.linearity!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_antilinear(self) -> bool:
        return self.linearity is Linearity.ANTILINEAR


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product a * b of two group elements.

    The result matrix is a.matrix @ b.matrix when a is linear and
    a.matrix @ conj(b.matrix) when a is antilinear; the flag is the XOR of
    the two flags, so coset * coset always lands in the linear subgroup.
    """
    if a.matrix.shape != b.matrix.shape:
        raise ValueError(
            f"dimension mismatch: {a.matrix.shape} cannot compose with {b.matrix.shape}"
        )
    right = b.matrix.conj() if a.is_antilinear else b.matrix
    flag = Linearity.LINEAR if a.linearity == b.linearity else Linearity.ANTILINEAR
    return GroupElement(a.matrix @ right, flag)


@dataclass(frozen=True)
class LieGroupSpec:
    """Subgroup G presented by n real parameters and n generator matrices.

    The generators X_sigma are the matrix basis of the algebra of the
    d-dimensional irrep of G; the one-parameter family is
    g(alpha) = exp(sum_sigma alpha_sigma X_sigma).
    """

    n: int
    d: int
    generators: tuple
    name: str = "custom"

    def __post_init__(self):
        gens = tuple(as_square_complex(g, f"generator {i}") for i, g in enumerate(self.generators))
        if len(gens) != self.n:
            raise ValueError(f"expected {self.n} generators, got {len(gens)}")
        for i, g in enumerate(gens):
            if g.shape != (self.d, self.d):
                raise ValueError(
                    f"generator {i} has shape {g.shape}, expected ({self.d}, {self.d})"
                )
        if self.n > 0:
            stacked = np.stack([real_vectorization(g) for g in gens])
            rank = np.linalg.matrix_rank(stacked, tol=1e-10 * max(1.0, float(np.abs(stacked).max())))
            if rank != self.n:
                raise ValueError(
                    f"generators are not real-linearly independent (rank {rank} < {self.n})"
                )
        object.__setattr__(self, "generators", gens)


def exp_curve(spec: LieGroupSpec, alpha) -> GroupElement:
    """Linear element exp(sum_sigma alpha_sigma X_sigma) of the subgroup."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (spec.n,):
        raise ValueError(f"alpha must have length {spec.n}, got shape {alpha.shape}")
    z = np.zeros((spec.d, spec.d), dtype=complex)
    for a, x in zip(alpha, spec.generators):
        z = z + a * x
    return GroupElement(expm(z), Linearity.LINEAR)


@dataclass(frozen=True)
class AntilinearExtension:
    """Data of the antilinear coset: the matrix N of a0, the declared sign s
    of a0 squared, and the phase xi with mu/lambda = exp(i*xi)."""

    N: np.ndarray
    s: int = 1
    xi: float = 0.0

    def __post_init__(self):
        n = as_square_complex(self.N, "N")
        if not is_invertible(n):
            raise ValueError("N must be invertible")
        object.__setattr__(self, "N", n)
        if self.s not in (+1, -1):
            raise ValueError(f"s must be +1 or -1, got {self.s}")

    @property
    def d(self) -> int:
        return self.N.shape[0]

    def a0_element(self) -> GroupElement:
        """The coset representative a0 as a group element (N, antilinear)."""
        return GroupElement(self.N, Linearity.ANTILINEAR)


def a0_square_sign(ext: AntilinearExtension, tol: float = ENTRY_TOL) -> int:
    """Sign of a0 composed with itself: +1 if N * conj(N) is +E, -1 if -E.

    Raises InconsistentExtensionError when the square is neither, which
    means (N, antilinear) does not extend the group consistently.
    """
    a0 = ext.a0_element()
    sq = compose(a0, a0)
    eye = np.eye(ext.d, dtype=complex)
    if entries_close(sq.matrix, eye, tol):
        return +1
    if entries_close(sq.matrix, -eye, tol):
        return -1
    raise InconsistentExtensionError(
        "inconsistent extension: N * conj(N) is not plus or minus identity"
    )


def coirrep_type(ext: AntilinearExtension) -> CoirrepType:
    """Type a when N * conj(N) = s * E, type b when N * conj(N) = -s * E.

    Type a keeps the irrep dimension d; type b doubles it to 2d.
    """
    return CoirrepType.A if a0_square_sign(ext) == ext.s else CoirrepType.B


def a0_sign_of_type(ctype: CoirrepType, s: int) -> int:
    """Inverse of coirrep_type: the sign of a0 squared given the type and s."""
    return s if ctype is CoirrepType.A else -s


def classify_coirrep(spec: LieGroupSpec, ext: AntilinearExtension) -> CoirrepType:
    """coirrep_type of an extension checked against the irrep dimension."""
    if ext.d != spec.d:
        raise ValueError(f"N is {ext.d}x{ext.d} but the irrep dimension is {spec.d}")
    return coirrep_type(ext)
