"""Group elements with antilinear composition semantics.

A group of the form G + a0*G consists of a linear matrix Lie group G and a
coset of antilinear operations. An antilinear element with matrix A acts as
v -> A * conj(v), so composing two elements conjugates the right factor's
matrix whenever the left factor is antilinear, and the linearity flags
combine like Z2.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from numbers import Real

import numpy as np

from .matrices import (
    RANK_TOL,
    RealSpan,
    as_square_complex,
    entries_close,
    expm,
    is_invertible,
)


class Linearity(Enum):
    LINEAR = "linear"
    ANTILINEAR = "antilinear"


class CoirrepType(Enum):
    A = "a"
    B = "b"


class InconsistentExtensionError(ValueError):
    """The antilinear extension does not square to plus or minus identity."""


class FieldError(ValueError):
    """An invalid field of an input type; args are (field name, what was expected)."""

    def __str__(self):
        return "{}: {}".format(*self.args)


def check_real(name: str, value, positive: bool = False) -> float:
    """value as a float if it is a finite real number that is not a bool and fits a
    float, and above 0 when positive; otherwise FieldError(name, what was expected)."""
    try:
        ok = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        raise FieldError(name, "expected a real number within float range") from None
    if not (ok and (value > 0 or not positive)):
        raise FieldError(name, f"expected a finite {'positive ' * positive}number, got {value}")
    return float(value)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class LieGroupSpec:
    """Subgroup G presented by n real parameters and n generator matrices.

    The generators X_sigma, one read-only complex (n, d, d) stack that sets n and
    d, are a real basis of the algebra of the d-dimensional irrep of G; the
    one-parameter family is g(alpha) = exp(sum_sigma alpha_sigma X_sigma).
    .span, set from the generators, is their RealSpan, factored by the
    independence test; exact-mode generator_basis expands over it. name must
    be a str that UTF-8 can encode, since every machine document carries it.
    """

    generators: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise FieldError("name", "expected a string")
        try:  # a lone surrogate (a \ud800 escape) has no UTF-8 form
            self.name.encode()
        except UnicodeEncodeError as exc:
            raise FieldError("name", f"expected valid UTF-8 text, got {exc.reason} at index {exc.start}") from None
        gens = as_square_complex(self.generators, "generators", ndim=3)
        if not gens.size:
            raise ValueError(f"generators must be a nonempty stack of nonempty matrices, got shape {gens.shape}")
        span = RealSpan(gens)
        svals = span.svd[1]
        rank = int(np.sum(svals > RANK_TOL * svals[0]))
        if rank != len(gens):
            raise ValueError(f"generators are not real-linearly independent (rank {rank} < {len(gens)})")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "span", span)

    n = property(lambda self: len(self.generators))
    d = property(lambda self: self.generators.shape[-1])


def exp_curve(spec: LieGroupSpec, alpha) -> GroupElement:
    """Linear element exp(sum_sigma alpha_sigma X_sigma) of the subgroup."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (spec.n,):
        raise ValueError(f"alpha must have length {spec.n}, got shape {alpha.shape}")
    if not np.isfinite(alpha).all():
        raise ValueError(f"alpha has non-finite entries: {alpha}")
    return GroupElement(expm(np.tensordot(alpha, spec.generators, axes=1)), Linearity.LINEAR)


@dataclass(frozen=True, eq=False)
class AntilinearExtension:
    """The antilinear operation a0 of the extension block: its matrix N, the
    declared sign s of a0 squared, the phase xi with mu/lambda = exp(i*xi)
    (read by coirrep_matrix) and the coset phase delta_alpha0; the verify
    path only echoes the phases. Each field is checked here, once: the phases
    by check_real, and stored as floats."""

    N: np.ndarray
    s: int = 1
    xi: float = 0.0
    delta_alpha0: float = 0.0

    def __post_init__(self):
        n = as_square_complex(self.N, "N")
        if not is_invertible(n):
            raise ValueError("N must be invertible")
        object.__setattr__(self, "N", n)
        if not (isinstance(self.s, int) and not isinstance(self.s, bool) and self.s in (1, -1)):
            raise FieldError("s", "expected +1 or -1")
        self._set_phases(xi=self.xi, delta_alpha0=self.delta_alpha0)

    def _set_phases(self, **phases):
        for name, value in phases.items():
            object.__setattr__(self, name, check_real(name, value))

    def with_phases(self, xi: float | None = None, delta_alpha0: float | None = None):
        """This extension with the phases given replaced. Only they are checked:
        N and s were checked when self was built, and the copy shares them."""
        out = copy.copy(self)
        out._set_phases(xi=self.xi if xi is None else xi,
                        delta_alpha0=self.delta_alpha0 if delta_alpha0 is None else delta_alpha0)
        return out

    @property
    def d(self) -> int:
        return self.N.shape[0]

    @cached_property
    def a0_sign(self) -> int:
        """a0_square_sign of this extension, evaluated once."""
        return a0_square_sign(self)

    @property
    def ctype(self) -> CoirrepType:
        """Type a (dimension d) when N * conj(N) = s * E, type b (dimension 2d)
        when N * conj(N) = -s * E; Wigner, Group Theory (1959), ch. 26."""
        return CoirrepType.A if self.a0_sign == self.s else CoirrepType.B

    def a0_element(self) -> GroupElement:
        """The coset representative a0 as a group element (N, antilinear)."""
        return GroupElement(self.N, Linearity.ANTILINEAR)


def a0_square_sign(ext: AntilinearExtension) -> int:
    """Sign of a0 composed with itself: +1 if N * conj(N) is +E, -1 if -E.

    Raises InconsistentExtensionError when the square is neither, which
    means (N, antilinear) does not extend the group consistently.
    """
    sq = ext.N @ ext.N.conj()  # compose(a0, a0): an antilinear left factor conjugates the right
    for sign in (+1, -1):
        if entries_close(sq, sign * np.eye(ext.d)):
            return sign
    raise InconsistentExtensionError(
        "inconsistent extension: N * conj(N) is not plus or minus identity"
    )


def classify_coirrep(spec: LieGroupSpec, ext: AntilinearExtension) -> CoirrepType:
    """The coirrep type of an extension checked against the irrep dimension."""
    if ext.d != spec.d:
        raise ValueError(f"N is {ext.d}x{ext.d} but the irrep dimension is {spec.d}")
    return ext.ctype
