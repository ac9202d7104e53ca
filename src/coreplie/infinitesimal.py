"""Generator extraction and the transport between the two base points.

A generator with coefficient matrix A stands for the linear vector field
J = A_ij x_j d/dx_i. Subgroup generators live at the base point x, coset
generators at the coset base point x'; the transport x' = N^{-1} x
(blockdiag(N^{-1}, -N^{-1}) for type b) conjugates coefficients between the
two, and a TransportMap carries the frame tags that fix its direction.
Generators stay complex stacks of d x d upper blocks from extraction to
emission (type b doubles them on request); their bracket is algebra.field_bracket.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coirrep import Frame
from .group_core import (
    AntilinearExtension,
    CoirrepType,
    LieGroupSpec,
    classify_coirrep,
)
from .matrices import as_square_complex, block_diag2, expm, is_invertible, upper_blocks


class DifferentiationError(ArithmeticError):
    """Numerical differentiation failed to converge."""


@dataclass(frozen=True, eq=False)
class TransportMap:
    """Invertible coordinate change between the x and x' base points; for
    type b, blockdiag(M, -M) or its upper block M."""

    matrix: np.ndarray
    from_frame: Frame
    to_frame: Frame

    def __post_init__(self):
        m = as_square_complex(self.matrix, "transport matrix")
        if not is_invertible(m):
            raise ValueError("transport matrix is singular")
        object.__setattr__(self, "matrix", m)

    @cached_property
    def inverse_matrix(self) -> np.ndarray:
        """matrix^-1, computed once per map."""
        return np.linalg.inv(self.matrix)

    def inverse(self) -> "TransportMap":
        return TransportMap(self.inverse_matrix, self.to_frame, self.from_frame)


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    """Upper blocks of the subgroup (n, d, d) and coset (n+1, d, d) generators
    of one coirrep, read-only complex copies of the input. .subgroup and .coset
    are the generators, for type b a new blockdiag(X, X) and blockdiag(X', -X')."""

    subgroup_blocks: np.ndarray
    coset_blocks: np.ndarray
    ctype: CoirrepType

    def __post_init__(self):
        for name in ("subgroup", "coset"):
            stack = as_square_complex(getattr(self, f"{name}_blocks"), f"{name} generators", ndim=3)
            object.__setattr__(self, f"{name}_blocks", stack)
        if self.subgroup_blocks.shape[1:] != self.coset_blocks.shape[1:]:
            raise ValueError(f"subgroup generators {self.subgroup_blocks.shape} and coset "
                             f"generators {self.coset_blocks.shape} differ in matrix size")

    @classmethod
    def from_stacks(cls, subgroup, coset, ctype: CoirrepType) -> "GeneratorBasis":
        """Basis of full generator stacks: type b keeps the upper blocks and
        rejects stacks that are not blockdiag(X, X) and blockdiag(X', -X')."""
        if ctype is CoirrepType.B:
            subgroup = upper_blocks(subgroup, "subgroup generators", 1)
            coset = upper_blocks(coset, "coset generators", -1)
        return cls(subgroup, coset, ctype)

    @property
    def n(self) -> int:
        return len(self.subgroup_blocks)

    @property
    def subgroup(self) -> np.ndarray:
        return self._full(self.subgroup_blocks, self.subgroup_blocks)

    @property
    def coset(self) -> np.ndarray:
        return self._full(self.coset_blocks, -self.coset_blocks)

    def _full(self, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        out = upper if self.ctype is CoirrepType.A else block_diag2(upper, lower)
        out.setflags(write=False)
        return out


def transport_map(
    ext: AntilinearExtension, ctype: CoirrepType, delta_alpha0: float = 0.0
) -> TransportMap:
    """Coordinate change from the x frame to the x' frame.

    Type a: x' = exp(-i delta_alpha0) N^{-1} x. Type b: the block form
    x' = exp(-i delta_alpha0) blockdiag(N^{-1}, -N^{-1}) x. The default
    delta_alpha0 = 0 matches the base point at which all generators are
    extracted; a nonzero value exposes the pure-phase factor, which cancels
    out of every conjugation.
    """
    n_inv = np.linalg.inv(ext.N)
    if ctype is CoirrepType.A:
        m = n_inv
    else:
        m = block_diag2(n_inv, -n_inv)
    return TransportMap(cmath.exp(-1j * delta_alpha0) * m, Frame.X, Frame.X_PRIME)


def central_derivative(curve, step: float = 1e-4, tol: float = 1e-4) -> np.ndarray:
    """Derivative at 0 of a matrix-valued curve, 4th-order central stencil
    with one Richardson level.

    The curve may return a stack (..., d, d); it is sampled once at each of
    the six abscissae step * (-2, -1, -1/2, 1/2, 1, 2), which serve both
    stencil widths. Divergence between the two widths (beyond tol, scaled
    by each matrix's own magnitude) raises DifferentiationError; there is no
    silent fallback.
    """
    if not np.isfinite(step) or step <= 0.0:
        raise DifferentiationError(f"invalid differentiation step {step}")
    if 1.0 + step == 1.0:
        raise DifferentiationError(f"differentiation step underflow: {step}")
    half = step / 2
    m2, m1, mh, ph, p1, p2 = (
        np.asarray(curve(t)) for t in (-2 * step, -step, -half, half, step, 2 * step)
    )
    d1 = (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * step)
    d2 = (-p1 + 8 * ph - 8 * mh + m1) / (12 * half)
    richardson = (16.0 * d2 - d1) / 15.0
    if not np.isfinite(richardson).all():
        raise DifferentiationError("non-finite values in numerical differentiation")
    scale = np.maximum(1.0, np.abs(richardson).max(axis=(-2, -1), initial=0.0))
    gap = np.abs(d2 - d1).max(axis=(-2, -1), initial=0.0)
    diverged = gap[gap > tol * scale]
    if diverged.size:
        raise DifferentiationError(
            "numerical differentiation did not converge "
            f"(stencil disagreement {float(diverged[0]):.3e} at step {step})"
        )
    return richardson


def _generator_blocks(spec: LieGroupSpec, n_matrix, mode: str, step: float) -> np.ndarray:
    """Upper blocks [X_1..X_n] and, given N, [X'_0 = i N, X'_sigma = X_sigma N]
    as one (n [+ n+1], d, d) stack.

    Mode 'fd' differentiates the curves exp(t X_sigma), e^{it} N and
    exp(t X_sigma) N together: each sample is one expm of the generator stack,
    which the coset curves reuse.
    """
    if mode not in ("exact", "fd"):
        raise ValueError(f"mode must be 'exact' or 'fd', got {mode!r}")

    def blocks(e: np.ndarray, phase: complex) -> np.ndarray:
        if n_matrix is None:
            return e
        return np.concatenate([e, (phase * n_matrix)[None], e @ n_matrix])

    if mode == "exact":
        return blocks(spec.generators, 1j)
    return central_derivative(lambda t: blocks(expm(t * spec.generators), cmath.exp(1j * t)), step)


def generator_basis(
    spec: LieGroupSpec,
    ext: AntilinearExtension | None,
    mode: str = "exact",
    step: float = 1e-4,
) -> GeneratorBasis:
    """Extract both generator stacks for the coirrep of (spec, ext).

    Type a keeps the X_sigma as supplied; the n+1 coset generators, indexed
    by (alpha0, alpha_1, ..., alpha_n), have upper blocks X'_0 = i N and
    X'_sigma = X_sigma N; type b doubles every generator (see GeneratorBasis).
    Mode 'fd' differentiates the one-parameter curves instead and must agree
    with 'exact'. Without an extension the basis is type a with an empty
    coset stack.
    """
    if ext is None:
        ctype, n_matrix = CoirrepType.A, None
    else:
        ctype, n_matrix = classify_coirrep(spec, ext), ext.N
    blocks = _generator_blocks(spec, n_matrix, mode, step)
    return GeneratorBasis(blocks[:spec.n], blocks[spec.n:], ctype)
