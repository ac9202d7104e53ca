"""Generator extraction, linear vector fields, and frame transport.

A linear vector field with coefficient matrix A denotes the first-order
operator J = A_ij x_j d/dx_i. Subgroup generators live at the base point x,
coset generators at the coset base point x'; commuting two fields is legal
only within one frame, and the transport x' = N^{-1} x (blockdiag(N^{-1},
-N^{-1}) for type b) conjugates coefficients between frames.

The bracket convention: [J_A, J_B] = J_{BA - AB}, i.e. the vector-field
bracket equals the negative matrix commutator. This is enforced by an
operator-level oracle in the test suite rather than assumed.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .coirrep import Frame
from .group_core import (
    AntilinearExtension,
    CoirrepType,
    LieGroupSpec,
    classify_coirrep,
)
from .matrices import as_square_complex, block_diag2, expm, is_invertible


class FrameMismatchError(ValueError):
    """Raised when operators in a bracket are referred to different points."""


class DifferentiationError(ArithmeticError):
    """Numerical differentiation failed to converge."""


@dataclass(frozen=True)
class LinearVectorField:
    """Coefficient matrix A plus the frame tag of its base point."""

    coeff: np.ndarray
    frame: Frame

    def __post_init__(self):
        object.__setattr__(self, "coeff", as_square_complex(self.coeff, "coefficient matrix"))

    @property
    def dim(self) -> int:
        return self.coeff.shape[0]


@dataclass(frozen=True)
class TransportMap:
    """Invertible coordinate change between the x and x' base points."""

    matrix: np.ndarray
    from_frame: Frame
    to_frame: Frame

    def __post_init__(self):
        m = as_square_complex(self.matrix, "transport matrix")
        if not is_invertible(m):
            raise ValueError("transport matrix is singular")
        object.__setattr__(self, "matrix", m)

    def inverse(self) -> "TransportMap":
        return TransportMap(np.linalg.inv(self.matrix), self.to_frame, self.from_frame)


@dataclass(frozen=True)
class GeneratorBasis:
    """Subgroup generators (n) and coset generators (n+1) of one coirrep."""

    subgroup: tuple
    coset: tuple
    ctype: CoirrepType

    def __post_init__(self):
        object.__setattr__(
            self, "subgroup", tuple(as_square_complex(m, "subgroup generator") for m in self.subgroup)
        )
        object.__setattr__(
            self, "coset", tuple(as_square_complex(m, "coset generator") for m in self.coset)
        )

    @property
    def n(self) -> int:
        return len(self.subgroup)


def make_operator(x, frame: Frame) -> LinearVectorField:
    """Wrap a coefficient matrix as the operator J = X_ij x_j d/dx_i."""
    return LinearVectorField(x, frame)


def apply_vf(vf: LinearVectorField, point) -> np.ndarray:
    """Coefficient vector A @ x of the operator at a point."""
    x = np.asarray(point, dtype=complex)
    if x.shape != (vf.dim,):
        raise ValueError(f"dimension mismatch: field is {vf.dim}, point has shape {x.shape}")
    return vf.coeff @ x


def vf_commutator(u: LinearVectorField, v: LinearVectorField) -> LinearVectorField:
    """Bracket [J_A, J_B] = J_{BA - AB} of two fields in a common frame."""
    if u.frame is not v.frame:
        raise FrameMismatchError(
            "operators are referred to different points "
            f"({u.frame.value} vs {v.frame.value}); transport one of them first"
        )
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    a, b = u.coeff, v.coeff
    return LinearVectorField(b @ a - a @ b, u.frame)


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


def transport(vf: LinearVectorField, tmap: TransportMap) -> LinearVectorField:
    """Express a field in the target frame: coefficient M A M^{-1}."""
    if vf.frame is not tmap.from_frame:
        raise FrameMismatchError(
            f"field lives in {vf.frame.value} but the map starts at {tmap.from_frame.value}"
        )
    m = tmap.matrix
    return LinearVectorField(m @ vf.coeff @ np.linalg.inv(m), tmap.to_frame)


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
    gens = np.array(spec.generators, dtype=complex).reshape(spec.n, spec.d, spec.d)

    def blocks(e: np.ndarray, phase: complex) -> np.ndarray:
        if n_matrix is None:
            return e
        return np.concatenate([e, (phase * n_matrix)[None], e @ n_matrix])

    if mode == "exact":
        return blocks(gens, 1j)
    return central_derivative(lambda t: blocks(expm(t * gens), cmath.exp(1j * t)), step)


def _coirrep_generators(blocks, n: int, ctype: CoirrepType):
    """Split a block stack into subgroup and coset generators; type b doubles
    them to blockdiag(X, X) and blockdiag(X', -X')."""
    sub, cos = list(blocks[:n]), list(blocks[n:])
    if ctype is CoirrepType.B:
        sub = [block_diag2(x, x) for x in sub]
        cos = [block_diag2(b, -b) for b in cos]
    return sub, cos


def extract_subgroup_generators(
    spec: LieGroupSpec,
    ctype: CoirrepType,
    mode: str = "exact",
    step: float = 1e-4,
):
    """Subgroup generators of the coirrep.

    Type a returns the X_sigma as supplied; type b returns the doubled
    blockdiag(X_sigma, X_sigma). Mode 'fd' differentiates the one-parameter
    curves of exp_curve at the identity instead and must agree with 'exact'.
    """
    sub, _ = _coirrep_generators(_generator_blocks(spec, None, mode, step), spec.n, ctype)
    return sub


def extract_coset_generators(
    spec: LieGroupSpec,
    ext: AntilinearExtension,
    ctype: CoirrepType,
    mode: str = "exact",
    step: float = 1e-4,
):
    """Coset generators: derivatives of exp(i da0) Delta(g(da)) N at zero.

    Returns n+1 matrices indexed by (alpha0, alpha_1, ..., alpha_n). The
    upper blocks are X'_0 = i N and X'_sigma = X_sigma N; for type b the
    full matrices are blockdiag(block, -block).
    """
    if classify_coirrep(spec, ext) is not ctype:
        raise ValueError(f"extension classifies as the other type, not {ctype.value}")
    _, cos = _coirrep_generators(_generator_blocks(spec, ext.N, mode, step), spec.n, ctype)
    return cos


def generator_basis(
    spec: LieGroupSpec,
    ext: AntilinearExtension,
    mode: str = "exact",
    step: float = 1e-4,
) -> GeneratorBasis:
    """Extract both generator families for the coirrep of (spec, ext)."""
    ctype = classify_coirrep(spec, ext)
    blocks = _generator_blocks(spec, ext.N, mode, step)
    sub, cos = _coirrep_generators(blocks, spec.n, ctype)
    return GeneratorBasis(tuple(sub), tuple(cos), ctype)
