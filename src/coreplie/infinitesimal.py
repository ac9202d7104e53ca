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
from scipy.linalg import expm

from .coirrep import Frame
from .group_core import (
    AntilinearExtension,
    CoirrepType,
    LieGroupSpec,
    classify_coirrep,
)
from .matrices import as_square_complex, block_diag2, is_invertible


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

    Divergence between the two stencil widths (beyond tol, scaled) raises
    DifferentiationError; there is no silent fallback.
    """
    if not np.isfinite(step) or step <= 0.0:
        raise DifferentiationError(f"invalid differentiation step {step}")
    if 1.0 + step == 1.0:
        raise DifferentiationError(f"differentiation step underflow: {step}")

    def stencil(h: float) -> np.ndarray:
        return (
            -curve(2 * h) + 8 * curve(h) - 8 * curve(-h) + curve(-2 * h)
        ) / (12 * h)

    d1 = stencil(step)
    d2 = stencil(step / 2)
    richardson = (16.0 * d2 - d1) / 15.0
    if not np.isfinite(richardson).all():
        raise DifferentiationError("non-finite values in numerical differentiation")
    scale = max(1.0, float(np.abs(richardson).max(initial=0.0)))
    if float(np.abs(d2 - d1).max(initial=0.0)) > tol * scale:
        raise DifferentiationError(
            "numerical differentiation did not converge "
            f"(stencil disagreement {float(np.abs(d2 - d1).max()):.3e} at step {step})"
        )
    return richardson


def _subgroup_block_curve(spec: LieGroupSpec, sigma: int):
    def curve(t: float) -> np.ndarray:
        alpha = np.zeros(spec.n)
        alpha[sigma] = t
        z = sum(a * x for a, x in zip(alpha, spec.generators))
        return expm(z)

    return curve


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
    if mode not in ("exact", "fd"):
        raise ValueError(f"mode must be 'exact' or 'fd', got {mode!r}")
    out = []
    for sigma in range(spec.n):
        if mode == "exact":
            x = spec.generators[sigma]
        else:
            x = central_derivative(_subgroup_block_curve(spec, sigma), step)
        if ctype is CoirrepType.B:
            x = block_diag2(x, x)
        out.append(x)
    return out


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
    if mode not in ("exact", "fd"):
        raise ValueError(f"mode must be 'exact' or 'fd', got {mode!r}")
    if classify_coirrep(spec, ext) is not ctype:
        raise ValueError(f"extension classifies as the other type, not {ctype.value}")
    blocks = []
    for direction in range(spec.n + 1):
        if mode == "exact":
            if direction == 0:
                blk = 1j * ext.N
            else:
                blk = spec.generators[direction - 1] @ ext.N
        else:
            if direction == 0:
                def curve(t: float) -> np.ndarray:
                    return cmath.exp(1j * t) * ext.N
            else:
                inner = _subgroup_block_curve(spec, direction - 1)

                def curve(t: float, _inner=inner) -> np.ndarray:
                    return _inner(t) @ ext.N

            blk = central_derivative(curve, step)
        blocks.append(blk)
    if ctype is CoirrepType.A:
        return blocks
    return [block_diag2(blk, -blk) for blk in blocks]


def generator_basis(
    spec: LieGroupSpec,
    ext: AntilinearExtension,
    mode: str = "exact",
    step: float = 1e-4,
) -> GeneratorBasis:
    """Extract both generator families for the coirrep of (spec, ext)."""
    ctype = classify_coirrep(spec, ext)
    sub = extract_subgroup_generators(spec, ctype, mode, step)
    cos = extract_coset_generators(spec, ext, ctype, mode, step)
    return GeneratorBasis(tuple(sub), tuple(cos), ctype)
