"""Generator extraction and the map between the two base points.

A generator with coefficient matrix A stands for the linear vector field
J = A_ij x_j d/dx_i. Subgroup generators live at the base point x, coset
generators at the coset base point x' = N^{-1} x. A GeneratorBasis carries
the x' -> x map M = N on its d x d blocks (type b: blockdiag(M, -M)) and
conjugates the coset coefficients into the x frame once, into one stack of
all 2n+1 generators (x_stack): every bracket is formed in that one frame. The
phases xi and delta_alpha0 reach no number here. Generators stay complex stacks
of d x d upper blocks from extraction to emission (type b doubles them on
request); their bracket is algebra.field_bracket.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .group_core import (
    AntilinearExtension,
    CoirrepType,
    LieGroupSpec,
    classify_coirrep,
)
from .matrices import RealSpan, as_square_complex, block_diag2, expm

FD_STEP = 1e-4  # default stencil step of central_derivative and generator_basis
FD_STENCIL_TOL = 1e-4  # the two stencil widths may differ by this times max(1, |derivative|)
FD_AGREE = 1e-6  # default largest fd-vs-exact entry difference (tolerances.fd-agree)


class DifferentiationError(ArithmeticError):
    """Numerical differentiation failed: a stencil that did not converge, or
    fd generators that miss the exact ones."""


def _gate(values: np.ndarray, limits, names, head: str, tail: str) -> None:
    """Raise DifferentiationError("<head> <value> at <name> (<tail>)") at the
    stack member whose value exceeds its limit by the largest factor, the
    quantity each gate tests; without names the location is left out."""
    ratio = np.ravel(values / limits)
    if (ratio > 1.0).any():
        worst = int(ratio.argmax())
        at = "" if names is None else f" at {names[worst]}"
        raise DifferentiationError(f"{head} {np.ravel(values)[worst]:.3e}{at} ({tail})")


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    """Upper blocks of the subgroup (n, d, d) and coset (n+1, d, d) generators
    of one coirrep, and the d x d block to_x of the x' -> x map, all read-only
    complex copies of the input. The closure families and the dimension read x_stack
    alone: the subgroup blocks, then coset_x, the coset blocks in the x frame.
    .subgroup and .coset are the generators, for type b a new
    blockdiag(X, X) and blockdiag(X', -X'). fd_max_abs_diff is set (to
    generator_basis's fd-vs-exact gap) in mode 'fd' only. subgroup_span is
    the RealSpan of the subgroup blocks, a new one unless given (exact-mode
    generator_basis hands in the spec's); coset_span that of coset_x."""

    subgroup_blocks: np.ndarray
    coset_blocks: np.ndarray
    ctype: CoirrepType
    to_x: np.ndarray
    fd_max_abs_diff: float | None = None
    subgroup_span: RealSpan | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("subgroup", "coset"):
            stack = as_square_complex(getattr(self, f"{name}_blocks"), f"{name} generators", ndim=3)
            object.__setattr__(self, f"{name}_blocks", stack)
        if self.subgroup_blocks.shape[1:] != self.coset_blocks.shape[1:]:
            raise ValueError(f"subgroup generators {self.subgroup_blocks.shape} and coset "
                             f"generators {self.coset_blocks.shape} differ in matrix size")
        to_x = as_square_complex(self.to_x, "x' -> x map")
        if to_x.shape != self.subgroup_blocks.shape[1:]:
            raise ValueError(f"x' -> x map {to_x.shape} and generator blocks "
                             f"{self.subgroup_blocks.shape[1:]} differ in size")
        object.__setattr__(self, "to_x", to_x)
        if self.subgroup_span is None:
            object.__setattr__(self, "subgroup_span", RealSpan(self.subgroup_blocks))
        elif not np.array_equal(self.subgroup_span.stack, self.subgroup_blocks):
            raise ValueError("subgroup_span is not the span of the subgroup generators")

    @property
    def n(self) -> int:
        return len(self.subgroup_blocks)

    @cached_property
    def x_stack(self) -> np.ndarray:
        """The 2n+1 generators in the x frame: the subgroup blocks, then the coset
        blocks transported, M X' M^-1 with M inverted once per basis. Conjugation
        is an automorphism, so transporting the generators transports their brackets."""
        out = np.concatenate([self.subgroup_blocks, self.to_x @ self.coset_blocks @ np.linalg.inv(self.to_x)])
        out.setflags(write=False)
        return out

    # the coset blocks in the x frame, a view of x_stack, and their span, which the
    # sub-coset family expands over, factored once per basis
    coset_x = cached_property(lambda self: self.x_stack[self.n:])
    coset_span = cached_property(lambda self: RealSpan(self.coset_x))

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


def central_derivative(curve, step: float = FD_STEP, names=None) -> np.ndarray:
    """Derivative at 0 of a matrix-valued curve, 4th-order central stencil
    with one Richardson level.

    The curve may return a stack (..., d, d); it is sampled once at each of
    the six abscissae step * (-2, -1, -1/2, 1/2, 1, 2), which serve both
    stencil widths. Divergence between the two widths (beyond FD_STENCIL_TOL,
    scaled by each matrix's own magnitude) raises DifferentiationError at the
    worst matrix, named from `names` if given; there is no silent fallback.
    """
    if not np.isfinite(step) or step <= 0.0:
        raise DifferentiationError(f"invalid differentiation step {step}")
    if 1.0 + step == 1.0:
        raise DifferentiationError(f"differentiation step underflow: {step}")
    half = step / 2
    with np.errstate(over="ignore", invalid="ignore"):  # a sample beyond float range is named below
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
    _gate(gap, FD_STENCIL_TOL * scale, names,
          "numerical differentiation did not converge: stencil disagreement", f"step {step}")
    return richardson


def generator_basis(
    spec: LieGroupSpec,
    ext: AntilinearExtension | None,
    mode: str = "exact",
    step: float = FD_STEP,
    agree: float = FD_AGREE,
) -> GeneratorBasis:
    """Extract both generator stacks for the coirrep of (spec, ext).

    Type a keeps the X_sigma as supplied; the n+1 coset generators, indexed
    by (alpha0, alpha_1, ..., alpha_n), have upper blocks X'_0 = i N and
    X'_sigma = X_sigma N; type b doubles every generator (see GeneratorBasis).
    The x' -> x map is N; a phase on it would cancel from every conjugation.
    Without an extension: type a, an empty coset stack, x' = x. The exact
    subgroup span is spec.span, already factored by the spec's rank test.

    Mode 'fd' differentiates the curves exp(t X_sigma), e^{it} N and
    exp(t X_sigma) N instead, each sample one expm of the generator stack,
    and records the largest entry difference from the exact blocks as
    fd_max_abs_diff; above `agree` it raises DifferentiationError at the
    worst generator, as a stencil that does not converge does.
    """
    if mode not in ("exact", "fd"):
        raise ValueError(f"mode must be 'exact' or 'fd', got {mode!r}")
    if ext is None:
        ctype, n_matrix, to_x = CoirrepType.A, None, np.eye(spec.d)
    else:
        ctype, n_matrix, to_x = classify_coirrep(spec, ext), ext.N, ext.N

    def blocks(e: np.ndarray, phase: complex) -> np.ndarray:
        if n_matrix is None:
            return e
        return np.concatenate([e, (phase * n_matrix)[None], e @ n_matrix])

    out, fd_diff, span = blocks(spec.generators, 1j), None, spec.span
    if mode == "fd":
        if not (np.isfinite(agree) and agree > 0.0):
            raise ValueError(f"fd-agree tolerance must be finite and positive, got {agree}")
        names = [f"X_{i}" for i in range(1, spec.n + 1)] + [f"X'_{i}" for i in range(len(out) - spec.n)]
        fd = central_derivative(lambda t: blocks(expm(t * spec.generators), cmath.exp(1j * t)), step, names)
        diff = np.abs(fd - out).max(axis=(-2, -1))
        _gate(diff, agree, names, "finite-difference and exact generators disagree by",
              f"tolerances.fd-agree {agree:g}")
        out, fd_diff, span = fd, float(diff.max()), None
    return GeneratorBasis(out[:spec.n], out[spec.n:], ctype, to_x, fd_diff, span)
