"""Closure verification and algebra dimension.

Spans and ranks are taken over the real field: coefficient vectors are
solved by least squares on the stacked real and imaginary parts of the
vectorized matrices. A complex-coefficient projection is a fallback
diagnostic for the failing pairs only (real residual not below the
tolerance), kept in its own record array and never merged into the real
results; the pass verdicts always refer to the real residuals. A passing
pair needs none: the complex span contains the real one, so its complex
residual is at most its real one.

Every generator enters in the x frame: the subgroup blocks as given, the coset
blocks as GeneratorBasis.coset_x. Every bracket family goes through one kernel:
its brackets are one product table per operand order, both in pair order,
subtracted in place (a full mask keeps the table, any other gathers its pairs),
expanded over a RealSpan of the basis (sub-sub and coset-coset share one) by one
real pseudo-inverse matmul, failing pairs by one complex one. Type b runs on the
d x d upper blocks: doubled brackets blockdiag(C, +-C) over a span of the same
signs have the blocks' coefficients and sqrt(2) times their remainders.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group_core import CoirrepType
from .infinitesimal import GeneratorBasis
from .matrices import RealSpan

CLOSURE_TOL = 1e-9
RANK_REL_TOL = 1e-8
# Frobenius norm of a generator over that of its upper block
BLOCK_SCALE = {CoirrepType.A: 1.0, CoirrepType.B: 2.0**0.5}


def field_bracket(a, b) -> np.ndarray:
    """Bracket [J_A, J_B] = J_{BA - AB} of the fields J_A = A_ij x_j d/dx_i:
    the negative matrix commutator, broadcast over stacks (..., d, d)."""
    return b @ a - a @ b


def _pair_dtype(m: int) -> np.dtype:
    """Record layout of one bracket pair expanded over a span of m generators."""
    return np.dtype((np.record, [("left", np.intp), ("right", np.intp), ("coeffs", float, (m,)),
                                 ("residual", float)]))


def _fallback_dtype(m: int) -> np.dtype:
    """Record layout of one failing pair's complex expansion: its row in pairs,
    coefficients over the span of m generators and residual."""
    return np.dtype((np.record, [("pair", np.intp), ("complex_coeffs", complex, (m,)),
                                 ("complex_residual", float)]))


@dataclass(frozen=True, eq=False)
class ClosureReport:
    """Residual report for one commutator family.

    pairs is a read-only record array, one row per bracket pair (see
    _pair_dtype). fallback is a read-only record array with one row per
    failing pair, in pair order (see _fallback_dtype): the pairs whose real
    residual is not below the tolerance, expanded over complex coefficients.
    passed is true iff there are none; the complex fallback never enters the
    verdict.
    """

    family: str
    pairs: np.ndarray
    fallback: np.ndarray
    tolerance: float
    passed: bool

    def max_residual(self) -> float:
        return float(self.pairs["residual"].max(initial=0.0))

    def max_complex_residual(self) -> float:
        """The worst failing pair's complex residual, 0.0 when none fails."""
        return float(self.fallback["complex_residual"].max(initial=0.0))


def _bracket_table(lefts, rights, mask) -> np.ndarray:
    """field_bracket(lefts[i], rights[j]) of each pair (i, j) where the (n, m) mask is true, row-major: one
    batched matmul writes every R_j L_i at [i, j], one more every L_i R_j at [j, i] (none if rights is lefts),
    read with its pair axes swapped; a full mask subtracts in place and returns that table, any other gathers."""
    (n, d), m = lefts.shape[:2], len(rights)
    out = np.empty((n * m, d, d), complex)
    rl = np.matmul(rights.reshape(-1, d), lefts, out=out.reshape(n, m * d, d)).reshape(n, m, d, d)
    lr = (rl if rights is lefts else (lefts.reshape(-1, d) @ rights).reshape(m, n, d, d)).transpose(1, 0, 2, 3)
    if not mask.all():
        out = rl = rl[mask]
        lr = lr[mask]
    np.subtract(rl, lr, out=rl)
    return out


def _closure_report(family, lefts, rights, mask, span, tol, scale) -> ClosureReport:
    """Report of one family: the brackets of lefts[i] with rights[j] for each pair (i, j) where the
    (n, m) mask is true, expanded over the RealSpan and stored column by column; the failing pairs,
    those not below tol, are the rows of the fallback. Raises ValueError naming the first pair whose
    bracket or its norm is beyond float range, which leaves a residual that is not finite."""
    left, right = mask.nonzero()
    m = len(span.stack)
    pairs, fallback = np.empty(len(left), _pair_dtype(m)), np.empty(0, _fallback_dtype(m))
    pairs["left"], pairs["right"] = left, right
    if len(pairs):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below, not warned of
            brackets = _bracket_table(lefts, rights, mask)
            pairs["coeffs"], pairs["residual"], *solved = span.expand(brackets, scale, tol)
        finite = np.isfinite(pairs["residual"])
        finite[solved[0]] &= np.isfinite(solved[2])
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"family {family}, pair ({left[k]},{right[k]}): "
                             "the bracket or its norm is beyond float range")
        fallback = np.empty(len(solved[0]), fallback.dtype)
        fallback["pair"], fallback["complex_coeffs"], fallback["complex_residual"] = solved
    pairs.flags.writeable = fallback.flags.writeable = False
    return ClosureReport(family, pairs, fallback, tol, not len(fallback))


def sub_sub_closure_report(basis: GeneratorBasis, tol: float = CLOSURE_TOL) -> ClosureReport:
    """Subgroup-subgroup family: brackets expand over the subgroup span.

    Its coeffs are the structure constants: the row of pair (sigma, rho),
    sigma < rho, holds c[sigma, rho, :] of [J_sigma, J_rho] = c^tau J_tau, and
    c[rho, sigma] = -c[sigma, rho]. generator_basis(spec, None) gives those of
    spec.generators as supplied."""
    gens = basis.subgroup_blocks
    upper = np.arange(basis.n)[:, None] < np.arange(basis.n)
    return _closure_report("sub-sub", gens, gens, upper, basis.subgroup_span, tol, BLOCK_SCALE[basis.ctype])


def verify_coset_coset_closure(basis: GeneratorBasis, tol: float = CLOSURE_TOL) -> ClosureReport:
    """Coset-coset family: brackets, transported to the x frame, expand over
    the real span of the subgroup generators."""
    coset = basis.coset_x
    upper = np.arange(len(coset))[:, None] < np.arange(len(coset))
    return _closure_report("coset-coset", coset, coset, upper, basis.subgroup_span, tol, BLOCK_SCALE[basis.ctype])


def verify_mixed_closure(basis: GeneratorBasis, tol: float = CLOSURE_TOL) -> ClosureReport:
    """Subgroup-coset family: each subgroup field, bracketed with each coset
    field transported to the x frame, expands over the real span of the
    transported coset generators."""
    gens, coset = basis.subgroup_blocks, basis.coset_x
    every = np.ones((len(gens), len(coset)), bool)
    return _closure_report("sub-coset", gens, coset, every, basis.coset_span, tol, BLOCK_SCALE[basis.ctype])


@dataclass(frozen=True, eq=False)
class AlgebraDimension:
    """Real rank of the stacked generator set and its classification.

    classification is 'a-degenerate' when the rank is n+1, 'b-full' when it
    is 2n+1, and 'other' otherwise; 'other' comes with the dependency
    certificate (the combination of generators realizing the near
    dependency, signed so that its largest-magnitude entry is positive).
    """

    computed: int
    expected: int
    classification: str
    singular_values: np.ndarray
    threshold: float
    margin: float
    certificate: np.ndarray | None = None


def algebra_dimension(basis: GeneratorBasis, rank_tol: float = RANK_REL_TOL) -> AlgebraDimension:
    """Dimension of the real span of all generators in one common frame.

    Coset generators are transported to the x frame; the real rank is the
    count of the RealSpan's singular values above rank_tol * sigma_max.
    """
    stack = np.concatenate([basis.subgroup_blocks, basis.coset_x])
    expected = basis.n + 1 if basis.ctype is CoirrepType.A else 2 * basis.n + 1
    if not len(stack):
        return AlgebraDimension(0, expected, "other", np.zeros(0), 0.0, 0.0)
    if basis.ctype is CoirrepType.B:  # (X, X) is orthogonal to (X', -X'): one half each
        halves = np.zeros((len(stack), 2, *stack.shape[1:]), complex)
        halves[:basis.n, 0], halves[basis.n:, 1] = stack[:basis.n], stack[basis.n:]
        stack = halves
    _, svals, uh = RealSpan(stack).svd
    svals = svals * BLOCK_SCALE[basis.ctype]
    threshold = rank_tol * float(svals[0])
    rank = int(np.sum(svals > threshold))
    classification = {basis.n + 1: "a-degenerate", 2 * basis.n + 1: "b-full"}.get(rank, "other")
    margin = float(svals[rank - 1] / threshold) if (rank and threshold > 0) else float("inf")
    certificate = None
    if classification == "other" and rank < svals.size:
        # combination of generators realizing the first near dependency, its largest entry positive
        certificate = uh[rank] * np.sign(uh[rank, np.argmax(np.abs(uh[rank]))])
    return AlgebraDimension(rank, expected, classification, svals, threshold, margin, certificate)
