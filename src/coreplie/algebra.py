"""Closure verification and algebra dimension.

Spans and ranks are taken over the real field: coefficient vectors are
solved by least squares on the stacked real and imaginary parts of the
vectorized matrices. A complex-coefficient projection is a fallback
diagnostic for the failing pairs only (real residual not below the
tolerance), kept in its own record array and never merged into the real
results; the pass verdicts always refer to the real residuals. A passing
pair needs none: the complex span contains the real one, so its complex
residual is at most its real one.

Every generator enters in the x frame, as one stack GeneratorBasis.x_stack: the
subgroup blocks as given, then the coset blocks transported. One batched matmul
forms the products of every ordered pair of it; each family is a mask of that
table, its brackets gathered in pair order and expanded over a RealSpan of the
basis (sub-sub and coset-coset share one) by one real pseudo-inverse matmul,
failing pairs by one complex one. Type b runs on the
d x d upper blocks: doubled brackets blockdiag(C, +-C) over a span of the same
signs have the blocks' coefficients and sqrt(2) times their remainders, and the
doubled dimension is read from the SVDs of the two spans.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .group_core import CoirrepType
from .infinitesimal import GeneratorBasis
from .matrices import RealSpan, workspace

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


def _bracket_table(gens) -> np.ndarray:
    """Every product G_j G_i of a stack (k, d, d) at [i, j] of a (k, k, d, d) table, from one batched
    matmul: field_bracket(gens[i], gens[j]) is table[i, j] - table[j, i], in the matrices workspace."""
    k, d = gens.shape[:2]
    table = workspace("table", (k, k, d, d), complex)
    np.matmul(gens.reshape(-1, d), gens, out=table.reshape(k, k * d, d))
    return table


@lru_cache(maxsize=64)
def _family_pairs(n: int, k: int) -> tuple:
    """(family, left, right, rows) of each family in report order, for k x-frame generators, the first n
    the subgroup's: the pairs (i, j) of its mask of the (k, k) table, row-major, numbered within their
    stacks, and the rows of table[i, j], then of table[j, i], in the table read as a (k * k, d, d) stack."""
    r, c = np.ogrid[:k, :k]
    masks = {"sub-sub": (r < c) & (c < n), "coset-coset": (n <= r) & (r < c), "sub-coset": (r < n) & (n <= c)}
    out = []
    for family, mask in masks.items():
        i, j = mask.nonzero()
        out.append((family, i - n * (i >= n), j - n * (j >= n), np.concatenate([i * k + j, j * k + i])))
    return tuple(out)


def _closure_report(family, left, right, rows, span, table, tol, scale) -> ClosureReport:
    """Report of one family of _family_pairs: its brackets table[i, j] - table[j, i] expanded over the RealSpan,
    stored column by column, the pairs not below tol the rows of the fallback. Raises ValueError naming the
    first pair whose bracket or its norm is beyond float range, which leaves a residual that is not finite."""
    m = len(span.stack)
    pairs, fallback = np.empty(len(left), _pair_dtype(m)), np.empty(0, _fallback_dtype(m))
    pairs["left"], pairs["right"] = left, right
    if len(pairs):
        both = table.reshape(-1, *table.shape[2:]).take(rows, axis=0)
        brackets = np.subtract(both[:len(pairs)], both[len(pairs):], out=both[:len(pairs)])
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


def closure_reports(basis: GeneratorBasis, tol: float = CLOSURE_TOL) -> dict:
    """The three commutator families by name, masks of one bracket table over basis.x_stack: sub-sub and
    coset-coset over the subgroup span, sub-coset over the coset span (raises as _closure_report does)."""
    spans = {"sub-sub": basis.subgroup_span, "coset-coset": basis.subgroup_span, "sub-coset": basis.coset_span}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named, not warned of
        table = _bracket_table(basis.x_stack)
        return {family: _closure_report(family, left, right, rows, spans[family], table, tol, BLOCK_SCALE[basis.ctype])
                for family, left, right, rows in _family_pairs(basis.n, len(basis.x_stack))}


def sub_sub_closure_report(basis: GeneratorBasis, tol: float = CLOSURE_TOL) -> ClosureReport:
    """Subgroup-subgroup family: brackets expand over the subgroup span.

    Its coeffs are the structure constants: the row of pair (sigma, rho),
    sigma < rho, holds c[sigma, rho, :] of [J_sigma, J_rho] = c^tau J_tau, and
    c[rho, sigma] = -c[sigma, rho]. generator_basis(spec, None) gives those of
    spec.generators as supplied. The coset stack is dropped: no coset bracket is formed."""
    return closure_reports(replace(basis, coset_blocks=basis.coset_blocks[:0]), tol)["sub-sub"]


def verify_coset_coset_closure(basis: GeneratorBasis, tol: float = CLOSURE_TOL) -> ClosureReport:
    """Coset-coset family of closure_reports: x-frame brackets over the subgroup span."""
    return closure_reports(basis, tol)["coset-coset"]


def verify_mixed_closure(basis: GeneratorBasis, tol: float = CLOSURE_TOL) -> ClosureReport:
    """Subgroup-coset family of closure_reports: x-frame brackets over the coset span."""
    return closure_reports(basis, tol)["sub-coset"]


@dataclass(frozen=True, eq=False)
class AlgebraDimension:
    """Real rank of the stacked generator set and its classification.

    classification is 'a-degenerate' when the rank is n+1, 'b-full' when it
    is 2n+1, and 'other' otherwise; 'other' comes with the dependency
    certificate (the combination of generators realizing the near
    dependency, signed so that its largest-magnitude entry is positive;
    for type b it involves the subgroup or the coset generators alone).
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
    count of the RealSpan's singular values above rank_tol * sigma_max, for
    type b those of subgroup_span and coset_span merged.
    """
    m = len(basis.x_stack)
    expected = basis.n + 1 if basis.ctype is CoirrepType.A else 2 * basis.n + 1
    if not m:
        return AlgebraDimension(0, expected, "other", np.zeros(0), 0.0, 0.0)
    if basis.ctype is CoirrepType.A:
        _, svals, uh = RealSpan(basis.x_stack).svd
    else:  # (X, X) is orthogonal to (X', -X'): the doubled SVD is the two spans' SVDs, merged
        sub, coset = (span.svd[1:] if len(span.stack) else (np.zeros(0), np.zeros((0, 0)))
                      for span in (basis.subgroup_span, basis.coset_span))
        svals, uh = np.concatenate([sub[0], coset[0]]), np.zeros((len(sub[0]) + len(coset[0]), m))
        uh[:len(sub[0]), :basis.n], uh[len(sub[0]):, basis.n:] = sub[1], coset[1]
        order = np.argsort(-svals, kind="stable")
        svals, uh = svals[order], uh[order]
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
