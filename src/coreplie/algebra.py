"""Closure verification and algebra dimension.

Spans and ranks are taken over the real field: coefficient vectors are
solved by least squares on the stacked real and imaginary parts of the
vectorized matrices. A complex-coefficient projection is computed alongside
as a separate fallback diagnostic and is never merged into the real
results; the pass verdicts always refer to the real residuals.

Every bracket family goes through one kernel: its brackets are formed by one
broadcast field_bracket and expanded over a RealSpan of the basis (sub-sub and
coset-coset share one) by one real and one complex pseudo-inverse matmul. Type b
runs on the d x d upper blocks: doubled brackets blockdiag(C, +-C) over a span of
the same signs have the blocks' coefficients and sqrt(2) times their remainders.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .group_core import CoirrepType
from .infinitesimal import GeneratorBasis
from .matrices import real_vectorization

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
    return np.dtype((np.record, [
        ("left", np.intp), ("right", np.intp), ("coeffs", float, (m,)), ("residual", float),
        ("complex_coeffs", complex, (m,)), ("complex_residual", float),
    ]))


@dataclass(frozen=True, eq=False)
class ClosureReport:
    """Residual report for one commutator family.

    pairs is a read-only record array, one row per bracket pair (see
    _pair_dtype). passed is true iff every real residual is below the
    tolerance; the complex fallback never enters the verdict.
    """

    family: str
    pairs: np.ndarray
    tolerance: float
    passed: bool

    def max_residual(self) -> float:
        return float(self.pairs["residual"].max(initial=0.0))

    def max_complex_residual(self) -> float:
        return float(self.pairs["complex_residual"].max(initial=0.0))


def _closure_report(family, lefts, rights, index_pairs, span, tol, scale) -> ClosureReport:
    """Report of one family: the brackets of lefts[i] with rights[j], one per
    index pair (i, j), expanded over the RealSpan and stored column by column;
    passed uses the same strict < predicate for every family."""
    left, right = np.array(list(index_pairs), dtype=np.intp).reshape(-1, 2).T
    pairs = np.empty(len(left), _pair_dtype(len(span.stack)))
    pairs["left"], pairs["right"] = left, right
    if len(pairs):
        (pairs["coeffs"], pairs["residual"], pairs["complex_coeffs"],
         pairs["complex_residual"]) = span.expand(field_bracket(lefts[left], rights[right]), scale)
    pairs.flags.writeable = False
    return ClosureReport(family, pairs, tol, bool((pairs["residual"] < tol).all()))


def sub_sub_closure_report(basis: GeneratorBasis, tol: float = CLOSURE_TOL) -> ClosureReport:
    """Subgroup-subgroup family: brackets expand over the subgroup span.

    Its coeffs are the structure constants: the row of pair (sigma, rho),
    sigma < rho, holds c[sigma, rho, :] of [J_sigma, J_rho] = c^tau J_tau, and
    c[rho, sigma] = -c[sigma, rho]. generator_basis(spec, None) gives those of
    spec.generators as supplied."""
    gens = basis.subgroup_blocks
    pairs = combinations(range(basis.n), 2)
    return _closure_report("sub-sub", gens, gens, pairs, basis.subgroup_span, tol, BLOCK_SCALE[basis.ctype])


def verify_coset_coset_closure(basis: GeneratorBasis, tol: float = CLOSURE_TOL) -> ClosureReport:
    """Coset-coset family: brackets, transported to the x frame, expand over
    the real span of the subgroup generators."""
    coset = basis.coset_x
    pairs = combinations(range(len(coset)), 2)
    return _closure_report("coset-coset", coset, coset, pairs, basis.subgroup_span, tol, BLOCK_SCALE[basis.ctype])


def verify_mixed_closure(basis: GeneratorBasis, tol: float = CLOSURE_TOL) -> ClosureReport:
    """Subgroup-coset family: the subgroup field is transported to the x'
    frame, bracketed with each coset field, and expanded over the real span
    of the coset generators."""
    moved = basis.to_x_inverse @ basis.subgroup_blocks @ basis.to_x
    coset = basis.coset_blocks
    pairs = product(range(basis.n), range(len(coset)))
    return _closure_report("sub-coset", moved, coset, pairs, basis.coset_span, tol, BLOCK_SCALE[basis.ctype])


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

    Coset generators are transported to the x frame; the real rank of the
    stacked real+imaginary vectorizations is computed from singular values
    with threshold rank_tol * sigma_max.
    """
    stack = np.concatenate([basis.subgroup_blocks, basis.coset_x])
    expected = basis.n + 1 if basis.ctype is CoirrepType.A else 2 * basis.n + 1
    if not len(stack):
        return AlgebraDimension(0, expected, "other", np.zeros(0), 0.0, 0.0)
    vecs = real_vectorization(stack)
    if basis.ctype is CoirrepType.B:  # (X, X) is orthogonal to (X', -X'): split the columns
        n, width = basis.n, vecs.shape[1]
        split = np.zeros((len(vecs), 2 * width))
        split[:n, :width], split[n:, width:] = vecs[:n], vecs[n:]
        vecs = split
    # (columns, k): tall unless k > columns (u1's 3 > 2); uh holds u.T on either side
    _, svals, uh = np.linalg.svd(vecs.T, full_matrices=False)
    svals *= BLOCK_SCALE[basis.ctype]
    threshold = rank_tol * float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > threshold))
    classification = {basis.n + 1: "a-degenerate", 2 * basis.n + 1: "b-full"}.get(rank, "other")
    kept = svals[svals > threshold]
    margin = float(kept[-1] / threshold) if (kept.size and threshold > 0) else float("inf")
    certificate = None
    if classification == "other" and rank < svals.size:
        # combination of generators realizing the first near dependency, its largest entry positive
        certificate = uh[rank] * np.sign(uh[rank, np.argmax(np.abs(uh[rank]))])
    return AlgebraDimension(rank, expected, classification, svals, threshold, margin, certificate)
