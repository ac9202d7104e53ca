"""Independent numerical oracles used by the tests.

These deliberately avoid the library's bracket and projection code paths:
operators are applied to functions through finite differences, span
membership is exercised by generating combinations forward, and the closure
families are rebuilt one bracket and one solve at a time in plain numpy.
All functions involved are linear, so the central differences are exact up
to roundoff for any step size. The config reader's oracle checks and converts
each [re, im] entry of a matrix stack on its own, with complex(re, im). The
machine format's dense form (schema 5's only form) is built number by number,
and canonical() spells a document the way stdlib json does.
"""
from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np

from coreplie import ConfigError
from coreplie.report import dense

FD_STEP = 0.05


def numeric_gradient(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    d = x.shape[0]
    grad = np.empty(d, dtype=complex)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


def operator_apply(coeff: np.ndarray, f):
    """First-order operator A_ij x_j d/dx_i acting on a scalar function."""

    def g(x: np.ndarray):
        return np.dot(coeff @ x, numeric_gradient(f, x))

    return g


def commutator_on_coordinates(a: np.ndarray, b: np.ndarray, points) -> np.ndarray:
    """[J_A, J_B] applied to every coordinate function at every point.

    Returns an array of shape (npoints, d) built purely from nested
    operator applications, never from a matrix-commutator formula.
    """
    d = a.shape[0]
    out = np.empty((len(points), d), dtype=complex)
    for ip, p in enumerate(points):
        for k in range(d):
            phi = lambda x, k=k: x[k]
            ab = operator_apply(a, operator_apply(b, phi))(p)
            ba = operator_apply(b, operator_apply(a, phi))(p)
            out[ip, k] = ab - ba
    return out


def bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[J_A, J_B] = J_{BA - AB} of one pair of matrices."""
    return b @ a - a @ b


def conjugate(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficient matrix of one field after the coordinate change m."""
    return m @ x @ np.linalg.inv(m)


def expand(target: np.ndarray, span) -> tuple:
    """One matrix over a list of matrices: a real and a complex lstsq of its
    own, with the remainder norms summed back term by term."""
    def vec(m):
        return np.concatenate([m.real.ravel(), m.imag.ravel()])

    coeffs = np.linalg.lstsq(np.stack([vec(b) for b in span], axis=1), vec(target), rcond=None)[0]
    ccoeffs = np.linalg.lstsq(
        np.stack([b.ravel() for b in span], axis=1), target.ravel(), rcond=None
    )[0]
    res = np.linalg.norm(target - sum(c * b for c, b in zip(coeffs, span)))
    cres = np.linalg.norm(target - sum(c * b for c, b in zip(ccoeffs, span)))
    return coeffs, res, ccoeffs, cres


def closure_families(subgroup, coset, to_x: np.ndarray) -> dict:
    """The three closure families, pair by pair: family -> {(i, j): expand}.

    to_x carries coefficients from the x' frame to the x frame. Coset-coset
    brackets are moved to x after they are formed; subgroup fields are moved
    to x' by the inverse before they meet a coset field.
    """
    out = {"sub-sub": {}, "coset-coset": {}, "sub-coset": {}}
    for s, r in combinations(range(len(subgroup)), 2):
        out["sub-sub"][(s, r)] = expand(bracket(subgroup[s], subgroup[r]), subgroup)
    for p, q in combinations(range(len(coset)), 2):
        moved = conjugate(to_x, bracket(coset[p], coset[q]))
        out["coset-coset"][(p, q)] = expand(moved, subgroup)
    to_xprime = np.linalg.inv(to_x)
    for s, x in enumerate(subgroup):
        for p, c in enumerate(coset):
            out["sub-coset"][(s, p)] = expand(bracket(conjugate(to_xprime, x), c), coset)
    return out


def structure_tensor(rep) -> tuple:
    """A sub-sub ClosureReport as the dense tensor c[sigma, rho, tau] of its
    structure constants and the (n, n) matrix of its residuals: each pair's
    coeffs go to c[sigma, rho] and, negated, to c[rho, sigma], its residual
    to both (sigma, rho) and (rho, sigma)."""
    n = rep.pairs.dtype["coeffs"].shape[0]
    c, residuals = np.zeros((n, n, n)), np.zeros((n, n))
    for p in rep.pairs:
        c[p.left, p.right], c[p.right, p.left] = p.coeffs, -p.coeffs
        residuals[p.left, p.right] = residuals[p.right, p.left] = p.residual
    return c, residuals


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _complex_entry(value, path: str) -> complex:
    _require(isinstance(value, (list, tuple)) and len(value) == 2, path, "expected a [re, im] pair")
    re, im = value
    _require(isinstance(re, (int, float)) and not isinstance(re, bool), f"{path}[0]", "expected a real number")
    _require(isinstance(im, (int, float)) and not isinstance(im, bool), f"{path}[1]", "expected a real number")
    for k, x in enumerate(value):
        try:
            x = float(x)
        except OverflowError:
            raise ConfigError(f"{path}[{k}]: expected a real number within float range") from None
        _require(math.isfinite(x), f"{path}[{k}]", "expected a finite real number")
    return complex(re, im)


def parse_matrix_stack(value, path: str, shape: tuple) -> np.ndarray:
    """A config matrix stack of shape (n, d, d) or (d, d), read entry by entry:
    the list, matrix and row checks, then each [re, im] entry checked and
    converted with complex(re, im). Raises ConfigError naming the field."""
    if len(shape) == 3:
        n = shape[0]
        _require(isinstance(value, list) and len(value) == n, path, f"expected a list of {n} matrices")
        return np.array(
            [parse_matrix_stack(m, f"{path}[{i}]", shape[1:]) for i, m in enumerate(value)], dtype=complex
        )
    d = shape[0]
    _require(isinstance(value, list) and len(value) == d, path, f"expected a {d}x{d} matrix")
    rows = []
    for i, row in enumerate(value):
        _require(isinstance(row, list) and len(row) == d, f"{path}[{i}]", f"expected a row of {d} entries")
        rows.append([_complex_entry(z, f"{path}[{i}][{j}]") for j, z in enumerate(row)])
    return np.array(rows, dtype=complex)


def dense_numbers(a):
    """An array in the machine format's dense form, number by number: nested
    lists, complex entries as [re, im], and an integral float within +-2^53
    (negative zero included) as an int."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], axis=-1)

    def convert(v):
        if isinstance(v, list):
            return [convert(w) for w in v]
        return int(v) if v.is_integer() and abs(v) < 2**53 else v

    return convert(a.astype(float).tolist())


def canonical(doc) -> str:
    """A machine document as stdlib json writes it: sorted keys, no spaces,
    floats as repr spells them (1e-09, 1.5e-05), non-ASCII as \\u escapes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def densified(doc):
    """A machine document with every sparse array rewritten in dense form."""
    if isinstance(doc, dict):
        if doc.keys() == {"shape", "index", "value"}:
            return dense_numbers(dense(doc))
        return {key: densified(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [densified(value) for value in doc]
    return doc
