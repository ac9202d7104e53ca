"""Small complex-matrix helpers shared across the package.

All matrices are plain numpy arrays with dtype complex128. Equality is
always approximate: absolute tolerance ENTRY_TOL scaled by the largest
entry magnitude involved (dimensions stay small, conditioning is benign).
"""
from __future__ import annotations

import math

import numpy as np

# Entrywise comparison tolerance, scaled by max entry magnitude.
ENTRY_TOL = 1e-10
# Relative singular-value threshold below which a matrix counts as singular.
RANK_TOL = 1e-10


def as_square_complex(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square complex array (read-only copy)."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    a.setflags(write=False)
    return a


def as_complex_vector(v, name: str = "vector") -> np.ndarray:
    a = np.array(v, dtype=complex)
    if a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    a.setflags(write=False)
    return a


def entries_close(a: np.ndarray, b: np.ndarray, tol: float = ENTRY_TOL) -> bool:
    """Entrywise |a - b| <= tol * max(1, largest entry magnitude)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return bool(np.abs(a - b).max(initial=0.0) <= tol * scale)


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max(initial=0.0))


def is_invertible(a: np.ndarray, tol: float = RANK_TOL) -> bool:
    """Smallest singular value above tol * max(1, largest singular value)."""
    s = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    if s.size == 0:
        return False
    return bool(s[-1] > tol * max(1.0, float(s[0])))


def block_diag2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 block-diagonal assembly of two equally sized square blocks."""
    d = a.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = a
    out[d:, d:] = b
    return out


def block_antidiag2(upper_right: np.ndarray, lower_left: np.ndarray) -> np.ndarray:
    d = upper_right.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, d:] = upper_right
    out[d:, :d] = lower_left
    return out


# Scaling and squaring with diagonal Padé approximants (Higham, SIAM J. Matrix
# Anal. Appl. 26(4), 2005): the degree m is the first whose theta_m bounds
# the 1-norm; above theta_13 the matrix is halved s times and r_13 squared s
# times. m -> (theta_m, Padé coefficients b_0..b_m).
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068e0,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152e0,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
}


def pade_branch(norm: float) -> tuple[int, int]:
    """Padé degree m and squaring count s for a matrix of 1-norm `norm`."""
    for m in (3, 5, 7, 9):
        if norm <= _PADE[m][0]:
            return m, 0
    return 13, max(0, math.ceil(math.log2(norm / _PADE[13][0])))


def expm(a) -> np.ndarray:
    """Matrix exponential of a square matrix or a stack (..., d, d).

    One branch (m, s) serves the whole stack, chosen from its largest 1-norm,
    so a stack equals its members exponentiated one at a time whenever they
    would pick the same branch.
    """
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError("expm of a matrix with non-finite entries")
    if a.shape[-1] == 1:  # exact, and a fifth of the cost on u1's 1x1 stack
        return np.exp(a)
    m, s = pade_branch(norm)
    b = _PADE[m][1]
    a = a * 0.5**s
    # r_m = (v - u)^-1 (v + u): u holds the odd terms b_k a^k, v the even ones
    a2 = a @ a
    powers = [np.eye(a.shape[-1]), a2]
    while len(powers) <= m // 2:
        powers.append(powers[-1] @ a2)
    u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
    v = sum(b[2 * k] * p for k, p in enumerate(powers))
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def real_vectorization(a: np.ndarray) -> np.ndarray:
    """Stacked real and imaginary parts of vec(a), as one real vector; a
    stack of matrices (..., d, d) gives one such vector per matrix."""
    flat = np.asarray(a, dtype=complex).reshape(*np.shape(a)[:-2], -1)
    return np.concatenate([flat.real, flat.imag], axis=-1)
