"""Small complex-matrix helpers shared across the package.

All matrices are plain numpy arrays with dtype complex128. Equality is
always approximate: absolute tolerance ENTRY_TOL scaled by the largest
entry magnitude involved (dimensions stay small, conditioning is benign).
"""
from __future__ import annotations

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


def real_vectorization(a: np.ndarray) -> np.ndarray:
    """Stacked real and imaginary parts of vec(a), as one real vector; a
    stack of matrices (..., d, d) gives one such vector per matrix."""
    flat = np.asarray(a, dtype=complex).reshape(*np.shape(a)[:-2], -1)
    return np.concatenate([flat.real, flat.imag], axis=-1)
