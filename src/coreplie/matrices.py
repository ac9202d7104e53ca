"""Small complex-matrix helpers shared across the package.

All matrices are plain numpy arrays with dtype complex128. Equality is
always approximate: absolute tolerance ENTRY_TOL scaled by the largest
entry magnitude involved (dimensions stay small, conditioning is benign).

The verify path writes its large temporaries with out= into a workspace of
grow-only arrays, so a run reuses the pages the last one touched. It is module
state (threading.local), as run_verification receives no object that outlives
a run: each thread has its own, and no value in it outlives the call writing it.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Entrywise comparison tolerance, scaled by max entry magnitude.
ENTRY_TOL = 1e-10
# Relative singular-value threshold of is_invertible and LieGroupSpec's rank test.
RANK_TOL = 1e-10
# Arrays smaller than this are allocated as usual, not taken from the workspace.
WORKSPACE_MIN_BYTES = 64 * 1024
_workspace = threading.local()


def workspace(slot: str, shape: tuple, dtype) -> np.ndarray | None:
    """This thread's C-contiguous array for slot, shaped and typed as asked, its contents
    undefined; None, for out= to allocate as usual, when it would be under WORKSPACE_MIN_BYTES."""
    size, dtype = math.prod(shape), np.dtype(dtype)
    if size * dtype.itemsize < WORKSPACE_MIN_BYTES:
        return None
    held = vars(_workspace).get(slot)
    if held is None or held.size < size or held.dtype != dtype:
        vars(_workspace)[slot] = held = np.empty(size, dtype)
    return held[:size].reshape(shape)


def as_square_complex(m, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """Coerce to a finite square complex matrix, or with ndim=3 to a stack
    (k, d, d) of them (read-only copy)."""
    try:
        a = np.array(m, dtype=complex)
    except ValueError:  # ragged nesting, e.g. a 2x2 and a 3x3 generator
        raise ValueError(f"{name} must be square, got a ragged or non-numeric array") from None
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    a.setflags(write=False)
    return a


def entries_close(a: np.ndarray, b: np.ndarray) -> bool:
    """Entrywise |a - b| <= ENTRY_TOL * max(1, largest entry magnitude)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return bool(np.abs(a - b).max(initial=0.0) <= ENTRY_TOL * scale)


def is_invertible(a: np.ndarray) -> bool:
    """Smallest singular value above RANK_TOL * max(1, largest singular value)."""
    s = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    if s.size == 0:
        return False
    return bool(s[-1] > RANK_TOL * max(1.0, float(s[0])))


def block_diag2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 block-diagonal assembly of two equal square blocks or stacks of them."""
    d = a.shape[-1]
    out = np.zeros((*a.shape[:-2], 2 * d, 2 * d), dtype=complex)
    out[..., :d, :d] = a
    out[..., d:, d:] = b
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


def real_vectorization(a: np.ndarray, slot: str | None = None) -> np.ndarray:
    """One real row per member of a stack (m, ...): the stacked real and imaginary parts of
    vec of each matrix in the member's last two axes, in order, in the workspace slot if named."""
    flat = np.asarray(a, dtype=complex).reshape(*np.shape(a)[:-2], -1)
    out = workspace(slot, (*flat.shape[:-1], 2 * flat.shape[-1]), float) if slot else None
    return np.concatenate([flat.real, flat.imag], axis=-1, out=out).reshape(len(a), -1)


def _factor(rows: np.ndarray, svd: tuple | None = None) -> tuple:
    """An (m, M) row stack, its pseudo-inverse (M, m) cut off as lstsq cuts at eps * max(m, M) * s_max,
    and its resolution eps * max(m, M) / s_min (least kept); svd is that of rows.T, taken if not given."""
    u, s, vh = np.linalg.svd(rows.T, full_matrices=False) if svd is None else svd
    rcond = np.finfo(float).eps * max(rows.shape)
    k = int(np.count_nonzero(s > rcond * s[0]))
    return rows, (u[:, :k] / s[:k]).conj() @ vh[:k].conj(), (rcond / s[k - 1] if k else 0.0)


def _solve(rows: np.ndarray, size: np.ndarray, factor: tuple, scale: float) -> tuple:
    """Coefficients of (p, M) rows over a _factor, parts at or below its resolution * size
    written as 0, and the remainder norms of the written coefficients times scale."""
    span, pinv, resolution = factor
    coeffs = rows @ pinv
    parts = coeffs.view(float)  # complex: real and imaginary parts side by side
    parts[np.abs(parts) <= resolution * size] = 0.0
    rest = np.matmul(coeffs, span, out=workspace(f"rest-{rows.dtype.kind}", rows.shape, rows.dtype))
    rest = np.subtract(rows, rest, out=rest).view(float)
    return coeffs, scale * np.sqrt(np.einsum("ij,ij->i", rest, rest))


@dataclass(frozen=True, eq=False)
class RealSpan:
    """The real span of a stack (m, ...) of complex arrays, its real_vectorization rows.
    svd, made on first use, is the thin SVD (u, s, vh) of the rows transposed, (M, m), the
    tall and faster side unless m > M: s holds the real singular values, largest first, and
    vh's rows are combinations of the members. A target C expands by the real (complex) c
    minimizing ||C - sum_k c_k B_k||_F, the minimum-norm c on a rank-deficient span, read at
    the solve's resolution: a real or imaginary part with |c| <= resolution * ||C||_F is written
    as 0, remainders follow it. The complex SVD is taken on the first expand with a row that
    falls back."""

    stack: np.ndarray

    _rows = cached_property(lambda self: real_vectorization(self.stack))
    svd = cached_property(lambda self: np.linalg.svd(self._rows.T, full_matrices=False))
    _real = cached_property(lambda self: _factor(self._rows, self.svd))
    _complex = cached_property(lambda self: _factor(self.stack.reshape(len(self.stack), -1)))

    def expand(self, targets: np.ndarray, scale: float = 1.0, tol: float = 0.0) -> tuple:
        """Real coefficients (p, m) and remainder norms (p,) times scale of p targets shaped as the
        members, then the rows (q,) whose real remainder is not below tol, in order, with their
        complex coefficients (q, m) and remainder norms (q,) times scale; tol = 0 solves every row."""
        if not len(self.stack):
            raise ValueError("basis must be nonempty")
        real = real_vectorization(targets, "rows")
        size = np.sqrt(np.einsum("ij,ij->i", real, real))[:, None]  # ||C||_F
        coeffs, residual = _solve(real, size, self._real, scale)
        rows = np.flatnonzero(~(residual < tol))
        if not len(rows):
            return coeffs, residual, rows, np.zeros((0, len(self.stack)), complex), np.zeros(0)
        flat = targets.reshape(len(targets), -1)[rows]
        return (coeffs, residual, rows, *_solve(flat, size[rows], self._complex, scale))
