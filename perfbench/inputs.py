"""Input generators of the benchmark: su(N) ladder, spin-j ladder, configs.

Everything here is built in code from the benchmark's own formulas; the
program under test only ever sees the resulting config documents.
"""
from __future__ import annotations

import numpy as np


def gell_mann(n: int) -> list:
    """Generalized Gell-Mann matrices of su(n): n^2 - 1 Hermitian, trace 0,
    normalised to tr(l_a l_b) = 2 delta_ab."""
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            a = np.zeros((n, n), dtype=complex)
            a[j, k], a[k, j] = -1j, 1j
            mats += [s, a]
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l] = 1.0
        diag[l] = -float(l)
        mats.append(np.diag(diag * np.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    return mats


def su_generators(n: int) -> list:
    """X = -i lambda / 2 over the generalized Gell-Mann basis."""
    return [-0.5j * lam for lam in gell_mann(n)]


def spin_matrices(two_j: int):
    """(J_x, J_y, J_z) of spin j = two_j / 2 in the basis m = j, j-1, ..., -j."""
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    jp = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    for k in range(1, two_j + 1):
        # J_+ |j, m> = sqrt(j(j+1) - m(m+1)) |j, m+1>; row k-1 holds m+1
        jp[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.conj().T
    return (jp + jm) / 2, (jp - jm) / 2j, np.diag(m).astype(complex)


def spin_generators(two_j: int) -> list:
    """X_k = -i J_k, so exp(t X_k) is a rotation by t about axis k."""
    return [-1j * jk for jk in spin_matrices(two_j)]


def spin_time_reversal(two_j: int) -> np.ndarray:
    """N = exp(-i pi J_y), rounded to its exact +-1 antidiagonal.

    The rotation by pi about y maps |j, m> to (-1)^(j-m) |j, -m>; the
    rounding is checked against the matrix exponential so that a wrong
    phase convention cannot slip through.
    """
    from scipy.linalg import expm

    _, jy, _ = spin_matrices(two_j)
    exact = expm(-1j * np.pi * jy)
    rounded = np.round(exact.real)
    if np.abs(exact - rounded).max() > 1e-8:
        raise ValueError(f"exp(-i pi J_y) for 2j={two_j} is not a signed antidiagonal")
    anti = np.fliplr(np.eye(two_j + 1))
    if not np.array_equal(np.abs(rounded), anti):
        raise ValueError(f"exp(-i pi J_y) for 2j={two_j} is not a signed antidiagonal")
    return rounded.astype(complex)


def complex_json(m) -> list:
    """Row-major [re, im] nesting used by the config format."""
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def config_document(name: str, generators, n_matrix, s: int = 1) -> dict:
    """Explicit config document for one (group, extension) pair."""
    d = n_matrix.shape[0]
    return {
        "group": {
            "name": name,
            "n": len(generators),
            "d": d,
            "generators": [complex_json(g) for g in generators],
        },
        "extension": {"N": complex_json(n_matrix), "s": s},
    }


def su_document(n: int) -> dict:
    return config_document(f"su{n}", su_generators(n), np.eye(n, dtype=complex))


def spin_document(two_j: int) -> dict:
    return config_document(
        f"spin{two_j}-2", spin_generators(two_j), spin_time_reversal(two_j)
    )
