"""Machine-speed calibration: a fixed kernel timed next to every run.

On a machine shared with other tenants the speed of the cores drifts by
±15% over seconds to minutes, and every timing drifts with it: the median
job time of ten catalog-sweep runs spread by 26% between their quartiles
although each run had 600-900 jobs. Timed in alternation with the program, this kernel slows down and
speeds up with it (block medians of the two correlated at 0.97 over 100 s),
so the benchmark scales a run's job times by NOMINAL_S over the median time
of the kernel during that run. The result reads as the time the jobs would
take on a machine where the kernel takes NOMINAL_S.

The kernel is the benchmark's own code and calls only Python, numpy and
LAPACK: no change to the program can move it. Its mix (interpreter work,
small complex matrix products, least squares, SVD) is the mix of the
program's verification path, which is why it tracks it.
"""
from __future__ import annotations

import time

import numpy as np

# A typical time of one kernel() on the machine the benchmark was sized on
# (two-core Intel Xeon guest, Python 3.11, numpy 2.4, one OpenBLAS thread),
# where its median over a run ranged from 1.2 to 2.1 ms.
NOMINAL_S = 1.7e-3
REPEATS = 25

_rng = np.random.default_rng(1305)
_A = _rng.standard_normal((5, 5)) + 1j * _rng.standard_normal((5, 5))
_B = _rng.standard_normal((5, 5)) + 1j * _rng.standard_normal((5, 5))
_M = _rng.standard_normal((50, 8))


def kernel() -> float:
    """Seconds one pass of the fixed kernel takes now."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        c = _A @ _B - _B @ _A
        v = np.concatenate([c.real.ravel(), c.imag.ravel()])
        np.linalg.lstsq(_M, v, rcond=None)
        np.linalg.svd(c, compute_uv=False)
        d = {k: k * k for k in range(24)}
        sum(v for v in d.values() if v % 3)
    return time.perf_counter() - start


def samples(work_s: float) -> list:
    """Kernel times taken after work_s seconds of the program: one, plus one
    per 100 ms of work, so that a long run's speed is read from many samples
    at about 2% of its time."""
    return [kernel() for _ in range(1 + int(work_s / 0.1))]
