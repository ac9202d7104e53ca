import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from coreplie import catalog_entry, exp_curve
from coreplie.matrices import expm, pade_branch

# 1-norms that reach every Padé degree and, from 6 on, the squaring branch.
NORMS = (1e-6, 1e-3, 0.1, 0.5, 1.5, 3.0, 6.0, 20.0, 50.0)


def random_stack(rng, count, d, norm):
    """count random complex d x d matrices, each scaled to 1-norm `norm`."""
    a = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    return a * (norm / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]


def test_norms_reach_every_branch():
    branches = {pade_branch(norm) for norm in NORMS}
    assert {m for m, _ in branches} == {3, 5, 7, 9, 13}
    assert max(s for _, s in branches) > 0


class TestExpm:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 49])
    @pytest.mark.parametrize("norm", NORMS)
    def test_matches_scipy(self, d, norm):
        a = random_stack(np.random.default_rng(d), 4, d, norm)
        got, ref = expm(a), scipy_expm(a)
        assert got.shape == a.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("d", [2, 8])
    @pytest.mark.parametrize("norm", NORMS)
    def test_stack_equals_members(self, d, norm):
        a = random_stack(np.random.default_rng(7), 5, d, norm)
        assert len({pade_branch(np.abs(x).sum(axis=0).max()) for x in a}) == 1
        stacked = expm(a)
        for x, e in zip(a, stacked):
            assert np.array_equal(expm(x), e)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_zero_gives_identity(self, d):
        assert np.array_equal(expm(np.zeros((3, d, d))), np.broadcast_to(np.eye(d), (3, d, d)))

    @pytest.mark.parametrize("norm", NORMS)
    def test_anti_hermitian_gives_unitary(self, norm):
        a = random_stack(np.random.default_rng(3), 4, 6, norm)
        a = a - np.conj(np.swapaxes(a, -1, -2))
        u = expm(a)
        assert np.abs(u @ np.conj(np.swapaxes(u, -1, -2)) - np.eye(6)).max() <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, bad):
        a = np.eye(3, dtype=complex)
        a[0, 1] = bad
        with pytest.raises(ValueError):
            expm(a)

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_exp_curve_rejects_non_finite_alpha(self, bad):
        spec, _ = catalog_entry("so3")
        with pytest.raises(ValueError):
            exp_curve(spec, [bad, 0.0, 0.0])
