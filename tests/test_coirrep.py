import numpy as np
import pytest

from coreplie import (
    AntilinearExtension,
    GroupElement,
    Linearity,
    Side,
    catalog_entry,
    coirrep_matrix,
    compose,
    exp_curve,
)
from coreplie import coirrep

CATALOG = ("so2-conj", "su2-tr", "u1", "so3")


def assert_unitary(m):
    assert np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() < 1e-12


def test_module_defines_only_the_coirrep_matrices():
    defined = {
        name
        for name, obj in vars(coirrep).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == coirrep.__name__
    }
    assert defined == {"Side", "coirrep_matrix"}


class TestTypeA:
    def test_identity_gives_phased_n(self):
        n = np.array([[0, 1], [1, 0]], dtype=complex)
        ext = AntilinearExtension(n, s=+1, xi=0.4)
        for side in (Side.COSET_GA0, Side.COSET_A0G):
            element = coirrep_matrix(GroupElement(np.eye(2)), ext, side)
            assert np.abs(element.matrix - np.exp(0.4j) * n).max() < 1e-15

    def test_sides_differ_by_double_phase_d1(self):
        theta = 0.37
        ext = AntilinearExtension(np.eye(1), s=+1)
        g = GroupElement(np.array([[np.exp(1j * theta)]]))
        ga0 = coirrep_matrix(g, ext, Side.COSET_GA0).matrix
        a0g = coirrep_matrix(g, ext, Side.COSET_A0G).matrix
        assert abs(ga0[0, 0] / a0g[0, 0] - np.exp(2j * theta)) < 1e-12

    def test_subgroup_side_is_delta_itself(self, rng):
        spec, ext = catalog_entry("so3")
        g = exp_curve(spec, rng.standard_normal(3))
        element = coirrep_matrix(g, ext.with_phases(xi=0.7), Side.SUBGROUP)
        assert element.linearity is Linearity.LINEAR
        assert np.array_equal(element.matrix, g.matrix)

    def test_unitary_for_unitaries(self, rng):
        spec, ext = catalog_entry("so2-conj")
        g = exp_curve(spec, rng.uniform(-2, 2, size=1))
        for side in Side:
            assert_unitary(coirrep_matrix(g, ext, side).matrix)

    def test_coset_element_is_antilinear(self, rng):
        spec, ext = catalog_entry("so3")
        g = exp_curve(spec, rng.standard_normal(3))
        element = coirrep_matrix(g, ext, Side.COSET_GA0)
        assert element.linearity is Linearity.ANTILINEAR


class TestTypeB:
    def test_identity_coset_ga0_block_pattern(self):
        ext = AntilinearExtension(np.eye(2), s=-1)  # b-type with N = E
        element = coirrep_matrix(GroupElement(np.eye(2)), ext, Side.COSET_GA0)
        expected = np.block(
            [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
        )
        assert np.allclose(element.matrix, expected)
        assert element.linearity is Linearity.ANTILINEAR

    def test_subgroup_side_block_diagonal(self, rng):
        spec, ext = catalog_entry("su2-tr")
        g = exp_curve(spec, rng.standard_normal(3))
        element = coirrep_matrix(g, ext, Side.SUBGROUP)
        assert element.linearity is Linearity.LINEAR
        d = 2
        assert np.allclose(element.matrix[:d, d:], 0)
        assert np.allclose(element.matrix[d:, :d], 0)
        assert np.allclose(element.matrix[:d, :d], g.matrix)
        assert np.allclose(element.matrix[d:, d:], g.matrix)

    def test_coset_sides_antidiagonal_with_opposite_signs(self, rng):
        spec, ext = catalog_entry("su2-tr")
        g = exp_curve(spec, rng.standard_normal(3))
        for side in (Side.COSET_GA0, Side.COSET_A0G):
            m = coirrep_matrix(g, ext, side).matrix
            d = 2
            assert np.allclose(m[:d, :d], 0)
            assert np.allclose(m[d:, d:], 0)
            assert np.allclose(m[d:, :d], -m[:d, d:])

    def test_unitary_for_unitaries(self, rng):
        spec, ext = catalog_entry("su2-tr")
        g = exp_curve(spec, rng.standard_normal(3))
        for side in Side:
            assert_unitary(coirrep_matrix(g, ext, side).matrix)

    def test_coset_composed_with_coset_is_block_diagonal(self, rng):
        spec, ext = catalog_entry("su2-tr")
        for _ in range(10):
            g = exp_curve(spec, rng.standard_normal(3))
            h = exp_curve(spec, rng.standard_normal(3))
            prod = compose(coirrep_matrix(g, ext, Side.COSET_GA0), coirrep_matrix(h, ext, Side.COSET_A0G))
            assert prod.linearity is Linearity.LINEAR
            d = 2
            assert np.abs(prod.matrix[:d, d:]).max() < 1e-10
            assert np.abs(prod.matrix[d:, :d]).max() < 1e-10


@pytest.mark.parametrize("name", CATALOG)
def test_subgroup_times_coset_multiplication_law(rng, name):
    """D(g) D(h a0) = D(gh a0) and D(a0 g) D(h) = D(a0 gh), flags included."""
    spec, ext = catalog_entry(name)
    ext = ext.with_phases(xi=0.7)
    for _ in range(10):
        g = exp_curve(spec, rng.standard_normal(spec.n))
        h = exp_curve(spec, rng.standard_normal(spec.n))
        gh = compose(g, h)
        for left, right, side in (
            (coirrep_matrix(g, ext, Side.SUBGROUP), coirrep_matrix(h, ext, Side.COSET_GA0), Side.COSET_GA0),
            (coirrep_matrix(g, ext, Side.COSET_A0G), coirrep_matrix(h, ext, Side.SUBGROUP), Side.COSET_A0G),
        ):
            prod, expected = compose(left, right), coirrep_matrix(gh, ext, side)
            assert prod.linearity is expected.linearity is Linearity.ANTILINEAR
            assert np.abs(prod.matrix - expected.matrix).max() < 1e-12


@pytest.mark.parametrize("name", ["so2-conj", "su2-tr"])
@pytest.mark.parametrize(
    "g, side, match",
    [
        (GroupElement(np.eye(2), Linearity.ANTILINEAR), Side.COSET_GA0, "linear"),
        (GroupElement(np.eye(3)), Side.COSET_A0G, "dimension mismatch"),
        (GroupElement(np.eye(2)), "coset", "unknown side"),
    ],
    ids=["antilinear-g", "wrong-dimension", "not-a-side"],
)
def test_invalid_arguments_rejected(name, g, side, match):
    _, ext = catalog_entry(name)
    with pytest.raises(ValueError, match=match):
        coirrep_matrix(g, ext, side)
