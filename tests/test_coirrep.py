import numpy as np
import pytest

from coreplie import (
    AntilinearExtension,
    CoirrepType,
    GroupElement,
    Linearity,
    Side,
    TypeMismatchError,
    build_a_matrix,
    build_b_matrix,
    catalog_entry,
    compose,
    exp_curve,
)
from coreplie import coirrep


def assert_unitary(m):
    assert np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() < 1e-12


def test_module_defines_only_the_coirrep_matrices():
    defined = {
        name
        for name, obj in vars(coirrep).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == coirrep.__name__
    }
    assert defined == {"Side", "TypeMismatchError", "CoirrepMatrix", "build_a_matrix", "build_b_matrix"}


class TestBuildAMatrix:
    def test_identity_gives_phased_n(self):
        n = np.array([[0, 1], [1, 0]], dtype=complex)
        ext = AntilinearExtension(n, s=+1, xi=0.4)
        for side in (Side.COSET_GA0, Side.COSET_A0G):
            cm = build_a_matrix(GroupElement(np.eye(2)), ext, side)
            assert np.abs(cm.matrix - np.exp(0.4j) * n).max() < 1e-15
            assert (cm.side, cm.ctype) == (side, CoirrepType.A)

    def test_sides_differ_by_double_phase_d1(self):
        theta = 0.37
        ext = AntilinearExtension(np.eye(1), s=+1)
        g = GroupElement(np.array([[np.exp(1j * theta)]]))
        ga0 = build_a_matrix(g, ext, Side.COSET_GA0).matrix
        a0g = build_a_matrix(g, ext, Side.COSET_A0G).matrix
        assert abs(ga0[0, 0] / a0g[0, 0] - np.exp(2j * theta)) < 1e-12

    def test_unitary_for_unitaries(self, rng):
        spec, ext = catalog_entry("so2-conj")
        g = exp_curve(spec, rng.uniform(-2, 2, size=1))
        for side in (Side.COSET_GA0, Side.COSET_A0G):
            assert_unitary(build_a_matrix(g, ext, side).matrix)

    def test_coset_element_is_antilinear(self, rng):
        spec, ext = catalog_entry("so3")
        g = exp_curve(spec, rng.standard_normal(3))
        element = build_a_matrix(g, ext, Side.COSET_GA0).as_group_element()
        assert element.linearity is Linearity.ANTILINEAR

    def test_b_type_extension_rejected(self):
        _, ext = catalog_entry("su2-tr")
        with pytest.raises(TypeMismatchError, match="type mismatch"):
            build_a_matrix(GroupElement(np.eye(2)), ext, Side.COSET_GA0)


class TestBuildBMatrix:
    def test_identity_coset_ga0_block_pattern(self):
        ext = AntilinearExtension(np.eye(2), s=-1)  # b-type with N = E
        cm = build_b_matrix(GroupElement(np.eye(2)), ext, Side.COSET_GA0)
        expected = np.block(
            [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
        )
        assert np.allclose(cm.matrix, expected)

    def test_subgroup_side_block_diagonal(self, rng):
        spec, ext = catalog_entry("su2-tr")
        g = exp_curve(spec, rng.standard_normal(3))
        cm = build_b_matrix(g, ext, Side.SUBGROUP)
        d = 2
        assert np.allclose(cm.matrix[:d, d:], 0)
        assert np.allclose(cm.matrix[d:, :d], 0)
        assert np.allclose(cm.matrix[:d, :d], g.matrix)
        assert np.allclose(cm.matrix[d:, d:], g.matrix)

    def test_coset_sides_antidiagonal_with_opposite_signs(self, rng):
        spec, ext = catalog_entry("su2-tr")
        g = exp_curve(spec, rng.standard_normal(3))
        for side in (Side.COSET_GA0, Side.COSET_A0G):
            cm = build_b_matrix(g, ext, side)
            d = 2
            assert np.allclose(cm.matrix[:d, :d], 0)
            assert np.allclose(cm.matrix[d:, d:], 0)
            assert np.allclose(cm.matrix[d:, :d], -cm.matrix[:d, d:])

    def test_unitary_for_unitaries(self, rng):
        spec, ext = catalog_entry("su2-tr")
        g = exp_curve(spec, rng.standard_normal(3))
        for side in Side:
            assert_unitary(build_b_matrix(g, ext, side).matrix)

    def test_a_type_extension_rejected(self):
        _, ext = catalog_entry("so2-conj")
        with pytest.raises(TypeMismatchError, match="type mismatch"):
            build_b_matrix(GroupElement(np.eye(2)), ext, Side.SUBGROUP)

    def test_coset_composed_with_coset_is_block_diagonal(self, rng):
        spec, ext = catalog_entry("su2-tr")
        for _ in range(10):
            g = exp_curve(spec, rng.standard_normal(3))
            h = exp_curve(spec, rng.standard_normal(3))
            a = build_b_matrix(g, ext, Side.COSET_GA0).as_group_element()
            b = build_b_matrix(h, ext, Side.COSET_A0G).as_group_element()
            prod = compose(a, b)
            assert prod.linearity is Linearity.LINEAR
            d = 2
            assert np.abs(prod.matrix[:d, d:]).max() < 1e-10
            assert np.abs(prod.matrix[d:, :d]).max() < 1e-10


@pytest.mark.parametrize("build, name", [(build_a_matrix, "so2-conj"), (build_b_matrix, "su2-tr")])
@pytest.mark.parametrize(
    "g, side, match",
    [
        (GroupElement(np.eye(2), Linearity.ANTILINEAR), Side.COSET_GA0, "linear"),
        (GroupElement(np.eye(3)), Side.COSET_A0G, "dimension mismatch"),
        (GroupElement(np.eye(2)), "coset", "side"),
    ],
    ids=["antilinear-g", "wrong-dimension", "not-a-side"],
)
def test_invalid_arguments_rejected(build, name, g, side, match):
    _, ext = catalog_entry(name)
    with pytest.raises(ValueError, match=match):
        build(g, ext, side)


def test_a_matrix_rejects_the_subgroup_side():
    _, ext = catalog_entry("so2-conj")
    with pytest.raises(ValueError, match="coset side"):
        build_a_matrix(GroupElement(np.eye(2)), ext, Side.SUBGROUP)
