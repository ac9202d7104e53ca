import dataclasses
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from coreplie import (
    AntilinearExtension,
    CoirrepType,
    GroupElement,
    InconsistentExtensionError,
    LieGroupSpec,
    Linearity,
    a0_square_sign,
    catalog_entry,
    classify_coirrep,
    compose,
    exp_curve,
)
from coreplie import group_core
from coreplie.config import parse_config
from coreplie.matrices import RANK_TOL

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import su_document  # noqa: E402

E2 = np.eye(2, dtype=complex)
ISY = np.array([[0, 1], [-1, 0]], dtype=complex)  # i * sigma_y


def lin(m):
    return GroupElement(m, Linearity.LINEAR)


def anti(m):
    return GroupElement(m, Linearity.ANTILINEAR)


class TestCompose:
    def test_identity_left(self):
        m = np.array([[1, 2j], [0, 1]], dtype=complex)
        result = compose(lin(E2), anti(m))
        assert np.allclose(result.matrix, m)
        assert result.linearity is Linearity.ANTILINEAR

    def test_isy_squares_to_minus_identity(self):
        result = compose(anti(ISY), anti(ISY))
        assert result.linearity is Linearity.LINEAR
        assert np.abs(result.matrix - (-E2)).max() < 1e-12

    def test_antilinear_pair_always_linear(self, rng):
        for _ in range(20):
            a = expm(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            b = expm(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            assert compose(anti(a), anti(b)).linearity is Linearity.LINEAR

    def test_right_factor_conjugated_when_left_antilinear(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.array([[1j, 0], [0, 1j]])
        result = compose(anti(a), anti(b))
        assert np.allclose(result.matrix, a @ b.conj())

    def test_associativity(self, rng):
        for _ in range(25):
            mats = [
                expm(0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))))
                for _ in range(3)
            ]
            flags = rng.integers(0, 2, size=3)
            els = [anti(m) if f else lin(m) for m, f in zip(mats, flags)]
            left = compose(compose(els[0], els[1]), els[2])
            right = compose(els[0], compose(els[1], els[2]))
            assert left.linearity is right.linearity
            assert np.abs(left.matrix - right.matrix).max() < 1e-12

    def test_flag_algebra_is_z2(self):
        table = {
            (Linearity.LINEAR, Linearity.LINEAR): Linearity.LINEAR,
            (Linearity.LINEAR, Linearity.ANTILINEAR): Linearity.ANTILINEAR,
            (Linearity.ANTILINEAR, Linearity.LINEAR): Linearity.ANTILINEAR,
            (Linearity.ANTILINEAR, Linearity.ANTILINEAR): Linearity.LINEAR,
        }
        for (fa, fb), expected in table.items():
            assert compose(GroupElement(E2, fa), GroupElement(E2, fb)).linearity is expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            compose(lin(E2), lin(np.eye(3)))

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            lin(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestExpCurve:
    def test_zero_alpha_gives_identity(self):
        spec, _ = catalog_entry("so2-conj")
        g = exp_curve(spec, [0.0])
        assert np.allclose(g.matrix, E2)
        assert g.linearity is Linearity.LINEAR

    def test_so2_quarter_turn(self):
        spec, _ = catalog_entry("so2-conj")
        g = exp_curve(spec, [np.pi / 2])
        expected = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.abs(g.matrix - expected).max() < 1e-12

    def test_inverse_curve(self, rng):
        spec, _ = catalog_entry("su2-tr")
        alpha = rng.standard_normal(3)
        prod = compose(exp_curve(spec, alpha), exp_curve(spec, -alpha))
        assert np.abs(prod.matrix - E2).max() < 1e-12

    def test_one_parameter_subgroup_law(self, rng):
        spec, _ = catalog_entry("su2-tr")
        for sigma in range(3):
            a, b = rng.uniform(-2, 2, size=2)
            al = np.zeros(3)
            be = np.zeros(3)
            al[sigma], be[sigma] = a, b
            lhs = compose(exp_curve(spec, al), exp_curve(spec, be)).matrix
            rhs = exp_curve(spec, al + be).matrix
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_nilpotent_exponential_exact(self):
        spec = LieGroupSpec((np.array([[0, 1], [0, 0]], dtype=complex),))
        g = exp_curve(spec, [1.0])
        assert np.allclose(g.matrix, np.array([[1, 1], [0, 1]]))

    def test_accuracy_at_norm_ten(self):
        # closed-form rotation oracle at the largest supported curve norm
        spec, _ = catalog_entry("so2-conj")
        theta = 10.0
        g = exp_curve(spec, [theta])
        expected = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert np.abs(g.matrix - expected).max() < 1e-12

    def test_length_mismatch(self):
        spec, _ = catalog_entry("so2-conj")
        with pytest.raises(ValueError, match="length"):
            exp_curve(spec, [0.1, 0.2])


class TestLieGroupSpec:
    def test_dependent_generators_rejected(self):
        x = np.array([[0, -1], [1, 0]], dtype=complex)
        with pytest.raises(ValueError, match="independent"):
            LieGroupSpec((x, 2 * x))

    def test_ragged_generators_named(self):
        with pytest.raises(ValueError, match="^generators must be square, got a ragged"):
            LieGroupSpec((np.eye(2), np.eye(3)))

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 0)])
    def test_empty_stack_named(self, shape):
        with pytest.raises(ValueError, match=r"^generators must be a nonempty stack .* got shape " + re.escape(str(shape))):
            LieGroupSpec(np.zeros(shape))

    def test_n_and_d_are_read_from_the_one_stack(self):
        spec = LieGroupSpec(catalog_entry("su2-tr")[0].generators, "su2")
        assert [f.name for f in dataclasses.fields(spec)] == ["generators", "name"]
        assert (spec.n, spec.d, spec.name) == (3, 2, "su2")
        with pytest.raises(AttributeError):
            spec.n = 2

    @pytest.mark.parametrize("k", range(-12, 13))
    @pytest.mark.parametrize("name", ["so3", "su2-tr", "su3"])
    def test_independence_does_not_depend_on_the_scale(self, name, k):
        # the rank threshold is relative to the largest singular value, so
        # 10**k X is independent exactly when X is, and a repeat never is
        spec = parse_config(su_document(3)).spec if name == "su3" else catalog_entry(name)[0]
        gens = 10.0**k * spec.generators
        assert np.array_equal(LieGroupSpec(gens).generators, gens)
        with pytest.raises(ValueError, match=rf"\(rank {spec.n} < {spec.n + 1}\)"):
            LieGroupSpec(np.concatenate([gens, gens[-1:]]))

    @pytest.mark.parametrize("factor, rank", [(0.5, 2), (2.0, 3)])
    def test_rank_cut_sits_at_rank_tol(self, factor, rank):
        # i sigma_k / sqrt(2) are orthonormal in the real Frobenius product, so the
        # mixed stack's real singular values are 1, 0.5 and factor * RANK_TOL: the
        # smallest falls below the cut at 0.5 and clears it at 2
        pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        rng = np.random.default_rng(5)
        u, v = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
        mix = u @ np.diag([1.0, 0.5, factor * RANK_TOL]) @ v.T
        gens = np.tensordot(mix, 1j * pauli / np.sqrt(2), axes=1)
        if rank == 3:
            assert np.array_equal(LieGroupSpec(gens).generators, gens)
        else:
            with pytest.raises(ValueError, match=r"\(rank 2 < 3\)"):
                LieGroupSpec(gens)

    @pytest.mark.parametrize("name, message", [
        (5, "name: expected a string"),
        (None, "name: expected a string"),
        ("\ud800", "name: expected valid UTF-8 text, got surrogates not allowed at index 0"),
    ])
    def test_name_is_checked_by_the_type(self, name, message):
        # every machine document carries the name, so one that UTF-8 cannot encode is rejected here
        with pytest.raises(group_core.FieldError) as info:
            LieGroupSpec(ISY[None], name=name)
        assert str(info.value) == message


class TestAntilinearExtension:
    @pytest.mark.parametrize("field, value, message", [
        ("s", True, "s: expected +1 or -1"),
        ("s", 1.0, "s: expected +1 or -1"),
        ("xi", float("nan"), "xi: expected a finite number, got nan"),
        ("delta_alpha0", float("inf"), "delta_alpha0: expected a finite number, got inf"),
        ("xi", True, "xi: expected a finite number, got True"),
        ("delta_alpha0", False, "delta_alpha0: expected a finite number, got False"),
    ])
    def test_invalid_field_rejected(self, field, value, message):
        with pytest.raises(ValueError) as info:
            AntilinearExtension(E2, **{field: value})
        assert str(info.value) == message

    def test_phases_are_stored_as_floats(self):
        ext = AntilinearExtension(E2, xi=1, delta_alpha0=np.float32(0.5))
        assert (type(ext.xi), type(ext.delta_alpha0)) == (float, float)
        assert (ext.xi, ext.delta_alpha0) == (1.0, 0.5)

    def test_a0_sign_is_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(group_core, "a0_square_sign", lambda ext: calls.append(ext) or -1)
        ext = AntilinearExtension(ISY, s=+1)
        assert (ext.a0_sign, ext.ctype, ext.a0_sign, ext.ctype) == (-1, CoirrepType.B, -1, CoirrepType.B)
        assert calls == [ext]


class TestA0SquareSign:
    def test_identity_extension(self):
        assert a0_square_sign(AntilinearExtension(E2, s=+1)) == +1

    def test_isy_extension(self):
        assert a0_square_sign(AntilinearExtension(ISY, s=+1)) == -1

    def test_inconsistent_extension(self):
        ext = AntilinearExtension(np.diag([1.0, 2.0]), s=+1)
        with pytest.raises(InconsistentExtensionError, match="inconsistent extension"):
            a0_square_sign(ext)

    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_margin_for_catalog(self, name):
        # distance of N*conj(N) from the wrong sign of E must dwarf the tolerance
        _, ext = catalog_entry(name)
        sign = a0_square_sign(ext)
        sq = ext.N @ ext.N.conj()
        wrong = -sign * np.eye(ext.d)
        margin = np.abs(sq - wrong).max()
        assert margin >= 1e6 * 1e-10


class TestClassify:
    def test_so2_conj_is_a_type(self):
        spec, ext = catalog_entry("so2-conj")
        assert classify_coirrep(spec, ext) is CoirrepType.A

    def test_su2_tr_is_b_type(self):
        spec, ext = catalog_entry("su2-tr")
        assert classify_coirrep(spec, ext) is CoirrepType.B

    def test_declared_sign_flips_type(self):
        spec, _ = catalog_entry("so2-conj")
        assert classify_coirrep(spec, AntilinearExtension(E2, s=-1)) is CoirrepType.B

    def test_dimension_mismatch(self):
        spec, _ = catalog_entry("so3")
        with pytest.raises(ValueError, match="dimension"):
            classify_coirrep(spec, AntilinearExtension(E2, s=+1))
