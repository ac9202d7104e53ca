import cmath
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from coreplie import (
    AntilinearExtension,
    CoirrepType,
    DifferentiationError,
    Frame,
    FrameMismatchError,
    LieGroupSpec,
    apply_vf,
    build_b_matrix,
    catalog_entry,
    central_derivative,
    classify_coirrep,
    exp_curve,
    extract_coset_generators,
    extract_subgroup_generators,
    generator_basis,
    make_operator,
    transport,
    transport_map,
    vf_commutator,
)
from coreplie import group_core, infinitesimal
from coreplie.coirrep import Side
from coreplie.config import config_for_catalog
from coreplie.report import run_verification

from oracle import commutator_on_coordinates
from test_algebra import su3_gell_mann


class TestCentralDerivative:
    def test_exponential_curve(self):
        deriv = central_derivative(lambda t: np.array([[np.exp(3 * t)]]), step=1e-4)
        assert abs(deriv[0, 0] - 3.0) < 1e-10

    def test_constant_curve_gives_zero(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.abs(central_derivative(lambda t: m, step=1e-4)).max() == 0.0

    def test_invalid_step(self):
        with pytest.raises(DifferentiationError, match="step"):
            central_derivative(lambda t: np.eye(1), step=0.0)

    def test_underflow_step(self):
        with pytest.raises(DifferentiationError, match="underflow"):
            central_derivative(lambda t: np.eye(1), step=1e-300)

    def test_divergent_curve_detected(self):
        # a noisy curve on which the two stencils cannot agree
        def curve(t):
            return np.array([[np.sign(t) * np.sqrt(abs(t))]]) if t else np.zeros((1, 1))

        with pytest.raises(DifferentiationError, match="converge"):
            central_derivative(curve, step=1e-4)

    def test_curve_sampled_once_per_abscissa(self):
        ts = []
        central_derivative(lambda t: ts.append(t) or np.eye(2), step=1e-4)
        assert sorted(ts) == [-2e-4, -1e-4, -5e-5, 5e-5, 1e-4, 2e-4]

    def test_divergent_member_of_a_stack_detected(self):
        # the smooth member's scale (1e6) would hide the rough member's
        # stencil disagreement (about 45) if the stack shared one scale
        def curve(t):
            rough = np.sign(t) * np.sqrt(abs(t))
            return np.array([[[rough]], [[1e6 * np.exp(t)]]])

        with pytest.raises(DifferentiationError, match="converge"):
            central_derivative(curve, step=1e-4)

    def test_stacked_derivative_equals_per_curve(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        curves = (
            lambda t: expm(t * a),
            lambda t: np.cos(t) * a + np.sin(2 * t) * np.eye(3),
            lambda t: 1e6 * expm(-t * a.T),
        )
        stacked = central_derivative(lambda t: np.stack([c(t) for c in curves]), step=1e-4)
        for got, curve in zip(stacked, curves):
            assert np.array_equal(got, central_derivative(curve, step=1e-4))


class TestSubgroupExtraction:
    def test_so2_fd_recovers_generator(self):
        spec, _ = catalog_entry("so2-conj")
        fd = extract_subgroup_generators(spec, CoirrepType.A, mode="fd")
        assert np.abs(fd[0] - spec.generators[0]).max() < 1e-8

    def test_b_type_blocks_identical(self):
        spec, ext = catalog_entry("su2-tr")
        for mode in ("exact", "fd"):
            for x in extract_subgroup_generators(spec, CoirrepType.B, mode=mode):
                assert x.shape == (4, 4)
                assert np.allclose(x[:2, 2:], 0)
                assert np.allclose(x[2:, :2], 0)
                assert np.abs(x[:2, :2] - x[2:, 2:]).max() < 1e-8

    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_fd_agrees_with_exact(self, name):
        spec, ext = catalog_entry(name)
        ctype = classify_coirrep(spec, ext)
        exact = extract_subgroup_generators(spec, ctype, mode="exact")
        fd = extract_subgroup_generators(spec, ctype, mode="fd")
        for a, b in zip(exact, fd):
            assert np.abs(a - b).max() < 1e-6


class TestCosetExtraction:
    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_alpha0_direction_is_i_times_n(self, name):
        spec, ext = catalog_entry(name)
        ctype = classify_coirrep(spec, ext)
        gens = extract_coset_generators(spec, ext, ctype, mode="exact")
        d = spec.d
        upper = gens[0][:d, :d] if ctype is CoirrepType.B else gens[0]
        assert np.abs(upper - 1j * ext.N).max() < 1e-14

    def test_so2_coset_generator_equals_subgroup_generator(self):
        spec, ext = catalog_entry("so2-conj")
        gens = extract_coset_generators(spec, ext, CoirrepType.A, mode="exact")
        assert np.abs(gens[1] - spec.generators[0]).max() < 1e-14

    def test_b_type_lower_blocks_are_negated(self):
        spec, ext = catalog_entry("su2-tr")
        for mode in ("exact", "fd"):
            gens = extract_coset_generators(spec, ext, CoirrepType.B, mode=mode)
            for x in gens:
                assert np.allclose(x[:2, 2:], 0)
                assert np.allclose(x[2:, :2], 0)
                assert np.abs(x[:2, :2] + x[2:, 2:]).max() < 1e-8

    def test_upper_block_identities(self):
        spec, ext = catalog_entry("su2-tr")
        gens = extract_coset_generators(spec, ext, CoirrepType.B, mode="exact")
        assert np.abs(gens[0][:2, :2] - 1j * ext.N).max() < 1e-10
        for sigma in range(3):
            assert np.abs(gens[sigma + 1][:2, :2] - spec.generators[sigma] @ ext.N).max() < 1e-10

    def test_wrong_ctype_rejected(self):
        spec, ext = catalog_entry("so2-conj")
        with pytest.raises(ValueError, match="type"):
            extract_coset_generators(spec, ext, CoirrepType.B)

    def test_full_matrix_differentiation_cross_check(self):
        # independent route: differentiate the natural-order action of the
        # full 2d coset matrix exp(i da0) D(g(da) a0), composed with the
        # block swap that the coset action applies to the stacked point
        spec, ext = catalog_entry("su2-tr")
        d = spec.d
        swap = np.block(
            [[np.zeros((d, d)), np.eye(d)], [np.eye(d), np.zeros((d, d))]]
        )

        def coset_action(alpha0, alpha):
            g = exp_curve(spec, alpha)
            full = build_b_matrix(g, ext, Side.COSET_GA0).matrix
            return cmath.exp(1j * alpha0) * (full @ swap)

        gens = extract_coset_generators(spec, ext, CoirrepType.B, mode="exact")
        fd0 = central_derivative(lambda t: coset_action(t, np.zeros(3)), step=1e-4)
        assert np.abs(fd0 - gens[0]).max() < 1e-8
        for sigma in range(3):
            def curve(t, sigma=sigma):
                alpha = np.zeros(3)
                alpha[sigma] = t
                return coset_action(0.0, alpha)

            assert np.abs(central_derivative(curve, step=1e-4) - gens[sigma + 1]).max() < 1e-8


class TestVectorFields:
    def test_zero_matrix_annihilates(self):
        vf = make_operator(np.zeros((3, 3)), Frame.X)
        assert np.abs(apply_vf(vf, np.array([1.0, 2.0, 3.0]))).max() == 0.0

    def test_euler_operator(self):
        vf = make_operator(np.eye(2), Frame.X)
        x = np.array([1.0 + 2j, -0.5])
        assert np.allclose(apply_vf(vf, x), x)

    def test_nilpotent_example(self):
        vf = make_operator(np.array([[0, 1], [0, 0]], dtype=complex), Frame.X)
        assert np.allclose(apply_vf(vf, np.array([0.0, 1.0])), np.array([1.0, 0.0]))

    def test_linearity(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        vf = make_operator(a, Frame.X)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam, mu = 1.3 - 0.2j, -0.7 + 1j
        lhs = apply_vf(vf, lam * x + mu * y)
        rhs = lam * apply_vf(vf, x) + mu * apply_vf(vf, y)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_matvec_oracle(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(apply_vf(make_operator(a, Frame.X), x), a @ x)


class TestCommutator:
    def test_self_bracket_is_zero(self, rng):
        a = rng.standard_normal((3, 3))
        vf = make_operator(a, Frame.X)
        assert np.abs(vf_commutator(vf, vf).coeff).max() == 0.0

    def test_hand_computed_2x2(self):
        u = make_operator(np.diag([1.0, 0.0]), Frame.X)
        v = make_operator(np.array([[0.0, 1.0], [0.0, 0.0]]), Frame.X)
        expected = np.array([[0.0, -1.0], [0.0, 0.0]])
        assert np.allclose(vf_commutator(u, v).coeff, expected)

    def test_frame_mismatch_rejected(self):
        u = make_operator(np.eye(2), Frame.X)
        v = make_operator(np.eye(2), Frame.X_PRIME)
        with pytest.raises(FrameMismatchError, match="different points"):
            vf_commutator(u, v)

    def test_operator_level_correspondence(self, rng):
        # apply [J_A, J_B] to every coordinate function at random points and
        # compare with the closed-form field J_{BA-AB}
        for d in (2, 3):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            points = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(20)]
            oracle = commutator_on_coordinates(a, b, points)
            coeff = vf_commutator(make_operator(a, Frame.X), make_operator(b, Frame.X)).coeff
            direct = np.stack([coeff @ p for p in points])
            assert np.abs(oracle - direct).max() < 1e-10


class TestTransport:
    def test_identity_extension_is_noop(self, rng):
        _, ext = catalog_entry("so2-conj")
        tmap = transport_map(ext, CoirrepType.A)
        assert np.allclose(tmap.matrix, np.eye(2))
        a = rng.standard_normal((2, 2))
        vf = make_operator(a, Frame.X)
        moved = transport(vf, tmap)
        assert np.allclose(moved.coeff, a)
        assert moved.frame is Frame.X_PRIME

    def test_b_type_block_pattern(self):
        _, ext = catalog_entry("su2-tr")
        tmap = transport_map(ext, CoirrepType.B)
        n_inv = np.linalg.inv(ext.N)
        assert np.allclose(tmap.matrix[:2, :2], n_inv)
        assert np.allclose(tmap.matrix[2:, 2:], -n_inv)
        assert np.allclose(tmap.matrix[:2, 2:], 0)

    def test_round_trip(self, rng):
        _, ext = catalog_entry("su2-tr")
        tmap = transport_map(ext, CoirrepType.B, delta_alpha0=0.4)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vf = make_operator(a, Frame.X)
        back = transport(transport(vf, tmap), tmap.inverse())
        assert np.abs(back.coeff - a).max() < 1e-12
        assert back.frame is Frame.X

    def test_bracket_morphism(self, rng):
        _, ext = catalog_entry("su2-tr")
        tmap = transport_map(ext, CoirrepType.B)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u, v = make_operator(a, Frame.X), make_operator(b, Frame.X)
            lhs = transport(vf_commutator(u, v), tmap).coeff
            rhs = vf_commutator(transport(u, tmap), transport(v, tmap)).coeff
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_frame_mismatch(self):
        _, ext = catalog_entry("so2-conj")
        tmap = transport_map(ext, CoirrepType.A)
        vf = make_operator(np.eye(2), Frame.X_PRIME)
        with pytest.raises(FrameMismatchError):
            transport(vf, tmap)

    def test_delta_alpha0_is_pure_phase(self, rng):
        # the nonzero coset phase changes the map but never any conjugation
        _, ext = catalog_entry("su2-tr")
        plain = transport_map(ext, CoirrepType.B, delta_alpha0=0.0)
        phased = transport_map(ext, CoirrepType.B, delta_alpha0=1.234)
        assert not np.allclose(plain.matrix, phased.matrix)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vf = make_operator(a, Frame.X)
        assert np.abs(transport(vf, plain).coeff - transport(vf, phased).coeff).max() < 1e-12


class TestGeneratorBasis:
    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_counts(self, name):
        spec, ext = catalog_entry(name)
        basis = generator_basis(spec, ext)
        assert len(basis.subgroup) == spec.n
        assert len(basis.coset) == spec.n + 1


def spin_three_halves():
    """Spin-3/2 rotations X_k = -i J_k with time reversal N = exp(-i pi J_y):
    N conj(N) = -E against s = +1, so the coirrep is type b."""
    m = np.array([1.5, 0.5, -0.5, -1.5])
    jp = np.diag(np.sqrt(15 / 4 - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    jx, jy, jz = (jp + jp.T) / 2, (jp - jp.T) / 2j, np.diag(m).astype(complex)
    spec = LieGroupSpec(n=3, d=4, generators=(-1j * jx, -1j * jy, -1j * jz), name="spin-3/2")
    return spec, AntilinearExtension(expm(-1j * np.pi * jy), s=+1)


STENCIL_CASES = ("so2-conj", "su2-tr", "u1", "so3", "su3", "spin-3/2")


def stencil_case(name):
    if name == "su3":
        return su3_gell_mann()
    if name == "spin-3/2":
        return spin_three_halves()
    return catalog_entry(name)


def per_curve_fd_basis(spec, ext, step=1e-4):
    """One central_derivative call per curve: exp(t X_sigma), e^{it} N and
    exp(t X_sigma) N, each differentiated on its own, then doubled for type b."""
    sub = [central_derivative(lambda t, x=x: expm(t * x), step) for x in spec.generators]
    cos = [central_derivative(lambda t: cmath.exp(1j * t) * ext.N, step)]
    cos += [central_derivative(lambda t, x=x: expm(t * x) @ ext.N, step) for x in spec.generators]
    if classify_coirrep(spec, ext) is CoirrepType.B:
        sub = [np.block([[x, 0 * x], [0 * x, x]]) for x in sub]
        cos = [np.block([[b, 0 * b], [0 * b, -b]]) for b in cos]
    return sub, cos


class TestStackedExtraction:
    def test_spin_three_halves_is_type_b(self):
        spec, ext = spin_three_halves()
        assert classify_coirrep(spec, ext) is CoirrepType.B

    @pytest.mark.parametrize("name", STENCIL_CASES)
    def test_fd_basis_equals_per_curve_oracle(self, name):
        spec, ext = stencil_case(name)
        basis = generator_basis(spec, ext, mode="fd")
        sub, cos = per_curve_fd_basis(spec, ext)
        assert len(basis.subgroup) == len(sub) and len(basis.coset) == len(cos)
        for got, ref in zip(basis.subgroup + basis.coset, sub + cos):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("name", STENCIL_CASES)
    def test_fd_basis_makes_six_expm_calls(self, name, monkeypatch):
        spec, ext = stencil_case(name)
        calls = []
        real = infinitesimal.expm
        monkeypatch.setattr(infinitesimal, "expm", lambda a: calls.append(a.shape) or real(a))
        generator_basis(spec, ext, mode="fd")
        assert calls == [(spec.n, spec.d, spec.d)] * 6

    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_run_verification_classifies_at_most_twice(self, name, monkeypatch):
        original = group_core.classify_coirrep
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("coreplie") and getattr(mod, "classify_coirrep", None) is original:
                monkeypatch.setattr(mod, "classify_coirrep", counting)
        run_verification(config_for_catalog(name))
        assert 1 <= len(calls) <= 2
