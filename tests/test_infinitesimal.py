import cmath
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from coreplie import (
    AntilinearExtension,
    CoirrepType,
    DifferentiationError,
    GeneratorBasis,
    LieGroupSpec,
    catalog_entry,
    central_derivative,
    classify_coirrep,
    closure_reports,
    coirrep_matrix,
    exp_curve,
    field_bracket,
    generator_basis,
    parse_config,
    sub_sub_closure_report,
    verify_coset_coset_closure,
    verify_mixed_closure,
)
from coreplie import algebra, group_core, infinitesimal, matrices
from coreplie.coirrep import Side
from coreplie.config import config_for_catalog, with_overrides
from coreplie.matrices import RealSpan, block_diag2
from coreplie.matrices import expm as pade_expm
from coreplie.report import run_verification

from oracle import commutator_on_coordinates, operator_apply
from oracle import conjugate as _conjugate
from test_algebra import spin_document, su3_gell_mann


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

    def test_stencil_error_names_the_worst_generator(self):
        # so3 scaled by (1e4, 1, 3e4): X_1's gap (2.757e+02) is the first to
        # exceed the gate, but X_3's (2.378e+04, 0.86 of its scale against
        # 0.028) is the largest relative to scale, the quantity the gate tests
        spec, ext = catalog_entry("so3")
        scaled = replace(spec, generators=spec.generators * np.array([1e4, 1, 3e4])[:, None, None])
        with pytest.raises(DifferentiationError, match=r"did not converge: "
                           r"stencil disagreement 2\.378e\+04 at X_3 \(step 0\.0001\)$"):
            generator_basis(scaled, ext, mode="fd")

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
        spec, ext = catalog_entry("so2-conj")
        fd = generator_basis(spec, ext, mode="fd").subgroup
        assert np.abs(fd[0] - spec.generators[0]).max() < 1e-8

    def test_b_type_blocks_identical(self):
        spec, ext = catalog_entry("su2-tr")
        for mode in ("exact", "fd"):
            for x in generator_basis(spec, ext, mode=mode).subgroup:
                assert x.shape == (4, 4)
                assert np.allclose(x[:2, 2:], 0)
                assert np.allclose(x[2:, :2], 0)
                assert np.abs(x[:2, :2] - x[2:, 2:]).max() < 1e-8

    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_fd_agrees_with_exact(self, name):
        spec, ext = catalog_entry(name)
        exact = generator_basis(spec, ext, mode="exact").subgroup
        fd = generator_basis(spec, ext, mode="fd").subgroup
        for a, b in zip(exact, fd):
            assert np.abs(a - b).max() < 1e-6


class TestCosetExtraction:
    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_alpha0_direction_is_i_times_n(self, name):
        spec, ext = catalog_entry(name)
        ctype = classify_coirrep(spec, ext)
        gens = generator_basis(spec, ext, mode="exact").coset
        d = spec.d
        upper = gens[0][:d, :d] if ctype is CoirrepType.B else gens[0]
        assert np.abs(upper - 1j * ext.N).max() < 1e-14

    def test_so2_coset_generator_equals_subgroup_generator(self):
        spec, ext = catalog_entry("so2-conj")
        gens = generator_basis(spec, ext, mode="exact").coset
        assert np.abs(gens[1] - spec.generators[0]).max() < 1e-14

    def test_b_type_lower_blocks_are_negated(self):
        spec, ext = catalog_entry("su2-tr")
        for mode in ("exact", "fd"):
            gens = generator_basis(spec, ext, mode=mode).coset
            for x in gens:
                assert np.allclose(x[:2, 2:], 0)
                assert np.allclose(x[2:, :2], 0)
                assert np.abs(x[:2, :2] + x[2:, 2:]).max() < 1e-8

    def test_upper_block_identities(self):
        spec, ext = catalog_entry("su2-tr")
        gens = generator_basis(spec, ext, mode="exact").coset
        assert np.abs(gens[0][:2, :2] - 1j * ext.N).max() < 1e-10
        for sigma in range(3):
            assert np.abs(gens[sigma + 1][:2, :2] - spec.generators[sigma] @ ext.N).max() < 1e-10

    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_full_matrix_differentiation_cross_check(self, name):
        # independent route: differentiate the coset matrix of g(da) a0 with
        # its phase exp(i da0). Type a takes the d x d coirrep_matrix as it
        # is. Type b composes the 2d one with the block swap that the coset
        # action applies to the stacked point. The coset-a0g side is left
        # out: its derivative is theta(X_sigma) N with
        # theta(X) = N conj(X) N^-1, which differs from X_sigma N where theta
        # is not the identity (by 2.0 on u1).
        spec, ext = catalog_entry(name)
        n, d = spec.n, spec.d
        swap = np.eye(d)
        if classify_coirrep(spec, ext) is CoirrepType.B:
            swap = np.block([[np.zeros((d, d)), np.eye(d)], [np.eye(d), np.zeros((d, d))]])

        def coset_matrix(g):
            return coirrep_matrix(g, ext, Side.COSET_GA0).matrix @ swap

        def coset_action(alpha0, alpha):
            return cmath.exp(1j * alpha0) * coset_matrix(exp_curve(spec, alpha))

        gens = generator_basis(spec, ext, mode="exact").coset
        fd0 = central_derivative(lambda t: coset_action(t, np.zeros(n)), step=1e-4)
        assert np.abs(fd0 - gens[0]).max() < 1e-8
        for sigma in range(n):
            def curve(t, sigma=sigma):
                alpha = np.zeros(n)
                alpha[sigma] = t
                return coset_action(0.0, alpha)

            assert np.abs(central_derivative(curve, step=1e-4) - gens[sigma + 1]).max() < 1e-8


def coordinate_field(a, point):
    """The field J_A applied to each coordinate function x_k at a point, by
    the finite-difference operator oracle."""
    return np.array([operator_apply(a, lambda x, k=k: x[k])(point) for k in range(len(point))])


class TestVectorFields:
    """J_A = A_ij x_j d/dx_i takes the coordinate functions to A x."""

    def test_zero_matrix_annihilates(self):
        assert np.abs(coordinate_field(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))).max() == 0.0

    def test_euler_operator(self):
        x = np.array([1.0 + 2j, -0.5])
        assert np.allclose(coordinate_field(np.eye(2), x), x)

    def test_nilpotent_example(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(coordinate_field(a, np.array([0.0, 1.0])), np.array([1.0, 0.0]))

    def test_linearity(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam, mu = 1.3 - 0.2j, -0.7 + 1j
        lhs = coordinate_field(a, lam * x + mu * y)
        rhs = lam * coordinate_field(a, x) + mu * coordinate_field(a, y)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_matvec_oracle(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(coordinate_field(a, x), a @ x)


class TestCommutator:
    def test_self_bracket_is_zero(self, rng):
        a = rng.standard_normal((3, 3))
        assert np.abs(field_bracket(a, a)).max() == 0.0

    def test_hand_computed_2x2(self):
        u = np.diag([1.0, 0.0])
        v = np.array([[0.0, 1.0], [0.0, 0.0]])
        expected = np.array([[0.0, -1.0], [0.0, 0.0]])
        assert np.allclose(field_bracket(u, v), expected)

    def test_stack_equals_per_matrix_brackets(self, rng):
        a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        b = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        stacked = field_bracket(a, b)
        assert stacked.shape == (5, 3, 3)
        for k in range(5):
            assert np.array_equal(stacked[k], field_bracket(a[k], b[k]))

    def test_operator_level_correspondence(self, rng):
        # apply [J_A, J_B] to every coordinate function at random points and
        # compare with the closed-form field J_{BA-AB}
        for d in (2, 3):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            points = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(20)]
            oracle = commutator_on_coordinates(a, b, points)
            coeff = field_bracket(a, b)
            direct = np.stack([coeff @ p for p in points])
            assert np.abs(oracle - direct).max() < 1e-10


class TestTransport:
    def test_identity_extension_is_noop(self, rng):
        basis = generator_basis(*catalog_entry("so2-conj"))
        assert np.allclose(basis.to_x, np.eye(2))
        a = rng.standard_normal((2, 2))
        assert np.allclose(_conjugate(basis.to_x, a), a)
        assert np.allclose(basis.coset_x, basis.coset_blocks)

    def test_to_x_is_the_block_of_the_map(self):
        # type b keeps the d x d block M = N of blockdiag(M, -M)
        spec, ext = catalog_entry("su2-tr")
        basis = generator_basis(spec, ext)
        assert basis.to_x.shape == (2, 2) and np.array_equal(basis.to_x, ext.N)
        coset_x = [_conjugate(ext.N, y) for y in basis.coset_blocks]
        assert np.abs(basis.coset_x - coset_x).max() < 1e-12
        for cached in (basis.to_x, basis.x_stack, basis.coset_x):
            assert not cached.flags.writeable
        assert basis.coset_x is basis.coset_x and basis.x_stack is basis.x_stack
        # one stack of the 2n+1 x-frame generators, coset_x its tail
        assert np.array_equal(basis.x_stack[:basis.n], basis.subgroup_blocks)
        assert basis.coset_x.base is basis.x_stack and basis.x_stack.flags.c_contiguous

    def test_bracket_morphism(self, rng):
        spec, ext = catalog_entry("su2-tr")
        m = generator_basis(spec, ext).to_x
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = _conjugate(m, field_bracket(a, b))
            rhs = field_bracket(_conjugate(m, a), _conjugate(m, b))
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_delta_alpha0_is_pure_phase(self):
        # the coset phase is echoed, never applied: the map is N, bit for bit
        spec, ext = catalog_entry("su2-tr")
        plain = generator_basis(spec, ext)
        phased = generator_basis(spec, replace(ext, xi=-0.3, delta_alpha0=1.234))
        assert np.array_equal(phased.to_x, ext.N)
        assert np.array_equal(phased.coset_x, plain.coset_x)


class TestGeneratorBasis:
    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_counts(self, name):
        spec, ext = catalog_entry(name)
        basis = generator_basis(spec, ext)
        assert len(basis.subgroup) == spec.n
        assert len(basis.coset) == spec.n + 1

    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr"])
    def test_read_only_stacks(self, name):
        spec, ext = catalog_entry(name)
        basis = generator_basis(spec, ext)
        dim = basis.subgroup.shape[-1]
        assert basis.subgroup.shape == (spec.n, dim, dim)
        assert basis.coset.shape == (spec.n + 1, dim, dim)
        for stack in (basis.subgroup, basis.coset):
            assert stack.dtype == complex and not stack.flags.writeable

    def test_stacks_are_copies(self):
        gens = np.zeros((2, 2, 2), dtype=complex)
        basis = GeneratorBasis(gens, gens, CoirrepType.A, np.eye(2))
        gens[0, 0, 0] = 1.0
        assert basis.subgroup[0, 0, 0] == 0 and basis.coset[0, 0, 0] == 0

    def test_without_extension_is_type_a_with_empty_coset(self):
        spec, _ = catalog_entry("so3")
        basis = generator_basis(spec, None)
        assert basis.ctype is CoirrepType.A
        assert basis.coset.shape == (0, spec.d, spec.d)
        assert np.array_equal(basis.subgroup, np.array(spec.generators))
        assert np.array_equal(basis.to_x, np.eye(spec.d))  # x' = x

    @pytest.mark.parametrize("bad", [np.zeros((2, 2)), np.zeros((1, 2, 3))])
    def test_non_stack_rejected(self, bad):
        with pytest.raises(ValueError, match="square"):
            GeneratorBasis(bad, np.zeros((0, 2, 2)), CoirrepType.A, np.eye(2))

    def test_non_finite_rejected(self):
        gens = np.zeros((1, 2, 2), dtype=complex)
        bad = gens.copy()
        bad[0, 1, 0] = np.nan
        with pytest.raises(ValueError, match="coset generators has non-finite"):
            GeneratorBasis(gens, bad, CoirrepType.A, np.eye(2))

    def test_mismatched_matrix_sizes_rejected(self):
        # used to construct, and algebra_dimension then failed inside numpy
        with pytest.raises(
            ValueError,
            match=r"subgroup generators \(1, 2, 2\) and coset generators \(2, 3, 3\) differ",
        ):
            GeneratorBasis(np.zeros((1, 2, 2)), np.zeros((2, 3, 3)), CoirrepType.A, np.eye(2))
        with pytest.raises(ValueError, match="differ in matrix size"):
            GeneratorBasis(np.zeros((1, 2, 2)), np.zeros((0, 3, 3)), CoirrepType.A, np.eye(2))
        empty = GeneratorBasis(np.zeros((1, 2, 2)), np.zeros((0, 2, 2)), CoirrepType.A, np.eye(2))
        assert empty.coset.shape == (0, 2, 2)

    @pytest.mark.parametrize(
        "to_x, message",
        [
            (np.eye(3), r"x' -> x map \(3, 3\) and generator blocks \(2, 2\) differ in size"),
            (np.ones((2, 3)), r"x' -> x map must be square, got shape \(2, 3\)"),
            (np.eye(2)[None], r"x' -> x map must be square, got shape \(1, 2, 2\)"),
            (np.diag([1.0, np.nan]), "x' -> x map has non-finite entries"),
        ],
        ids=["wrong size", "not square", "a stack", "NaN"],
    )
    def test_bad_to_x_rejected(self, to_x, message):
        gens = np.zeros((1, 2, 2))
        with pytest.raises(ValueError, match=message):
            GeneratorBasis(gens, gens, CoirrepType.A, to_x)

    def test_b_type_doubling_keeps_signed_zeros(self):
        # one slice assignment per block builds what block_diag2 built per
        # matrix, down to the sign bit of every zero
        spec, ext = catalog_entry("su2-tr")
        basis = generator_basis(spec, ext)
        d = spec.d
        expected = [block_diag2(x[:d, :d], x[:d, :d]) for x in basis.subgroup]
        expected += [block_diag2(b[:d, :d], -b[:d, :d]) for b in basis.coset]
        got = np.concatenate([basis.subgroup, basis.coset])
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(np.array(expected).view(float)))


def spin_three_halves():
    """Spin-3/2 rotations X_k = -i J_k with time reversal N = exp(-i pi J_y):
    N conj(N) = -E against s = +1, so the coirrep is type b."""
    m = np.array([1.5, 0.5, -0.5, -1.5])
    jp = np.diag(np.sqrt(15 / 4 - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    jx, jy, jz = (jp + jp.T) / 2, (jp - jp.T) / 2j, np.diag(m).astype(complex)
    spec = LieGroupSpec((-1j * jx, -1j * jy, -1j * jz), name="spin-3/2")
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
    exp(t X_sigma) N, each differentiated on its own, then doubled for type b.
    It exponentiates with the package's expm, so equality pins the stacking;
    expm itself is checked against scipy in test_matrices.py."""
    sub = [central_derivative(lambda t, x=x: pade_expm(t * x), step) for x in spec.generators]
    cos = [central_derivative(lambda t: cmath.exp(1j * t) * ext.N, step)]
    cos += [central_derivative(lambda t, x=x: pade_expm(t * x) @ ext.N, step) for x in spec.generators]
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
        for got, ref in zip([*basis.subgroup, *basis.coset], sub + cos):
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
    @pytest.mark.parametrize("mode", ["exact", "fd"])
    def test_run_verification_classifies_once_per_basis(self, name, mode, monkeypatch):
        # fd mode compares with the exact blocks inside generator_basis, so
        # either mode builds one basis and classifies once
        bases = count_calls(monkeypatch, infinitesimal.generator_basis)
        calls = count_calls(monkeypatch, group_core.classify_coirrep)
        run_verification(config_for_catalog(name), mode=mode)
        assert (len(bases), len(calls)) == (1, 1)

    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_report_echoes_the_basis_fd_diff(self, name):
        spec, ext = catalog_entry(name)
        diff = generator_basis(spec, ext, mode="fd").fd_max_abs_diff
        report = run_verification(config_for_catalog(name), mode="fd")
        assert 0 < diff < 1e-6
        assert report.generators["fd_max_abs_diff"] == diff

    @pytest.mark.parametrize("agree", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_fd_agree_rejected(self, agree):
        # 0 would divide every gap by zero, and nan or a negative bound would never gate
        spec, ext = catalog_entry("so3")
        with pytest.raises(ValueError, match="fd-agree"):
            generator_basis(spec, ext, mode="fd", agree=agree)

    def test_fd_diff_is_none_without_differentiation(self):
        spec, ext = catalog_entry("so3")
        basis = generator_basis(spec, ext)
        assert basis.fd_max_abs_diff is None
        direct = GeneratorBasis(basis.subgroup_blocks, basis.coset_blocks, basis.ctype, basis.to_x)
        assert direct.fd_max_abs_diff is None

    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    @pytest.mark.parametrize("mode, expms, stencils", [("exact", 0, 0), ("fd", 6, 1)])
    def test_only_fd_mode_differentiates(self, name, mode, expms, stencils, monkeypatch):
        expm_calls = count_calls(monkeypatch, matrices.expm)
        stencil_calls = count_calls(monkeypatch, infinitesimal.central_derivative)
        run_verification(config_for_catalog(name), mode=mode)
        assert (len(expm_calls), len(stencil_calls)) == (expms, stencils)

    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_run_verification_builds_no_group_elements(self, name, monkeypatch):
        # N is checked once, where the catalog entry enters: the phase
        # overrides check only the phases, and the verify path checks nothing
        composed = count_calls(monkeypatch, group_core.compose)
        svd_checks = count_calls(monkeypatch, matrices.is_invertible)
        run_verification(with_overrides(config_for_catalog(name), xi=0.1, delta_alpha0=0.2))
        assert len(composed) == 0
        assert len(svd_checks) == 1

    # the SVDs of one run by dtype: one real SVD per span, taken on its first
    # expand, sub-sub and coset-coset sharing the subgroup span; a complex one
    # per span only where some family over it has a failing pair (su2-tr and
    # spin 2j = 15 fail over both), and for type a the dimension's; type b
    # (su2-tr, spin 2j = 15) reads its dimension from the two spans' real SVDs.
    # The spec's independence test took only singular values, when the config
    # was parsed. N was checked where it entered, so the x' -> x map is
    # inverted without an invertibility SVD
    SVDS = {
        "so2-conj": ["f", "f", "f"],
        "so3": ["f", "f", "f"],
        "su2-tr": ["c", "c", "f", "f"],
        "u1": ["f", "f", "f"],
        "spin15-2": ["c", "c", "f", "f"],
    }

    @pytest.mark.parametrize("name", sorted(SVDS))
    def test_run_verification_factors_each_span_once(self, name, monkeypatch):
        cfg = parse_config(spin_document(15)) if name == "spin15-2" else config_for_catalog(name)
        svds, spans = [], {}
        real_svd, closure_report = np.linalg.svd, algebra._closure_report
        monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k: svds.append(a.dtype.kind) or real_svd(a, *r, **k))

        def recording(family, left, right, rows, span, *rest):
            spans[family] = span
            return closure_report(family, left, right, rows, span, *rest)

        monkeypatch.setattr(algebra, "_closure_report", recording)
        run_verification(cfg)
        assert all(isinstance(span, RealSpan) for span in spans.values())
        assert spans["sub-sub"] is spans["coset-coset"] is not spans["sub-coset"]
        assert np.array_equal(spans["sub-sub"].stack, cfg.spec.generators)
        assert sorted(svds) == self.SVDS[name]

    def test_basis_spans_are_cached_and_factored_lazily(self, monkeypatch):
        spec, ext = catalog_entry("so3")
        basis = generator_basis(spec, ext)
        svds, expands = [], []
        real_svd, real_expand = np.linalg.svd, RealSpan.expand
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or real_svd(*a, **k))
        monkeypatch.setattr(RealSpan, "expand", lambda span, *a, **k: expands.append((span, len(svds)))
                            or real_expand(span, *a, **k))
        span = basis.subgroup_span
        assert span is basis.subgroup_span and basis.coset_span is basis.coset_span
        assert np.array_equal(span.stack, basis.subgroup_blocks) and not svds
        # the sub-sub family forms no coset bracket: it expands over a copy of the
        # basis, whose own subgroup span it factors, and this basis's span stays unfactored
        sub_sub_closure_report(basis)
        assert len(svds) == 1 and expands[0][0] is not span and "svd" not in vars(span)
        # each span's real SVD, taken on its first expand: the subgroup span's on
        # sub-sub, none on coset-coset, the coset span's on sub-coset; no pair
        # fails, so neither span needs a complex SVD
        closure_reports(basis)
        assert expands[1:] == [(span, 1), (span, 2), (basis.coset_span, 2)] and len(svds) == 3
        verify_coset_coset_closure(basis)
        verify_mixed_closure(basis)
        assert len(svds) == 3

    @pytest.mark.parametrize("name", ["so2-conj", "su2-tr", "u1", "so3"])
    def test_each_basis_expands_over_its_own_subgroup_blocks(self, name):
        # exact, no-extension and fd bases each build their own span, over their
        # own blocks: the exact ones are the spec's generators, the fd ones lie
        # within fd_max_abs_diff of them and expand over the exact span
        spec, ext = catalog_entry(name)
        bases = [generator_basis(spec, ext), generator_basis(spec, None), generator_basis(spec, ext, mode="fd")]
        spans = [basis.subgroup_span for basis in bases]
        assert len({id(span) for span in spans}) == 3
        for basis, span in zip(bases, spans):
            assert basis.subgroup_span is span
            assert np.array_equal(span.stack, basis.subgroup_blocks)
        assert all(np.array_equal(basis.subgroup_blocks, spec.generators) for basis in bases[:2])
        fd = bases[2]
        assert 0 < np.abs(fd.subgroup_blocks - spec.generators).max() <= fd.fd_max_abs_diff
        _, residual, *_ = spans[0].expand(fd.subgroup_blocks)
        assert residual.max() <= 10 * fd.fd_max_abs_diff


def count_calls(monkeypatch, original) -> list:
    """Rebind original in every coreplie module that holds it to a wrapper
    recording each call; returns the list of recorded argument tuples."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("coreplie") and getattr(mod, original.__name__, None) is original:
            monkeypatch.setattr(mod, original.__name__, counting)
    return calls
