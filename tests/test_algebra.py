import json
import sys
from pathlib import Path

import numpy as np
import pytest

from coreplie import (
    CATALOG_NAMES,
    AntilinearExtension,
    CoirrepType,
    GeneratorBasis,
    LieGroupSpec,
    algebra_dimension,
    catalog_entry,
    closure_reports,
    emit_machine,
    field_bracket,
    generator_basis,
    parse_config,
    run_verification,
    sub_sub_closure_report,
    verify_coset_coset_closure,
    verify_mixed_closure,
)
from coreplie import algebra, matrices
from coreplie.algebra import RANK_REL_TOL
from coreplie.config import with_overrides
from coreplie.matrices import RealSpan, block_diag2
from coreplie.report import dense

from oracle import closure_families, conjugate, structure_tensor

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import spin_document, su_document  # noqa: E402

EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[_i, _j, _k] = 1.0
    EPSILON[_i, _k, _j] = -1.0


def su2_setup():
    spec, ext = catalog_entry("su2-tr")
    return spec, ext, generator_basis(spec, ext)


def so2_setup():
    spec, ext = catalog_entry("so2-conj")
    return spec, ext, generator_basis(spec, ext)


class TestProjectOntoSpan:
    def test_basis_element_recovered(self, rng):
        basis = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
        (coeffs,), (residual,), *_ = RealSpan(np.array(basis)).expand(np.array([basis[0]]))
        assert np.abs(coeffs - np.array([1.0, 0.0, 0.0])).max() < 1e-10
        assert residual < 1e-10

    def test_real_orthogonality_of_imaginary_unit(self):
        # iE is orthogonal to the real span of {E}: coefficients vanish and
        # the residual is the full Frobenius norm sqrt(d)
        d = 3
        (coeffs,), (residual,), *_ = RealSpan(np.array([np.eye(d)])).expand(np.array([1j * np.eye(d)]))
        assert np.abs(coeffs).max() < 1e-12
        assert abs(residual - np.sqrt(d)) < 1e-12

    def test_random_real_combination_recovered(self, rng):
        # generate-and-solve: forward combination first, solver second
        basis = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(5)]
        weights = rng.standard_normal(5)
        target = sum(w * b for w, b in zip(weights, basis))
        (coeffs,), (residual,), *_ = RealSpan(np.array(basis)).expand(np.array([target]))
        assert np.abs(coeffs - weights).max() < 1e-10
        assert residual < 1e-10

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            RealSpan(np.zeros((0, 2, 2))).expand(np.array([np.eye(2)]))

    def test_complex_fallback_absorbs_phase(self):
        span = RealSpan(np.array([np.eye(2)]))
        _, _, rows, (coeffs,), (residual,) = span.expand(np.array([1j * np.eye(2)]), tol=1e-9)
        assert rows.tolist() == [0]
        assert abs(coeffs[0] - 1j) < 1e-12
        assert residual < 1e-12

    def test_only_rows_not_below_tol_fall_back(self):
        # E and 2E lie in the real span of {E}, iE and E + iE do not
        span = RealSpan(np.array([np.eye(2)]))
        targets = np.array([np.eye(2), 1j * np.eye(2), 2 * np.eye(2), (1 + 1j) * np.eye(2)])
        coeffs, residual, rows, ccoeffs, cresidual = span.expand(targets, scale=3.0, tol=1e-9)
        assert np.allclose(coeffs[:, 0], [1, 0, 2, 1])
        assert np.allclose(residual, 3 * np.sqrt(2) * np.array([0, 1, 0, 1]))
        assert rows.tolist() == [1, 3]
        assert np.allclose(ccoeffs[:, 0], [1j, 1 + 1j]) and np.abs(cresidual).max() < 1e-12
        # the real results do not depend on tol, and tol = 0 solves every row
        every = span.expand(targets, scale=3.0)
        assert np.array_equal(every[0], coeffs) and np.array_equal(every[1], residual)
        assert every[2].tolist() == [0, 1, 2, 3] and np.allclose(every[3][rows], ccoeffs)

    def test_complex_span_factored_only_when_a_row_falls_back(self, monkeypatch):
        svds = []
        real_svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k: svds.append(a.dtype.kind) or real_svd(a, *r, **k))
        span = RealSpan(np.array([np.eye(2)], dtype=complex))
        _, _, rows, ccoeffs, cresidual = span.expand(np.array([np.eye(2)]), tol=1e-9)
        assert (rows.shape, ccoeffs.shape, cresidual.shape, svds) == ((0,), (0, 1), (0,), ["f"])
        span.expand(np.array([1j * np.eye(2)]), tol=1e-9)
        span.expand(np.array([1j * np.eye(2)]), tol=1e-9)
        assert svds == ["f", "c"]


def structure_constants(generators):
    """c and its residual matrix for generators as supplied, the route of
    `commutators`: the sub-sub report of their basis without an extension."""
    gens = np.asarray(generators, dtype=complex)
    return structure_tensor(sub_sub_closure_report(generator_basis(LieGroupSpec(gens), None)))


class TestStructureConstants:
    def test_abelian_so2(self):
        spec, _ = catalog_entry("so2-conj")
        c, _ = structure_constants(spec.generators)
        assert c.shape == (1, 1, 1)
        assert np.abs(c).max() == 0.0

    def test_su2_epsilon_pattern(self):
        spec, _ = catalog_entry("su2-tr")
        c, residuals = structure_constants(spec.generators)
        # documented convention: field bracket is the negative matrix
        # commutator, so c[sigma, rho, tau] = -epsilon_{sigma rho tau}
        assert np.abs(c - (-EPSILON)).max() < 1e-9
        assert np.abs(np.abs(c) - np.abs(EPSILON)).max() < 1e-9
        assert residuals.max() < 1e-9

    def test_antisymmetry_exact(self):
        spec, _ = catalog_entry("so3")
        c, _ = structure_constants(spec.generators)
        assert np.abs(c + np.transpose(c, (1, 0, 2))).max() == 0.0

    def test_rescaled_basis_doubles_constants(self):
        spec, _ = catalog_entry("su2-tr")
        c1, _ = structure_constants(spec.generators)
        c2, _ = structure_constants(2 * spec.generators)
        assert np.abs(c2 - 2 * c1).max() < 1e-9

    def test_not_closed_reported(self):
        gens = (
            np.array([[0, 1], [0, 0]], dtype=complex),
            np.array([[0, 0], [1, 0]], dtype=complex),
        )
        spec = LieGroupSpec(gens)
        rep = sub_sub_closure_report(generator_basis(spec, None))
        assert rep.max_residual() > 1e-4
        assert not rep.passed


class TestClosureFamilies:
    def test_so2_conj_all_families_pass(self):
        _, _, basis = so2_setup()
        sub = sub_sub_closure_report(basis)
        cc = verify_coset_coset_closure(basis)
        mixed = verify_mixed_closure(basis)
        assert sub.passed and cc.passed and mixed.passed
        assert cc.max_residual() < 1e-9
        assert mixed.max_residual() < 1e-9

    def test_su2_tr_sub_sub_passes(self):
        _, _, basis = su2_setup()
        assert sub_sub_closure_report(basis).passed

    def test_su2_tr_coset_coset_real_span_obstruction(self):
        # the alpha0-direction generator is i*N, so the brackets against the
        # V_-minus subgroup directions land in i times the subgroup span:
        # pairs (0,1) and (0,3) have residual ||2i X (doubled)||_F = 2
        _, _, basis = su2_setup()
        rep = verify_coset_coset_closure(basis)
        assert not rep.passed
        residuals = {(p.left, p.right): p.residual for p in rep.pairs}
        assert abs(residuals[(0, 1)] - 2.0) < 1e-10
        assert abs(residuals[(0, 3)] - 2.0) < 1e-10
        for pair in ((0, 2), (1, 2), (1, 3), (2, 3)):
            assert residuals[pair] < 1e-10

    def test_su2_tr_coset_coset_complex_fallback_closes(self):
        _, _, basis = su2_setup()
        rep = verify_coset_coset_closure(basis)
        assert rep.max_complex_residual() < 1e-12

    def test_su2_tr_mixed_real_span_obstruction(self):
        # failures sit at (sigma in V_minus, mu = 0) with residual 2 and at
        # (sigma in V_minus, mu = sigma) with residual ||N/2 (doubled)||_F = 1
        _, _, basis = su2_setup()
        rep = verify_mixed_closure(basis)
        assert not rep.passed
        residuals = {(p.left, p.right): p.residual for p in rep.pairs}
        assert abs(residuals[(0, 0)] - 2.0) < 1e-10
        assert abs(residuals[(2, 0)] - 2.0) < 1e-10
        assert abs(residuals[(0, 1)] - 1.0) < 1e-10
        assert abs(residuals[(2, 3)] - 1.0) < 1e-10
        clean = set(residuals) - {(0, 0), (2, 0), (0, 1), (2, 3)}
        for pair in clean:
            assert residuals[pair] < 1e-10
        assert rep.max_complex_residual() < 1e-12

    def test_real_coefficients_and_complex_fallback_kept_apart(self):
        _, _, basis = su2_setup()
        rep = verify_coset_coset_closure(basis)
        assert rep.pairs["coeffs"].dtype.kind == "f" and rep.fallback["complex_coeffs"].dtype.kind == "c"
        assert rep.pairs.dtype.names == ("left", "right", "coeffs", "residual")
        # the failing pairs (0,1) and (0,3) alone, in pair order
        assert [tuple(rep.pairs[k])[:2] for k in rep.fallback["pair"]] == [(0, 1), (0, 3)]
        with pytest.raises(ValueError, match="read-only"):
            rep.fallback["complex_residual"][...] = 0.0

    def test_so3_families_pass(self):
        spec, ext = catalog_entry("so3")
        basis = generator_basis(spec, ext)
        assert verify_coset_coset_closure(basis).passed
        assert verify_mixed_closure(basis).passed


def su3_gell_mann():
    """su(3) with X = -i lambda / 2 over the eight Gell-Mann matrices."""
    lam = np.zeros((8, 3, 3), dtype=complex)
    for k, (j, l) in enumerate(((0, 1), (0, 2), (1, 2))):
        lam[2 * k][j, l] = lam[2 * k][l, j] = 1.0
        lam[2 * k + 1][j, l], lam[2 * k + 1][l, j] = -1j, 1j
    lam[6] = np.diag([1.0, -1.0, 0.0])
    lam[7] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    spec = LieGroupSpec(tuple(-0.5j * lam), name="su3")
    return spec, AntilinearExtension(np.eye(3), s=+1)


def close(got, ref):
    return np.all(np.abs(np.asarray(got) - ref) <= 1e-12 * (1 + np.abs(ref)))


def assert_fallback_matches(rep, expected):
    """The fallback rows are the pairs whose real residual is not below the
    tolerance, in pair order, and each holds its pair's complex expansion in
    expected ((i, j) -> the oracle's (coeffs, residual, complex coeffs,
    complex residual)); max_complex_residual is the worst of them."""
    failing = [k for k, p in enumerate(rep.pairs) if not p.residual < rep.tolerance]
    assert rep.fallback["pair"].tolist() == failing
    assert rep.passed == (not failing)
    for row in rep.fallback:
        p = rep.pairs[row.pair]
        _, _, ccoeffs, cres = expected[(p.left, p.right)]
        assert np.abs(row.complex_coeffs - ccoeffs).max() <= 1e-12
        assert abs(row.complex_residual - cres) <= 1e-12 * (1 + cres)
    assert rep.max_complex_residual() == max(rep.fallback["complex_residual"], default=0.0)


# su2-twisted takes N = diag(exp(0.7i), 1): N conj(N) = E, but unlike the
# catalog N it is not real up to a phase, so conjugating by N and by N^-1
# differ and the direction of transport shows in the coefficients.
# so3-frame-u is so3 after the non-unitary change of basis x = U w
# (X -> U^-1 X U, N -> U^-1 N conj(U)): there the Frobenius norm is not
# conjugation-invariant, so the frame each family is formed in shows in its
# residuals (sub-coset at most 36.13 in the x frame, 27.44 in the x' frame).
# spin-15 (type b) and spin-48 (type a) are the ladder's d = 16 and 49.
KERNEL_CASES = ("so2-conj", "su2-tr", "u1", "so3", "su3", "su2-twisted", "so3-frame-u", "spin-15", "spin-48",
                "so3-no-coset")
FRAME_U = np.array([[2, 1j, 0], [0, 1, 1], [1j, 0, 1]])


def kernel_case(name):
    if name == "su3":
        spec, ext = su3_gell_mann()
    elif name == "su2-twisted":
        spec, _ = catalog_entry("su2-tr")
        ext = AntilinearExtension(np.diag([np.exp(0.7j), 1.0]), s=+1)
    elif name == "so3-frame-u":
        spec, ext = catalog_entry("so3")
        u_inv = np.linalg.inv(FRAME_U)
        spec = LieGroupSpec(tuple(u_inv @ spec.generators @ FRAME_U), name=name)
        ext = AntilinearExtension(u_inv @ ext.N @ FRAME_U.conj(), s=ext.s)
    elif name.startswith("spin-"):
        cfg = parse_config(spin_document(int(name.removeprefix("spin-"))))
        spec, ext = cfg.spec, cfg.extension
    else:
        spec, ext = catalog_entry(name.removesuffix("-no-coset"))
    basis = generator_basis(spec, ext)
    if name.endswith("-no-coset"):
        basis = GeneratorBasis(basis.subgroup_blocks, basis.coset_blocks[:0], basis.ctype, basis.to_x)
    return basis


def full_to_x(basis):
    """The x' -> x map on the full generators: to_x, or blockdiag(M, -M) for
    type b, assembled from the block."""
    m = basis.to_x
    return m if basis.ctype is CoirrepType.A else block_diag2(m, -m)


class TestKernelAgainstPerPairOracle:
    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_families_match_oracle(self, name):
        basis = kernel_case(name)
        oracle = closure_families(basis.subgroup, basis.coset, full_to_x(basis))
        span_sizes = {"sub-sub": basis.n, "coset-coset": basis.n, "sub-coset": len(basis.coset)}
        for rep in (
            sub_sub_closure_report(basis),
            verify_coset_coset_closure(basis),
            verify_mixed_closure(basis),
        ):
            expected = oracle[rep.family]
            assert rep.pairs["coeffs"].shape == (len(expected), span_sizes[rep.family])
            with pytest.raises(ValueError, match="read-only"):
                rep.pairs["residual"][...] = 0.0
            assert [(p.left, p.right) for p in rep.pairs] == list(expected)
            for p in rep.pairs:
                coeffs, res, _, _ = expected[(p.left, p.right)]
                assert close(p.coeffs, coeffs) and close(p.residual, res)
            assert_fallback_matches(rep, expected)
            assert rep.passed == all(r[1] < rep.tolerance for r in expected.values())

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_structure_constants_match_oracle(self, name):
        basis = kernel_case(name)
        n = basis.n
        c, residuals = np.zeros((n, n, n)), np.zeros((n, n))
        sub_sub = closure_families(basis.subgroup, basis.coset, full_to_x(basis))["sub-sub"]
        for (s, r), (coeffs, res, _, _) in sub_sub.items():
            c[s, r], c[r, s] = coeffs, -coeffs
            residuals[s, r] = residuals[r, s] = res
        got_c, got_residuals = structure_tensor(sub_sub_closure_report(basis))
        assert got_c.shape == (n, n, n)
        assert close(got_c, c) and close(got_residuals, residuals)

    def test_empty_families(self):
        basis = kernel_case("u1")
        assert len(sub_sub_closure_report(basis).pairs) == 0
        assert np.array_equal(structure_tensor(sub_sub_closure_report(basis))[0], np.zeros((1, 1, 1)))
        basis = kernel_case("so3-no-coset")
        for rep in (verify_coset_coset_closure(basis), verify_mixed_closure(basis)):
            assert len(rep.pairs) == 0 and rep.passed


class TestBracketLayout:
    """_bracket_table hands back the products of every ordered pair of its stack, at
    every d: below the workspace's size gate an array of its own, above it the
    workspace's C-contiguous table, which shares no memory with its operands. The
    bracket of pair (i, j) is table[i, j] - table[j, i]."""

    @staticmethod
    def stack(d, k):
        rng = np.random.default_rng(d)
        return rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))

    @staticmethod
    def assert_brackets(table, gens):
        want = np.array([[field_bracket(a, b) for b in gens] for a in gens])
        got = table - table.transpose(1, 0, 2, 3)
        assert got.shape == want.shape == (len(gens), len(gens), *gens.shape[1:])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("d", [5, 16, 17])
    def test_table_is_c_contiguous_and_owns_its_data(self, d):
        gens = self.stack(d, 3)
        assert 9 * gens[0].nbytes < matrices.WORKSPACE_MIN_BYTES
        got = algebra._bracket_table(gens)
        assert got.flags.c_contiguous and got.flags.owndata
        self.assert_brackets(got, gens)

    def test_table_above_the_gate_is_c_contiguous_and_apart_from_its_operands(self):
        gens = self.stack(24, 5)
        assert 25 * gens[0].nbytes >= matrices.WORKSPACE_MIN_BYTES
        got = algebra._bracket_table(gens)
        assert got.flags.c_contiguous
        assert any(np.shares_memory(got, held) for held in vars(matrices._workspace).values())
        assert not np.shares_memory(got, gens)
        self.assert_brackets(got, gens)


ENTRY_POINTS = {"sub-sub": sub_sub_closure_report, "coset-coset": verify_coset_coset_closure,
                "sub-coset": verify_mixed_closure}


class TestClosureReports:
    """The three families are masks of one bracket table; each named entry point
    selects its family from closure_reports."""

    @pytest.mark.parametrize("name", [*CATALOG_NAMES, "su3", "spin-3"])
    def test_entry_points_select_their_family(self, name):
        basis = kernel_case(name)
        reports = closure_reports(basis)
        assert list(reports) == list(ENTRY_POINTS)
        for family, entry_point in ENTRY_POINTS.items():
            rep, want = entry_point(basis), reports[family]
            assert rep.family == want.family == family and rep.passed == want.passed
            assert rep.pairs.tobytes() == want.pairs.tobytes() and rep.pairs.dtype == want.pairs.dtype
            assert rep.fallback.tobytes() == want.fallback.tobytes() and rep.fallback.dtype == want.fallback.dtype

    def test_run_verification_forms_one_bracket_table(self, monkeypatch):
        tables = []
        bracket_table = algebra._bracket_table
        monkeypatch.setattr(algebra, "_bracket_table", lambda gens: tables.append(len(gens)) or bracket_table(gens))
        run_verification(parse_config({"group": "so3"}))
        # the 2n+1 x-frame generators; the sub-sub family alone brackets no coset generator
        sub_sub_closure_report(kernel_case("so3"))
        assert tables == [7, 3]


ZERO_CASES = ("so3", "su2-tr", "su2", "su3", "su4")


def zero_case(name):
    cfg = parse_config({"group": name} if name in CATALOG_NAMES else su_document(int(name[2:])))
    return cfg, generator_basis(cfg.spec, cfg.extension)


def zero_parts(c):
    """Where the real parts, then the imaginary parts, of an array are exactly 0."""
    c = np.asarray(c)
    return np.stack([c.real == 0, c.imag == 0])


class TestExactZeros:
    """A coefficient is written at the resolution of the solve: a real or
    imaginary part whose per-pair lstsq value is below 1e-12 is exactly 0."""

    @pytest.mark.parametrize("name", ZERO_CASES)
    def test_coefficients_below_the_resolution_are_exact_zeros(self, name):
        cfg, basis = zero_case(name)
        oracle = closure_families(basis.subgroup, basis.coset, full_to_x(basis))
        closures = json.loads(emit_machine(run_verification(cfg)))["closures"]
        for rep in (sub_sub_closure_report(basis), verify_coset_coset_closure(basis), verify_mixed_closure(basis)):
            expected = [oracle[rep.family][(p.left, p.right)] for p in rep.pairs]
            written = closures[rep.family]
            complex_written = dense(written["complex_coeffs"]).reshape(-1, len(rep.pairs[0].coeffs), 2)
            assert np.array_equal(dense(written["coeffs"]), rep.pairs["coeffs"])
            assert np.array_equal(complex_written[..., 0] + 1j * complex_written[..., 1],
                                  rep.fallback["complex_coeffs"])
            # complex coefficients exist for the failing pairs only
            for got, want in ((rep.pairs["coeffs"], [e[0] for e in expected]),
                              (rep.fallback["complex_coeffs"], [expected[k][2] for k in rep.fallback["pair"]])):
                want = np.asarray(want).reshape(got.shape)
                small = np.stack([np.abs(want.real) < 1e-12, np.abs(want.imag) < 1e-12])
                assert zero_parts(got)[small].all(), rep.family
                assert np.abs(got - want).max(initial=0.0) < 1e-12, rep.family


class TestAlgebraDimension:
    def test_so2_conj_is_a_degenerate(self):
        _, _, basis = so2_setup()
        dim = algebra_dimension(basis)
        assert dim.computed == 2
        assert dim.expected == 2
        assert dim.classification == "a-degenerate"

    def test_su2_tr_is_b_full(self):
        _, _, basis = su2_setup()
        dim = algebra_dimension(basis)
        assert dim.computed == 7
        assert dim.expected == 7
        assert dim.classification == "b-full"

    def test_margins_are_wide(self):
        for setup in (so2_setup, su2_setup):
            _, _, basis = setup()
            dim = algebra_dimension(basis)
            assert dim.margin >= 1e6

    @pytest.mark.parametrize("ctype", [CoirrepType.A, CoirrepType.B])
    def test_empty_coset_reports_other(self, ctype):
        spec, ext = catalog_entry("so2-conj")
        basis = GeneratorBasis(spec.generators, np.zeros((0, 2, 2)), ctype, ext.N)
        dim = algebra_dimension(basis)
        assert dim.computed == spec.n
        assert dim.classification == "other"

    def test_u1_collapses_to_other_with_certificate(self):
        spec, ext = catalog_entry("u1")
        basis = generator_basis(spec, ext)
        dim = algebra_dimension(basis)
        assert dim.computed == 1
        assert dim.classification == "other"
        # X_0, X'_0 = iN = i and X'_1 = X_0 N: the null combination 2 X_0 - X'_0 - X'_1,
        # signed so that its largest entry is positive
        assert np.abs(dim.certificate - np.array([2.0, -1.0, -1.0]) / 6**0.5).max() < 1e-12

    def test_invariant_under_subgroup_basis_change(self, rng):
        spec, ext = catalog_entry("su2-tr")
        basis = generator_basis(spec, ext)
        ref = algebra_dimension(basis).computed
        for _ in range(5):
            w = rng.standard_normal((3, 3))
            if abs(np.linalg.det(w)) < 0.1:
                continue
            mixed_gens = tuple(
                sum(w[i, j] * basis.subgroup_blocks[j] for j in range(3)) for i in range(3)
            )
            changed = GeneratorBasis(mixed_gens, basis.coset_blocks, basis.ctype, basis.to_x)
            assert algebra_dimension(changed).computed == ref


def spin_entry(two_j):
    cfg = parse_config(spin_document(two_j))
    return cfg.spec, cfg.extension


# type-b inputs: (spec, ext)
BLOCK_CASES = {
    "su2-tr": lambda: catalog_entry("su2-tr"),
    "spin1-2": lambda: spin_entry(1),
    "spin3-2": lambda: spin_entry(3),
}


# both types: half-integer spin is b (doubled by the oracle), integer spin is a
SVD_CASES = BLOCK_CASES | {f"spin{two_j}-2": (lambda two_j=two_j: spin_entry(two_j)) for two_j in (2, 15, 16)}


def block_case(name):
    """A type-b basis with its x' -> x map N on the blocks, as run_verification
    builds it."""
    return generator_basis(*BLOCK_CASES[name]())


def doubled(basis):
    """The 2d x 2d subgroup and coset stacks and x' -> x map, assembled one
    matrix at a time from the blocks."""
    sub = np.array([block_diag2(x, x) for x in basis.subgroup_blocks])
    coset = np.array([block_diag2(y, -y) for y in basis.coset_blocks])
    return sub, coset, block_diag2(basis.to_x, -basis.to_x)


def realified(stack):
    return np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in stack])


class TestBlockKernelAgainstDoubled:
    """Type b is decided on the d x d blocks; the doubled stacks, expanded pair
    by pair and decomposed by one SVD, must give the same numbers."""

    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_families_match_doubled_oracle(self, name):
        basis = block_case(name)
        assert basis.ctype is CoirrepType.B
        oracle = closure_families(*doubled(basis))
        for rep in (
            sub_sub_closure_report(basis),
            verify_coset_coset_closure(basis),
            verify_mixed_closure(basis),
        ):
            expected = oracle[rep.family]
            assert [(p.left, p.right) for p in rep.pairs] == list(expected)
            for p in rep.pairs:
                coeffs, res, _, _ = expected[(p.left, p.right)]
                assert np.abs(p.coeffs - coeffs).max() <= 1e-12
                assert abs(p.residual - res) <= 1e-12 * (1 + res)
            assert_fallback_matches(rep, expected)
            assert rep.passed == all(r[1] < rep.tolerance for r in expected.values())

    @pytest.mark.parametrize("name", SVD_CASES)
    def test_singular_values_match_doubled_svd(self, name):
        basis = generator_basis(*SVD_CASES[name]())
        sub, coset, to_x = doubled(basis) if basis.ctype is CoirrepType.B else (
            basis.subgroup_blocks, basis.coset_blocks, basis.to_x)
        # the oracle factors the (2n+1, 2D^2) matrix on its wide side
        u, ref, _ = np.linalg.svd(realified(np.concatenate([sub, conjugate(to_x, coset)])), full_matrices=False)
        dim = algebra_dimension(basis)
        assert np.abs(dim.singular_values - ref).max() <= 1e-12 * ref[0]
        threshold = RANK_REL_TOL * ref[0]
        rank = int(np.sum(ref > threshold))
        assert dim.computed == rank and abs(dim.threshold - threshold) <= 1e-12 * threshold
        assert abs(dim.margin - ref[rank - 1] / threshold) <= 1e-12 * ref[0] / threshold
        if rank < len(ref):  # spin 2j = 2 only: dimension 6 of 7
            assert np.abs(np.abs(dim.certificate) - np.abs(u[:, rank])).max() < 1e-12
        else:
            assert dim.certificate is None

    def test_certificate_matches_doubled_null_direction(self, rng):
        # X_2 = 2 X_1, so the doubled generators have one null combination
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        coset = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        basis = GeneratorBasis(np.array([x, 2 * x]), coset, CoirrepType.B, to_x=m)
        sub, coset2, to_x = doubled(basis)
        u, _, _ = np.linalg.svd(realified(np.concatenate([sub, conjugate(to_x, coset2)])),
                                full_matrices=False)
        dim = algebra_dimension(basis)
        assert (dim.computed, dim.classification) == (4, "other")
        assert abs(abs(np.dot(dim.certificate, u[:, 4])) - 1.0) < 1e-12
        assert np.abs(dim.certificate - np.array([2, -1, 0, 0, 0]) / 5**0.5).max() < 1e-12



# every input fails somewhere: su2-tr and spin over real coefficients, so3 under a perturbation
FALLBACK_CASES = {
    "su2-tr": lambda: parse_config({"group": "su2-tr"}),
    **{f"spin{two_j}-2": (lambda two_j=two_j: parse_config(spin_document(two_j))) for two_j in (1, 2, 3)},
    "so3-perturbed": lambda: with_overrides(parse_config({"group": "so3"}), perturb=1e-2),
}


class TestFallbackAgainstOracle:
    """The complex expansion is a fallback: its rows are exactly the pairs
    whose real residual is at or above the tolerance, each matching the
    per-pair lstsq of the oracle (on the doubled stacks for type b)."""

    @pytest.mark.parametrize("name", FALLBACK_CASES)
    def test_fallback_rows_are_the_failing_pairs(self, name):
        cfg = FALLBACK_CASES[name]()
        basis = generator_basis(cfg.spec, cfg.extension)
        stacks = doubled(basis) if basis.ctype is CoirrepType.B else (
            basis.subgroup_blocks, basis.coset_blocks, basis.to_x)
        oracle = closure_families(*stacks)
        reports = (sub_sub_closure_report(basis), verify_coset_coset_closure(basis), verify_mixed_closure(basis))
        for rep in reports:
            expected = oracle[rep.family]
            failing = [k for k, (_, res, _, _) in enumerate(expected.values()) if res >= rep.tolerance]
            assert rep.fallback["pair"].tolist() == failing, rep.family
            assert_fallback_matches(rep, expected)
        assert not all(rep.passed for rep in reports)
