"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line.

Criterion 6 is implemented exactly as stated (real-coefficient closure for
both catalog extensions) and FAILS for su2-tr: with the alpha0-direction
coset generator pinned to i*N by criterion 3, the brackets [J'_0, J'_sigma]
land in i times the subgroup span whenever Ad_N flips X_sigma, which a
type-b extension always does for some sigma. The same closure holds at
machine precision over complex coefficients, which the reports carry as a
separate fallback. See the test body for the residual table.
"""
import json

import numpy as np

from coreplie import (
    CoirrepType,
    GroupElement,
    Linearity,
    catalog_entry,
    classify_coirrep,
    compose,
    exp_curve,
    field_bracket,
    generator_basis,
    sub_sub_closure_report,
    verify_coset_coset_closure,
    verify_mixed_closure,
)
from coreplie.algebra import algebra_dimension
from coreplie.cli import main
from coreplie.coirrep import Side, coirrep_matrix

from oracle import commutator_on_coordinates, structure_tensor
from sampling import default_rng

CATALOG = ("so2-conj", "su2-tr", "u1", "so3")


def verdict(number: int, passed: bool, summary: str):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {summary}")


def test_criterion_1_antilinear_composition():
    """a0 composed with itself gives (-E, linear) for su2-tr, (+E, linear)
    for so2-conj, with max entry error below 1e-12."""
    failures = []
    for name, sign in (("su2-tr", -1), ("so2-conj", +1)):
        _, ext = catalog_entry(name)
        sq = compose(ext.a0_element(), ext.a0_element())
        err = np.abs(sq.matrix - sign * np.eye(ext.d)).max()
        if sq.linearity is not Linearity.LINEAR or err >= 1e-12:
            failures.append(f"{name}: err={err:.3e}")
    verdict(1, not failures, "antilinear composition a0*a0 = +-E")
    assert not failures, failures


def test_criterion_2_coset_product_law():
    """coset * coset is linear for 100 random pairs per catalog group; for
    the b-type entry the product matrix is block-diagonal below 1e-10."""
    rng = default_rng()
    failures = []
    for name in CATALOG:
        spec, ext = catalog_entry(name)
        ctype = classify_coirrep(spec, ext)
        for _ in range(100):
            g = exp_curve(spec, rng.standard_normal(spec.n))
            h = exp_curve(spec, rng.standard_normal(spec.n))
            if ctype is CoirrepType.A:
                a = GroupElement(g.matrix @ ext.N, Linearity.ANTILINEAR)
                b = GroupElement(h.matrix @ ext.N, Linearity.ANTILINEAR)
                prod = compose(a, b)
                if prod.linearity is not Linearity.LINEAR:
                    failures.append(f"{name}: flag not linear")
                    break
            else:
                a = coirrep_matrix(g, ext, Side.COSET_GA0)
                b = coirrep_matrix(h, ext, Side.COSET_A0G)
                prod = compose(a, b)
                d = spec.d
                off = max(
                    np.abs(prod.matrix[:d, d:]).max(), np.abs(prod.matrix[d:, :d]).max()
                )
                if prod.linearity is not Linearity.LINEAR or off >= 1e-10:
                    failures.append(f"{name}: off-diagonal {off:.3e}")
                    break
    verdict(2, not failures, "coset*coset lands in the subgroup (100 random pairs each)")
    assert not failures, failures


def test_criterion_3_generator_extraction():
    """Finite-difference and exact extraction agree below 1e-6 in every
    direction including alpha0; X'_0 = iN and X'_sigma = X_sigma N below
    1e-10."""
    failures = []
    for name in CATALOG:
        spec, ext = catalog_entry(name)
        ctype = classify_coirrep(spec, ext)
        exact = generator_basis(spec, ext, mode="exact")
        fd = generator_basis(spec, ext, mode="fd")
        sub_exact, cos_exact = exact.subgroup, exact.coset
        sub_fd, cos_fd = fd.subgroup, fd.coset
        worst = max(
            max(np.abs(a - b).max() for a, b in zip(sub_exact, sub_fd)),
            max(np.abs(a - b).max() for a, b in zip(cos_exact, cos_fd)),
        )
        if worst >= 1e-6:
            failures.append(f"{name}: fd vs exact {worst:.3e}")
        d = spec.d
        upper = lambda m: m[:d, :d] if ctype is CoirrepType.B else m
        if np.abs(upper(cos_exact[0]) - 1j * ext.N).max() >= 1e-10:
            failures.append(f"{name}: X'_0 != iN")
        for sigma in range(spec.n):
            if np.abs(upper(cos_exact[sigma + 1]) - spec.generators[sigma] @ ext.N).max() >= 1e-10:
                failures.append(f"{name}: X'_{sigma + 1} != X_{sigma + 1} N")
    verdict(3, not failures, "generator extraction: fd agrees, coset identities hold")
    assert not failures, failures


def test_criterion_4_operator_matrix_compatibility():
    """[J_A, J_B] and J_{BA-AB} agree on all coordinate functions at 100
    random points, for random A, B at d in {2, 4}, below 1e-10."""
    rng = default_rng()
    worst = 0.0
    for d in (2, 4):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        points = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(100)]
        oracle = commutator_on_coordinates(a, b, points)
        coeff = field_bracket(a, b)
        direct = np.stack([coeff @ p for p in points])
        worst = max(worst, float(np.abs(oracle - direct).max()))
    passed = worst < 1e-10
    verdict(4, passed, f"operator vs matrix commutators, max deviation {worst:.3e}")
    assert passed


def test_criterion_5_su2_structure_constants():
    """|c| matches the epsilon pattern below 1e-9 under the documented sign
    convention (c = -epsilon); the Jacobi residual of the fitted tensor c
    stays below 1e-10."""
    spec, _ = catalog_entry("su2-tr")
    c, _ = structure_tensor(sub_sub_closure_report(generator_basis(spec, None)))
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    pattern_err = float(np.abs(np.abs(c) - np.abs(eps)).max())
    sign_err = float(np.abs(c - (-eps)).max())
    # c_ab^d c_dc^e + cyclic in (a, b, c): unlike the matrix-bracket
    # identity, this fails when the expansion fits a wrong tensor
    cycle = (
        np.einsum("abd,dce->abce", c, c)
        + np.einsum("bcd,dae->abce", c, c)
        + np.einsum("cad,dbe->abce", c, c)
    )
    jac = float(np.abs(cycle).max())
    passed = pattern_err < 1e-9 and sign_err < 1e-9 and jac < 1e-10
    verdict(
        5,
        passed,
        f"su(2) structure constants (pattern err {pattern_err:.2e}, jacobi {jac:.2e})",
    )
    assert passed, (pattern_err, sign_err, jac)


def _closure_residuals(name: str, xi: float = 0.0):
    spec, ext = catalog_entry(name)
    if xi:
        from dataclasses import replace

        ext = replace(ext, xi=xi)
    basis = generator_basis(spec, ext)
    cc = verify_coset_coset_closure(basis)
    mixed = verify_mixed_closure(basis)
    return cc, mixed


def test_criterion_6_closure_real_span():
    """Every coset-coset bracket, transported to the x frame, expands over
    the real subgroup span below 1e-9, and every mixed bracket over the real
    coset span below 1e-9, for both catalog extensions; residuals do not
    move under a random xi.

    This criterion is implemented exactly as stated and is expected to FAIL
    on the su2-tr clauses: X'_0 = iN makes [J'_0, J'_sigma] equal to
    i * (1 - Ad_N)(X_sigma) * (doubled), a purely imaginary multiple of a
    subgroup generator whenever Ad_N flips X_sigma, and any b-type N flips
    at least one direction. The complex-coefficient fallback closes at
    machine precision (see the separate fallback fields in the reports);
    only the real-coefficient claim is unattainable.
    """
    rng = default_rng()
    failures = []
    for name in ("so2-conj", "su2-tr"):
        cc, mixed = _closure_residuals(name)
        for rep, span in ((cc, "subgroup"), (mixed, "coset")):
            bad = [
                (p.left, p.right, p.residual)
                for p in rep.pairs
                if p.residual >= 1e-9
            ]
            if bad:
                table = ", ".join(f"({l},{r}): {res:.3e}" for l, r, res in bad)
                failures.append(
                    f"{name} {rep.family} over real {span} span: {table} "
                    f"(complex fallback max {rep.max_complex_residual():.1e})"
                )
        xi = float(rng.uniform(0.1, 3.0))
        cc_xi, mixed_xi = _closure_residuals(name, xi=xi)
        for before, after in ((cc, cc_xi), (mixed, mixed_xi)):
            drift = max(
                abs(p.residual - q.residual) for p, q in zip(before.pairs, after.pairs)
            )
            if drift >= 1e-9:
                failures.append(f"{name} {before.family}: residuals moved {drift:.3e} under xi")
    verdict(6, not failures, "closure over real spans for both catalog extensions")
    assert not failures, "real-coefficient closure is unattainable: " + "; ".join(failures)


def test_criterion_7_algebra_dimensions():
    """so2-conj spans a 2-dimensional real algebra (n+1, a-degenerate) and
    su2-tr a 7-dimensional one (2n+1, b-full), with SVD rank margins of at
    least 1e6 times the threshold."""
    failures = []
    for name, expected_rank, expected_cls in (
        ("so2-conj", 2, "a-degenerate"),
        ("su2-tr", 7, "b-full"),
    ):
        spec, ext = catalog_entry(name)
        basis = generator_basis(spec, ext)
        dim = algebra_dimension(basis)
        if dim.computed != expected_rank or dim.classification != expected_cls:
            failures.append(f"{name}: got {dim.computed} ({dim.classification})")
        if dim.margin < 1e6:
            failures.append(f"{name}: margin {dim.margin:.2e}")
    verdict(7, not failures, "algebra dimensions 2 = n+1 and 7 = 2n+1 with wide margins")
    assert not failures, failures


def test_criterion_8_negative_control(capsys):
    """Perturbing one su2-tr generator by 1e-2 drives the clean sub-sub
    family's residual above 1e-4 and makes the verify command exit 3."""
    code = main(["verify", "--group", "su2-tr", "--format", "machine"])
    baseline = json.loads(capsys.readouterr().out)
    code = main(["verify", "--group", "su2-tr", "--perturb", "1e-2", "--format", "machine"])
    perturbed = json.loads(capsys.readouterr().out)
    base_sub = baseline["closures"]["sub-sub"]["max_residual"]
    pert_sub = perturbed["closures"]["sub-sub"]["max_residual"]
    driven = base_sub < 1e-9 and pert_sub > 1e-4
    passed = driven and code == 3
    with capsys.disabled():
        verdict(
            8,
            passed,
            f"negative control (sub-sub residual {base_sub:.1e} -> {pert_sub:.1e}, exit {code})",
        )
    assert passed, (base_sub, pert_sub, code)


def test_criterion_9_determinism(capsys):
    """Two verify runs on the same config emit byte-identical machine
    reports."""
    main(["verify", "--group", "su2-tr", "--format", "machine"])
    out1 = capsys.readouterr().out
    main(["verify", "--group", "su2-tr", "--format", "machine"])
    out2 = capsys.readouterr().out
    passed = out1 == out2 and len(out1) > 0
    with capsys.disabled():
        verdict(9, passed, f"byte-identical machine reports ({len(out1)} bytes)")
    assert passed
