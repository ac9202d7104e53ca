"""Property-based checks of the algebraic invariants."""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from coreplie import (
    GroupElement,
    Linearity,
    catalog_entry,
    compose,
    exp_curve,
    field_bracket,
)
from coreplie.algebra import _expand

finite_reals = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def matrices(d):
    # exp of a bounded matrix: always invertible, comfortably conditioned
    return st.lists(finite_reals, min_size=2 * d * d, max_size=2 * d * d).map(
        lambda vals: expm(
            0.4
            * (
                np.array(vals[: d * d]).reshape(d, d)
                + 1j * np.array(vals[d * d :]).reshape(d, d)
            )
        )
    )


def coefficient_matrices(d):
    return st.lists(finite_reals, min_size=2 * d * d, max_size=2 * d * d).map(
        lambda vals: np.array(vals[: d * d]).reshape(d, d)
        + 1j * np.array(vals[d * d :]).reshape(d, d)
    )


elements = st.tuples(matrices(2), st.booleans()).map(
    lambda mf: GroupElement(mf[0], Linearity.ANTILINEAR if mf[1] else Linearity.LINEAR)
)


@given(elements, elements, elements)
def test_compose_is_associative(a, b, c):
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert left.linearity is right.linearity
    assert np.abs(left.matrix - right.matrix).max() < 1e-12


@given(st.booleans(), st.booleans())
def test_flag_xor(fa, fb):
    a = GroupElement(np.eye(2), Linearity.ANTILINEAR if fa else Linearity.LINEAR)
    b = GroupElement(np.eye(2), Linearity.ANTILINEAR if fb else Linearity.LINEAR)
    expect_anti = fa != fb
    assert compose(a, b).is_antilinear == expect_anti


@given(elements, elements)
def test_coset_times_coset_lands_in_subgroup(a, b):
    anti = Linearity.ANTILINEAR
    aa = GroupElement(a.matrix, anti)
    bb = GroupElement(b.matrix, anti)
    assert compose(aa, bb).linearity is Linearity.LINEAR


@given(st.integers(min_value=0, max_value=2), finite_reals, finite_reals)
def test_one_parameter_subgroup_law(sigma, a, b):
    spec, _ = catalog_entry("su2-tr")
    al = np.zeros(3)
    be = np.zeros(3)
    al[sigma], be[sigma] = a, b
    lhs = compose(exp_curve(spec, al), exp_curve(spec, be)).matrix
    rhs = exp_curve(spec, al + be).matrix
    assert np.abs(lhs - rhs).max() < 1e-11


@given(coefficient_matrices(3), coefficient_matrices(3))
def test_bracket_antisymmetry(a, b):
    assert np.abs(field_bracket(a, b) + field_bracket(b, a)).max() < 1e-12


@given(coefficient_matrices(2), coefficient_matrices(2), coefficient_matrices(2), finite_reals)
def test_bracket_bilinearity(a, b, c, lam):
    lhs = field_bracket(lam * a + c, b)
    rhs = lam * field_bracket(a, b) + field_bracket(c, b)
    assert np.abs(lhs - rhs).max() < 1e-10


@given(coefficient_matrices(2), coefficient_matrices(2), coefficient_matrices(2))
def test_jacobi_identity(a, b, c):
    cycle = (
        field_bracket(field_bracket(a, b), c)
        + field_bracket(field_bracket(b, c), a)
        + field_bracket(field_bracket(c, a), b)
    )
    assert np.abs(cycle).max() < 1e-10


@given(st.lists(finite_reals, min_size=3, max_size=3))
def test_projection_recovers_real_combinations(weights):
    spec, _ = catalog_entry("su2-tr")
    basis = list(spec.generators)
    target = sum(w * b for w, b in zip(weights, basis))
    (coeffs,), (residual,), _, _ = _expand(np.array([target]), np.array(basis))
    assert np.abs(coeffs - np.array(weights)).max() < 1e-9
    assert residual < 1e-9
