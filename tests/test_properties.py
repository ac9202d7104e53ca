"""Property-based checks of the algebraic invariants, of the config reader and
of the machine format's array encoding."""
import json
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

import oracle
from coreplie import (
    CATALOG_NAMES,
    ConfigError,
    GroupElement,
    LieGroupSpec,
    Linearity,
    catalog_entry,
    compose,
    exp_curve,
    field_bracket,
    generator_basis,
    parse_config,
    run_verification,
    sub_sub_closure_report,
    verify_coset_coset_closure,
    verify_mixed_closure,
)
from coreplie.config import _parse_matrices, config_for_catalog, with_overrides
from coreplie.matrices import RealSpan
from coreplie.report import dense, json_numbers

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import spin_document, su_document  # noqa: E402

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
    (coeffs,), (residual,), *_ = RealSpan(np.array(basis)).expand(np.array([target]))
    assert np.abs(coeffs - np.array(weights)).max() < 1e-9
    assert residual < 1e-9


PHASE_CONFIGS = [config_for_catalog(name) for name in CATALOG_NAMES] + [
    parse_config(spin_document(two_j)) for two_j in (1, 2, 3)
]
phases = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PHASE_CONFIGS), st.sampled_from(["exact", "fd"]), phases, phases)
def test_report_does_not_depend_on_the_phases(cfg, mode, xi, delta_alpha0):
    # xi and delta_alpha0 are echoed bookkeeping: every other field is bit-identical
    base = run_verification(cfg, mode=mode).to_dict()
    moved = run_verification(with_overrides(cfg, xi=xi, delta_alpha0=delta_alpha0), mode=mode).to_dict()
    assert (moved.pop("xi"), moved.pop("delta_alpha0")) == (json_numbers(xi), json_numbers(delta_alpha0))
    del base["xi"], base["delta_alpha0"]
    assert moved == base


SCALE_CONFIGS = {g: config_for_catalog(g) for g in ("so3", "su2-tr")} | {
    f"su{n}": parse_config(su_document(n)) for n in (2, 3, 4)
}
FAMILIES = (sub_sub_closure_report, verify_coset_coset_closure, verify_mixed_closure)


def zero_pattern(rep) -> list:
    """Where the real coefficients and the failing pairs' complex ones are 0, and which pairs fail."""
    ccoeffs = rep.fallback["complex_coeffs"]
    return [rep.fallback["pair"], *(c == 0 for c in (rep.pairs["coeffs"], ccoeffs.real, ccoeffs.imag))]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SCALE_CONFIGS)), st.floats(min_value=-3.0, max_value=3.0))
def test_zero_pattern_and_verdicts_do_not_depend_on_the_scale(name, k):
    # the generators times 10**k: X'_sigma = X_sigma N scale with them and
    # X'_0 = iN does not, so the coset span's conditioning moves with k
    cfg = SCALE_CONFIGS[name]
    spec = cfg.spec
    scaled = LieGroupSpec(spec.n, spec.d, 10**k * spec.generators, spec.name)
    basis, moved_basis = generator_basis(spec, cfg.extension), generator_basis(scaled, cfg.extension)
    for family in FAMILIES:
        base, moved = family(basis), family(moved_basis)
        assert moved.passed == base.passed, family.__name__
        for got, want in zip(zero_pattern(moved), zero_pattern(base)):
            assert np.array_equal(got, want), family.__name__


# every real a config entry may hold: ints and floats mixed, signed zeros, and
# integers past 2**53 and 2**63, which float() rounds
config_reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.integers(2**53, 2**64) | st.integers(-(2**64), -(2**63)),
    st.sampled_from([0, 0.0, -0.0, 2**63, 2**63 - 1, -(2**63) - 1, 2**53 + 1]),
)


@st.composite
def config_stacks(draw, pairs=st.sampled_from([list, tuple])):
    """(stack, path, shape): a generator list (n, d, d) or one N (d, d), d in
    1..6, as nested [re, im] pairs."""
    d = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(1, d, d), (2, d, d), (d, d)]))

    def build(dims):
        if not dims:
            return draw(pairs)([draw(config_reals), draw(config_reals)])
        return [build(dims[1:]) for _ in range(dims[0])]

    return build(shape), "group.generators" if len(shape) == 3 else "extension.N", shape


def read_outcome(read, stack, path, shape):
    """The bytes a reader returns, or the message of the ConfigError it raises."""
    try:
        return read(stack, path, shape).tobytes()
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=150)
@given(config_stacks())
def test_stack_reader_matches_per_entry_reference(case):
    stack, path, shape = case
    got = _parse_matrices(stack, path, shape)
    want = oracle.parse_matrix_stack(stack, path, shape)
    assert got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included
    assert got.tobytes() == np.array(stack, dtype=float).view(complex)[..., 0].tobytes()


bad_nodes = st.sampled_from(
    [True, False, "x", "1", None, {}, [], [1], [1, 2, 3], [[1], 0], [0, True], [None, 0], 1.5, (1, 2), [[1, 0]]]
) | st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400])  # well typed, out of range


@settings(max_examples=300)
@given(config_stacks(pairs=st.just(list)), st.data())
def test_one_bad_node_gets_the_reference_error(case, data):
    stack, path, shape = case
    trail, node = [], stack
    for _ in range(data.draw(st.integers(0, len(shape) + 1))):
        i = data.draw(st.integers(0, len(node) - 1))
        trail.append((node, i))
        node = node[i]
    edit = data.draw(st.sampled_from(["replace", "drop", "repeat"]))
    if edit == "replace" or not isinstance(node, list) or not node:
        if trail:
            container, i = trail[-1]
            container[i] = data.draw(bad_nodes)
        else:
            stack = data.draw(bad_nodes)
    elif edit == "drop":
        node.pop()
    else:
        node.append(node[0])
    assert read_outcome(_parse_matrices, stack, path, shape) == read_outcome(
        oracle.parse_matrix_stack, stack, path, shape
    )


# every real an array entry may hold: signed zeros, integral values just
# inside +-2**53 (written as ints) and at or past it (kept as floats),
# round-off and any finite float
array_reals = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 2.0**53 - 1, -(2.0**53 - 1), 2.0**53, -(2.0**53), 2.0**53 + 2, 1e-17]),
    st.integers(-9, 9).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def sparse_candidates(draw):
    """A real or complex array of 0 to 4 dimensions (empty ones included) with
    a random fraction of its entries set to +0 or -0."""
    shape = tuple(draw(st.lists(st.integers(0, 6), max_size=4)))
    parts = [draw(arrays(float, shape, elements=array_reals)) for _ in range(1 + draw(st.booleans()))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_fraction = draw(st.sampled_from([0.0, 0.5, 0.8, 0.9, 0.99, 1.0]) | st.floats(0.0, 1.0))
    for part in parts:
        part[rng.random(shape) < zero_fraction] = rng.choice([0.0, -0.0])
    if len(parts) == 1:
        return parts[0]
    a = np.empty(shape, dtype=complex)
    a.real, a.imag = parts
    return a


@settings(max_examples=300)
@given(sparse_candidates())
def test_array_encoding_is_the_dense_form_or_its_sparse_half(a):
    encoded = json_numbers(a)
    numbers = np.stack([a.real, a.imag], axis=-1) if a.dtype.kind == "c" else a
    sparse = numbers.ndim > 0 and 2 * (numbers.ndim + 2 * np.count_nonzero(numbers)) < numbers.size
    assert isinstance(encoded, dict) == sparse  # a number (0-d real) stays a number
    if sparse:  # the nonzero entries, in order, each converted as the dense form converts it
        index = np.flatnonzero(numbers)
        assert (encoded["shape"], encoded["index"]) == (list(numbers.shape), index.tolist())
        assert json.dumps(encoded["value"]) == json.dumps(oracle.dense_numbers(numbers.ravel()[index]))
    # lossless: decoded and rewritten dense, it is the dense form to the byte
    assert json.dumps(oracle.densified(encoded)) == json.dumps(oracle.dense_numbers(a))
    text = json.dumps(encoded)
    assert json.loads(text) == encoded and json.dumps(json.loads(text)) == text
