import numpy as np
import pytest

from coreplie import CATALOG_NAMES, a0_square_sign, catalog_entry, classify_coirrep
from coreplie.catalog import SIGMA_Y


def test_catalog_names():
    assert set(CATALOG_NAMES) == {"so2-conj", "su2-tr", "u1", "so3"}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_every_entry_loads_and_classifies(name):
    spec, ext = catalog_entry(name)
    ctype = classify_coirrep(spec, ext)
    assert ctype.value in ("a", "b")


@pytest.mark.parametrize(
    "name, ctype, sign, n, d",
    [
        ("so2-conj", "a", +1, 1, 2),
        ("su2-tr", "b", -1, 3, 2),
        ("u1", "a", +1, 1, 1),
        ("so3", "a", +1, 3, 3),
    ],
)
def test_pinned_classifications(name, ctype, sign, n, d):
    spec, ext = catalog_entry(name)
    assert classify_coirrep(spec, ext).value == ctype
    assert a0_square_sign(ext) == sign
    assert (spec.n, spec.d) == (n, d)


def test_su2_extension_is_i_sigma_y():
    _, ext = catalog_entry("su2-tr")
    assert np.allclose(ext.N, 1j * SIGMA_Y)
    assert np.allclose(ext.N, np.array([[0, 1], [-1, 0]]))


def test_so3_generators_close_like_angular_momentum():
    spec, _ = catalog_entry("so3")
    l1, l2, l3 = spec.generators
    assert np.allclose(l1 @ l2 - l2 @ l1, l3)


def test_unknown_name():
    with pytest.raises(KeyError, match="unknown catalog group"):
        catalog_entry("nope")


def test_entries_are_fresh_copies():
    spec1, _ = catalog_entry("so2-conj")
    spec2, _ = catalog_entry("so2-conj")
    assert not np.shares_memory(spec1.generators, spec2.generators)
