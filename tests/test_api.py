"""The public names of the package.

Every name in coreplie.__all__ must resolve, once, so `from coreplie import *`
cannot break on a stale export. The per-operator vector-field layer, the
extract_* wrappers and NotClosedError were removed in favour of the stacked
kernel (algebra.field_bracket, generator_basis), and the per-pair ClosurePair
in favour of ClosureReport.pairs, one record array; their names must stay gone.
"""
import importlib

import pytest

import coreplie

REMOVED = (
    "LinearVectorField",
    "make_operator",
    "apply_vf",
    "vf_commutator",
    "transport",
    "FrameMismatchError",
    "extract_subgroup_generators",
    "extract_coset_generators",
    "NotClosedError",
    "ClosurePair",
)


def test_every_export_resolves_once():
    assert len(coreplie.__all__) == len(set(coreplie.__all__))
    for name in coreplie.__all__:
        assert getattr(coreplie, name) is not None, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from coreplie import *", namespace)
    assert set(coreplie.__all__) <= set(namespace)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert name not in coreplie.__all__
    with pytest.raises(ImportError):
        exec(f"from coreplie import {name}", {})
    for module in ("infinitesimal", "algebra"):
        assert not hasattr(importlib.import_module(f"coreplie.{module}"), name)


def test_sampling_is_test_only():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("coreplie.sampling")
