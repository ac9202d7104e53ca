"""The public names of the package, and the README passages that use them.

Every name in coreplie.__all__ must resolve, once, so `from coreplie import *`
cannot break on a stale export. The per-operator vector-field layer, the
extract_* wrappers and NotClosedError were removed in favour of the stacked
kernel (algebra.field_bracket, generator_basis), the per-pair ClosurePair
in favour of ClosureReport.pairs, one record array, the transport layer
in favour of the x' -> x map that GeneratorBasis carries, the coirrep
point layer (coordinate vectors, frames, block orders and the per-point
actions) in favour of the coirrep matrices, the type and sign helpers in
favour of AntilinearExtension.ctype and .a0_sign, and the two per-type
builders with their tag wrapper and type check in favour of
coirrep_matrix, which reads the type from the extension; their names must
stay gone.
"""
import ast
import importlib
import inspect
import pkgutil
import re
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

import coreplie
from coreplie.config import config_for_catalog

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import spin_document  # noqa: E402

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
    "TransportMap",
    "transport_map",
    "coset_in_x_frame",
    "CoordinateVector",
    "Frame",
    "BlockOrder",
    "transform_coords_a",
    "transform_coords_b",
    "act_subgroup_a",
    "act_b",
    "act_coset_a",
    "as_complex_vector",
    "coirrep_type",
    "a0_sign_of_type",
    "CoirrepMatrix",
    "TypeMismatchError",
    "build_a_matrix",
    "build_b_matrix",
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
    for module in pkgutil.iter_modules(coreplie.__path__):
        assert not hasattr(importlib.import_module(f"coreplie.{module.name}"), name), module.name


def test_extension_block_has_one_home():
    """delta_alpha0 is a field of the extension, not of the config or of
    generator_basis."""
    assert [f.name for f in fields(coreplie.AntilinearExtension)] == ["N", "s", "xi", "delta_alpha0"]
    assert [f.name for f in fields(coreplie.GroupConfig)] == ["spec", "extension", "tolerances", "source"]
    assert "delta_alpha0" not in inspect.signature(coreplie.generator_basis).parameters


@pytest.mark.parametrize("func", ["infinitesimal.central_derivative",
                                  "matrices.entries_close", "matrices.is_invertible"])
def test_fixed_gates_take_no_tolerance(func):
    """The stencil, entry and rank gates each read one named constant
    (FD_STENCIL_TOL, ENTRY_TOL, RANK_TOL), which no caller overrides."""
    module, name = func.split(".")
    assert "tol" not in inspect.signature(getattr(importlib.import_module(f"coreplie.{module}"), name)).parameters


def test_tolerance_defaults_are_named_constants():
    from coreplie.algebra import CLOSURE_TOL, RANK_REL_TOL
    from coreplie.infinitesimal import FD_AGREE, FD_STEP

    assert astuple(coreplie.Tolerances()) == (CLOSURE_TOL, RANK_REL_TOL, FD_STEP, FD_AGREE)


def test_sampling_is_test_only():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("coreplie.sampling")


def _so3_ext():
    return coreplie.catalog_entry("so3")[1]


def _so3_basis():
    return coreplie.generator_basis(*coreplie.catalog_entry("so3"))


# Each factory returns a fresh instance equal in value to the previous one.
ARRAY_HOLDERS = {
    "GroupElement": lambda: coreplie.GroupElement(np.eye(3)),
    "LieGroupSpec": lambda: coreplie.catalog_entry("so3")[0],
    "AntilinearExtension": _so3_ext,
    "GeneratorBasis": _so3_basis,
    "ClosureReport": lambda: coreplie.sub_sub_closure_report(_so3_basis()),
    "AlgebraDimension": lambda: coreplie.algebra_dimension(_so3_basis()),
    "GroupConfig": lambda: config_for_catalog("so3"),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_and_hash_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert (a == b) is False
    assert a == a
    assert isinstance(hash(a), int)


ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_sketch_runs():
    """The README's "Library sketch" block runs as written and gives the
    dimension its last comment states."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    computed, classification = re.findall(r"# computed=(\d+), '([\w-]+)'", block)[-1]
    namespace = {}
    exec(block, namespace)
    dim = namespace["dim"]
    assert (dim.computed, dim.classification) == (int(computed), classification) == (7, "b-full")


def readme_spin_rows() -> dict:
    """The README's spin table under "A genuine finding": 2j -> its other cells."""
    section = (ROOT / "README.md").read_text().split("## A genuine finding", 1)[1]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("|") and cells[0].isdigit():
            rows[int(cells[0])] = cells[1:]
    return rows


def assert_cell_matches(printed: str, value: float):
    """An order-one cell holds value to its printed digits; a round-off cell
    says only that value is below 1e-12 (BLAS builds round differently)."""
    if float(printed) < 1e-12:
        assert value < 1e-12, (printed, value)
        return
    digits = len(printed.split("e")[0].replace(".", "").lstrip("0"))
    assert float(f"{value:.{digits - 1}e}") == float(printed), (printed, value)


def test_readme_spin_table_is_what_the_code_computes():
    """Each row: the type, each failing family's max_residual and
    max_complex_residual (real / complex) and the dimension, recomputed."""
    rows = readme_spin_rows()
    assert sorted(rows) == [1, 2, 3]
    for two_j, (ctype, coset_coset, sub_coset, dimension) in rows.items():
        report = coreplie.run_verification(coreplie.parse_config(spin_document(two_j)))
        assert ctype == report.classification
        for cell, family in ((coset_coset, "coset-coset"), (sub_coset, "sub-coset")):
            real, complex_ = cell.split(" / ")
            fam = report.closures[family]
            assert_cell_matches(real, fam["max_residual"])
            assert_cell_matches(complex_, fam["max_complex_residual"])
        dim = report.dimension
        assert dimension == f"{dim['computed']} ({dim['expected']}) {dim['classification']}"


@pytest.mark.parametrize("module", ["infinitesimal", "algebra", "report"])
def test_verify_path_does_not_import_coirrep(module):
    """The verify path works on generator stacks: the coirrep matrices stay
    out of it."""
    tree = ast.parse((ROOT / "src" / "coreplie" / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported if "coirrep" in name.split(".")]


def test_group_core_has_no_literal_rank_tolerance():
    """LieGroupSpec's rank test uses matrices.RANK_TOL, not an inline 1e-10."""
    tree = ast.parse((ROOT / "src" / "coreplie" / "group_core.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value == 1e-10]
