import copy
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dataclasses import replace

import oracle
from coreplie import (
    CATALOG_NAMES,
    AntilinearExtension,
    ConfigError,
    Tolerances,
    algebra_dimension,
    central_derivative,
    generator_basis,
    parse_config,
    parse_machine,
    run_verification,
    sub_sub_closure_report,
    verify_coset_coset_closure,
    verify_mixed_closure,
)
from coreplie import config
from coreplie.cli import main
from coreplie.config import config_for_catalog, load_config, with_overrides
from coreplie.report import dense, emit_document, emit_machine, format_human

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import spin_document, su_document  # noqa: E402

SO2_GEN = [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]
EYE2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


def so2_document(**extra):
    doc = {
        "group": {"name": "mygroup", "n": 1, "d": 2, "generators": [SO2_GEN]},
        "extension": {"N": EYE2, "s": 1},
    }
    doc.update(extra)
    return doc


def closure_reports(cfg, mode):
    """The in-memory closure reports that run_verification serializes."""
    basis = generator_basis(cfg.spec, cfg.extension, mode=mode, step=cfg.tolerances.fd_step)
    tol = cfg.tolerances.closure
    return {
        "sub-sub": sub_sub_closure_report(basis, tol),
        "coset-coset": verify_coset_coset_closure(basis, tol),
        "sub-coset": verify_mixed_closure(basis, tol),
    }


class TestParseConfig:
    def test_catalog_name(self):
        cfg = parse_config({"group": "su2-tr"})
        assert cfg.spec.name == "su2-tr"
        assert cfg.extension is not None
        assert cfg.source == "catalog"

    def test_explicit_group(self):
        cfg = parse_config(so2_document())
        assert cfg.spec.n == 1 and cfg.spec.d == 2
        assert np.allclose(cfg.spec.generators[0], np.array([[0, -1], [1, 0]]))
        assert np.allclose(cfg.extension.N, np.eye(2))
        assert cfg.source == "explicit"

    def test_empty_extension_block_means_no_extension(self):
        cfg = parse_config({"group": "so2-conj", "extension": {}})
        assert cfg.extension is None

    def test_extension_fields(self):
        doc = so2_document()
        doc["extension"]["xi"] = 0.25
        doc["extension"]["delta-alpha0"] = 0.5
        cfg = parse_config(doc)
        assert cfg.extension.xi == 0.25
        assert cfg.extension.delta_alpha0 == 0.5

    def test_tolerance_defaults_are_the_library_defaults(self):
        def default(func, name):
            return inspect.signature(func).parameters[name].default

        assert Tolerances() == Tolerances(
            closure=default(sub_sub_closure_report, "tol"),
            rank=default(algebra_dimension, "rank_tol"),
            fd_step=default(generator_basis, "step"),
            fd_agree=default(generator_basis, "agree"),
        )
        assert default(central_derivative, "step") == Tolerances().fd_step

    def test_tolerance_overrides(self):
        cfg = parse_config(so2_document(tolerances={"closure": 1e-7, "fd-step": 1e-3}))
        assert cfg.tolerances.closure == 1e-7
        assert cfg.tolerances.fd_step == 1e-3
        assert cfg.tolerances.rank == Tolerances().rank

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("group"), "group"),
            (lambda d: d.update(group="no-such"), "unknown catalog name"),
            (lambda d: d["group"].pop("generators"), "group.generators"),
            (lambda d: d["group"].update(n="x"), "group.n"),
            (lambda d: d["extension"].update(N=[[[1, 0]]]), "extension.N"),
            (lambda d: d["extension"].update(s=3), "extension.s"),
            (lambda d: d["extension"].update(s=True), "extension.s"),
            (lambda d: d["extension"].update(s=1.0), "extension.s"),
            (lambda d: d.update(bogus=1), "bogus"),
            (lambda d: d.update(tolerances={"nope": 1.0}), "tolerances.nope"),
            (lambda d: d.update(tolerances={"fd_step": 1e-5}), "tolerances.fd_step"),
            (lambda d: d.update(tolerances={"fd_agree": 1e-5}), "tolerances.fd_agree"),
            (lambda d: d["extension"].update(delta_alpha0=1.0), "extension.delta_alpha0"),
            (lambda d: d["group"].update(extra=1), "group.extra"),
        ],
    )
    def test_field_precise_errors(self, mutate, fragment):
        doc = so2_document()
        mutate(doc)
        with pytest.raises(ConfigError, match=fragment):
            parse_config(doc)

    @pytest.mark.parametrize(
        "block, key", [("tolerances", "entry"), ("tolerances", "jacobi"), ("extension", "alpha0")]
    )
    def test_removed_knobs_are_rejected(self, block, key, tmp_path, capsys):
        doc = so2_document()
        doc.setdefault(block, {})[key] = 0.5
        with pytest.raises(ConfigError, match=rf"{block}\.{key}"):
            parse_config(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(path)]) == 1
        assert f"{block}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["closure", "rank", "fd-step", "fd-agree"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_tolerances_are_rejected(self, key, value, tmp_path, capsys):
        doc = so2_document(tolerances={key: value})
        with pytest.raises(ConfigError, match=rf"tolerances\.{key}"):
            parse_config(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))  # NaN / Infinity literals, which json.load accepts
        assert main(["verify", "--config", str(path)]) == 1
        assert f"tolerances.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["xi", "delta-alpha0"])
    @pytest.mark.parametrize("via", ["file", "flag"])
    def test_non_finite_phases_are_rejected(self, via, key, value, command, tmp_path, capsys):
        if via == "file":
            doc = so2_document()
            doc["extension"][key] = float(value)
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))  # NaN / Infinity literals, which json.load accepts
            argv = [command, "--config", str(path)]
        else:
            argv = [command, "--group", "so3", f"--{key}", value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"extension.{key}" in captured.err

    @pytest.mark.parametrize("key, value", [("closure", True), ("rank", "1e-9"), ("fd_step", None),
                                            ("fd_agree", [1e-6])])
    def test_tolerances_check_every_value_a_caller_gives(self, key, value):
        with pytest.raises(ConfigError) as info:
            Tolerances(**{key: value})
        assert str(info.value) == f"tolerances.{key.replace('_', '-')}: expected a finite positive number, got {value}"

    def test_tol_override_is_checked_by_tolerances(self):
        with pytest.raises(ConfigError) as info:
            with_overrides(config_for_catalog("so3"), tol=True)
        assert str(info.value) == "tolerances.closure: expected a finite positive number, got True"

    def test_null_phase_means_zero(self):
        doc = so2_document()
        doc["extension"].update({"xi": None, "delta-alpha0": None})
        ext = parse_config(doc).extension
        assert (ext.xi, ext.delta_alpha0) == (0.0, 0.0)

    def test_null_tolerance_is_a_config_error(self):
        with pytest.raises(ConfigError) as info:
            parse_config(so2_document(tolerances={"closure": None}))
        assert str(info.value) == "tolerances.closure: expected a finite positive number, got None"

    @pytest.mark.parametrize("block, key, value, expected", [
        ("extension", "xi", "0.5", "expected a finite number, got 0.5"),
        ("extension", "delta-alpha0", True, "expected a finite number, got True"),
        ("tolerances", "rank", "x", "expected a finite positive number, got x"),
        ("tolerances", "fd-agree", [1], "expected a finite positive number, got [1]"),
    ])
    def test_a_scalar_that_is_not_a_number_is_named(self, block, key, value, expected, tmp_path, capsys):
        doc = so2_document()
        doc.setdefault(block, {})[key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == f"{block}.{key}: {expected}"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: {block}.{key}: {expected}\n"

    @pytest.mark.parametrize(
        "field, via",
        [(f"tolerances.{key}", "file") for key in ("closure", "rank", "fd-step", "fd-agree")]
        + [("extension.xi", "file"), ("extension.delta-alpha0", "file"), ("xi", "AntilinearExtension"),
           ("extension.xi", "with_overrides"), ("tolerances.closure", "with_overrides"),
           ("tolerances.rank", "Tolerances")],
    )
    def test_integer_beyond_float_range_in_a_scalar_is_named(self, field, via, tmp_path, capsys):
        big = 10**400
        expected = f"{field}: expected a real number within float range"
        if via == "AntilinearExtension":
            call = lambda: AntilinearExtension(np.eye(2), xi=big)
        elif via == "Tolerances":
            call = lambda: Tolerances(rank=big)
        elif via == "with_overrides":
            override = {"extension.xi": "xi", "tolerances.closure": "tol"}[field]
            call = lambda: with_overrides(config_for_catalog("so3"), **{override: big})
        else:
            block, key = field.split(".")
            doc = so2_document()
            doc.setdefault(block, {})[key] = big
            path = tmp_path / "big.json"
            path.write_text(json.dumps(doc))
            assert main(["verify", "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and f"config error: {expected}" in captured.err
            call = lambda: parse_config(doc)
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == expected

    def test_complex_entry_errors_name_the_cell(self):
        doc = so2_document()
        doc["extension"]["N"] = [[[1, 0], [0, "x"]], [[0, 0], [1, 0]]]
        with pytest.raises(ConfigError, match=r"extension\.N\[0\]\[1\]"):
            parse_config(doc)

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(p))

    def test_load_config_not_utf8_names_the_file(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(ConfigError, match=r"utf-8") as info:
            load_config(str(p))
        assert str(info.value).startswith(f"cannot read config file {p}: ")
        assert main(["verify", "--config", str(p)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {p}: ")

    def test_load_config_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(so2_document()))
        cfg = load_config(str(p))
        assert cfg.spec.name == "mygroup"


def with_matrix(where: str, mutate):
    """so2_document with its one generator (where="generators") or its N
    (where="N") changed in place by mutate, and the JSON path of that matrix."""
    doc = copy.deepcopy(so2_document())  # keeps SO2_GEN and EYE2 intact
    if where == "generators":
        mutate(doc["group"]["generators"][0])
        return doc, "group.generators[0]"
    mutate(doc["extension"]["N"])
    return doc, "extension.N"


def parse_error(doc) -> str:
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    return str(info.value)


def set_cell(i, j, value):
    def mutate(m):
        m[i][j] = value
    return mutate


def all_bool(m):
    m[:] = [[[True, False], [False, False]], [[False, False], [True, False]]]


class TestMatrixCellErrors:
    """Each malformed matrix entry is rejected with the path of its cell."""

    @pytest.mark.parametrize("where", ["generators", "N"])
    @pytest.mark.parametrize(
        "mutate, cell, message",
        [
            (set_cell(0, 1, [0.5, True]), "[0][1][1]", "expected a real number"),  # numpy would upcast it
            (all_bool, "[0][0][0]", "expected a real number"),
            (set_cell(0, 1, "x"), "[0][1]", "expected a [re, im] pair"),
            (set_cell(0, 1, None), "[0][1]", "expected a [re, im] pair"),
            (set_cell(0, 1, {"re": 1, "im": 0}), "[0][1]", "expected a [re, im] pair"),
            (set_cell(1, 0, [0, "1"]), "[1][0][1]", "expected a real number"),
            (set_cell(1, 1, [None, 0]), "[1][1][0]", "expected a real number"),
            (lambda m: m[1].pop(), "[1]", "expected a row of 2 entries"),
            (lambda m: m.pop(), "", "expected a 2x2 matrix"),
            (lambda m: m[1].append(m[1][0]), "[1]", "expected a row of 2 entries"),
            (lambda m: m.append(m[0]), "", "expected a 2x2 matrix"),
            (lambda m: m.__setitem__(0, tuple(m[0])), "[0]", "expected a row of 2 entries"),
            (set_cell(0, 0, [1.5]), "[0][0]", "expected a [re, im] pair"),
            (set_cell(0, 0, [1, 0, 0]), "[0][0]", "expected a [re, im] pair"),
            (set_cell(0, 1, [[1], 0]), "[0][1][0]", "expected a real number"),
        ],
    )
    def test_bad_cell_is_named(self, where, mutate, cell, message):
        doc, path = with_matrix(where, mutate)
        assert parse_error(doc) == f"{path}{cell}: {message}"

    @pytest.mark.parametrize("generators", [[SO2_GEN, SO2_GEN], [], SO2_GEN[0][0], "x"])
    def test_wrong_matrix_count(self, generators):
        doc = so2_document()
        doc["group"]["generators"] = generators
        assert parse_error(doc) == "group.generators: expected a list of 1 matrices"

    def test_first_bad_cell_in_document_order(self):
        def two_bad_cells(m):
            m[1][0] = "x"
            m[0][1] = [0, True]

        doc, path = with_matrix("N", two_bad_cells)
        assert parse_error(doc) == f"{path}[0][1][1]: expected a real number"

    @pytest.mark.parametrize("where", ["generators", "N"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_cell_is_named(self, where, literal, tmp_path, capsys):
        doc, path = with_matrix(where, set_cell(0, 1, [0, 12345.5]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc).replace("12345.5", literal))  # literals json.load accepts
        expected = f"{path}[0][1][1]: expected a finite real number"
        with pytest.raises(ConfigError) as info:
            load_config(str(cfg))
        assert str(info.value) == expected
        assert main(["verify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and expected in captured.err

    @pytest.mark.parametrize("where", ["generators", "N"])
    def test_integer_beyond_float_range_is_named(self, where, tmp_path, capsys):
        doc, path = with_matrix(where, set_cell(0, 0, [10**400, 0]))
        expected = f"{path}[0][0][0]: expected a real number within float range"
        assert parse_error(doc) == expected
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cfg)]) == 1
        assert expected in capsys.readouterr().err

    def test_integers_and_signed_zeros_parse_exactly(self):
        doc, _ = with_matrix("generators", lambda m: m.__setitem__(0, [[2**63 + 1, -0.0], [0, 2**70]]))
        x = parse_config(doc).spec.generators[0]
        assert x[0, 0] == complex(2**63 + 1, -0.0) and np.signbit(x[0, 0].imag)
        assert x[0, 1] == complex(0, 2**70) and x.dtype == complex

    def test_valid_stacks_are_never_walked(self, monkeypatch):
        # the per-cell walk runs only to name a bad cell, never on a good stack
        walked = []
        cell_check = config._parse_complex
        monkeypatch.setattr(config, "_parse_complex", lambda value, path: walked.append(path) or cell_check(value, path))
        cfg = parse_config(spin_document(47))
        assert (cfg.spec.n, cfg.spec.d) == (3, 48)
        assert walked == []
        doc = spin_document(47)
        doc["extension"]["N"][47][0][1] = True
        assert parse_error(doc) == "extension.N[47][0][1]: expected a real number"
        assert walked[-1] == "extension.N[47][0]"


class TestOverrides:
    def test_xi_override(self):
        cfg = with_overrides(config_for_catalog("so2-conj"), xi=0.9)
        assert cfg.extension.xi == 0.9

    def test_perturb_changes_one_entry(self):
        base = config_for_catalog("su2-tr")
        cfg = with_overrides(base, perturb=0.01)
        diff = cfg.spec.generators[0] - base.spec.generators[0]
        assert abs(diff[0, 0] - 0.01) < 1e-15
        assert np.abs(diff).sum() == pytest.approx(0.01)

    @pytest.mark.parametrize("value, expected", [
        (10**400, "expected a real number within float range"),
        ("x", "expected a finite number, got x"),
        (True, "expected a finite number, got True"),
        (float("nan"), "expected a finite number, got nan"),
    ])
    def test_perturb_is_checked_once_and_named(self, value, expected):
        with pytest.raises(ConfigError) as info:
            with_overrides(config_for_catalog("so3"), perturb=value)
        assert str(info.value) == f"--perturb: {expected}"

    @pytest.mark.parametrize("value", [None, 0])
    def test_no_perturbation_leaves_the_generators(self, value):
        base = config_for_catalog("so3")
        assert with_overrides(base, perturb=value).spec is base.spec

    def test_tol_override(self):
        cfg = with_overrides(config_for_catalog("so2-conj"), tol=1e-5)
        assert cfg.tolerances.closure == 1e-5


class TestRunReport:
    @pytest.mark.parametrize("mode", ["exact", "fd"])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_round_trip_identity(self, name, mode):
        report = run_verification(config_for_catalog(name), mode=mode)
        text = emit_machine(report)
        again = parse_machine(text)
        assert again == report
        assert emit_machine(again) == text

    @pytest.mark.parametrize("mode", ["exact", "fd"])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_family_arrays_equal_closure_reports(self, name, mode):
        cfg = config_for_catalog(name)
        report = run_verification(cfg, mode=mode)
        assert "structure_constants" not in json.loads(emit_machine(report))
        for family, rep in closure_reports(cfg, mode).items():
            fam = report.closures[family]
            assert fam["pairs"] == [[p.left, p.right] for p in rep.pairs]
            assert dense(fam["coeffs"]).tolist() == [list(p.coeffs) for p in rep.pairs]
            assert dense(fam["residuals"]).tolist() == [p.residual for p in rep.pairs]
            # the complex fallback: one row per failing pair, in pair order
            assert dense(fam["complex_residuals"]).tolist() == [row.complex_residual for row in rep.fallback]
            complex_coeffs = dense(fam["complex_coeffs"])
            assert complex_coeffs.tolist() == [[[z.real, z.imag] for z in row.complex_coeffs] for row in rep.fallback]
            assert len(complex_coeffs) == sum(r >= fam["tolerance"] for r in dense(fam["residuals"]))
            assert fam["max_complex_residual"] == max(dense(fam["complex_residuals"]), default=0)

    def test_complex_coeffs_kept_for_failing_pairs_only(self):
        report = run_verification(config_for_catalog("su2-tr"))
        for key in ("complex_coeffs", "complex_residuals"):
            rows = {family: len(dense(fam[key])) for family, fam in report.closures.items()}
            assert rows == {"sub-sub": 0, "coset-coset": 2, "sub-coset": 4}
        assert dense(report.closures["sub-coset"]["complex_coeffs"]).shape == (4, 4, 2)
        assert report.closures["sub-sub"]["max_complex_residual"] == 0

    def test_integral_floats_emit_as_integers(self):
        doc = so2_document()
        doc["group"]["generators"] = [[[[-0.0, -0.0], [-1.0, 0.0]], [[1.0, -0.0], [0.0, -0.0]]]]
        report = run_verification(parse_config(doc))
        float_literals, int_literals = [], []
        json.loads(
            emit_machine(report),
            parse_float=lambda s: float_literals.append(s) or float(s),
            parse_int=lambda s: int_literals.append(s) or int(s),
        )
        assert not [s for s in float_literals if float(s).is_integer()]
        assert "-0" not in int_literals
        assert report.generators["subgroup"] == [[[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]]
        assert all(type(v) is int for row in report.generators["subgroup"][0] for z in row for v in z)

    def test_nan_is_never_written(self):
        report = replace(run_verification(config_for_catalog("so2-conj")), xi=float("nan"))
        with pytest.raises(ValueError):
            emit_machine(report)

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("doc", [
        pytest.param([0.5, NAN, 2], id="nan-in-array"),
        pytest.param([[1.0], [-INF]], id="-inf-in-nested-array"),
        pytest.param({"a": {"b": INF}, "c": None}, id="inf-nested-beside-null"),
        pytest.param({"a": [None, NAN]}, id="nan-beside-null-in-array"),
        pytest.param(NAN, id="nan-top-level"),
        pytest.param(INF, id="inf-top-level"),
        pytest.param(-INF, id="-inf-top-level"),
        pytest.param({"n": 2**70}, id="int-2**70"),
        pytest.param([-(2**70)], id="int--2**70"),
        pytest.param({"name": "\ud800"}, id="lone-surrogate-value"),
        pytest.param({"\ud800": 1}, id="lone-surrogate-key"),
    ])
    def test_emit_document_raises_value_error(self, doc):
        # never a TypeError (orjson's own encode error is one), never a document
        with pytest.raises(ValueError) as info:
            emit_document(doc)
        assert not isinstance(info.value, TypeError)

    @pytest.mark.parametrize("doc", [
        pytest.param(None, id="null"),
        pytest.param({"a": None, "b": [None, 1e-9, -0.0, 1.5e-05]}, id="nulls-and-floats"),
        pytest.param({"name": "null", "x": [2**63 - 1, -(2**63), 1e300, 5e-324]}, id="extremes"),
        pytest.param({"name": "\u00e9\u4e2d", "z": [True, False, "tab\t"]}, id="non-ascii"),
    ])
    def test_emit_document_writes_the_values_stdlib_json_writes(self, doc):
        text = emit_document(doc)
        assert "\n" not in text
        assert json.loads(text) == doc and oracle.canonical(json.loads(text)) == oracle.canonical(doc)

    def test_emitted_document_is_valid_json(self):
        report = run_verification(config_for_catalog("su2-tr"))
        doc = json.loads(emit_machine(report))
        assert doc["schema"] == 8
        assert doc["classification"] == "b"
        assert doc["a0_sign"] == -1
        assert doc["dimension"]["computed"] == 7
        assert set(doc["closures"]) == {"sub-sub", "coset-coset", "sub-coset"}

    def test_determinism(self):
        r1 = run_verification(config_for_catalog("su2-tr"))
        r2 = run_verification(config_for_catalog("su2-tr"))
        assert emit_machine(r1) == emit_machine(r2)

    def test_no_wall_time_in_machine_report(self):
        report = run_verification(config_for_catalog("so2-conj"))
        assert "wall" not in emit_machine(report)

    def test_human_format_mentions_key_results(self):
        report = run_verification(config_for_catalog("so2-conj"))
        text = format_human(report)
        assert "a-type" in text
        assert "algebra dimension: 2" in text
        assert "overall: PASS" in text

    def test_verification_without_extension_rejected(self):
        cfg = parse_config({"group": "so2-conj", "extension": {}})
        with pytest.raises(ConfigError, match=r"^extension: required for this command but absent$"):
            run_verification(cfg)

    def test_fd_mode_report(self):
        report = run_verification(config_for_catalog("so2-conj"), mode="fd")
        assert report.mode == "fd"
        assert report.passed
        assert report.generators["fd_max_abs_diff"] < 1e-6
        assert "fd vs exact" in format_human(report)

    def test_exact_mode_report_has_no_fd_comparison(self):
        report = run_verification(config_for_catalog("so2-conj"))
        assert report.mode == "exact"
        assert report.generators["fd_max_abs_diff"] is None
        assert "fd vs exact" not in format_human(report)


def doubled_from_report(doc: dict):
    """The generator stacks of a report (schema 4 on): its d x d blocks, doubled
    to blockdiag(X, X) and blockdiag(X', -X') when the classification is b."""
    sub, coset = (dense(doc["generators"][key]).view(complex)[..., 0] for key in ("subgroup", "coset"))
    if doc["classification"] == "a":
        return sub, coset
    zs, zc = np.zeros_like(sub), np.zeros_like(coset)
    return np.block([[sub, zs], [zs, sub]]), np.block([[coset, zc], [zc, -coset]])


class TestSchema4Generators:
    @pytest.mark.parametrize("name", ["su2-tr", "so3", "spin3-2"])
    def test_doubled_stacks_round_trip(self, name):
        cfg = parse_config(spin_document(3)) if name == "spin3-2" else config_for_catalog(name)
        n, d = cfg.spec.n, cfg.spec.d
        doc = json.loads(emit_machine(run_verification(cfg)))
        assert doc["schema"] == 8
        assert dense(doc["generators"]["subgroup"]).shape == (n, d, d, 2)
        assert dense(doc["generators"]["coset"]).shape == (n + 1, d, d, 2)
        basis = generator_basis(cfg.spec, cfg.extension)
        sub, coset = doubled_from_report(doc)
        # exact values; the report writes every zero as 0 (as schema 3 did),
        # so signed zeros are pinned in memory by test_b_type_doubling_keeps_signed_zeros
        assert sub.dtype == basis.subgroup.dtype and np.array_equal(sub, basis.subgroup)
        assert coset.dtype == basis.coset.dtype and np.array_equal(coset, basis.coset)


SPARSE_CONFIGS = {
    **{name: config_for_catalog(name) for name in CATALOG_NAMES},
    **{f"su{n}": parse_config(su_document(n)) for n in (2, 3, 4)},
    **{f"spin{two_j}-2": parse_config(spin_document(two_j)) for two_j in (1, 2, 3, 15)},
}
SPARSE_INPUTS = [(name, "exact") for name in SPARSE_CONFIGS] + [(name, "fd") for name in CATALOG_NAMES]


def assert_decodes_to(value, expected):
    """dense(value) is expected exactly; an empty array's dense form keeps no shape."""
    got, complex_axis = dense(value), (2,) * (expected.dtype.kind == "c")
    assert got.shape == expected.shape + complex_axis or got.size == expected.size == 0
    got = got.reshape(expected.shape + complex_axis)
    assert np.array_equal(got.view(complex)[..., 0] if complex_axis else got, expected)


class TestSchema6Arrays:
    @pytest.mark.parametrize("name, mode", SPARSE_INPUTS)
    def test_no_report_grows_and_every_array_decodes(self, name, mode):
        cfg = SPARSE_CONFIGS[name]
        text = emit_machine(run_verification(cfg, mode=mode))
        doc = json.loads(text)
        assert len(text) <= len(emit_document(oracle.densified(doc)))
        tol = cfg.tolerances
        basis = generator_basis(cfg.spec, cfg.extension, mode=mode, step=tol.fd_step, agree=tol.fd_agree)
        assert_decodes_to(doc["generators"]["subgroup"], basis.subgroup_blocks)
        assert_decodes_to(doc["generators"]["coset"], basis.coset_blocks)
        for family, rep in closure_reports(cfg, mode).items():
            fam, pairs = doc["closures"][family], rep.pairs
            assert_decodes_to(fam["pairs"], np.stack([pairs["left"], pairs["right"]], axis=-1))
            assert_decodes_to(fam["coeffs"], pairs["coeffs"])
            assert_decodes_to(fam["residuals"], pairs["residual"])
            assert_decodes_to(fam["complex_residuals"], rep.fallback["complex_residual"])
            assert_decodes_to(fam["complex_coeffs"], rep.fallback["complex_coeffs"])

    def test_zeros_are_left_out_of_a_banded_stack(self):
        # spin 15/2 (d = 16): every generator block is banded or antidiagonal
        doc = json.loads(emit_machine(run_verification(SPARSE_CONFIGS["spin15-2"])))
        coset = doc["generators"]["coset"]
        assert coset["shape"] == [4, 16, 16, 2]
        assert 0 not in coset["value"] and coset["index"] == sorted(coset["index"])
