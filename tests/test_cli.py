import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coreplie import group_core
from coreplie.cli import main

SO2_GEN = [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]
EYE2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
BAD_N = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]


# `verify --group su2-tr` in human form, without its wall-time line
SU2_TR_HUMAN = """\
group su2-tr (n=3, d=2, mode=exact)
classification: b-type, a0^2 sign -1
xi = 0, delta_alpha0 = 0
generators: fd vs exact max abs diff 7.89492e-13
closure families:
  family sub-sub: PASS (max residual 2.22045e-16, tolerance 1e-09, complex fallback max 2.28878e-16)
    (0,1): residual 0  coeffs [0, 0, -1]  complex residual 0
    (0,2): residual 2.22045e-16  coeffs [0, 1, 0]  complex residual 2.28878e-16
    (1,2): residual 0  coeffs [-1, 0, 0]  complex residual 0
  family coset-coset: FAIL (max residual 2, tolerance 1e-09, complex fallback max 2.28878e-16)
    (0,1): residual 2  coeffs [0, 0, 0]  complex residual 0
    (0,2): residual 0  coeffs [0, 0, 0]  complex residual 0
    (0,3): residual 2  coeffs [0, 0, 0]  complex residual 0
    (1,2): residual 0  coeffs [0, 0, 0]  complex residual 0
    (1,3): residual 2.22045e-16  coeffs [0, 1, 0]  complex residual 2.28878e-16
    (2,3): residual 0  coeffs [0, 0, 0]  complex residual 0
  family sub-coset: FAIL (max residual 2, tolerance 1e-09, complex fallback max 9.15513e-16)
    (0,0): residual 2  coeffs [0, 0, 0, 0]  complex residual 9.15513e-16
    (0,1): residual 1  coeffs [0, 0, 0, 0]  complex residual 0
    (0,2): residual 0  coeffs [0, 0, 0, 0]  complex residual 0
    (0,3): residual 0  coeffs [0, 0, 0, 0]  complex residual 0
    (1,0): residual 0  coeffs [0, 0, 0, 0]  complex residual 0
    (1,1): residual 0  coeffs [0, 0, 0, 1]  complex residual 2.48253e-16
    (1,2): residual 0  coeffs [0, 0, 0, 0]  complex residual 0
    (1,3): residual 0  coeffs [0, -1, 0, 0]  complex residual 4.57757e-16
    (2,0): residual 2  coeffs [0, 0, 0, 0]  complex residual 4.96507e-16
    (2,1): residual 0  coeffs [0, 0, 0, 0]  complex residual 0
    (2,2): residual 0  coeffs [0, 0, 0, 0]  complex residual 0
    (2,3): residual 1  coeffs [0, 0, 0, 0]  complex residual 0
algebra dimension: 7 (expected 7, b-full)
overall: FAIL"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_so2_conj(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "so2-conj")
        assert code == 0
        assert "a-type" in out and "+1" in out

    def test_su2_tr(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "su2-tr")
        assert code == 0
        assert "b-type" in out and "-1" in out

    def test_machine_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "su2-tr", "--format", "machine")
        doc = json.loads(out)
        assert (code, doc["classification"], doc["a0_sign"]) == (0, "b", -1)

    def test_inconsistent_extension_exits_2(self, capsys, tmp_path):
        cfg = {"group": {"n": 1, "d": 2, "generators": [SO2_GEN]}, "extension": {"N": BAD_N, "s": 1}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "classify", "--config", str(path))
        assert code == 2
        assert "inconsistent extension" in err

    def test_malformed_config_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"group": 7}')
        code, _, err = run(capsys, "classify", "--config", str(path))
        assert code == 1
        assert "config error" in err

    def test_unknown_catalog_group_exits_1(self, capsys):
        code, _, err = run(capsys, "classify", "--group", "mystery")
        assert code == 1
        assert err == (
            "config error: group: unknown catalog name 'mystery' "
            "(known: so2-conj, so3, su2-tr, u1)\n"
        )

    def test_a0_squared_once(self, capsys, monkeypatch):
        calls = []
        original = group_core.compose

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(group_core, "compose", counting)
        code, out, _ = run(capsys, "classify", "--group", "su2-tr")
        assert (code, out) == (0, "group su2-tr: b-type coirrep, a0^2 sign -1\n")
        assert len(calls) == 1


class TestGenerators:
    def test_so2_listing(self, capsys):
        code, out, _ = run(capsys, "generators", "--group", "so2-conj", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["subgroup"] == [[[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]]
        coset = doc["coset"]
        # X'_0 = i E, X'_1 = X_1
        assert coset[0] == [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]
        assert coset[1] == doc["subgroup"][0]

    def test_modes_agree(self, capsys):
        _, exact_out, _ = run(capsys, "generators", "--group", "su2-tr", "--format", "machine")
        _, fd_out, _ = run(
            capsys, "generators", "--group", "su2-tr", "--mode", "fd", "--format", "machine"
        )
        exact = json.loads(exact_out)
        fd = json.loads(fd_out)
        for family in ("subgroup", "coset"):
            for a, b in zip(exact[family], fd[family]):
                diff = np.abs(np.array(a) - np.array(b)).max()
                assert diff < 1e-6

    def test_without_extension_coset_absent(self, capsys, tmp_path):
        path = tmp_path / "noext.json"
        path.write_text(json.dumps({"group": "so2-conj", "extension": {}}))
        code, out, _ = run(capsys, "generators", "--config", str(path))
        assert code == 0
        assert "coset section: absent" in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            pytest.param("--xi", "0.3", id="0.3"),
            pytest.param("--xi", "nan", id="nan"),
            pytest.param("--delta-alpha0", "0.3", id="delta-alpha0-0.3"),
        ],
    )
    def test_xi_without_extension_exits_1(self, capsys, tmp_path, flag, value):
        path = tmp_path / "noext.json"
        path.write_text(json.dumps({"group": "so2-conj", "extension": {}}))
        code, out, err = run(capsys, "generators", "--config", str(path), flag, value)
        assert (code, out) == (1, "")
        assert "extension." + flag[2:] in err


class TestCommutators:
    def test_su2_structure_constants(self, capsys):
        code, out, _ = run(capsys, "commutators", "--group", "su2-tr", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        c = np.array(doc["c"])
        assert abs(c[0, 1, 2] + 1.0) < 1e-9
        assert doc["passed"] is True

    def test_matches_report_structure_constants(self, capsys):
        _, out, _ = run(capsys, "commutators", "--group", "su2-tr", "--format", "machine")
        _, report_out, _ = run(capsys, "report", "--group", "su2-tr")
        c = np.array(json.loads(out)["c"])
        sub_sub = json.loads(report_out)["closures"]["sub-sub"]
        left, right = np.array(sub_sub["pairs"]).T
        ref = np.array(sub_sub["coeffs"])
        assert c[left, right].shape == ref.shape
        assert np.abs(c[left, right] - ref).max() < 1e-12

    def test_perturbation_exits_3(self, capsys):
        code, out, _ = run(capsys, "commutators", "--group", "su2-tr", "--perturb", "1e-2")
        assert code == 3
        assert "FAIL" in out


class TestVerify:
    def test_so2_conj_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "so2-conj")
        assert code == 0
        assert "overall: PASS" in out
        assert "wall time" in out

    def test_su2_tr_real_closure_fails_with_full_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "su2-tr", "--format", "machine")
        assert code == 3
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["closures"]["coset-coset"]["max_residual"] == pytest.approx(2.0)
        assert doc["closures"]["coset-coset"]["max_complex_residual"] < 1e-12
        assert doc["dimension"]["computed"] == 7

    def test_perturbation_drives_closure_failure(self, capsys):
        base_code, base_out, _ = run(capsys, "verify", "--group", "so3", "--format", "machine")
        assert base_code == 0
        code, out, _ = run(
            capsys, "verify", "--group", "so3", "--perturb", "0.01", "--format", "machine"
        )
        assert code == 3
        doc = json.loads(out)
        all_res = [doc["closures"][fam]["max_residual"] for fam in doc["closures"]]
        assert max(all_res) > 1e-4

    def test_su2_tr_human_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "su2-tr")
        lines = out.splitlines()
        assert code == 3
        assert lines[-1].startswith("wall time: ")
        assert "\n".join(lines[:-1]) == SU2_TR_HUMAN

    def test_determinism_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--group", "su2-tr", "--format", "machine")
        _, out2, _ = run(capsys, "verify", "--group", "su2-tr", "--format", "machine")
        assert out1 == out2

    def test_xi_value_recorded(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--group", "so2-conj", "--xi", "0.77", "--format", "machine"
        )
        assert code == 0
        assert json.loads(out)["xi"] == 0.77

    def test_delta_alpha0_is_pure_phase_for_residuals(self, capsys):
        _, base_out, _ = run(capsys, "verify", "--group", "su2-tr", "--format", "machine")
        _, phased_out, _ = run(
            capsys, "verify", "--group", "su2-tr", "--delta-alpha0", "0.9", "--format", "machine"
        )
        base = json.loads(base_out)
        phased = json.loads(phased_out)
        assert phased["delta_alpha0"] == 0.9
        for fam in base["closures"]:
            a = base["closures"][fam]["residuals"]
            b = phased["closures"][fam]["residuals"]
            assert np.abs(np.array(a) - np.array(b)).max() < 1e-12

    def test_negative_tol_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "--group", "so3", "--tol", "-1")
        assert code == 1
        assert "tolerances.closure" in err

    def test_verify_requires_extension(self, capsys, tmp_path):
        path = tmp_path / "noext.json"
        path.write_text(json.dumps({"group": "so2-conj", "extension": {}}))
        code, _, err = run(capsys, "verify", "--config", str(path))
        assert code == 1
        assert "extension" in err


class TestMachineDocuments:
    @pytest.mark.parametrize("group", ["so3", "su2-tr"])
    @pytest.mark.parametrize(
        "command", ["classify", "generators", "commutators", "verify", "report"]
    )
    def test_output_is_canonical_json(self, capsys, command, group):
        _, out, _ = run(capsys, command, "--group", group, "--format", "machine")
        text = out.rstrip("\n")
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


class TestReportCommand:
    def test_report_is_machine_json(self, capsys):
        code, out, _ = run(capsys, "report", "--group", "so2-conj")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 3

    def test_report_matches_verify_machine_output(self, capsys):
        _, verify_out, _ = run(capsys, "verify", "--group", "so3", "--format", "machine")
        _, report_out, _ = run(capsys, "report", "--group", "so3")
        assert verify_out == report_out


class TestColdStart:
    def test_report_loads_no_scipy(self):
        """The runtime needs numpy only: a full report, fd extraction included,
        runs in a fresh interpreter without importing scipy."""
        script = (
            "import json, sys\n"
            "import coreplie.cli as cli\n"
            "code = cli.main(['report', '--group', 'su2-tr'])\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "print(json.dumps([code, loaded]), file=sys.stderr)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1]) == [3, []]
