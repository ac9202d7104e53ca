import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from coreplie import (
    catalog_entry,
    emit_machine,
    generator_basis,
    group_core,
    parse_config,
    run_verification,
    sub_sub_closure_report,
    verify_coset_coset_closure,
    verify_mixed_closure,
)
from coreplie.cli import _build_parser, _load, main
from coreplie.report import dense, emit_document

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import config_document, spin_document, su_document  # noqa: E402

SO2_GEN = [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]
EYE2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
BAD_N = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]


# `verify --group su2-tr` in human form, without its wall-time line; a
# complex residual is printed on the failing pairs only
SU2_TR_HUMAN = """\
group su2-tr (n=3, d=2, mode=exact)
classification: b-type, a0^2 sign -1
xi = 0, delta_alpha0 = 0
closure families:
  family sub-sub: PASS (max residual 2.22045e-16, tolerance 1e-09, complex fallback max 0)
    (0,1): residual 1.11022e-16  coeffs [0, 0, -1]
    (0,2): residual 2.22045e-16  coeffs [0, 1, 0]
    (1,2): residual 1.11022e-16  coeffs [-1, 0, 0]
  family coset-coset: FAIL (max residual 2, tolerance 1e-09, complex fallback max 4.44089e-16)
    (0,1): residual 2  coeffs [0, 0, 0]  complex residual 4.44089e-16
    (0,2): residual 0  coeffs [0, 0, 0]
    (0,3): residual 2  coeffs [0, 0, 0]  complex residual 4.44089e-16
    (1,2): residual 0  coeffs [0, 0, 0]
    (1,3): residual 2.22045e-16  coeffs [0, 1, 0]
    (2,3): residual 0  coeffs [0, 0, 0]
  family sub-coset: FAIL (max residual 2, tolerance 1e-09, complex fallback max 2.22045e-16)
    (0,0): residual 2  coeffs [0, 0, 0, 0]  complex residual 0
    (0,1): residual 1  coeffs [0, 0, 0, 0]  complex residual 2.22045e-16
    (0,2): residual 0  coeffs [0, 0, 0, 0]
    (0,3): residual 0  coeffs [0, 0, 0, 0]
    (1,0): residual 0  coeffs [0, 0, 0, 0]
    (1,1): residual 1.11022e-16  coeffs [0, 0, 0, 1]
    (1,2): residual 0  coeffs [0, 0, 0, 0]
    (1,3): residual 1.11022e-16  coeffs [0, -1, 0, 0]
    (2,0): residual 2  coeffs [0, 0, 0, 0]  complex residual 2.22045e-16
    (2,1): residual 0  coeffs [0, 0, 0, 0]
    (2,2): residual 0  coeffs [0, 0, 0, 0]
    (2,3): residual 1  coeffs [0, 0, 0, 0]  complex residual 2.22045e-16
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

    @pytest.mark.parametrize("command, exit_code", [
        ("classify", 0), ("generators", 0), ("commutators", 0), ("verify", 3), ("report", 3),
    ])
    def test_a0_squared_once(self, capsys, monkeypatch, command, exit_code):
        calls = []
        original = group_core.a0_square_sign

        def counting(ext):
            calls.append(1)
            return original(ext)

        def no_compose(a, b):
            raise AssertionError("classification builds no group elements")

        monkeypatch.setattr(group_core, "a0_square_sign", counting)
        monkeypatch.setattr(group_core, "compose", no_compose)
        code, out, _ = run(capsys, command, "--group", "su2-tr")
        assert code == exit_code
        assert command != "classify" or out == "group su2-tr: b-type coirrep, a0^2 sign -1\n"
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["classify", "verify", "generators", "commutators"])
    def test_nearly_singular_n_is_an_inconsistent_extension(self, capsys, tmp_path, command):
        # N = diag(1, 1e-6) is invertible, but N conj(N) = diag(1, 1e-12) is not +-E
        doc = {
            "group": {"n": 1, "d": 2, "generators": [SO2_GEN]},
            "extension": {"N": [[[1, 0], [0, 0]], [[0, 0], [1e-6, 0]]]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "error: inconsistent extension: N * conj(N) is not plus or minus identity\n"


class TestGenerators:
    def test_so2_listing(self, capsys):
        code, out, _ = run(capsys, "generators", "--group", "so2-conj", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "a"
        assert doc["subgroup"] == [[[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]]
        coset = doc["coset"]
        # X'_0 = i E, X'_1 = X_1
        assert coset[0] == [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]
        assert coset[1] == doc["subgroup"][0]

    def test_type_b_listing_holds_the_blocks(self, capsys):
        code, out, _ = run(capsys, "generators", "--group", "su2-tr", "--format", "machine")
        doc = json.loads(out)
        assert (code, doc["schema"], doc["classification"]) == (0, 8, "b")
        assert dense(doc["subgroup"]).shape == (3, 2, 2, 2)
        assert dense(doc["coset"]).shape == (4, 2, 2, 2)

    def test_machine_listing_without_extension(self, capsys, tmp_path):
        path = tmp_path / "noext.json"
        path.write_text(json.dumps({"group": "so2-conj", "extension": {}}))
        code, out, _ = run(capsys, "generators", "--config", str(path), "--format", "machine")
        doc = json.loads(out)
        assert (code, doc["classification"], doc["coset"]) == (0, None, None)

    def test_modes_agree(self, capsys):
        _, exact_out, _ = run(capsys, "generators", "--group", "su2-tr", "--format", "machine")
        _, fd_out, _ = run(
            capsys, "generators", "--group", "su2-tr", "--mode", "fd", "--format", "machine"
        )
        exact = json.loads(exact_out)
        fd = json.loads(fd_out)
        for family in ("subgroup", "coset"):
            assert np.abs(dense(exact[family]) - dense(fd[family])).max() < 1e-6

    # sha256 of `generators --mode fd --format machine` stdout, recorded before
    # the fd-agree gate moved into generator_basis: passing the gate changes no
    # byte. The pins are schema-5 documents as stdlib json spelled them; a later
    # one is compared with every array rewritten dense under its old schema
    # number, in that spelling.
    FD_LISTING_SHA256 = {
        "so2-conj": "e664de4c9916fa32d19fe4acb1791fd5729052ffc83a77fe77ef09cd15cccd9a",
        "su2-tr": "dd2e1163a8e87366169a972ad4260a80f9b3b8b57ed834650c4a878bfb7af91d",
        "u1": "19e1957204864bb878cc51cfc831ca4257f7308681465dfc9ba7fac23b874fe7",
        "so3": "7e7ed2c96119d4dd393c8460bdc336aceed1c2601f5b33b3a2fc9becc6320e86",
    }

    @pytest.mark.parametrize("group", sorted(FD_LISTING_SHA256))
    def test_fd_listing_bytes_unchanged(self, capsys, group):
        code, out, _ = run(capsys, "generators", "--group", group, "--mode", "fd", "--format", "machine")
        doc = json.loads(out)
        assert doc["schema"] == 8
        text = oracle.canonical({**oracle.densified(doc), "schema": 5}) + "\n"
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == (0, self.FD_LISTING_SHA256[group])

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
        code, out, err = run(capsys, "verify", "--config", str(path), flag, value)
        assert (code, out) == (1, "")
        assert "extension." + flag[2:] in err


class TestCommutators:
    def test_su2_structure_constants(self, capsys):
        code, out, _ = run(capsys, "commutators", "--group", "su2-tr", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"schema", "command", "group", "closures"}
        block = doc["closures"]["sub-sub"]
        assert block["pairs"][0] == [0, 1]
        assert abs(dense(block["coeffs"])[0, 2] + 1.0) < 1e-9
        assert block["passed"] is True

    # sha256 and exit code of `commutators` human stdout; su3 and spin3-2 are
    # perfbench inputs. The type-b entries (su2-tr, spin3-2) were re-recorded when
    # the command moved to the coirrep's generators: their residuals scale by sqrt(2)
    HUMAN_SHA256 = {
        ("so2-conj", None): (0, "dce5d1a0f4bd8b48529ca680bef2c85cf1363a8d18d7093e0948ca184b2965e3"),
        ("so3", None): (0, "556eeffab44bc40219dcfe897d6ed40fd4b3fff23c17cb9274f27615c3480a43"),
        ("so3", "1e-2"): (3, "f1260109528a02585979d4ba074683b57601ca2847744f93d7d78217839b8fb8"),
        ("su2-tr", None): (0, "5e4bcdce446c0ae1d035672f23b61cc30b71f062f2d563c47555707e554204e8"),
        ("su2-tr", "1e-2"): (3, "ce73e50f2643fe399f8619d0f4615484157d1e0f92407e77c717888caae3651d"),
        ("u1", None): (0, "2fc6e8c3b88ad7a69084c967a6eb979def00bc637cb9ddc6241776d125065bb3"),
        ("su3", None): (0, "85a8a55b72b35bcc2abb2c24adec0b59e9a25308e3a38b6f455d02aa5d1dff6b"),
        ("su3", "1e-2"): (3, "7fd6b37400874723f43dcecc5dd92f11b97b23deb68ac0d57831aa41621e2133"),
        ("spin3-2", None): (0, "0077d7c09e019330bf05c32a510382d4523aa71508f13ddf29758a649f02a01f"),
        ("spin3-2", "1e-2"): (3, "b9d863e142245f2e162749cf1d48e965935ce33fa10a7cc2158a07c080599ff3"),
    }

    @staticmethod
    def source(tmp_path, name, perturb=None) -> tuple:
        """Command-line source and --perturb flags of a catalog name, su3 or spin3-2."""
        documents = {"su3": su_document(3), "spin3-2": spin_document(3)}
        flags = ("--perturb", perturb) if perturb else ()
        if name not in documents:
            return ("--group", name, *flags)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(documents[name]))
        return ("--config", str(path), *flags)

    @pytest.mark.parametrize("name, perturb", sorted(HUMAN_SHA256, key=str))
    def test_matches_report_structure_constants(self, capsys, tmp_path, name, perturb):
        source = self.source(tmp_path, name, perturb)
        _, out, _ = run(capsys, "commutators", *source, "--format", "machine")
        _, report_out, _ = run(capsys, "report", *source)
        block = json.loads(out)["closures"]["sub-sub"]
        # the block decodes to the sub-sub report of the coirrep's generators
        cfg = _load(_build_parser().parse_args(["commutators", *source]))
        rep = sub_sub_closure_report(generator_basis(cfg.spec, cfg.extension))
        assert block["pairs"] == [[p.left, p.right] for p in rep.pairs]
        assert np.array_equal(dense(block["coeffs"]).reshape(rep.pairs["coeffs"].shape), rep.pairs["coeffs"])
        assert np.array_equal(dense(block["residuals"]), rep.pairs["residual"])
        # and is the report's sub-sub family, byte for byte
        assert emit_document(block) == emit_document(json.loads(report_out)["closures"]["sub-sub"])

    @pytest.mark.parametrize("name, perturb", sorted(HUMAN_SHA256, key=str))
    def test_human_bytes_unchanged(self, capsys, tmp_path, name, perturb):
        code, out, _ = run(capsys, "commutators", *self.source(tmp_path, name, perturb))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == self.HUMAN_SHA256[name, perturb]
        assert ("FAIL" in out) == (code == 3)

    def test_exits_3_with_verify_on_a_type_b_perturbation(self, capsys):
        # 8.2e-10 on an upper block is 1.16e-9 > 1e-9 on the doubled generators,
        # whose sub-sub family both commands read
        for command in ("commutators", "verify"):
            code, out, _ = run(capsys, command, "--group", "su2-tr", "--perturb", "8.2e-10", "--format", "machine")
            assert (code, json.loads(out)["closures"]["sub-sub"]["passed"]) == (3, False)


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

    # the order-one real residual of each failing family's worst pair, as printed
    FAILURES = {
        "su2-tr": {"coset-coset": "2", "sub-coset": "2"},
        "spin2-2": {"coset-coset": "2.82843", "sub-coset": "2.82843"},
    }

    @pytest.mark.parametrize("name", sorted(FAILURES))
    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_exit_3_names_each_failing_familys_worst_pair_on_stderr(self, capsys, tmp_path, command, name):
        if name == "su2-tr":
            cfg, source = parse_config({"group": name}), ("--group", name)
        else:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(spin_document(2)))
            cfg, source = parse_config(spin_document(2)), ("--config", str(path))
        # stdout is the machine report alone (report prints no other format)
        code, out, err = run(capsys, command, *source, *(("--format", "machine") if command == "verify" else ()))
        assert (code, out) == (3, emit_machine(run_verification(cfg)) + "\n")
        basis = generator_basis(cfg.spec, cfg.extension)
        expected = []
        for rep in (verify_coset_coset_closure(basis), verify_mixed_closure(basis)):
            residuals = rep.pairs["residual"]
            worst = next(i for i, r in enumerate(residuals) if residuals.max() - r <= rep.tolerance)
            (row,) = rep.fallback[rep.fallback["pair"] == worst]
            p = rep.pairs[worst]
            assert format(p.residual, ".6g") == self.FAILURES[name][rep.family]
            expected.append(f"closure failure: family {rep.family}, worst pair ({p.left},{p.right}): "
                            f"residual {p.residual:.6g}, complex fallback residual {row.complex_residual:.6g}")
        assert err.splitlines() == expected

    def test_exact_and_fd_mode_name_the_same_worst_pairs(self, capsys):
        # su2-tr's order-one residuals tie up to round-off, which differs between the modes,
        # as do the complex residuals: compare the named pairs only
        named = []
        for mode in ("exact", "fd"):
            code, _, err = run(capsys, "verify", "--group", "su2-tr", "--mode", mode)
            named.append((code, [line.split(":")[1] for line in err.splitlines()]))
        assert named[0] == named[1] == (3, [" family coset-coset, worst pair (0,1)",
                                            " family sub-coset, worst pair (0,0)"])

    def test_passing_run_writes_no_stderr(self, capsys):
        assert run(capsys, "verify", "--group", "so3")[::2] == (0, "")

    # 1e308 is finite but swamps every other entry: the perturbed generators are dependent
    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    def test_non_finite_perturb_exits_1(self, capsys, value):
        code, out, err = run(capsys, "verify", "--group", "so3", "--perturb", value)
        assert (code, out) == (1, "")
        assert "--perturb" in err

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

    def test_phases_change_only_their_echo(self, capsys):
        _, base_out, _ = run(capsys, "verify", "--group", "su2-tr", "--format", "machine")
        _, phased_out, _ = run(
            capsys, "verify", "--group", "su2-tr", "--xi", "-0.4", "--delta-alpha0", "0.9",
            "--format", "machine",
        )
        base = json.loads(base_out)
        phased = json.loads(phased_out)
        assert (phased.pop("xi"), phased.pop("delta_alpha0")) == (-0.4, 0.9)
        assert (base.pop("xi"), base.pop("delta_alpha0")) == (0, 0)
        assert phased == base

    @pytest.mark.parametrize("group, worst", [("so2-conj", "X'_0"), ("u1", "X_1")])
    def test_fd_agree_gates_fd_mode_only(self, capsys, tmp_path, group, worst):
        # the stencil misses the exact generators by about 8e-13, far above
        # 1e-20; every command that takes --mode applies the gate, with one message
        path = tmp_path / "tight.json"
        path.write_text(json.dumps({"group": group, "tolerances": {"fd-agree": 1e-20}}))
        errors = set()
        for command in ("generators", "verify", "report"):
            code, out, err = run(capsys, command, "--config", str(path), "--mode", "fd")
            assert (code, out) == (4, ""), command
            assert f"at {worst} (tolerances.fd-agree 1e-20)" in err
            errors.add(err)
            assert run(capsys, command, "--config", str(path))[0] == 0, command
        assert len(errors) == 1

    def test_exact_verdict_does_not_depend_on_the_stencil(self, capsys, tmp_path):
        # so3 scaled by 1e4: the fixed fd step 1e-4 cannot converge on these
        # curves, and exact mode differentiates none of them
        spec, ext = catalog_entry("so3")
        generators, n_matrix = (
            np.stack([a.real, a.imag], axis=-1).tolist() for a in (1e4 * spec.generators, ext.N)
        )
        path = tmp_path / "so3-1e4.json"
        path.write_text(json.dumps({
            "group": {"n": 3, "d": 3, "generators": generators},
            "extension": {"N": n_matrix, "s": ext.s},
            "tolerances": {"closure": 1e-6},
        }))
        code, out, _ = run(capsys, "verify", "--config", str(path), "--format", "machine")
        assert (code, json.loads(out)["dimension"]["computed"]) == (0, 4)
        code, out, err = run(capsys, "verify", "--config", str(path), "--mode", "fd")
        assert (code, out) == (4, "")
        assert "did not converge" in err

    def test_negative_tol_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "--group", "so3", "--tol", "-1")
        assert code == 1
        assert "tolerances.closure" in err

    def test_verify_requires_extension(self, capsys, tmp_path):
        path = tmp_path / "noext.json"
        path.write_text(json.dumps({"group": "so2-conj", "extension": {}}))
        code, _, err = run(capsys, "verify", "--config", str(path))
        assert code == 1
        assert err == "config error: extension: required for this command but absent\n"


class TestMachineDocuments:
    @pytest.mark.parametrize("group", ["so3", "su2-tr"])
    @pytest.mark.parametrize(
        "command", ["classify", "generators", "commutators", "verify", "report"]
    )
    def test_output_is_canonical_json(self, capsys, command, group):
        fmt = () if command == "report" else ("--format", "machine")
        _, out, _ = run(capsys, command, "--group", group, *fmt)
        objects = []
        doc = json.loads(out, object_pairs_hook=lambda pairs: objects.append([k for k, _ in pairs]) or dict(pairs))
        assert out == emit_document(doc) + "\n"
        assert objects and all(keys == sorted(keys) for keys in objects)

    @pytest.mark.parametrize("command", ["classify", "generators", "commutators", "verify", "report"])
    def test_lone_surrogate_name_is_a_config_error(self, capsys, tmp_path, command):
        # the name enters every machine document, which cannot hold a lone surrogate;
        # json.dumps writes it as the escape \ud800
        doc = {"group": {"name": "\ud800", "n": 1, "d": 2, "generators": [SO2_GEN]},
               "extension": {"N": EYE2, "s": 1}}
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(doc))
        assert "\\ud800" in path.read_text()
        code, out, err = run(capsys, command, "--config", str(path))
        assert (code, out) == (1, "")
        assert err == "config error: group.name: expected valid UTF-8 text, got surrogates not allowed at index 0\n"


class TestOverflow:
    """so3 generators times 1e100 have brackets whose norm overflows; times 1e160
    the brackets themselves do. Either is one ValueError, decided where the
    brackets are made, so every command exits 1 in both formats."""

    @pytest.fixture(params=[100, 160], ids=["1e100", "1e160"])
    def path(self, request, tmp_path):
        spec, ext = catalog_entry("so3")
        doc = config_document("so3-big", spec.generators * 10.0**request.param, ext.N)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    @pytest.mark.parametrize("command", ["verify", "report", "commutators"])
    def test_exact_mode_exits_1_in_both_formats(self, capsys, path, command, fmt):
        argv = [command, "--config", path] + ([] if command == "report" else ["--format", fmt])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == ("config error: family sub-sub, pair (0,1): "
                       "the bracket or its norm is beyond float range\n")

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_commutators_forms_no_coset_bracket(self, capsys, tmp_path, fmt):
        # so3 times 1e76 with a badly scaled N: the subgroup brackets stay in
        # float range and the coset-coset ones do not, so commutators, which
        # prints the sub-sub family alone, keeps its closure verdict
        spec, _ = catalog_entry("so3")
        n_matrix = np.array([[0, 3e4, 0], [1 / 3e4, 0, 0], [0, 0, 1]])
        path = tmp_path / "so3-1e76.json"
        path.write_text(json.dumps(config_document("so3-1e76", spec.generators * 1e76, n_matrix)))
        code, out, err = run(capsys, "commutators", "--config", str(path), "--format", fmt)
        assert (code, err) == (3, "") and out
        code, out, err = run(capsys, "verify", "--config", str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == ("config error: family coset-coset, pair (1,2): "
                       "the bracket or its norm is beyond float range\n")

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    @pytest.mark.parametrize("command", ["verify", "report", "generators"])
    def test_fd_mode_exits_4_in_both_formats(self, capsys, path, command, fmt):
        argv = [command, "--config", path, "--mode", "fd"] + ([] if command == "report" else ["--format", fmt])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("numerical differentiation error: ") and err.count("\n") == 1


class TestReportCommand:
    def test_report_is_machine_json(self, capsys):
        code, out, _ = run(capsys, "report", "--group", "so2-conj")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 8

    def test_report_matches_verify_machine_output(self, capsys):
        _, verify_out, _ = run(capsys, "verify", "--group", "so3", "--format", "machine")
        _, report_out, _ = run(capsys, "report", "--group", "so3")
        assert verify_out == report_out


class TestCommandLine:
    COMMON = {"-h", "--help", "--config", "--group"}
    PHASES = {"--xi", "--delta-alpha0"}

    def test_each_subcommand_takes_only_the_options_it_uses(self):
        # --mode only where an extraction feeds the output, --format only
        # where there is a human form, --tol only where closure is checked,
        # --perturb wherever the generators are read, and the phases where
        # the report echoes them and on classify (generators output no phase)
        subparsers = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        options = {
            name: {s for a in p._actions for s in a.option_strings}
            for name, p in subparsers.choices.items()
        }
        assert options == {
            "classify": self.COMMON | self.PHASES | {"--format"},
            "generators": self.COMMON | {"--mode", "--format", "--perturb"},
            "commutators": self.COMMON | {"--format", "--tol", "--perturb"},
            "verify": self.COMMON | self.PHASES | {"--mode", "--format", "--tol", "--perturb"},
            "report": self.COMMON | self.PHASES | {"--mode", "--tol", "--perturb"},
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("classify", "--group", "u1", "--bogus"), "unrecognized arguments: --bogus"),
            (("classify", "--group", "u1", "--mode", "fd"), "unrecognized arguments: --mode fd"),
            (("commutators", "--group", "u1", "--mode", "fd"), "unrecognized arguments: --mode"),
            (("report", "--group", "u1", "--format", "human"), "unrecognized arguments: --format"),
            (("verify", "--group", "u1", "--mode", "slow"), "invalid choice: 'slow'"),
            (("verify",), "one of the arguments --config --group is required"),
            (("frobnicate",), "invalid choice: 'frobnicate'"),
            (("classify", "--group", "so3", "--tol", "1e-3"), "unrecognized arguments: --tol"),
            (("classify", "--group", "so3", "--perturb", "0.5"), "unrecognized arguments: --perturb"),
            (("generators", "--group", "su2-tr", "--tol", "5"), "unrecognized arguments: --tol"),
            (("generators", "--group", "so3", "--xi", "0.3"), "unrecognized arguments: --xi"),
            (("generators", "--group", "so3", "--delta-alpha0", "0.3"), "unrecognized arguments: --delta-alpha0"),
            (("commutators", "--group", "so3", "--xi", "0.3"), "unrecognized arguments: --xi"),
            (("commutators", "--group", "so3", "--delta-alpha0", "0.3"), "unrecognized arguments: --delta-alpha0"),
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "error: " in err and message in err
        assert err.startswith("usage: coreplie")

    # argparse alone reads a negative number in exponent notation, or -inf, as an option
    # ("expected one argument"); each is the option's value, as in the --option=value form
    @pytest.mark.parametrize("head, option, value, code", [
        (("classify", "--group", "so3", "--format", "machine"), "--xi", "-4.7e-06", 0),
        (("generators", "--group", "so3", "--format", "machine"), "--perturb", "-1E+00", 0),
        (("commutators", "--group", "so3", "--format", "machine"), "--perturb", "-4.7e-06", 3),
        (("verify", "--group", "su2-tr", "--format", "machine"), "--xi", "-1E+00", 3),
        (("report", "--group", "su2-tr", "--xi", "2.824213010618929"), "--delta-alpha0", "-4.712069400003571e-06", 3),
        (("report", "--group", "so3"), "--perturb", "-1e-05", 3),
        (("verify", "--group", "so3", "--format", "machine"), "--pert", "-1e-05", 3),  # abbreviated, as argparse allows
        (("report", "--group", "su2-tr", "--xi", "2.824213010618929"), "--delta", "-4.712069400003571e-06", 3),
    ])
    def test_negative_exponent_values_are_values(self, capsys, head, option, value, code):
        got = run(capsys, *head, option, value)
        assert got[0] == code and "expected one argument" not in got[2]
        assert run(capsys, *head, f"{option}={value}") == got
        if head[0] == "report" and option.startswith("--delta"):
            assert json.loads(got[1])["delta_alpha0"] == float(value)

    @pytest.mark.parametrize("command", ["classify", "verify", "report"])
    def test_minus_inf_phase_is_the_config_error(self, capsys, command):
        code, out, err = run(capsys, command, "--group", "so3", "--xi", "-inf")
        assert (code, out) == (1, "")
        assert err == "config error: extension.xi: expected a finite number, got -inf\n"

    def test_a_dashed_word_after_a_number_option_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--group", "so3", "--tol", "-x")
        assert (code, out) == (1, "") and "argument --tol: invalid float value: '-x'" in err

    @pytest.mark.parametrize("argv", [("--help",), ("report", "--help")])
    def test_help_exits_0(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: coreplie")


class TestColdStart:
    def test_report_loads_no_scipy(self):
        """The runtime needs numpy only: a full fd-mode report, fd extraction
        included, runs in a fresh interpreter without importing scipy."""
        script = (
            "import json, sys\n"
            "import coreplie.cli as cli\n"
            "code = cli.main(['report', '--group', 'su2-tr', '--mode', 'fd'])\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "print(json.dumps([code, loaded]), file=sys.stderr)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1]) == [3, []]
