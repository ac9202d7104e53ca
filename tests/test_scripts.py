"""The scripts run in-process against the library they demonstrate."""
import hashlib
import importlib.util
import json
import re
from pathlib import Path

from coreplie import CATALOG_NAMES, emit_machine, run_verification
from coreplie.cli import main
from coreplie.config import with_overrides

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_catalog_checks_fails_on_su2_tr_only(capsys):
    assert load_script("run_catalog_checks").main() == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[0] for row in rows] == list(CATALOG_NAMES)
    assert [row[0] for row in rows if row[-1] == "FAIL"] == ["su2-tr"]


def test_report_digest_phases_change_only_their_echo():
    # every input and mode: the phased report equals the (0, 0) one bit for bit
    # outside the echoed xi and delta_alpha0
    digest = load_script("report_digest")
    zero, phased = digest.PHASES
    for cfg in digest.configs():
        for mode in digest.MODES:
            base = run_verification(with_overrides(cfg, *zero), mode=mode).to_dict()
            moved = run_verification(with_overrides(cfg, *phased), mode=mode).to_dict()
            assert (moved.pop("xi"), moved.pop("delta_alpha0")) == phased
            assert (base.pop("xi"), base.pop("delta_alpha0")) == zero
            assert moved == base, f"{cfg.spec.name}/{mode}"


def test_report_digest_prints_one_sha256_per_report(capsys):
    digest = load_script("report_digest")
    assert digest.main() == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len({key for key, _, _ in lines}) == len(lines) == 180
    assert all(re.fullmatch(r"[0-9a-f]{64}", sha) for _, sha, _ in lines)
    assert [key for key, _, _ in lines[:8]] == [
        "so2-conj/exact/0,0", "so2-conj/exact/0.7,-1.3", "so2-conj/fd/0,0", "so2-conj/fd/0.7,-1.3",
        "so2-conj/classify", "so2-conj/generators/exact", "so2-conj/generators/fd", "so2-conj/commutators",
    ]
    assert [key for key, _, _ in lines[8:12]] == [
        "so2-conj/verify/exact/human", "so2-conj/verify/fd/human", "so2-conj/generators/human",
        "so2-conj/commutators/human",
    ]
    # the sha256 of the values in stdlib json's canonical spelling, then the
    # length in bytes of the text as the encoder wrote it
    first = emit_machine(run_verification(next(digest.configs())))
    canonical = json.dumps(json.loads(first), sort_keys=True, separators=(",", ":"))
    assert lines[0][1:] == [hashlib.sha256(canonical.encode()).hexdigest(), str(len(first.encode()))]
    assert all(size.isdigit() for _, _, size in lines)


def test_report_digest_reads_the_command_lines_machine_stdout(capsys):
    digest = load_script("report_digest")
    lines = {key: (sha, int(size)) for key, sha, size in digest.digests()}
    assert main(["commutators", "--group", "su2-tr", "--format", "machine"]) == 0
    out = capsys.readouterr().out
    canonical = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    assert lines["su2-tr/commutators"] == (hashlib.sha256(canonical.encode()).hexdigest(), len(out.encode()))


def test_report_digest_reads_the_human_stdout_without_its_wall_time(capsys):
    digest = load_script("report_digest")
    lines = {key: (sha, int(size)) for key, sha, size in digest.digests()}
    assert main(["verify", "--group", "su2-tr", "--mode", "fd"]) == 3
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("wall time: ")
    kept = out[:out.rindex("wall time: ")]
    assert lines["su2-tr/verify/fd/human"] == (hashlib.sha256(kept.encode()).hexdigest(), len(kept.encode()))
    assert main(["commutators", "--group", "su2-tr"]) == 0
    out = capsys.readouterr().out
    assert lines["su2-tr/commutators/human"] == (hashlib.sha256(out.encode()).hexdigest(), len(out.encode()))
