"""The scripts run in-process against the library they demonstrate."""
import hashlib
import importlib.util
import json
import re
import sys
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


def test_report_digest_against_its_own_source_prints_nothing(capsys):
    digest = load_script("report_digest")
    assert digest.main(["--against", str(SCRIPTS.parent / "src")]) == 0
    assert capsys.readouterr().out == ""


def test_report_digest_compare_separates_values_from_discrete_leaves():
    compare = load_script("report_digest").compare
    doc = {"closures": {"sub-coset": {"pairs": [[0, 0], [0, 1]], "residuals": [2.0, 1e-16], "passed": False,
                                      "complex_residuals": [1e-16]}},
           "dimension": {"computed": 7, "classification": "b-full"}}
    assert compare(doc, json.loads(json.dumps(doc))) == (0.0, [])
    moved = json.loads(json.dumps(doc))
    moved["closures"]["sub-coset"]["residuals"] = [2.0 + 4e-13, 0]
    diff, paths = compare(doc, moved)
    assert abs(diff - 4e-13) < 1e-15 and paths == []
    flipped = json.loads(json.dumps(moved))
    flipped["closures"]["sub-coset"].update(passed=True, complex_residuals=[])
    flipped["dimension"].update(computed=6, classification="other")
    flipped["closures"]["sub-coset"]["pairs"][1] = [0, 2]
    diff, paths = compare(doc, flipped)
    assert abs(diff - 4e-13) < 1e-15
    assert paths == ["closures.sub-coset.complex_residuals", "closures.sub-coset.pairs[1][1]",
                     "closures.sub-coset.passed", "dimension.classification", "dimension.computed"]


def test_report_digest_against_lists_each_differing_document(monkeypatch, capsys):
    # both trees' documents stand in for texts(): a value moves, then a verdict flips
    digest = load_script("report_digest")
    mine = [["g/exact/0,0", '{"passed":true,"residual":0.5}', False],
            ["g/verify/exact/human", "PASS\nwall time: 1.0 ms\n", True],
            ["g/verify/fd/human", "PASS\nwall time: 1.0 ms\n", True]]
    theirs = [["g/exact/0,0", '{"passed":true,"residual":0.25}', False],
              ["g/verify/exact/human", "PASS\nwall time: 2.0 ms\n", True],
              ["g/verify/fd/human", "FAIL\nwall time: 1.0 ms\n", True]]
    monkeypatch.setattr(digest, "texts", lambda: iter(mine))
    monkeypatch.setattr(digest, "other_texts", lambda src: theirs)
    assert digest.main(["--against", "other"]) == 0
    assert capsys.readouterr().out == "g/exact/0,0 max-abs-diff 0.25\ng/verify/fd/human text differs\n"
    theirs[0][1] = '{"passed":false,"residual":0.5}'
    assert digest.main(["--against", "other"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "g/exact/0,0 max-abs-diff 0 passed"


def test_pass_faults_prints_one_line_per_workload(capsys):
    # the counts depend on the C library and the machine; only the format is pinned
    assert load_script("pass_faults").main(["--passes", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["catalog-sweep", "su-ladder", "spin-ladder"]
    assert all(re.fullmatch(r"\S+ minflt/pass p50 \d+ max \d+ pass_ms p50 \d+\.\d\d", line) for line in lines)


def result_line(job_ms: float, failed: int = 0) -> str:
    """A perfbench result line (its last stdout line) with the four end-to-end metrics."""
    metrics = {"job_ms.p50": (job_ms, "ms"), "setup_s": (0.2, "s"), "report_kb": (66.9, "KB"), "peak_rss_mb": (43.4, "MB")}
    return json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def paired_runs(bench, parent: list, change: list) -> list:
    """The run records of canned result lines, pair k being (parent[k], change[k])."""
    runs = []
    for pair, lines in enumerate(zip(parent, change)):
        for tree, line in zip(bench.TREES, lines):
            runs.append(bench.record(json.loads(line), pair, 1000 + pair, tree, "parent"))
    return runs


END_TO_END = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]


def test_bench_pairs_summary_judges_each_metric():
    bench = load_script("bench_pairs")
    parent = [12.4, 12.6, 12.5, 12.3, 12.7, 12.5, 12.4, 12.6, 12.5, 12.2]
    change = [11.3, 11.4, 11.2, 11.5, 11.3, 11.1, 11.4, 11.3, 11.2, 12.4]  # the last pair lost
    runs = paired_runs(bench, [result_line(v) for v in parent], [result_line(v) for v in change])
    header, *rows = bench.summary_rows(runs, END_TO_END)
    assert header.split()[:2] == ["metric", "unit"]
    assert [row.split()[0] for row in rows] == ["job_ms.p50", "setup_s", "report_kb", "peak_rss_mb"]
    job = rows[0].split()
    assert job[1] == "ms" and job[-2:] == ["9/10", "gain"]
    assert job[2] == "12.5" and job[5] == "11.3" and job[-3] == "-9.60%"
    assert all(row.endswith("0/10  within bound") for row in rows[1:])  # equal runs: ties win nothing


def test_bench_pairs_verdicts_follow_the_pair_rule():
    judge = load_script("bench_pairs").judge
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]
    # 8 of 10 pairs won is not a gain, however large the median gap
    assert judge(parent, [9.0] * 8 + [11.0] * 2, "lower", 0.25)["verdict"] == "within bound"
    # 10 of 10 won by less than the parent's interquartile range is not a gain either
    assert judge(parent, [p - 0.05 for p in parent], "lower", 0.25)["verdict"] == "within bound"
    assert judge(parent, [p - 0.5 for p in parent], "lower", 0.25)["verdict"] == "gain"
    assert judge(parent, [p + 3.0 for p in parent], "lower", 0.25)["verdict"] == "worse"
    assert judge(parent, [p - 0.5 for p in parent], "higher", 0.25)["verdict"] == "within bound"
    # a parent spread wider than the bound leaves the comparison open
    wide = [1.0, 2.0, 1.0, 2.0, 1.5, 1.0, 2.0, 1.0, 2.0, 1.5]
    assert judge(wide, [v + 0.01 for v in wide], "lower", 0.25)["verdict"] == "unresolved"
    # unless every change run is better than every parent run
    assert judge(wide, [0.5] * 10, "lower", 0.25)["verdict"] == "within bound"
    assert judge(parent[:3], [p - 0.5 for p in parent[:3]], "lower", 0.25)["verdict"] == "gain (<10 pairs)"


def test_bench_pairs_alternates_the_first_side_with_a_fresh_seed_per_pair(tmp_path, capsys):
    # each checkout's benchmark command is a stand-in that logs its arguments
    # and prints a canned result line: the change is 1 ms faster
    log = tmp_path / "calls.txt"
    benchmark = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    for tree, job_ms in (("parent", 12.5), ("change", 11.5)):
        root = tmp_path / tree
        root.mkdir()
        (root / "fake_run.py").write_text(
            "import sys\n"
            f"open({str(log)!r}, 'a').write({tree!r} + ' ' + ' '.join(sys.argv[1:]) + '\\n')\n"
            f"print('summary {{}}')\nprint({result_line(job_ms)!r})\n")
        (root / "BENCHMARK.json").write_text(json.dumps(benchmark | {"command": [sys.executable, "fake_run.py"]}))
    bench = load_script("bench_pairs")
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workload", "su-ladder",
            "--pairs", "3", "--seconds", "2"]
    assert bench.main(args) == 0
    calls = [line.split() for line in log.read_text().splitlines()]
    assert [call[0] for call in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert all(call[1:3] == ["--workload", "su-ladder"] and call[5:] == ["--seconds", "2.0", "--trace", "0"]
               for call in calls)
    seeds = [int(call[4]) for call in calls]
    assert seeds[0] == seeds[1] != seeds[2] == seeds[3] != seeds[4] == seeds[5] != seeds[0]
    out = capsys.readouterr().out.splitlines()
    runs = [json.loads(line.removeprefix("run ")) for line in out if line.startswith("run ")]
    assert [(r["pair"], r["tree"], r["first"]) for r in runs[:3]] == [
        (0, "parent", "parent"), (0, "change", "parent"), (1, "change", "change")]
    assert out[-4].split()[0] == "job_ms.p50" and out[-4].endswith("3/3  gain (<10 pairs)")
    (tmp_path / "change" / "fake_run.py").write_text(f"print({result_line(11.5, failed=1)!r})\n")
    assert bench.main(args) == 1  # a failed operation
