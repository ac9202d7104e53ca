"""The verify path's workspace: nothing a call returns or caches is a view into
it, a later run leaves earlier results as they were, and each thread has its own."""
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from coreplie import (
    CATALOG_NAMES,
    algebra_dimension,
    closure_reports,
    emit_machine,
    generator_basis,
    parse_config,
    run_verification,
)
from coreplie import algebra, matrices

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import spin_document, su_document  # noqa: E402

SLOTS = {"table", "rows", "rest-f", "rest-c"}


def config(name):
    """The config of a catalog group, or of su<n> or spin<2j>-2, named as perfbench names them."""
    if name in CATALOG_NAMES:
        return parse_config({"group": name})
    return parse_config(su_document(int(name[2:])) if name.startswith("su") else spin_document(int(name[4:-2])))


def slots() -> dict:
    """This thread's workspace arrays, by slot."""
    return dict(vars(matrices._workspace))


def returned_arrays(basis, reports, dim):
    """Every array a verification handed back or cached on its basis and spans."""
    arrays = [basis.x_stack, dim.singular_values] + ([] if dim.certificate is None else [dim.certificate])
    for rep in reports:
        arrays += [rep.pairs, rep.fallback]
    for span in (basis.subgroup_span, basis.coset_span):
        arrays += [span.stack, span._rows, *span.svd, *span._real[:2]]
        if "_complex" in vars(span):
            arrays += list(span._complex[:2])
    return arrays


def in_new_thread(fn):
    """fn() run in a thread of its own, and that thread's workspace arrays once it returned."""
    out = {}
    worker = threading.Thread(target=lambda: out.update(result=fn(), slots=slots()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return out["result"], out["slots"]


# the inputs that close have no failing pair, so no complex remainder to write
WRITTEN = {"so2-conj": SLOTS - {"rest-c"}, "su2-tr": SLOTS, "u1": SLOTS - {"rest-c"}, "su5": SLOTS - {"rest-c"},
           "spin47-2": SLOTS}
INPUTS = [("so2-conj", "exact"), ("so2-conj", "fd"), ("su2-tr", "exact"), ("su2-tr", "fd"), ("u1", "exact"),
          ("u1", "fd"), ("su5", "exact"), ("spin47-2", "exact")]


@pytest.mark.parametrize("name, mode", INPUTS)
def test_no_returned_or_cached_array_is_a_workspace_view(name, mode, monkeypatch):
    # every array the workspace hands out, also from a slot that later grew, kept
    # alive so that no other array can take over its memory
    handed, original = [], matrices.workspace

    def recording(*args):
        handed.append(original(*args))
        return handed[-1]

    for module in (matrices, algebra):
        monkeypatch.setattr(module, "workspace", recording)

    def verify():
        cfg = config(name)
        basis = generator_basis(cfg.spec, cfg.extension, mode)
        return returned_arrays(basis, closure_reports(basis).values(), algebra_dimension(basis))

    arrays, held = in_new_thread(verify)
    assert set(held) == WRITTEN[name]  # every temporary is in the workspace, at every size
    assert not [(k, j) for k, a in enumerate(handed) for j, b in enumerate(arrays) if np.shares_memory(a, b)]


def test_later_runs_leave_earlier_results_unchanged():
    kept = []
    for name, mode in INPUTS:
        cfg = config(name)
        basis = generator_basis(cfg.spec, cfg.extension, mode)
        reports = list(closure_reports(basis).values())
        report = run_verification(cfg, mode)
        kept.append((report, emit_machine(report), reports, [(r.pairs.copy(), r.fallback.copy()) for r in reports]))
    for name in ("spin48-2", "su2"):  # a larger input, then a smaller one
        run_verification(config(name))
    for report, text, reports, copies in kept:
        assert emit_machine(report) == text
        for rep, (pairs, fallback) in zip(reports, copies):
            assert rep.pairs.tobytes() == pairs.tobytes() and rep.fallback.tobytes() == fallback.tobytes()


def test_each_thread_has_its_own_workspace():
    cfg = config("spin47-2")
    run_verification(cfg)
    mine = slots()
    _, theirs = in_new_thread(lambda: run_verification(cfg))
    assert set(theirs) == SLOTS <= set(mine)
    assert not any(np.shares_memory(a, b) for a in mine.values() for b in theirs.values())


def test_threads_emit_the_single_thread_reports():
    # more threads than cores, switching as often as the interpreter can: a
    # workspace shared between threads shows up as a report that differs
    names = ("su5", "spin15-2", "spin16-2", "spin47-2", "spin48-2")
    configs = {name: config(name) for name in names}
    want = {name: emit_machine(run_verification(cfg)) for name, cfg in configs.items()}
    mismatches, errors, runs = [], [], []

    def cycle(offset, deadline):
        try:
            done = 0
            while done < len(names) or time.monotonic() < deadline:
                name = names[(offset + done) % len(names)]
                if emit_machine(run_verification(configs[name])) != want[name]:
                    mismatches.append(name)
                done += 1
            runs.append(done)
        except Exception as exc:  # reported below, in the test's own thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 1.0
        threads = [threading.Thread(target=cycle, args=(k, deadline)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and not mismatches
    assert len(runs) == 4 and min(runs) >= len(names)
