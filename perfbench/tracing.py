"""Layer spans and counters, recorded from outside the program.

The tracer wraps coreplie's public functions where they are bound, in every
module namespace that holds them, so a call is seen whichever module makes
it. Spans nest on a stack; a span's self time is its duration minus the time
of the spans it directly contains, so the self times under a
run_verification span add up to that span exactly. Nothing here knows the
order of the pipeline's stages: a stage that moves or disappears simply
shows up elsewhere or not at all.
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

# Modules whose namespaces are searched for the names below: the package
# itself (its public API) and the layers on the verification path.
MODULES = (
    "coreplie",
    "coreplie.cli",
    "coreplie.config",
    "coreplie.report",
    "coreplie.infinitesimal",
    "coreplie.algebra",
    "coreplie.group_core",
)

# function name -> span name. generator_basis is split by its mode argument.
SPANS = {
    "run_verification": "report.verify",
    "emit_machine": "report.emit",
    "parse_machine": "report.parse",
    "parse_config": "config.load",
    "load_config": "config.load",
    "config_for_catalog": "config.load",
    "with_overrides": "config.load",
    "classify_coirrep": "group_core.classify",
    "a0_square_sign": "group_core.classify",
    "generator_basis": "infinitesimal.extract",
    "structure_constants_subgroup": "algebra.structure",
    "sub_sub_closure_report": "algebra.sub_sub",
    "verify_coset_coset_closure": "algebra.coset_coset",
    "verify_mixed_closure": "algebra.sub_coset",
    "jacobi_check": "algebra.jacobi",
    "algebra_dimension": "algebra.dimension",
}

# function name -> counter name. These run too often for a span each.
COUNTS = {
    "classify_coirrep": "group_core.classify_calls",
    "expm": "infinitesimal.expm_calls",
    "transport": "infinitesimal.transport_calls",
    "vf_commutator": "infinitesimal.vf_commutator_calls",
    "project_onto_span": "algebra.projections",
    "project_onto_span_complex": "algebra.projections",
}

SPAN_NAMES = tuple(sorted(set(SPANS.values()) - {"infinitesimal.extract"})) + (
    "infinitesimal.extract_exact",
    "infinitesimal.extract_fd",
)
COUNT_NAMES = tuple(sorted(set(COUNTS.values())))


class Tracer:
    """Installs wrappers, keeps spans and counts in memory until asked."""

    def __init__(self):
        self.spans = []  # (span id, parent id, job id, name, start s, end s)
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._next_id = 0
        self._saved = []

    # -- recording --------------------------------------------------------

    def _span_wrapper(self, fn, name, count):
        mode_of = None
        if name == "infinitesimal.extract":
            sig = inspect.signature(fn)

            def mode_of(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return f"{name}_{bound.arguments.get('mode', 'exact')}"

        tracer = self

        def wrapper(*args, **kwargs):
            span = name if mode_of is None else mode_of(args, kwargs)
            if count:
                tracer.counts[count] += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._next_id += 1
            sid = tracer._next_id
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer.job, span, start, end))

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Replace every traced function in every module that binds it."""
        wrappers = {}
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr in set(SPANS) | set(COUNTS):
                fn = mod.__dict__.get(attr)
                if not callable(fn):
                    continue
                if id(fn) not in wrappers:
                    if attr in SPANS:
                        wrappers[id(fn)] = self._span_wrapper(fn, SPANS[attr], COUNTS.get(attr))
                    else:
                        wrappers[id(fn)] = self._count_wrapper(fn, COUNTS[attr])
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def self_times(spans) -> dict:
    """Self time (duration minus direct children) summed per span name."""
    child = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for sid, _, _, name, start, end in spans:
        out[name] += (end - start) - child[sid]
    return dict(out)


def durations(spans) -> dict:
    """Total wall time in seconds per span name, children included."""
    out = defaultdict(float)
    for _, _, _, name, start, end in spans:
        out[name] += end - start
    return dict(out)
