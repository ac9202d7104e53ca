"""Full verification pipeline and report emission.

The machine format is one JSON document with sorted keys, floats in their
shortest round-trip form, integral values as integers, and complex numbers
as a trailing [re, im] axis. Every array is written dense (nested lists) or
sparse ({"shape", "index", "value"}, the nonzero entries only), as
json_numbers's rule picks; dense() reads either form. Each closure family is
one block of arrays with a row per bracket pair; generators are stored as
d x d upper blocks (type b: blockdiag(X, X) and blockdiag(X', -X')). Two runs
on the same configuration at one BLAS thread count (OPENBLAS_NUM_THREADS) produce
byte-identical documents, so wall time is never part of the machine report;
the CLI prints it separately in human mode.

orjson writes and reads every machine document, and spells floats as 1e-9 and
0.000015 where stdlib json writes 1e-09 and 1.5e-05, strings as raw UTF-8 without
\\u escapes; the values are the ones stdlib json writes. A written text is read
back only when it has more nulls than the document has None dict values, the
one case where a null may be a non-finite float. Config input stays on stdlib
json (config.load_config): its parser accepts NaN, Infinity and 1e400, so the
field checks can name the field that holds one, where orjson rejects the file.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import orjson

from .algebra import (
    AlgebraDimension,
    ClosureReport,
    algebra_dimension,
    closure_reports,
)
from .config import GroupConfig
from .infinitesimal import generator_basis

SCHEMA_VERSION = 8


def _plain(a: np.ndarray):
    """A float array as nested lists, integral values (within +-2^53) as ints.
    Up to 64 numbers a Python loop is cheaper than numpy's per-call cost."""
    if a.size <= 64:
        flat = [int(x) if x.is_integer() and abs(x) < 2**53 else x for x in a.ravel().tolist()]
        if a.ndim == 1:
            return flat
        out = np.empty(a.size, dtype=object)
        out[:] = flat
        return out.reshape(a.shape).tolist()
    integral = np.trunc(a) == a
    integral &= np.abs(a) < 2.0**53
    out = a.astype(object)
    out[integral] = a[integral].astype(np.int64)
    return out.tolist()


def json_numbers(a):
    """A number or an array as the machine format holds it: an integral
    float (negative zero included, within +-2^53) becomes an int, any other
    float stays a float, and complex entries gain a trailing [re, im] axis.
    An array is written sparse, as {"shape", "index", "value"} with the
    row-major positions and values of its nonzero entries, exactly when that
    lists fewer than half as many numbers as the dense nested lists:
    2 * (ndim + 2 * nnz) < size. A number (0-d) stays a number."""
    if isinstance(a, float):  # a lone number skips numpy's per-call cost
        return int(a) if a.is_integer() and abs(a) < 2**53 else float(a)
    a = np.asarray(a)
    if a.dtype.kind == "c":
        a = np.ascontiguousarray(a, dtype=complex).view(float).reshape(*a.shape, 2)
    a = a.astype(float, copy=False)
    flat = a.ravel()
    index = flat.nonzero()[0]
    if a.ndim and 2 * (a.ndim + 2 * index.size) < a.size:
        return {"shape": list(a.shape), "index": index.tolist(), "value": _plain(flat[index])}
    return _plain(a)


def dense(value) -> np.ndarray:
    """A machine-format array, dense or sparse, as a float array."""
    if isinstance(value, dict):
        out = np.zeros(value["shape"])
        out.flat[value["index"]] = value["value"]
        return out
    return np.array(value, dtype=float)


@dataclass(frozen=True)
class RunReport:
    """Machine-friendly record of one full verification run."""

    schema: int
    group: dict
    mode: str
    xi: float
    delta_alpha0: float
    tolerances: dict
    classification: str
    a0_sign: int
    generators: dict
    closures: dict
    dimension: dict
    passed: bool

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def _closure_to_dict(rep: ClosureReport) -> dict:
    """One family as arrays, converted by column: the real expansion with one
    row per pair, the complex fallback with one row per failing pair."""
    pairs, fallback = rep.pairs, rep.fallback
    return {
        "family": rep.family,
        "tolerance": json_numbers(rep.tolerance),
        "passed": rep.passed,
        "max_residual": json_numbers(rep.max_residual()),
        "max_complex_residual": json_numbers(rep.max_complex_residual()),
        "pairs": list(map(list, zip(pairs["left"].tolist(), pairs["right"].tolist()))),
        "coeffs": json_numbers(pairs["coeffs"]),
        "residuals": json_numbers(pairs["residual"]),
        "complex_residuals": json_numbers(fallback["complex_residual"]),
        "complex_coeffs": json_numbers(fallback["complex_coeffs"]),
    }


def _dimension_to_dict(dim: AlgebraDimension) -> dict:
    return {
        "computed": dim.computed,
        "expected": dim.expected,
        "classification": dim.classification,
        "singular_values": json_numbers(dim.singular_values),
        "threshold": json_numbers(dim.threshold),
        "margin": json_numbers(dim.margin) if np.isfinite(dim.margin) else None,
        "certificate": None if dim.certificate is None else json_numbers(dim.certificate),
    }


def run_verification(cfg: GroupConfig, mode: str = "exact") -> RunReport:
    """Run the whole analysis chain for one configuration.

    Extracts the generators of the given mode once, computes the three
    commutator families and the real algebra dimension. Raises ConfigError
    when the config has no extension, and DifferentiationError (fd mode only)
    when one of generator_basis's two fd gates fails.
    """
    spec, ext, tol = cfg.spec, cfg.require_extension(), cfg.tolerances

    basis = generator_basis(spec, ext, mode=mode, step=tol.fd_step, agree=tol.fd_agree)

    closures = closure_reports(basis, tol=tol.closure)
    dim = algebra_dimension(basis, rank_tol=tol.rank)

    return RunReport(
        schema=SCHEMA_VERSION,
        group={"name": spec.name, "n": spec.n, "d": spec.d, "source": cfg.source},
        mode=mode,
        xi=json_numbers(ext.xi),
        delta_alpha0=json_numbers(ext.delta_alpha0),
        tolerances={key: json_numbers(v) for key, v in tol.as_dict().items()},
        classification=ext.ctype.value,
        a0_sign=ext.a0_sign,
        generators={
            "subgroup": json_numbers(basis.subgroup_blocks),
            "coset": json_numbers(basis.coset_blocks),
            "fd_max_abs_diff": None if basis.fd_max_abs_diff is None else json_numbers(basis.fd_max_abs_diff),
        },
        closures={family: _closure_to_dict(rep) for family, rep in closures.items()},
        dimension=_dimension_to_dict(dim),
        passed=all(rep.passed for rep in closures.values()),
    )


# --- machine serialization (sorted keys, shortest round-trip floats) -------


def _dict_nones(value) -> int:
    """The Nones held as dict values in value, nested dicts entered, lists not."""
    return sum(1 if v is None else _dict_nones(v) for v in value.values()) if isinstance(value, dict) else 0


def emit_document(doc: dict) -> str:
    """Byte-deterministic single-line JSON for any machine document: dicts with
    str keys, lists, str, int, float, bool and None.

    Raises ValueError rather than writing a non-finite float (orjson writes it
    as null, so a text with more nulls than doc's dicts hold Nones is read back
    and must equal doc), an int beyond 64 bits or a string that is not valid UTF-8.
    """
    try:
        text = orjson.dumps(doc, option=orjson.OPT_SORT_KEYS)
    except orjson.JSONEncodeError as exc:
        raise ValueError(f"cannot write machine document: {exc}") from None
    if text.count(b"null") != _dict_nones(doc) and orjson.loads(text) != doc:
        raise ValueError("cannot write machine document: a non-finite float")
    return text.decode()


def emit_command(command: str, group: str, **blocks) -> str:
    """The machine document of one CLI command: the schema, command and group
    header, then the command's blocks."""
    return emit_document({"schema": SCHEMA_VERSION, "command": command, "group": group, **blocks})


def emit_machine(report: RunReport) -> str:
    """Byte-deterministic single-line JSON document for a report."""
    return emit_document(report.to_dict())


def parse_machine(text: str) -> RunReport:
    """Inverse of emit_machine: parse_machine(emit_machine(r)) == r."""
    return RunReport.from_dict(orjson.loads(text))


# --- human formatting ------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.6g}{z.imag:+.6g}j"


def format_matrix(m, indent: str = "    ") -> str:
    a = np.asarray(m, dtype=complex)
    lines = []
    for row in a:
        lines.append(indent + "[" + ", ".join(_fmt_complex(z) for z in row) + "]")
    return "\n".join(lines)


def _human_closure(rep_dict: dict) -> list:
    lines = [
        f"  family {rep_dict['family']}: "
        f"{'PASS' if rep_dict['passed'] else 'FAIL'} "
        f"(max residual {_fmt(rep_dict['max_residual'])}, "
        f"tolerance {_fmt(rep_dict['tolerance'])}, "
        f"complex fallback max {_fmt(rep_dict['max_complex_residual'])})"
    ]
    coeffs, residuals = dense(rep_dict["coeffs"]), dense(rep_dict["residuals"])
    complex_residuals = iter(dense(rep_dict["complex_residuals"]))
    for (left, right), row, residual in zip(rep_dict["pairs"], coeffs, residuals):
        line = f"    ({left},{right}): residual {_fmt(residual)}  coeffs [{', '.join(_fmt(c) for c in row)}]"
        if not residual < rep_dict["tolerance"]:  # a failing pair: the next fallback row
            line += f"  complex residual {_fmt(next(complex_residuals))}"
        lines.append(line)
    return lines


def format_failures(report: RunReport) -> str:
    """One line per failing family: its worst pair, the first whose real residual is
    within the family's tolerance of the largest (so round-off cannot pick among
    ties), that residual and the pair's complex fallback residual."""
    lines = []
    for fam in report.closures.values():
        if fam["passed"]:
            continue
        residuals = dense(fam["residuals"])
        worst = int(np.argmax(residuals.max() - residuals <= fam["tolerance"]))
        row = int(np.count_nonzero(~(residuals[:worst] < fam["tolerance"])))  # its fallback row
        left, right = fam["pairs"][worst]
        lines.append(f"closure failure: family {fam['family']}, worst pair ({left},{right}): "
                     f"residual {_fmt(residuals[worst])}, "
                     f"complex fallback residual {_fmt(dense(fam['complex_residuals'])[row])}")
    return "\n".join(lines)


def format_human(report: RunReport) -> str:
    """Multi-line human-readable rendering (6 significant digits)."""
    d = report.to_dict()
    lines = []
    g = d["group"]
    lines.append(f"group {g['name']} (n={g['n']}, d={g['d']}, mode={d['mode']})")
    lines.append(f"classification: {d['classification']}-type, a0^2 sign {d['a0_sign']:+d}")
    lines.append(f"xi = {_fmt(d['xi'])}, delta_alpha0 = {_fmt(d['delta_alpha0'])}")
    if d["generators"]["fd_max_abs_diff"] is not None:
        lines.append(f"generators: fd vs exact max abs diff {_fmt(d['generators']['fd_max_abs_diff'])}")
    lines.append("closure families:")
    for fam in ("sub-sub", "coset-coset", "sub-coset"):
        lines.extend(_human_closure(d["closures"][fam]))
    dim = d["dimension"]
    lines.append(
        f"algebra dimension: {dim['computed']} (expected {dim['expected']}, "
        f"{dim['classification']})"
    )
    lines.append(f"overall: {'PASS' if d['passed'] else 'FAIL'}")
    return "\n".join(lines)
