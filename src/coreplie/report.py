"""Full verification pipeline and report emission.

The machine format is one JSON document with sorted keys, floats in their
shortest round-trip form, integral values as integers, and complex numbers
as [re, im] pairs. Two runs on the same configuration produce byte-identical
documents, so wall time is never part of the machine report; the CLI prints
it separately in human mode.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .algebra import (
    AlgebraDimension,
    ClosureReport,
    StructureConstants,
    algebra_dimension,
    sub_sub_closure_report,
    verify_coset_coset_closure,
    verify_mixed_closure,
)
from .config import GroupConfig
from .group_core import a0_sign_of_type
from .infinitesimal import DifferentiationError, generator_basis, transport_map
from .matrices import max_abs_diff

SCHEMA_VERSION = 2


def json_number(x):
    """A number as the machine format holds it: an integral float, negative
    zero included, becomes an int; any other float stays a float."""
    x = float(x)
    return int(x) if x.is_integer() and abs(x) < 2**53 else x


def _json_numbers(a) -> list:
    return [json_number(v) for v in np.asarray(a, dtype=float).tolist()]


def _json_complexes(a) -> list:
    return [[json_number(z.real), json_number(z.imag)] for z in np.asarray(a, dtype=complex).tolist()]


def complex_matrix_to_json(m) -> list:
    return [_json_complexes(row) for row in np.asarray(m, dtype=complex)]


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
    structure_constants: dict
    closures: dict
    dimension: dict
    passed: bool

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def _closure_to_dict(rep: ClosureReport) -> dict:
    return {
        "family": rep.family,
        "tolerance": json_number(rep.tolerance),
        "passed": rep.passed,
        "max_residual": json_number(rep.max_residual()),
        "max_complex_residual": json_number(rep.max_complex_residual()),
        "pairs": [
            {
                "left": p.left,
                "right": p.right,
                "coeffs": _json_numbers(p.coeffs),
                "residual": json_number(p.residual),
                "complex_coeffs": _json_complexes(p.complex_coeffs),
                "complex_residual": json_number(p.complex_residual),
            }
            for p in rep.pairs
        ],
    }


def _structure_to_dict(sc: StructureConstants) -> dict:
    return {
        "c": [[_json_numbers(row) for row in plane] for plane in sc.c],
        "residuals": [_json_numbers(row) for row in sc.residuals],
        "max_residual": json_number(sc.max_residual()),
    }


def _dimension_to_dict(dim: AlgebraDimension) -> dict:
    return {
        "computed": dim.computed,
        "expected": dim.expected,
        "classification": dim.classification,
        "singular_values": _json_numbers(dim.singular_values),
        "threshold": json_number(dim.threshold),
        "margin": json_number(dim.margin) if np.isfinite(dim.margin) else None,
        "certificate": None if dim.certificate is None else _json_numbers(dim.certificate),
    }


def run_verification(cfg: GroupConfig, mode: str = "exact") -> RunReport:
    """Run the whole analysis chain for one configuration.

    Extracts generators in both modes (recording their disagreement),
    computes the three commutator families (the structure constants are the
    sub-sub family read as a tensor) and the real algebra dimension. Raises
    DifferentiationError when the two extraction modes disagree beyond the
    fd-agree tolerance.
    """
    if cfg.extension is None:
        raise ValueError("verification requires an antilinear extension block")
    spec, ext, tol = cfg.spec, cfg.extension, cfg.tolerances

    basis_exact = generator_basis(spec, ext, mode="exact")
    basis_fd = generator_basis(spec, ext, mode="fd", step=tol.fd_step)
    ctype = basis_exact.ctype
    fd_diff = max_abs_diff(
        np.stack(basis_exact.subgroup + basis_exact.coset),
        np.stack(basis_fd.subgroup + basis_fd.coset),
    )
    if fd_diff > tol.fd_agree:
        raise DifferentiationError(
            f"finite-difference and exact generators disagree by {fd_diff:.3e} "
            f"(tolerance {tol.fd_agree:.1e})"
        )
    basis = basis_exact if mode == "exact" else basis_fd

    tmap = transport_map(ext, ctype, cfg.delta_alpha0).inverse()

    sub_sub = sub_sub_closure_report(basis, tol=tol.closure)
    sc = StructureConstants.from_report(sub_sub, basis.n)
    coset_coset = verify_coset_coset_closure(basis, tmap, tol=tol.closure)
    mixed = verify_mixed_closure(basis, tmap, tol=tol.closure)

    dim = algebra_dimension(basis, tmap, rank_tol=tol.rank)

    passed = sub_sub.passed and coset_coset.passed and mixed.passed

    return RunReport(
        schema=SCHEMA_VERSION,
        group={"name": spec.name, "n": spec.n, "d": spec.d, "source": cfg.source},
        mode=mode,
        xi=json_number(ext.xi),
        delta_alpha0=json_number(cfg.delta_alpha0),
        tolerances={key: json_number(v) for key, v in tol.as_dict().items()},
        classification=ctype.value,
        a0_sign=a0_sign_of_type(ctype, ext.s),
        generators={
            "subgroup": [complex_matrix_to_json(m) for m in basis.subgroup],
            "coset": [complex_matrix_to_json(m) for m in basis.coset],
            "fd_max_abs_diff": json_number(fd_diff),
        },
        structure_constants=_structure_to_dict(sc),
        closures={
            "sub-sub": _closure_to_dict(sub_sub),
            "coset-coset": _closure_to_dict(coset_coset),
            "sub-coset": _closure_to_dict(mixed),
        },
        dimension=_dimension_to_dict(dim),
        passed=passed,
    )


# --- machine serialization (sorted keys, shortest round-trip floats) -------


def emit_document(doc: dict) -> str:
    """Byte-deterministic single-line JSON for any machine document.

    Raises ValueError on a non-finite float rather than writing NaN.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def emit_machine(report: RunReport) -> str:
    """Byte-deterministic single-line JSON document for a report."""
    return emit_document(report.to_dict())


def parse_machine(text: str) -> RunReport:
    """Inverse of emit_machine: parse_machine(emit_machine(r)) == r."""
    return RunReport.from_dict(json.loads(text))


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
    for p in rep_dict["pairs"]:
        coeffs = ", ".join(_fmt(c) for c in p["coeffs"])
        lines.append(
            f"    ({p['left']},{p['right']}): residual {_fmt(p['residual'])}"
            f"  coeffs [{coeffs}]  complex residual {_fmt(p['complex_residual'])}"
        )
    return lines


def format_human(report: RunReport) -> str:
    """Multi-line human-readable rendering (6 significant digits)."""
    d = report.to_dict()
    lines = []
    g = d["group"]
    lines.append(f"group {g['name']} (n={g['n']}, d={g['d']}, mode={d['mode']})")
    lines.append(f"classification: {d['classification']}-type, a0^2 sign {d['a0_sign']:+d}")
    lines.append(f"xi = {_fmt(d['xi'])}, delta_alpha0 = {_fmt(d['delta_alpha0'])}")
    lines.append(
        "generators: fd vs exact max abs diff "
        f"{_fmt(d['generators']['fd_max_abs_diff'])}"
    )
    lines.append(
        f"structure constants: max residual {_fmt(d['structure_constants']['max_residual'])}"
    )
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
