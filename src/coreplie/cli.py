"""Command-line interface.

Subcommands: classify, generators, commutators, verify, report. Exit codes:
0 success, 1 malformed configuration or command line (or a bracket beyond
float range), 2 inconsistent
extension, 3 closure failure (verify and report then name each failing
family's worst pair on stderr), 4 numerical-differentiation failure.
"""
from __future__ import annotations

import argparse
import sys
import time

from .algebra import sub_sub_closure_report
from .config import GroupConfig, config_for_catalog, load_config, with_overrides
from .group_core import InconsistentExtensionError, classify_coirrep
from .infinitesimal import DifferentiationError, generator_basis
from .report import (
    _closure_to_dict,
    emit_command,
    emit_machine,
    format_failures,
    format_human,
    format_matrix,
    json_numbers,
    run_verification,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INCONSISTENT = 2
EXIT_CLOSURE = 3
EXIT_DIFFERENTIATION = 4


_OPTIONS = {
    "mode": dict(choices=("exact", "fd"), default="exact", help="generator extraction mode used for the analysis"),
    "xi": dict(type=float, help="override the phase xi of the extension"),
    "delta-alpha0": dict(type=float,
                         help="override the coset phase delta_alpha0 of the extension (report metadata)"),
    "tol": dict(type=float, help="override the closure tolerance"),
    "format": dict(choices=("human", "machine"), default="human", help="output format"),
    "perturb": dict(type=float, help="testing aid: add this value to one generator entry"),
}
# argparse takes -4.7e-06 or -inf for an option (only -123 or -1.5 for a number); main writes them --xi=-4.7e-06
_FLOAT_OPTIONS = [f"--{name}" for name, option in _OPTIONS.items() if option.get("type") is float]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coreplie",
        description=(
            "Corepresentations of continuous groups with an antilinear coset: "
            "classify coirreps, extract infinitesimal generators, and verify "
            "commutator closure numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --mode only where an extraction feeds the output, --format where there
    # is a human form, and each override only where the command reads it
    for name, options, help_text in (
        ("classify", "xi delta-alpha0 format", "report the coirrep type and the sign of a0 squared"),
        ("generators", "mode format perturb", "list subgroup and coset generators"),
        ("commutators", "tol format perturb", "list structure constants of the subgroup algebra"),
        ("verify", "mode xi delta-alpha0 tol format perturb", "run the full closure and dimension verification"),
        ("report", "mode xi delta-alpha0 tol perturb", "run the full verification and emit the machine report"),
    ):
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", metavar="PATH", help="JSON configuration file")
        src.add_argument("--group", metavar="NAME", help="builtin catalog group name")
        # an option a command does not take reads as absent; report prints machine JSON
        p.set_defaults(xi=None, delta_alpha0=None, tol=None, perturb=None, format="machine")
        for option in options.split():
            p.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def _load(args) -> GroupConfig:
    cfg = config_for_catalog(args.group) if args.group else load_config(args.config)
    return with_overrides(cfg, xi=args.xi, delta_alpha0=args.delta_alpha0, tol=args.tol, perturb=args.perturb)


def cmd_classify(cfg: GroupConfig, args, out) -> int:
    ext = cfg.require_extension()
    ctype = classify_coirrep(cfg.spec, ext)
    if args.format == "machine":
        print(emit_command("classify", cfg.spec.name, classification=ctype.value, a0_sign=ext.a0_sign), file=out)
    else:
        print(f"group {cfg.spec.name}: {ctype.value}-type coirrep, a0^2 sign {ext.a0_sign:+d}", file=out)
    return EXIT_OK


def cmd_generators(cfg: GroupConfig, args, out) -> int:
    tol = cfg.tolerances
    basis = generator_basis(cfg.spec, cfg.extension, mode=args.mode, step=tol.fd_step, agree=tol.fd_agree)
    absent = cfg.extension is None
    if args.format == "machine":  # upper blocks, as in the report's generators
        print(emit_command("generators", cfg.spec.name, mode=args.mode,
                           classification=None if absent else basis.ctype.value,
                           subgroup=json_numbers(basis.subgroup_blocks),
                           coset=None if absent else json_numbers(basis.coset_blocks)), file=out)
    else:
        print(f"group {cfg.spec.name} generators (mode {args.mode})", file=out)
        for i, m in enumerate(basis.subgroup, start=1):
            print(f"  X_{i}:", file=out)
            print(format_matrix(m), file=out)
        if absent:
            print("  coset section: absent (no extension block)", file=out)
        else:
            for i, m in enumerate(basis.coset):
                print(f"  X'_{i}:", file=out)
                print(format_matrix(m), file=out)
    return EXIT_OK


def cmd_commutators(cfg: GroupConfig, args, out) -> int:
    # the structure constants are the report's sub-sub family, over the basis generators and verify build
    rep = sub_sub_closure_report(generator_basis(cfg.spec, cfg.extension), tol=cfg.tolerances.closure)
    if args.format == "machine":
        print(emit_command("commutators", cfg.spec.name, closures={"sub-sub": _closure_to_dict(rep)}), file=out)
    else:
        print(f"group {cfg.spec.name} structure constants", file=out)
        for p in rep.pairs:
            coeffs = ", ".join(format(v, ".6g") for v in p.coeffs)
            print(f"  [J_{p.left + 1}, J_{p.right + 1}] -> [{coeffs}]  (residual {p.residual:.6g})", file=out)
        print(f"  max residual: {rep.max_residual():.6g} ({'PASS' if rep.passed else 'FAIL'})", file=out)
    return EXIT_OK if rep.passed else EXIT_CLOSURE


def cmd_verify(cfg: GroupConfig, args, out) -> int:
    start = time.perf_counter()
    report = run_verification(cfg, mode=args.mode)
    elapsed = time.perf_counter() - start
    if args.format == "machine":
        print(emit_machine(report), file=out)
    else:
        print(format_human(report), file=out)
        print(f"wall time: {elapsed:.3f} s", file=out)
    if report.passed:
        return EXIT_OK
    print(format_failures(report), file=sys.stderr)
    return EXIT_CLOSURE


COMMANDS = {
    "classify": cmd_classify,
    "generators": cmd_generators,
    "commutators": cmd_commutators,
    "verify": cmd_verify,
    "report": cmd_verify,  # its parser fixes --format to machine
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 1, 0, -1):  # backwards: a join moves only the tokens already seen
        option, value = argv[k - 1:k + 1]
        named = len(option) > 2 and any(o.startswith(option) for o in _FLOAT_OPTIONS)  # or a prefix argparse expands
        if named and value[:1] == "-" and value[:2] != "--":
            argv[k - 1:k + 1] = [f"{option}={value}"]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_CONFIG if exc.code == 2 else exc.code
    out = sys.stdout
    try:
        return COMMANDS[args.command](_load(args), args, out)
    except InconsistentExtensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except DifferentiationError as exc:
        print(f"numerical differentiation error: {exc}", file=sys.stderr)
        return EXIT_DIFFERENTIATION
    except ValueError as exc:  # ConfigError and any other invalid input
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
