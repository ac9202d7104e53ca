#!/usr/bin/env python3
"""Print the sha256 of the values and the byte length of every reference
machine document, one line each.

The inputs are the builtin catalog, su(2..5) with N = E, and spin
2j in {1, 2, 3, 15, 16, 47, 48} with time reversal (the last two from
perfbench/inputs.py). Each gives four reports, in exact and fd mode at
(xi, delta_alpha0) = (0, 0) and (0.7, -1.3), then the machine stdout of
`classify`, `generators --mode exact`, `generators --mode fd` and
`commutators`, then the human stdout of `verify --mode exact`,
`verify --mode fd` (each without its `wall time:` line), `generators` and
`commutators`: 180 lines of the form

    <input>/<mode>/<xi>,<delta_alpha0> <sha256> <bytes>
    <input>/<command>[/<mode>] <sha256> <bytes>
    <input>/<command>[/<mode>]/human <sha256> <bytes>

The phases are echoed, never applied: a report at (0.7, -1.3) differs from
its (0, 0) report only in the fields xi and delta_alpha0, so each phased
digest differs from its (0, 0) digest through those two fields alone.
The sha256 is that of the document's stdlib canonical form,
json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")), followed
by the newline a command prints after it, so it digests the values, not the
encoder's spelling of them; where stdlib json wrote the documents, that is
their sha256. The byte length is that of the text as the encoder wrote it.
A human listing is digested as printed, so every output the command line
prints on stdout is covered.
Documents are deterministic for a fixed BLAS thread count; compare digests
made with the same OPENBLAS_NUM_THREADS (1 is the reference).

Only parse_config, with_overrides, run_verification, emit_machine and the
command line's main (each input written to a temporary config file) are
used, so two source trees can be compared byte for byte:

    PYTHONPATH=src python scripts/report_digest.py > after.txt
    PYTHONPATH=/path/to/other/src python scripts/report_digest.py > before.txt
    diff before.txt after.txt
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from coreplie import CATALOG_NAMES, emit_machine, parse_config, run_verification  # noqa: E402
from coreplie.cli import main as cli_main  # noqa: E402
from coreplie.config import with_overrides  # noqa: E402
from inputs import spin_document, su_document  # noqa: E402

SU_RANKS = (2, 3, 4, 5)
SPIN_TWO_J = (1, 2, 3, 15, 16, 47, 48)
MODES = ("exact", "fd")
PHASES = ((0.0, 0.0), (0.7, -1.3))
COMMANDS = (("classify",), ("generators", "--mode", "exact"), ("generators", "--mode", "fd"), ("commutators",))
HUMAN_COMMANDS = (("verify", "--mode", "exact"), ("verify", "--mode", "fd"), ("generators",), ("commutators",))


def documents():
    """Every input's config document, catalog first."""
    yield from ({"group": name} for name in CATALOG_NAMES)
    yield from map(su_document, SU_RANKS)
    yield from map(spin_document, SPIN_TWO_J)


def configs():
    """Every input's parsed config, in the order of documents()."""
    return map(parse_config, documents())


def digest(text: str) -> tuple:
    """(sha256 hex digest of the stdlib canonical form, byte length) of one document."""
    canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n" * text.endswith("\n")
    return hashlib.sha256(canonical.encode()).hexdigest(), len(text.encode())


def human_digest(text: str) -> tuple:
    """(sha256 hex digest, byte length) of a human listing without its wall time line."""
    kept = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("wall time: "))
    return hashlib.sha256(kept.encode()).hexdigest(), len(kept.encode())


def command_stdout(command: tuple, path: str, format: str = "machine") -> str:
    """The stdout of one command-line call on a config file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli_main([*command, "--config", path, "--format", format])
    return out.getvalue()


def digests():
    """(key, sha256 hex digest, byte length) of each document."""
    with tempfile.TemporaryDirectory() as tmp:
        for k, document in enumerate(documents()):
            cfg = parse_config(document)
            for mode in MODES:
                for xi, delta_alpha0 in PHASES:
                    report = run_verification(with_overrides(cfg, xi=xi, delta_alpha0=delta_alpha0), mode=mode)
                    yield f"{cfg.spec.name}/{mode}/{xi:g},{delta_alpha0:g}", *digest(emit_machine(report))
            path = Path(tmp) / f"{k}.json"
            path.write_text(json.dumps(document))
            for command in COMMANDS:
                key = "/".join([cfg.spec.name, command[0], *command[2:]])
                yield key, *digest(command_stdout(command, str(path)))
            for command in HUMAN_COMMANDS:
                key = "/".join([cfg.spec.name, command[0], *command[2:], "human"])
                yield key, *human_digest(command_stdout(command, str(path), "human"))


def main() -> int:
    for key, digest, size in digests():
        print(key, digest, size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
