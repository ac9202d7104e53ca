"""Configuration ingestion.

A config is one JSON document. Complex numbers are [re, im] pairs and
nested arrays are row-major:

    {
      "group": "su2-tr",
      "extension": {"N": [[[0,0],[1,0]],[[-1,0],[0,0]]], "s": 1,
                    "xi": 0.0, "delta-alpha0": 0.0},
      "tolerances": {"closure": 1e-9}
    }

"group" is either a catalog name or an explicit
{"name", "n", "d", "generators"} object. The extension block is optional;
without it only subgroup-side operations are available. Parse errors carry
the JSON path of the offending field.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import CATALOG_NAMES, catalog_entry
from .group_core import AntilinearExtension, LieGroupSpec


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


@dataclass(frozen=True)
class Tolerances:
    closure: float = 1e-9
    rank: float = 1e-8
    fd_step: float = 1e-4
    fd_agree: float = 1e-6

    def __post_init__(self):
        # every construction, from a config file or a --tol override, lands here
        for key, value in self.as_dict().items():
            _expect(
                np.isfinite(value) and value > 0.0,
                f"tolerances.{key}",
                f"expected a finite positive number, got {value}",
            )

    def as_dict(self) -> dict:
        return {
            "closure": self.closure,
            "rank": self.rank,
            "fd-step": self.fd_step,
            "fd-agree": self.fd_agree,
        }


_TOL_KEYS = {
    "closure": "closure",
    "rank": "rank",
    "fd-step": "fd_step",
    "fd_step": "fd_step",
    "fd-agree": "fd_agree",
    "fd_agree": "fd_agree",
}


@dataclass(frozen=True)
class GroupConfig:
    """Parsed configuration: the subgroup, the optional extension, knobs."""

    spec: LieGroupSpec
    extension: AntilinearExtension | None
    tolerances: Tolerances = field(default_factory=Tolerances)
    delta_alpha0: float = 0.0
    source: str = "catalog"

    def __post_init__(self):
        # every construction, from a config file or an --xi/--delta-alpha0 override, lands here
        xi = 0.0 if self.extension is None else self.extension.xi
        for path, value in (("extension.xi", xi), ("extension.delta-alpha0", self.delta_alpha0)):
            _expect(np.isfinite(value), path, f"expected a finite number, got {value}")


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _parse_complex(value, path: str) -> complex:
    _expect(
        isinstance(value, (list, tuple)) and len(value) == 2,
        path,
        "expected a [re, im] pair",
    )
    re, im = value
    _expect(isinstance(re, (int, float)) and not isinstance(re, bool), f"{path}[0]", "expected a real number")
    _expect(isinstance(im, (int, float)) and not isinstance(im, bool), f"{path}[1]", "expected a real number")
    return complex(re, im)


def _parse_matrix(value, path: str) -> np.ndarray:
    _expect(isinstance(value, list) and len(value) > 0, path, "expected a nonempty nested array")
    rows = []
    for i, row in enumerate(value):
        _expect(isinstance(row, list) and len(row) == len(value), f"{path}[{i}]", "matrix must be square, row-major")
        rows.append([_parse_complex(entry, f"{path}[{i}][{j}]") for j, entry in enumerate(row)])
    return np.array(rows, dtype=complex)


def _parse_real(value, path: str, default=None) -> float:
    if value is None and default is not None:
        return default
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a real number")
    return float(value)


def _parse_group(value):
    """(spec, catalog extension) for a catalog name, (spec, None) for an object."""
    if isinstance(value, str):
        try:
            return catalog_entry(value)
        except KeyError:
            raise ConfigError(
                f"group: unknown catalog name {value!r} (known: {', '.join(CATALOG_NAMES)})"
            ) from None
    _expect(isinstance(value, dict), "group", "expected a catalog name or an object")
    for key in ("n", "d", "generators"):
        _expect(key in value, f"group.{key}", "missing required field")
    for key in value:
        _expect(key in ("name", "n", "d", "generators"), f"group.{key}", "unknown field")
    n, d = value["n"], value["d"]
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1, "group.n", "expected a positive integer")
    _expect(isinstance(d, int) and not isinstance(d, bool) and d >= 1, "group.d", "expected a positive integer")
    gens_raw = value["generators"]
    _expect(isinstance(gens_raw, list) and len(gens_raw) == n, "group.generators", f"expected a list of {n} matrices")
    gens = tuple(_parse_matrix(g, f"group.generators[{i}]") for i, g in enumerate(gens_raw))
    name = value.get("name", "custom")
    _expect(isinstance(name, str), "group.name", "expected a string")
    try:
        return LieGroupSpec(n=n, d=d, generators=gens, name=name), None
    except ValueError as exc:
        raise ConfigError(f"group: {exc}") from exc


_EXTENSION_KEYS = ("N", "s", "xi", "delta-alpha0")


def _parse_extension(value, d: int) -> AntilinearExtension:
    _expect(isinstance(value, dict), "extension", "expected an object")
    for key in value:
        _expect(key in _EXTENSION_KEYS, f"extension.{key}", "unknown field")
    _expect("N" in value, "extension.N", "missing required field")
    n_matrix = _parse_matrix(value["N"], "extension.N")
    _expect(n_matrix.shape == (d, d), "extension.N", f"expected a {d}x{d} matrix")
    s = value.get("s", 1)
    _expect(s in (1, -1), "extension.s", "expected +1 or -1")
    xi = _parse_real(value.get("xi"), "extension.xi", default=0.0)
    try:
        return AntilinearExtension(N=n_matrix, s=int(s), xi=xi)
    except ValueError as exc:
        raise ConfigError(f"extension: {exc}") from exc


def _parse_tolerances(value) -> Tolerances:
    if value is None:
        return Tolerances()
    _expect(isinstance(value, dict), "tolerances", "expected an object")
    overrides = {}
    for key, raw in value.items():
        _expect(key in _TOL_KEYS, f"tolerances.{key}", "unknown tolerance name")
        overrides[_TOL_KEYS[key]] = _parse_real(raw, f"tolerances.{key}")
    return Tolerances(**overrides)


def parse_config(document: dict) -> GroupConfig:
    """Build a GroupConfig from a decoded JSON document."""
    _expect(isinstance(document, dict), "$", "top level must be an object")
    _expect("group" in document, "group", "missing required field")
    known = {"group", "extension", "tolerances"}
    for key in document:
        _expect(key in known, key, "unknown top-level field")
    spec, extension = _parse_group(document["group"])
    source = "catalog" if isinstance(document["group"], str) else "explicit"

    delta_alpha0 = 0.0
    if "extension" in document and document["extension"] is not None:
        ext_block = document["extension"]
        _expect(isinstance(ext_block, dict), "extension", "expected an object")
        extension = None
        if ext_block:
            delta_alpha0 = _parse_real(ext_block.get("delta-alpha0"), "extension.delta-alpha0", default=0.0)
            extension = _parse_extension(ext_block, spec.d)

    tolerances = _parse_tolerances(document.get("tolerances"))
    return GroupConfig(
        spec=spec,
        extension=extension,
        tolerances=tolerances,
        delta_alpha0=delta_alpha0,
        source=source,
    )


def load_config(path: str) -> GroupConfig:
    """Read and parse a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    return parse_config(document)


def config_for_catalog(name: str) -> GroupConfig:
    """GroupConfig for a builtin catalog entry."""
    return parse_config({"group": name})


def with_overrides(
    cfg: GroupConfig,
    xi: float | None = None,
    delta_alpha0: float | None = None,
    tol: float | None = None,
    perturb: float | None = None,
) -> GroupConfig:
    """Apply command-line overrides to a parsed config."""
    spec, ext = cfg.spec, cfg.extension
    for path, value in (("extension.xi", xi), ("extension.delta-alpha0", delta_alpha0)):
        _expect(value is None or ext is not None, path, "cannot be set: the config has no extension block")
    if xi is not None:
        ext = replace(ext, xi=float(xi))
    if perturb:
        gens = [g.copy() for g in spec.generators]
        gens[0] = gens[0].copy()
        gens[0][0, 0] += perturb
        spec = LieGroupSpec(n=spec.n, d=spec.d, generators=tuple(gens), name=spec.name)
    tolerances = cfg.tolerances if tol is None else replace(cfg.tolerances, closure=float(tol))
    return GroupConfig(
        spec=spec,
        extension=ext,
        tolerances=tolerances,
        delta_alpha0=cfg.delta_alpha0 if delta_alpha0 is None else float(delta_alpha0),
        source=cfg.source,
    )
