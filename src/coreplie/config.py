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
the JSON path of the offending field. Each matrix stack is read in one
numpy pass and walked cell by cell only to name a failing cell.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from itertools import chain

import numpy as np

from .algebra import CLOSURE_TOL, RANK_REL_TOL
from .catalog import CATALOG_NAMES, catalog_entry
from .group_core import AntilinearExtension, ExtensionFieldError, LieGroupSpec
from .infinitesimal import FD_AGREE, FD_STEP


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


@dataclass(frozen=True)
class Tolerances:
    closure: float = CLOSURE_TOL
    rank: float = RANK_REL_TOL
    fd_step: float = FD_STEP
    fd_agree: float = FD_AGREE

    def __post_init__(self):
        # every construction, from a config file or a --tol override, lands here
        for key, value in self.as_dict().items():
            _expect(
                np.isfinite(_as_float(value, f"tolerances.{key}")) and value > 0.0,
                f"tolerances.{key}",
                f"expected a finite positive number, got {value}",
            )

    def as_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in _TOL_KEYS.items()}


# config name -> field name: each field under its name with dashes
_TOL_KEYS = {f.name.replace("_", "-"): f.name for f in fields(Tolerances)}


@dataclass(frozen=True, eq=False)
class GroupConfig:
    """Parsed configuration: the subgroup, the optional extension, knobs."""

    spec: LieGroupSpec
    extension: AntilinearExtension | None
    tolerances: Tolerances = field(default_factory=Tolerances)
    source: str = "catalog"

    def require_extension(self) -> AntilinearExtension:
        """The extension, for a command that cannot run without one."""
        _expect(self.extension is not None, "extension", "required for this command but absent")
        return self.extension


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _parse_complex(value, path: str):
    """Raise the ConfigError of a bad [re, im] cell; pass a good one."""
    _expect(isinstance(value, (list, tuple)) and len(value) == 2, path, "expected a [re, im] pair")
    for k, x in enumerate(value):
        _expect(isinstance(x, (int, float)) and not isinstance(x, bool), f"{path}[{k}]", "expected a real number")
    for k, x in enumerate(value):
        _as_float(x, f"{path}[{k}]")


def _as_float(value, path: str) -> float:
    """float(value), with an integer beyond float range a ConfigError under path."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}: expected a real number within float range") from None


def _locate(value, path: str, shape: tuple):
    """Walk a matrix stack cell by cell and raise the ConfigError of its first bad field."""
    if not shape:
        return _parse_complex(value, path)
    d = shape[-1]
    what = (f"a row of {d} entries", f"a {d}x{d} matrix", f"a list of {shape[0]} matrices")[len(shape) - 1]
    _expect(isinstance(value, list) and len(value) == shape[0], path, f"expected {what}")
    for i, item in enumerate(value):
        _locate(item, f"{path}[{i}]", shape[1:])


def _parse_matrices(value, path: str, shape: tuple) -> np.ndarray:
    """Complex array of `shape`: one type scan per nesting level, one np.array call. A stack
    that fails goes to _locate, which accepts exactly the same stacks, to name its bad cell."""
    level, a = [value], None
    for kinds in (list,) * len(shape) + ((list, tuple),):
        if not all(issubclass(t, kinds) for t in set(map(type, level))):
            break
        level = list(chain.from_iterable(level))
    else:
        if all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, level))):
            try:
                a = np.array(value, dtype=float)
            except (ValueError, OverflowError):  # ragged nesting, an integer beyond float range
                pass
    if a is None or a.shape != (*shape, 2):
        _locate(value, path, shape)
        raise AssertionError(f"{path}: the walk accepted a stack that the one-pass reader rejected")
    if not np.isfinite(a).all():
        cell = "".join(f"[{i}]" for i in np.argwhere(~np.isfinite(a))[0])
        raise ConfigError(f"{path}{cell}: expected a finite real number")
    return a.view(complex).reshape(shape)


def _parse_real(value, path: str, default=None) -> float:
    if value is None and default is not None:
        return default
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a real number")
    return _as_float(value, path)


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
    gens = _parse_matrices(value["generators"], "group.generators", (n, d, d))
    name = value.get("name", "custom")
    _expect(isinstance(name, str), "group.name", "expected a string")
    try:
        return LieGroupSpec(n=n, d=d, generators=gens, name=name), None
    except ValueError as exc:
        raise ConfigError(f"group: {exc}") from exc


_EXTENSION_KEYS = ("N", "s", "xi", "delta-alpha0")


def _extension(base: AntilinearExtension | None = None, **fields) -> AntilinearExtension:
    """AntilinearExtension(**fields), or base with its phases replaced. A field the
    type rejects, from a file or a flag, is a ConfigError under its config path."""
    try:
        return AntilinearExtension(**fields) if base is None else base.with_phases(**fields)
    except ExtensionFieldError as exc:
        name, message = exc.args
        raise ConfigError(f"extension.{name.replace('_', '-')}: {message}") from exc
    except ValueError as exc:
        raise ConfigError(f"extension: {exc}") from exc


def _parse_extension(value, d: int) -> AntilinearExtension:
    for key in value:
        _expect(key in _EXTENSION_KEYS, f"extension.{key}", "unknown field")
    _expect("N" in value, "extension.N", "missing required field")
    return _extension(
        N=_parse_matrices(value["N"], "extension.N", (d, d)),
        s=value.get("s", 1),
        xi=_parse_real(value.get("xi"), "extension.xi", default=0.0),
        delta_alpha0=_parse_real(value.get("delta-alpha0"), "extension.delta-alpha0", default=0.0),
    )


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

    if document.get("extension") is not None:
        ext_block = document["extension"]
        _expect(isinstance(ext_block, dict), "extension", "expected an object")
        extension = _parse_extension(ext_block, spec.d) if ext_block else None

    tolerances = _parse_tolerances(document.get("tolerances"))
    return GroupConfig(spec=spec, extension=extension, tolerances=tolerances, source=source)


def load_config(path: str) -> GroupConfig:
    """Read and parse a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
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
    _expect(perturb is None or np.isfinite(perturb), "--perturb", f"expected a finite number, got {perturb}")
    if xi is not None or delta_alpha0 is not None:
        ext = _extension(ext, xi=xi, delta_alpha0=delta_alpha0)
    if perturb:
        gens = spec.generators.copy()
        gens[0, 0, 0] += perturb
        spec = replace(spec, generators=gens)
    tolerances = cfg.tolerances
    if tol is not None:
        tolerances = replace(tolerances, closure=_as_float(tol, "tolerances.closure"))
    return GroupConfig(spec=spec, extension=ext, tolerances=tolerances, source=cfg.source)
