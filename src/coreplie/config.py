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
the JSON path of the offending field. Scalars reach the types as they stand:
each type checks its own fields (group_core.check_real) and config maps the
FieldError of one to its path. Each matrix stack is flattened to its
numbers by one scan per nesting level and read by one np.array call; it is
walked cell by cell only to name a failing cell.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from itertools import chain

import numpy as np

from .algebra import CLOSURE_TOL, RANK_REL_TOL
from .catalog import CATALOG_NAMES, catalog_entry
from .group_core import AntilinearExtension, FieldError, LieGroupSpec, check_real
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
        # every value, from a config file, a --tol flag or a caller, is checked here, once
        for f in fields(self):
            value = _build("tolerances", check_real, f.name, getattr(self, f.name), positive=True)
            object.__setattr__(self, f.name, value)

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


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs). The FieldError of a field the type rejects is a ConfigError
    under path.<field> (dashes for underscores), any other ValueError one under path."""
    try:
        return make(*args, **kwargs)
    except FieldError as exc:
        name, message = exc.args
        raise ConfigError(f"{path}.{name.replace('_', '-')}: {message}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_complex(value, path: str):
    """Raise the ConfigError of a bad [re, im] cell; pass a good one."""
    _expect(isinstance(value, (list, tuple)) and len(value) == 2, path, "expected a [re, im] pair")
    for k, x in enumerate(value):
        _expect(isinstance(x, (int, float)) and not isinstance(x, bool), f"{path}[{k}]", "expected a real number")
    for k, x in enumerate(value):
        _expect(math.isfinite(_as_float(x, f"{path}[{k}]")), f"{path}[{k}]", "expected a finite real number")


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
    """Complex array of `shape`: one type and length scan per nesting level flattens the stack
    to its numbers, which one np.array call reads. A stack that fails goes to _locate, which
    accepts exactly the same stacks, to name its bad cell."""
    level, a = [value], None
    for size, kinds in zip((*shape, 2), (list,) * len(shape) + ((list, tuple),)):
        if not (all(issubclass(t, kinds) for t in set(map(type, level))) and set(map(len, level)) == {size}):
            break
        level = list(chain.from_iterable(level))
    else:
        if all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, level))):
            try:
                a = np.array(level, dtype=float)
            except OverflowError:  # an integer beyond float range
                pass
    if a is None or not np.isfinite(a).all():
        _locate(value, path, shape)
        raise AssertionError(f"{path}: the walk accepted a stack that the one-pass reader rejected")
    return a.view(complex).reshape(shape)


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
    return _build("group", LieGroupSpec, gens, value.get("name", "custom")), None


_EXTENSION_KEYS = ("N", "s", "xi", "delta-alpha0")


def _parse_extension(value, d: int) -> AntilinearExtension:
    for key in value:
        _expect(key in _EXTENSION_KEYS, f"extension.{key}", "unknown field")
    _expect("N" in value, "extension.N", "missing required field")
    xi, delta_alpha0 = (0.0 if value.get(key) is None else value[key] for key in ("xi", "delta-alpha0"))
    N = _parse_matrices(value["N"], "extension.N", (d, d))
    return _build("extension", AntilinearExtension, N, value.get("s", 1), xi, delta_alpha0)


def _parse_tolerances(value) -> Tolerances:
    if value is None:
        return Tolerances()
    _expect(isinstance(value, dict), "tolerances", "expected an object")
    for key in value:
        _expect(key in _TOL_KEYS, f"tolerances.{key}", "unknown tolerance name")
    return Tolerances(**{_TOL_KEYS[key]: raw for key, raw in value.items()})


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
    """Read and parse a JSON config file.

    Stdlib json reads it, not the orjson that writes machine documents: it
    accepts the literals NaN, Infinity and 1e400 (as inf), so the field checks
    name the field that holds one instead of failing the whole file."""
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
    if xi is not None or delta_alpha0 is not None:
        ext = _build("extension", ext.with_phases, xi=xi, delta_alpha0=delta_alpha0)
    try:
        perturb = 0.0 if perturb is None else check_real("--perturb", perturb)
    except FieldError as exc:
        raise ConfigError(str(exc)) from exc
    if perturb:
        gens = spec.generators.copy()
        gens[0, 0, 0] += perturb
        # LieGroupSpec rejects a non-finite value, and one that swamps every other entry
        # (the generators are then dependent)
        spec = _build("--perturb", replace, spec, generators=gens)
    tolerances = cfg.tolerances if tol is None else replace(cfg.tolerances, closure=tol)
    return GroupConfig(spec=spec, extension=ext, tolerances=tolerances, source=cfg.source)
