"""Run configuration: flat ``key = value`` files with dotted sections.

Grammar (one assignment per line)::

    # comment
    command = classify
    n = 2
    profile.kind = linear        # linear | exp | power | table
    profile.c1 = 1.0
    profile.c2 = 1.0
    grid.points = 200
    grid.seed = 1
    grid.a_margin = 0.05
    grid.x_cap = 5.0
    fd_step = 1e-3
    tolerances.oracle = 1e-5
    tolerances.extremal = 1e-5
    tolerances.classify = 1e-8
    output = report.json
    expect = HYPERBOLIC          # optional expected verdict
    csv_dump = grid.csv          # optional grid dump
    curve_dump = curves          # optional: writes curves.scal.csv, curves.L.csv

Values are parsed as int, float, bool (true/false) or string, in that
order.  Dotted keys nest; duplicate keys are an error.  The fields of
:class:`RunConfig`, :class:`~hartogs.sampling.GridSpec` (``grid.*``) and
:class:`Tolerances` (``tolerances.*``) are the grammar: an absent key
takes its field's default, an ``int`` field takes an integral number, a
``float`` field a finite number, any other a string, and ``_RANGES``
bounds the numbers; ``expect`` names one of the command's
:data:`VERDICTS`.  ``profile.*`` holds ``kind`` and that kind's
parameters (:func:`build_profile`); ``full-suite`` takes neither it,
``fd_step`` nor the dumps.  Any other key, like anything else amiss, is a ConfigError.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import ConfigError
from .profiles import Profile, _bounded, exp_profile, linear_profile, power_profile, table_profile
from .sampling import _BOUNDS, GridSpec

__all__ = ["RunConfig", "Tolerances", "parse_config_text", "load_config", "build_profile",
           "COMMANDS", "VERDICTS", "MAX_N"]

# The largest complex dimension a run may ask for; the tests check every
# closed form against its oracle for each n in 2..MAX_N.
MAX_N = 12

# Each command's verdicts, the one that counts as success first; ``expect``
# must name one of its command's verdicts.
VERDICTS = {
    "check-kahler": ("KAHLER", "NOT_KAHLER"),
    "curvature-report": ("PASS", "FAIL"),
    "extremal-test": ("EXTREMAL", "NOT_EXTREMAL"),
    "pseudoconvexity-test": ("CONSISTENT", "INCONSISTENT"),
    "classify": ("HYPERBOLIC", "NON_CONSTANT_CURVATURE", "INCONSISTENT"),
    "full-suite": ("SUITE_PASS", "SUITE_FAIL"),
}
COMMANDS = tuple(VERDICTS)


def _parse_value(raw: str):
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def parse_config_text(text: str) -> dict:
    """Parse the flat grammar into a nested dict."""
    tree: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if not key or not raw:
            raise ConfigError(f"line {lineno}: empty key or value")
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: key {key!r} conflicts with a scalar")
        leaf = parts[-1]
        if leaf in node:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        node[leaf] = _parse_value(raw)
    return tree


@dataclass(frozen=True)
class Tolerances:
    """Verdict thresholds: FD oracles, extremality residual, curvature fit."""

    oracle: float = 1e-5
    extremal: float = 1e-5
    classify: float = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; its fields are the top-level config keys."""

    command: str
    profile: dict = field(default_factory=dict)
    n: int = 2
    grid: GridSpec = field(default_factory=GridSpec)
    fd_step: float = 1e-3
    tolerances: Tolerances = field(default_factory=Tolerances)
    output: str | None = None
    expect: str | None = None
    csv_dump: str | None = None
    curve_dump: str | None = None

    def resolved(self) -> dict:
        """Full configuration embedded in every report for provenance."""
        return asdict(self)


def build_profile(spec: dict, base_dir: Path | None = None) -> Profile:
    """Instantiate the profile named by a config ``profile.*`` section.

    Besides ``kind`` the section holds the parameters of the kind's factory
    and no other key: ``linear`` c1, c2; ``exp`` scale (default from
    :func:`exp_profile`); ``power`` p; ``table`` path, a CSV file of rows
    ``x,F`` read relative to ``base_dir``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("config needs a profile.kind entry")

    def table(path: str) -> Profile:
        file = Path(base_dir or "", str(path))
        data = np.loadtxt(file, delimiter=",", ndmin=2)
        if data.shape[1] != 2:
            raise ConfigError(f"table file {file} must have two columns (x, F)")
        return table_profile(data[:, 0], data[:, 1], {"path": str(path)})

    params = dict(spec)
    kind = params.pop("kind")
    make = {"linear": linear_profile, "exp": exp_profile, "power": power_profile,
            "table": table}.get(kind if isinstance(kind, str) else None)
    if make is None:
        raise ConfigError(f"unknown profile kind {kind!r} (use linear/exp/power/table)")
    signature = inspect.signature(make).parameters
    for key in params:
        if key not in signature:
            raise ConfigError(f"unknown key 'profile.{key}'")
    for name, param in signature.items():
        if name not in params and param.default is param.empty:
            raise ConfigError(f"profile kind {kind!r} is missing parameter {name!r}")
    if make is not table:
        params = {key: _number(value, f"profile.{key}") for key, value in params.items()}
    try:
        return make(**params)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad profile specification: {exc}") from exc


def _number(value, key: str, integer: bool = False):
    """``value`` as an int (``integer``; an integral float counts) or a float, read
    by the library's one check within the key's range: any error is a ConfigError."""
    if integer and isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        return _bounded(key, value, _RANGES.get(key), integer)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# The range of each bounded key; ``grid.*`` and ``tolerances.*`` take the library's rules.
_RANGES = {"n": (f"in 2..{MAX_N}", lambda v: 2 <= v <= MAX_N),
           "fd_step": ("positive", lambda v: v > 0),
           **{f"grid.{f.name}": _BOUNDS[f.name] for f in fields(GridSpec)},
           **{f"tolerances.{f.name}": _BOUNDS["tol"] for f in fields(Tolerances)}}


@functools.cache   # one entry per config dataclass, filled on first use
def _hints(cls) -> dict:
    return get_type_hints(cls)


def _build(cls, node: dict, prefix: str = "", unknown: tuple = ()):
    """``cls`` from the keys present in ``node``; the fields of ``cls`` are the known keys."""
    hints = _hints(cls)
    values = {}
    for key, value in node.items():
        name = prefix + key
        if key not in hints or key in unknown:
            while isinstance(value, dict) and value:   # name the first leaf below
                sub, value = next(iter(value.items()))
                name += "." + sub
            raise ConfigError(f"unknown key {name!r}")
        hint = hints[key]
        if hint is dict or is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"'{name}' must be a section ({name}.key = ...)")
            value = dict(value) if hint is dict else _build(hint, value, name + ".")
        elif hint in (int, float):
            value = _number(value, name, hint is int)
        elif not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        values[key] = value
    return cls(**values)


def _from_tree(tree: dict) -> RunConfig:
    if "command" not in tree:
        raise ConfigError("config needs a 'command' entry")
    command = tree["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose one of {COMMANDS}")
    if command == "full-suite":   # its own profiles, no FD oracle and no dumps
        cfg = _build(RunConfig, tree, unknown=("profile", "fd_step", "csv_dump", "curve_dump"))
    elif "profile" not in tree:
        raise ConfigError("config needs a profile section")
    else:
        cfg = _build(RunConfig, tree)
        if "kind" not in cfg.profile:
            raise ConfigError("config needs a profile.kind entry")
    if cfg.expect is not None and cfg.expect not in VERDICTS[command]:
        raise ConfigError(f"expect must be one of {', '.join(VERDICTS[command])} "
                          f"for {command}, got {cfg.expect!r}")
    return cfg


def load_config(path: str | Path) -> RunConfig:
    """The run described by the UTF-8 file ``path``; a read or decode error is a ConfigError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _from_tree(parse_config_text(text))
