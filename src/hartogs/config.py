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
order.  Dotted keys nest; duplicate keys are an error.  ``n``,
``grid.points`` and ``grid.seed`` must be integral numbers and the other
numeric keys finite numbers (``grid.x_cap`` and ``fd_step`` positive);
``grid``, ``profile`` and ``tolerances`` are sections.  A key outside the
grammar above is an error; only ``profile.*`` is open, because its keys
depend on the kind.  Anything else is a :class:`ConfigError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .profiles import Profile, exp_profile, linear_profile, power_profile, table_profile
from .sampling import GridSpec

__all__ = ["RunConfig", "parse_config_text", "load_config", "build_profile", "COMMANDS"]

COMMANDS = ("check-kahler", "curvature-report", "extremal-test",
            "pseudoconvexity-test", "classify", "full-suite")


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
class RunConfig:
    """Validated run description."""

    command: str
    profile: dict
    n: int = 2
    grid: GridSpec = field(default_factory=GridSpec)
    fd_step: float = 1e-3
    tol_oracle: float = 1e-5
    tol_extremal: float = 1e-5
    tol_classify: float = 1e-8
    output: str | None = None
    expect: str | None = None
    csv_dump: str | None = None
    curve_dump: str | None = None

    def resolved(self) -> dict:
        """Full configuration embedded in every report for provenance."""
        return {
            "command": self.command, "profile": dict(self.profile), "n": self.n,
            "grid": self.grid.describe(), "fd_step": self.fd_step,
            "tolerances": {"oracle": self.tol_oracle, "extremal": self.tol_extremal,
                           "classify": self.tol_classify},
            "output": self.output, "expect": self.expect, "csv_dump": self.csv_dump,
            "curve_dump": self.curve_dump,
        }


def build_profile(spec: dict, base_dir: Path | None = None) -> Profile:
    """Instantiate the profile named by a config ``profile.*`` section."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("config needs a profile.kind entry")
    kind = spec["kind"]
    try:
        if kind == "linear":
            return linear_profile(float(spec["c1"]), float(spec["c2"]))
        if kind == "exp":
            return exp_profile(float(spec.get("scale", 1.0)))
        if kind == "power":
            return power_profile(float(spec["p"]))
        if kind == "table":
            path = Path(spec["path"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            data = np.loadtxt(path, delimiter=",", ndmin=2)
            if data.shape[1] != 2:
                raise ConfigError(f"table file {path} must have two columns (x, F)")
            return table_profile(data[:, 0], data[:, 1], {"path": str(spec["path"])})
    except KeyError as exc:
        raise ConfigError(f"profile kind {kind!r} is missing parameter {exc}") from exc
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad profile specification: {exc}") from exc
    raise ConfigError(f"unknown profile kind {kind!r} (use linear/exp/power/table)")


def _integer(value, key: str) -> int:
    """``value`` as an int; a non-number or a non-integral number is a ConfigError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """``value`` as a float; a non-number, NaN or inf is a ConfigError."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:   # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


_KEYS = ("command", "n", "profile", "grid", "fd_step", "tolerances", "output", "expect",
         "csv_dump", "curve_dump")
_GRID_KEYS = tuple(f.name for f in fields(GridSpec))
_TOLERANCE_KEYS = ("oracle", "extremal", "classify")


def _known(node: dict, keys: tuple, prefix: str = "") -> dict:
    """``node``; a key outside ``keys`` is a ConfigError that names it."""
    for key in node:
        if key not in keys:
            raise ConfigError(f"unknown key {prefix + key!r}")
    return node


def _section(tree: dict, name: str) -> dict:
    node = tree.get(name, {})
    if not isinstance(node, dict):
        raise ConfigError(f"'{name}' must be a section ({name}.key = ...)")
    return node


def _from_tree(tree: dict) -> RunConfig:
    _known(tree, _KEYS)
    if "command" not in tree:
        raise ConfigError("config needs a 'command' entry")
    command = tree["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose one of {COMMANDS}")
    if command != "full-suite" and "profile" not in tree:
        raise ConfigError("config needs a profile section")
    grid_tree = _known(_section(tree, "grid"), _GRID_KEYS, "grid.")
    grid = GridSpec(
        points=_integer(grid_tree.get("points", 200), "grid.points"),
        seed=_integer(grid_tree.get("seed", 0), "grid.seed"),
        a_margin=_number(grid_tree.get("a_margin", 0.05), "grid.a_margin"),
        x_cap=_number(grid_tree.get("x_cap", 5.0), "grid.x_cap"),
    )
    tol = _known(_section(tree, "tolerances"), _TOLERANCE_KEYS, "tolerances.")
    cfg = RunConfig(
        command=command,
        profile=dict(_section(tree, "profile")),
        n=_integer(tree.get("n", 2), "n"),
        grid=grid,
        fd_step=_number(tree.get("fd_step", 1e-3), "fd_step"),
        tol_oracle=_number(tol.get("oracle", 1e-5), "tolerances.oracle"),
        tol_extremal=_number(tol.get("extremal", 1e-5), "tolerances.extremal"),
        tol_classify=_number(tol.get("classify", 1e-8), "tolerances.classify"),
        output=tree.get("output"),
        expect=tree.get("expect"),
        csv_dump=tree.get("csv_dump"),
        curve_dump=tree.get("curve_dump"),
    )
    if cfg.n < 2:
        raise ConfigError(f"n must be >= 2, got {cfg.n}")
    if cfg.grid.points < 1:
        raise ConfigError(f"grid.points must be >= 1, got {cfg.grid.points}")
    if not 0.0 < cfg.grid.a_margin < 1.0:
        raise ConfigError(f"grid.a_margin must be in (0, 1), got {cfg.grid.a_margin}")
    if cfg.grid.x_cap <= 0:
        raise ConfigError(f"grid.x_cap must be positive, got {cfg.grid.x_cap}")
    if cfg.fd_step <= 0:
        raise ConfigError("fd_step must be positive")
    for name, value in (("oracle", cfg.tol_oracle), ("extremal", cfg.tol_extremal),
                        ("classify", cfg.tol_classify)):
        if value <= 0:
            raise ConfigError(f"tolerances.{name} must be positive, got {value}")
    return cfg


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _from_tree(parse_config_text(text))
