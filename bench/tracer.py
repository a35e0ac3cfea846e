"""Spans around the public functions of every hartogs layer, set from outside.

The package is not changed: :class:`Tracer` rebinds each public function
at every module attribute it is bound to (the modules import one another
by name, so patching the defining module alone would miss calls), and
``Profile.deriv`` at class level.  Spans are kept in memory and written
once, by :meth:`Tracer.write`.

A span's self time is its duration minus that of its child spans.  A call
is at a layer's boundary when its parent span belongs to another layer
(or to no layer); ``<layer>.calls``, ``.points`` and ``.failed`` count
those boundary calls, ``<layer>.<function>.*`` counts every call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "config", "classification", "pseudoconvexity", "extremal",
          "curvature", "geometry", "sampling", "profiles", "jets")

# parameter holding an op's points: ``z`` rows are points, ``x`` entries are abscissae
_POINT_PARAMS = {"z": "rows", "points": "rows", "x": "entries"}

_COLUMNS = ("index", "function", "parent", "start_ns", "end_ns", "points", "failed", "repeat")


def _point_counter(fn):
    """Return ``probe(args, kwargs) -> (points, None)`` for the point argument, or None."""
    params = list(inspect.signature(fn).parameters)
    for name, kind in _POINT_PARAMS.items():
        if name in params:
            pos = params.index(name)
            break
    else:
        return None

    def probe(args, kwargs):
        shape = np.shape(args[pos] if len(args) > pos else kwargs.get(name))
        return math.prod(shape[:-1] if kind == "rows" else shape), None

    return probe


def _deriv_probe(args, kwargs):
    """Points and identity of the abscissae of ``Profile.deriv(self, k, x)``."""
    x = np.asarray(args[2] if len(args) > 2 else kwargs["x"], dtype=float)
    return x.size, (x.shape, hash(x.tobytes()))


def _grid_probe(fn):
    """Identity of an ``interior_points`` draw: the profile's description, n, spec."""
    sig = inspect.signature(fn)

    def probe(args, kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        profile = json.dumps(bound["profile"].describe(), sort_keys=True)
        return 0, (profile, bound["n"], bound.get("spec"))

    return probe


class Tracer:
    """Install/uninstall wrappers; collect per-op spans and their summaries."""

    def __init__(self):
        from hartogs.profiles import Profile

        self.names: list[str] = []
        self.layer_of: list[int] = []
        wrappers: dict[int, object] = {}
        for li, layer in enumerate(LAYERS):
            module = importlib.import_module(f"hartogs.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    probe = (_grid_probe(obj) if (layer, attr) == ("sampling", "interior_points")
                             else _point_counter(obj))
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", li, obj, probe)
        self._bindings = []
        for name, module in list(sys.modules.items()):
            if name == "hartogs" or name.startswith("hartogs."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        self._bindings.append((module, attr, obj, wrappers[id(obj)]))
        deriv = Profile.deriv
        self._bindings.append((Profile, "deriv", deriv,
                               self._wrap("profiles.deriv", LAYERS.index("profiles"),
                                          deriv, _deriv_probe)))
        self._ops: list[tuple[int, dict]] = []
        self._begin(-1)

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, layer, fn, probe):
        """``probe(args, kwargs)`` gives the call's points and, to detect
        repeats within an op, an identity of its input (or None)."""
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)

        def traced(*args, **kwargs):
            idx = self._next
            self._next = idx + 1
            parent = self._stack[-1]
            points, key = probe(args, kwargs) if probe else (0, None)
            repeat = key is not None and key in self._seen
            if key is not None:
                self._seen.add(key)
            self._stack.append(idx)
            failed = True
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self._spans.append((idx, fid, parent, start, end, points, failed, repeat))

        return functools.wraps(fn)(traced)

    def _begin(self, op: int) -> None:
        self._op = op
        self._next = 0
        self._stack = [-1]
        self._spans: list[tuple] = []
        self._seen: set = set()

    def install(self, op: int) -> None:
        """Start recording op ``op`` and route every binding through its wrapper."""
        self._begin(op)
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> dict:
        """Restore the original bindings; return the op's summary (see :meth:`summary`)."""
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)
        rows = sorted(self._spans)
        cols = {c: np.array([r[i] for r in rows], dtype=np.int64)
                for i, c in enumerate(_COLUMNS)}
        self._ops.append((self._op, cols))
        return self.summary(cols)

    # -- summaries ---------------------------------------------------------
    def summary(self, cols: dict) -> dict:
        """Per-op counts and self times keyed like the benchmark's metric names.

        ``<layer>.self_s``, ``.calls``, ``.points``, ``.failed`` and, for each
        function, ``<layer>.<function>.self_s``, ``.calls``, ``.points``,
        ``.repeats``.
        """
        out: dict[str, float] = {}
        fid = cols["function"]
        parent = cols["parent"]
        dur = cols["end_ns"] - cols["start_ns"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=fid.size)
        self_s = (dur - child) / 1e9
        layer_of = np.asarray(self.layer_of, dtype=np.int64)
        layer = layer_of[fid]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        boundary = layer != parent_layer
        for li, name in enumerate(LAYERS):
            mine = layer == li
            edge = mine & boundary
            out[f"{name}.self_s"] = float(self_s[mine].sum())
            out[f"{name}.calls"] = int(edge.sum())
            out[f"{name}.points"] = int(cols["points"][edge].sum())
            out[f"{name}.failed"] = int((edge & (cols["failed"] != 0)).sum())
        for f, name in enumerate(self.names):
            mine = fid == f
            out[f"{name}.self_s"] = float(self_s[mine].sum())
            out[f"{name}.calls"] = int(mine.sum())
            out[f"{name}.points"] = int(cols["points"][mine].sum())
            out[f"{name}.repeats"] = int(cols["repeat"][mine].sum())
        return out

    def write(self, path) -> None:
        """Write every recorded span (one row per span, tagged with its op) as ``.npz``."""
        arrays = {c: np.concatenate([cols[c] for _, cols in self._ops] or [np.zeros(0, int)])
                  for c in _COLUMNS}
        arrays["op"] = np.concatenate([np.full(cols["index"].size, op)
                                       for op, cols in self._ops] or [np.zeros(0, int)])
        np.savez_compressed(path, names=np.array(self.names), **arrays)
