"""Every per-layer function metric of BENCHMARK.json names a traceable package function.

The benchmark's tracer wraps the public functions defined in each
``hartogs.<layer>`` module, and ``Profile.deriv``; a ``<layer>.<function>.*``
metric whose function is renamed, made private or moved would read zero
without an error.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from hartogs.profiles import Profile

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def function_metrics() -> dict:
    """``{(layer, function): [metric names]}`` over the three-part per-layer names."""
    out: dict = {}
    for entry in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]:
        parts = entry["name"].split(".")
        if len(parts) == 3:
            out.setdefault(tuple(parts[:2]), []).append(entry["name"])
    return out


FUNCTIONS = function_metrics()


def test_metrics_are_found():
    assert ("profiles", "deriv") in FUNCTIONS
    assert ("pseudoconvexity", "restricted_levi") in FUNCTIONS


@pytest.mark.parametrize("layer,name", FUNCTIONS, ids=[".".join(k) for k in FUNCTIONS])
def test_function_is_traced(layer, name):
    if (layer, name) == ("profiles", "deriv"):
        assert inspect.isfunction(vars(Profile).get("deriv"))
        return
    module = importlib.import_module(f"hartogs.{layer}")
    fn = vars(module).get(name)
    assert not name.startswith("_") and inspect.isfunction(fn), FUNCTIONS[layer, name]
    assert fn.__module__ == module.__name__, FUNCTIONS[layer, name]
