"""The benchmark workloads: what one op runs, its fresh inputs and its checks.

``run.py`` times only ``run``; ``prepare`` (the op's inputs) and ``check``
(its outputs) sit outside the timed interval.  Every call into the
package goes through a module attribute (``cli.main``, ``hg.classify``),
so the traced run, which rebinds those attributes, sees each of them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hartogs as hg
from hartogs import cli, config

OUT_DIR = Path(".bench_out")

# Op k of a run with workload seed s draws its grid with seed
# SEED_STRIDE * s + k, so no two ops of a run share an input; op 0 is the
# untimed warm-up.
SEED_STRIDE = 1_000_003


def op_seed(seed: int, index: int) -> int:
    return SEED_STRIDE * seed + index


@dataclass(frozen=True)
class Outcome:
    """Checked result of one op: ``report`` is compared byte for byte on re-runs."""

    ok: bool
    problem: str = ""
    report: bytes = b""
    report_bytes: int = 0


# ---------------------------------------------------------------- CLI ops

SUITE_EXPECTED = {
    "linear(1,1)": ("KAHLER", "HYPERBOLIC", "EXTREMAL", "CONSISTENT"),
    "linear(2,0.5)": ("KAHLER", "HYPERBOLIC", "EXTREMAL", "CONSISTENT"),
    "exp": ("KAHLER", "NON_CONSTANT_CURVATURE", "NOT_EXTREMAL", "CONSISTENT"),
    "power(2)": ("KAHLER", "NON_CONSTANT_CURVATURE", "NOT_EXTREMAL", "CONSISTENT"),
}
SUITE_PROFILES = ({"kind": "linear", "c1": 1.0, "c2": 1.0},
                  {"kind": "linear", "c1": 2.0, "c2": 0.5},
                  {"kind": "exp"}, {"kind": "power", "p": 2.0})


def _check_suite(doc: dict) -> str | None:
    if doc["verdict"] != "SUITE_PASS":
        return f"verdict {doc['verdict']}"
    got = {row["profile"]: (row["kahler"], row["classify"], row["extremal"],
                            row["pseudoconvexity"]) for row in doc["report"]["profiles"]}
    if got != SUITE_EXPECTED:
        return f"verdict pattern {got}"
    return None


def _curvature_checker(points: int) -> Callable[[dict], str | None]:
    def check(doc: dict) -> str | None:
        if doc["verdict"] != "PASS":
            return f"verdict {doc['verdict']}"
        report = doc["report"]
        records = report["records"]
        if len(records) != points:
            return f"{len(records)} records, expected {points}"
        scal = np.array([r["scal"] for r in records])
        rho0 = np.array([r["rho"][0] for r in records])
        if not np.all(np.isfinite(scal)):
            return "non-finite scalar curvature"
        # rho_0 is the scalar curvature by definition
        if np.max(np.abs(scal - rho0)) > 1e-9 * (1.0 + np.max(np.abs(scal))):
            return "rho_0 differs from scal"
        if (scal.min(), scal.max()) != (report["scal"]["min"], report["scal"]["max"]):
            return "scal summary does not match the records"
        return None

    return check


@dataclass
class CliWorkload:
    """An op is one ``hartogs.cli.main`` call on a config with a fresh ``grid.seed``."""

    name: str
    settings: str          # config lines other than grid.seed and output
    profiles: tuple        # profile specs the CLI builds
    stated_points: int
    check_report: Callable[[dict], str | None]

    @property
    def config_path(self):
        return OUT_DIR / f"{self.name}.cfg"

    @property
    def report_path(self):
        return OUT_DIR / f"{self.name}-report.json"

    def setup(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        config.load_config(self.prepare(0))
        for spec in self.profiles:
            config.build_profile(spec)

    def prepare(self, grid_seed: int) -> str:
        self.config_path.write_text(
            f"{self.settings}grid.seed = {grid_seed}\noutput = {self.report_path}\n")
        self.report_path.unlink(missing_ok=True)
        return str(self.config_path)

    def run(self, path: str) -> int:
        return cli.main(["--config", path, "--quiet"])

    def check(self, path: str, status: int) -> Outcome:
        if status != 0:
            return Outcome(False, f"exit status {status}")
        report = self.report_path.read_bytes()
        problem = self.check_report(json.loads(report))
        return Outcome(problem is None, problem or "", report, len(report))


# ------------------------------------------------------------ library op

def _gauss(j):
    """``F(x) = exp(-x - x^2/4)``: jet-backed, with Kaehler indicator ``-1 - x``."""
    return (-j - j * j * 0.25).exp()


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@dataclass
class JetSweep:
    """An op is one library sweep of a jet-backed profile over a fresh grid."""

    name: str
    n: int
    points: int
    stated_points: int
    profile: hg.Profile | None = None

    def setup(self) -> None:
        self.profile = hg.profile_from_function(_gauss, x0=math.inf, name="gauss")

    def prepare(self, grid_seed: int) -> hg.GridSpec:
        return hg.GridSpec(points=self.points, seed=grid_seed, x_cap=3.0)

    def run(self, spec: hg.GridSpec):
        prof = self.profile
        pts = hg.interior_points(prof, self.n, spec)
        fields = {
            "points": pts,
            "metric": hg.metric_closed_form(pts, prof),
            "det": hg.det_closed_form(pts, prof),
            "inverse": hg.inverse_metric_closed_form(pts, prof),
            "ricci": hg.ricci_closed_form(pts, prof),
            "scal": hg.scalar_curvature(pts, prof),
            "rho": hg.generalized_scalars_closed(pts, prof),
        }
        return fields, hg.extremal_report(prof, self.n, spec), hg.classify(prof, self.n, spec)

    def check(self, spec: hg.GridSpec, raw) -> Outcome:
        fields, ext, cls = raw
        if (ext.verdict, cls.verdict) != ("NOT_EXTREMAL", "NON_CONSTANT_CURVATURE"):
            return Outcome(False, f"verdicts {ext.verdict}, {cls.verdict}")
        if fields["points"].shape != (self.points, self.n):
            return Outcome(False, f"grid shape {fields['points'].shape}")
        if not all(np.all(np.isfinite(v)) for v in fields.values()):
            return Outcome(False, "non-finite closed form")
        sub = slice(None, None, max(1, self.points // 40))     # fixed subsample
        h, det, inv = fields["metric"][sub], fields["det"][sub], fields["inverse"][sub]
        det_rel = np.max(np.abs(np.linalg.det(h).real - det) / np.abs(det))
        inv_abs = np.max(np.abs(h @ inv - np.eye(self.n)))
        if not (det_rel <= 1e-8 and inv_abs <= 1e-8):
            return Outcome(False, f"oracle mismatch: det_rel {det_rel:.3g}, inv_abs {inv_abs:.3g}")
        doc = {"extremal": ext.to_json(), "classify": cls.to_json(),
               "sha256": {k: _digest(v) for k, v in fields.items()}}
        return Outcome(True, report=json.dumps(doc, sort_keys=True).encode())


def make(name: str, tiny: bool = False):
    """Workload ``name`` at benchmark size, or at smoke-test size when ``tiny``."""
    if name == "suite":
        points = 40 if tiny else 500
        return CliWorkload(name, f"command = full-suite\nn = 2\ngrid.points = {points}\n",
                           SUITE_PROFILES, 8 * points, _check_suite)
    if name == "curvature":
        points = 10 if tiny else 500
        return CliWorkload(
            name, "command = curvature-report\nprofile.kind = exp\nn = 4\nfd_step = 5e-4\n"
                  f"grid.points = {points}\nexpect = PASS\n",
            ({"kind": "exp"},), points, _curvature_checker(points))
    if name == "jet-sweep":
        points = 100 if tiny else 2000
        return JetSweep(name, n=6, points=points, stated_points=points)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("suite", "curvature", "jet-sweep")
