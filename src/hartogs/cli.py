"""Command-line front end: runs a configured pipeline and writes JSON reports.

Exit status: 0 when the verdict matches expectations, 1 on verdict
failure, 2 on configuration errors.  Reports are deterministic byte for
byte for a fixed config (fixed seeds, serial reductions, sorted keys).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classification import classify
from .config import RunConfig, build_profile, load_config
from .curvature import CurvatureRecord, curvature_record, ricci_numeric
from .errors import ConfigError, HartogsError, NumericError
from .extremal import extremal_report
from .geometry import (
    det_closed_form,
    grid_csv_header,
    grid_csv_rows,
    inverse_metric_closed_form,
    metric_closed_form,
    potential,
    wirtinger_hessian,
)
from .profiles import (
    Profile,
    exp_profile,
    kahler_indicator,
    linear_profile,
    power_profile,
)
from .pseudoconvexity import equivalence_check
from .sampling import interior_points, x_grid

SCHEMA_VERSION = 1

# Verdicts that count as success when the config declares no expectation.
POSITIVE_VERDICTS = {"KAHLER", "PASS", "EXTREMAL", "CONSISTENT", "HYPERBOLIC", "SUITE_PASS"}

_SUITE_PROFILES = (
    ("linear(1,1)", lambda: linear_profile(1.0, 1.0), True),
    ("linear(2,0.5)", lambda: linear_profile(2.0, 0.5), True),
    ("exp", lambda: exp_profile(1.0), False),
    ("power(2)", lambda: power_profile(2.0), False),
)


def _run_check_kahler(cfg: RunConfig, profile: Profile) -> tuple[dict, str]:
    xs = x_grid(profile, max(cfg.grid.points, 101), cfg.grid)
    ind = kahler_indicator(profile, xs)
    max_ind = float(np.max(ind))
    pts = interior_points(profile, cfg.n, cfg.grid)
    min_eig = float(np.min(np.linalg.eigvalsh(metric_closed_form(pts, profile))))
    verdict = "KAHLER" if max_ind < 0.0 else "NOT_KAHLER"
    report = {
        "max_indicator": max_ind,
        "argmax_x": float(xs[int(np.argmax(ind))]),
        "min_metric_eigenvalue": min_eig,
        "positivity_agrees": (max_ind < 0.0) == (min_eig > 0.0),
    }
    return report, verdict


def _finite_max(values, what: str) -> float:
    """Largest of ``values``; a NaN or inf raises instead of turning into a verdict."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite {what}")
    return float(np.max(values))


def _run_curvature_report(cfg: RunConfig, profile: Profile) -> tuple[dict, str]:
    pts = interior_points(profile, cfg.n, cfg.grid)
    batch = curvature_record(pts, profile)
    h = metric_closed_form(pts, profile)
    # oracle deviations; FD Hessians only on a subsample, they dominate the cost.
    # Both Hessian oracles are judged relative to the size of the closed form.
    metric_ratios, ric_errs, ricci_ratios = [], [], []
    for z, h_z, ric in zip(pts[:25], h, batch.ricci):
        fd = wirtinger_hessian(lambda p: potential(p, profile), z, cfg.fd_step)
        metric_ratios.append(
            np.max(np.abs(h_z - fd)) / (cfg.tol_oracle * (1.0 + np.max(np.abs(h_z)))))
        ric_errs.append(np.max(np.abs(ric - ricci_numeric(z, profile, cfg.fd_step))))
        ricci_ratios.append(ric_errs[-1] / (cfg.tol_oracle * (1.0 + np.max(np.abs(ric)))))
    metric_ratio = _finite_max(metric_ratios, "metric oracle error")
    ric_err = _finite_max(ric_errs, "Ricci oracle error")
    ricci_ratio = _finite_max(ricci_ratios, "Ricci oracle error")
    det = det_closed_form(pts, profile)
    det_err = _finite_max(np.abs(det - np.linalg.det(h).real) / np.abs(det), "determinant error")
    inv_err = _finite_max(np.abs(
        np.einsum("mab,mbc->mac", h, inverse_metric_closed_form(pts, profile))
        - np.eye(cfg.n)[None]
    ), "inverse error")
    ok = metric_ratio <= 1.0 and ricci_ratio <= 1.0 and det_err <= 1e-8 and inv_err <= 1e-8
    report = {
        "scal": {"min": float(batch.scal.min()), "max": float(batch.scal.max())},
        "rho": {"min": [float(v) for v in batch.rho.min(axis=0)],
                "max": [float(v) for v in batch.rho.max(axis=0)]},
        "oracle_errors": {"metric_over_tolerance": metric_ratio, "ricci_abs": ric_err,
                          "det_rel": det_err, "inverse_abs": inv_err},
        "records": [CurvatureRecord(*fields).to_json()
                    for fields in zip(batch.point, batch.ricci, batch.scal, batch.rho)],
    }
    return report, "PASS" if ok else "FAIL"


def _run_extremal(cfg: RunConfig, profile: Profile) -> tuple[dict, str]:
    rep = extremal_report(profile, cfg.n, cfg.grid, step=cfg.fd_step, tol=cfg.tol_extremal)
    return rep.to_json(), rep.verdict


def _run_pseudoconvexity(cfg: RunConfig, profile: Profile) -> tuple[dict, str]:
    rep = equivalence_check(profile, samples=cfg.grid.points, seed=cfg.grid.seed,
                            n=cfg.n, x_cap=cfg.grid.x_cap)
    return rep.to_json(), rep.verdict


def _run_classify(cfg: RunConfig, profile: Profile) -> tuple[dict, str]:
    rep = classify(profile, cfg.n, cfg.grid, tol=cfg.tol_classify, step=cfg.fd_step)
    return rep.to_json(), rep.verdict


def _run_full_suite(cfg: RunConfig) -> tuple[dict, str]:
    rows = []
    ok = True
    for label, make, is_linear in _SUITE_PROFILES:
        profile = make()
        _, kahler = _run_check_kahler(cfg, profile)
        cls, cls_verdict = _run_classify(cfg, profile)
        ext, ext_verdict = _run_extremal(cfg, profile)
        _, pc_verdict = _run_pseudoconvexity(cfg, profile)
        expected_cls = "HYPERBOLIC" if is_linear else "NON_CONSTANT_CURVATURE"
        expected_ext = "EXTREMAL" if is_linear else "NOT_EXTREMAL"
        row_ok = (kahler == "KAHLER" and pc_verdict == "CONSISTENT"
                  and cls_verdict == expected_cls and ext_verdict == expected_ext)
        ok = ok and row_ok
        rows.append({
            "profile": label, "kahler": kahler, "classify": cls_verdict,
            "extremal": ext_verdict, "pseudoconvexity": pc_verdict,
            "max_residual_offaxis": ext["max_residual_offaxis"],
            "max_abs_l": cls["L_grid"]["max_abs"], "as_expected": row_ok,
        })
    return {"profiles": rows}, "SUITE_PASS" if ok else "SUITE_FAIL"


_RUNNERS = {
    "check-kahler": _run_check_kahler,
    "curvature-report": _run_curvature_report,
    "extremal-test": _run_extremal,
    "pseudoconvexity-test": _run_pseudoconvexity,
    "classify": _run_classify,
}


def _write_curves(cfg: RunConfig, profile: Profile) -> None:
    """Developer-aid plot data: scal (along the fiber axis) and L versus x."""
    from .curvature import scalar_curvature
    from .geometry import radial_coefficients

    xs = x_grid(profile, max(cfg.grid.points, 101), cfg.grid)
    axis_pts = np.zeros((xs.size, cfg.n), dtype=complex)
    axis_pts[:, 0] = np.sqrt(xs)
    scal = scalar_curvature(axis_pts, profile)
    ell = radial_coefficients(profile, xs).L
    for tag, values in (("scal", scal), ("L", ell)):
        np.savetxt(f"{cfg.curve_dump}.{tag}.csv",
                   np.column_stack([xs, values]), delimiter=",",
                   header=f"x,{tag}", comments="")


def run(cfg: RunConfig, base_dir: Path | None = None) -> tuple[dict, str, int]:
    """Execute the configured command; return (document, verdict, exit status)."""
    if cfg.command == "full-suite":
        report, verdict = _run_full_suite(cfg)
    else:
        profile = build_profile(cfg.profile, base_dir)
        report, verdict = _RUNNERS[cfg.command](cfg, profile)
        if cfg.csv_dump:
            pts = interior_points(profile, cfg.n, cfg.grid)
            rows = grid_csv_rows(pts, profile)
            header = ",".join(grid_csv_header(cfg.n))
            np.savetxt(cfg.csv_dump, rows, delimiter=",", header=header, comments="")
        if cfg.curve_dump:
            _write_curves(cfg, profile)
    document = {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "hartogs", "version": __version__},
        "config": cfg.resolved(),
        "command": cfg.command,
        "report": report,
        "verdict": verdict,
    }
    if cfg.expect is not None:
        status = 0 if verdict == cfg.expect else 1
    else:
        status = 0 if verdict in POSITIVE_VERDICTS else 1
    return document, verdict, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hartogs",
        description="Kaehler geometry of Hartogs domains: metric, curvature, "
                    "pseudoconvexity and extremality checks.")
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--output", help="override the report path from the config")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.output:
            cfg = dataclasses.replace(cfg, output=args.output)
        document, verdict, status = run(cfg, base_dir=Path(args.config).resolve().parent)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HartogsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if cfg.output:
        Path(cfg.output).write_text(payload)
    if not args.quiet:
        target = cfg.output or "<stdout>"
        print(f"{cfg.command}: verdict {verdict} (report: {target})")
        if not cfg.output:
            print(payload, end="")
    return status


if __name__ == "__main__":
    sys.exit(main())
