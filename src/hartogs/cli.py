"""Command-line front end: runs a configured pipeline and writes JSON reports.

Exit status: 0 when the verdict matches expectations, 1 on verdict
failure, 2 on configuration, numeric and write errors.  The runners, their
pipelines and the grid dump take the interior grid from
:func:`~hartogs.sampling.interior_points` under ``cfg.grid``, which keeps
the last sample, so a run draws each grid once and its closed forms,
given the kept points, read the sample; it runs under
``np.errstate(divide="raise", invalid="raise", over="raise")``, and a
floating-point error (a division by zero, an invalid operation or an
overflow; underflow stays ignored) is a ``NumericError``.  Reports are
deterministic byte for byte for a fixed config (fixed seeds, serial
reductions, sorted keys).  They are written with ``json.dumps(document,
sort_keys=True, indent=2)``, except that the curvature records are
formatted once from the batch arrays as a row table and spliced into that
text with the same bytes ``json.dumps`` would give them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classification import classify
from .config import VERDICTS, RunConfig, build_profile, load_config
from .curvature import CurvatureRecord, _ricci, curvature_record, ricci_numeric, scalar_curvature
from .errors import ConfigError, HartogsError, NumericError
from .extremal import ORACLE_POINTS, _extremal_verdict, extremal_report
from .geometry import (
    _interleave,
    _oracle_error,
    det_closed_form,
    grid_csv_header,
    grid_csv_rows,
    inverse_metric_closed_form,
    metric_closed_form,
    potential,
    radial_coefficients,
    wirtinger_hessian,
)
from .profiles import (
    Profile,
    _finite_max,
    exp_profile,
    kahler_indicator,
    linear_profile,
    power_profile,
)
from .pseudoconvexity import equivalence_check
from .sampling import interior_points, x_grid

SCHEMA_VERSION = 2

# Verdicts that count as success when the config declares no expectation.
POSITIVE_VERDICTS = {verdicts[0] for verdicts in VERDICTS.values()}

_SUITE_PROFILES = (
    ("linear(1,1)", lambda: linear_profile(1.0, 1.0), True),
    ("linear(2,0.5)", lambda: linear_profile(2.0, 0.5), True),
    ("exp", lambda: exp_profile(1.0), False),
    ("power(2)", lambda: power_profile(2.0), False),
)


def _curve_x(cfg: RunConfig, profile: Profile) -> np.ndarray:
    """The abscissae of the Kaehler-indicator sweep and of the curve dump."""
    return x_grid(profile, max(cfg.grid.points, 101), cfg.grid)


def _kahler_verdict(cfg: RunConfig, profile: Profile) -> tuple:
    """``(xs, ind, verdict, positivity_agrees)``: the indicator sweep, and whether its sign
    matches the sample's metrics being positive definite, as one batched Cholesky decides."""
    xs = _curve_x(cfg, profile)
    ind = kahler_indicator(profile, xs)
    negative = float(np.max(ind)) < 0.0
    try:
        np.linalg.cholesky(metric_closed_form(interior_points(profile, cfg.n, cfg.grid), profile))
        positive = True
    except np.linalg.LinAlgError:
        positive = False
    return xs, ind, "KAHLER" if negative else "NOT_KAHLER", negative == positive


def _run_check_kahler(cfg: RunConfig, profile: Profile) -> tuple[dict, str]:
    xs, ind, verdict, agrees = _kahler_verdict(cfg, profile)
    h = metric_closed_form(interior_points(profile, cfg.n, cfg.grid), profile)
    report = {
        "max_indicator": float(np.max(ind)),
        "argmax_x": float(xs[int(np.argmax(ind))]),
        "min_metric_eigenvalue": float(np.min(np.linalg.eigvalsh(h))),
        "positivity_agrees": agrees,
    }
    return report, verdict


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Where the records table goes in the report text: the one key ``records``
# at depth 2.  Every depth-2 key is fixed by the program (user-set keys such
# as ``profile.*`` sit at depth 3 or deeper), and a JSON string cannot hold
# a raw newline, so this text occurs exactly once.
_RECORDS_SLOT = '\n    "records": []'


def _records_text(batch: CurvatureRecord) -> str:
    """``records`` of ``curvature-report`` as it sits in the report at depth 2.

    Row ``i`` is ``CurvatureRecord.to_json()`` of point ``i``.  The row
    layout comes from ``json.dumps`` of a template whose numbers are
    ``"%s"`` slots; all rows are filled in one ``%`` pass over the
    ``float.__repr__`` texts of the value matrix, whose columns follow the
    sorted keys (``L``, ``point``, ``rho``, ``scal``).
    """
    m, n = batch.point.shape
    if not m:
        return "[]"
    values = np.column_stack([batch.L, _interleave(batch.point), batch.rho, batch.scal])
    template = {"L": "%s", "point": ["%s"] * (2 * n), "rho": ["%s"] * n, "scal": "%s"}
    indent = "\n      "
    row = json.dumps(template, sort_keys=True, indent=2).replace('"%s"', "%s")
    row = row.replace("\n", indent)
    texts = list(map(float.__repr__, values.ravel().tolist()))
    if not np.all(np.isfinite(values)):
        texts = [_NON_FINITE.get(text, text) for text in texts]
    return "[" + indent + ("," + indent).join([row] * m) % tuple(texts) + "\n    ]"


def _dumps(document: dict) -> str:
    """``json.dumps(document, sort_keys=True, indent=2)``, the records spliced in as text."""
    records = document["report"].get("records")
    if not isinstance(records, CurvatureRecord):
        return json.dumps(document, sort_keys=True, indent=2)
    text = json.dumps({**document, "report": {**document["report"], "records": []}},
                      sort_keys=True, indent=2)
    head, tail = text.split(_RECORDS_SLOT)
    return head + _RECORDS_SLOT.replace("[]", _records_text(records)) + tail


def _run_curvature_report(cfg: RunConfig, profile: Profile) -> tuple[dict, str]:
    pts = interior_points(profile, cfg.n, cfg.grid)
    batch = curvature_record(pts, profile)
    h = metric_closed_form(pts, profile)
    # oracle deviations; FD Hessians only on a subsample, they dominate the cost.
    # Both Hessian oracles are judged per point relative to the size of the closed form.
    k = ORACLE_POINTS
    sub, h_sub = pts[:k], h[:k]
    ric = _ricci(h_sub, batch.L[:k])
    tol = cfg.tolerances.oracle
    err, size = _oracle_error(
        wirtinger_hessian(lambda p: potential(p, profile), sub, cfg.fd_step), h_sub)
    metric_ratio = _finite_max(err / (tol * size), "metric oracle error")
    ric_errs, ric_size = _oracle_error(ricci_numeric(sub, profile, cfg.fd_step), ric)
    ric_err = _finite_max(ric_errs, "Ricci oracle error")
    ricci_ratio = _finite_max(ric_errs / (tol * ric_size), "Ricci oracle error")
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
        "records": batch,
    }
    return report, "PASS" if ok else "FAIL"


def _run_extremal(cfg: RunConfig, profile: Profile) -> tuple[dict, str]:
    rep = extremal_report(profile, cfg.n, cfg.grid, step=cfg.fd_step,
                          tol=cfg.tolerances.extremal)
    return rep.to_json(), rep.verdict


def _run_pseudoconvexity(cfg: RunConfig, profile: Profile) -> tuple[dict, str]:
    rep = equivalence_check(profile, cfg.n, cfg.grid)   # boundary samples only
    return rep.to_json(), rep.verdict


def _run_classify(cfg: RunConfig, profile: Profile) -> tuple[dict, str]:
    rep = classify(profile, cfg.n, cfg.grid, tol=cfg.tolerances.classify)
    return rep.to_json(), rep.verdict


def _run_full_suite(cfg: RunConfig) -> tuple[dict, str]:
    # a row reads verdicts only: check-kahler carries the smallest eigenvalue, extremal-test
    # the FD oracle and the reduced-conditions table, pseudoconvexity-test the worst sample
    rows = []
    ok = True
    for label, make, is_linear in _SUITE_PROFILES:
        profile = make()
        *_, kahler, positivity_agrees = _kahler_verdict(cfg, profile)
        cls = classify(profile, cfg.n, cfg.grid, tol=cfg.tolerances.classify)
        *_, max_res, ext_verdict = _extremal_verdict(profile, cfg.n, cfg.grid,
                                                     cfg.tolerances.extremal)
        pc_verdict = equivalence_check(profile, cfg.n, cfg.grid).verdict
        expected_cls = "HYPERBOLIC" if is_linear else "NON_CONSTANT_CURVATURE"
        expected_ext = "EXTREMAL" if is_linear else "NOT_EXTREMAL"
        row_ok = (kahler == "KAHLER" and positivity_agrees
                  and pc_verdict == "CONSISTENT"
                  and cls.verdict == expected_cls and ext_verdict == expected_ext)
        ok = ok and row_ok
        rows.append({
            "profile": label, "kahler": kahler, "classify": cls.verdict,
            "extremal": ext_verdict, "pseudoconvexity": pc_verdict,
            "max_residual": max_res, "max_abs_l": cls.max_abs_l, "as_expected": row_ok,
        })
    return {"profiles": rows}, "SUITE_PASS" if ok else "SUITE_FAIL"


_RUNNERS = {
    "check-kahler": _run_check_kahler,
    "curvature-report": _run_curvature_report,
    "extremal-test": _run_extremal,
    "pseudoconvexity-test": _run_pseudoconvexity,
    "classify": _run_classify,
}


@contextlib.contextmanager
def _writing(path):
    """Turn an ``OSError`` from writing ``path`` into a ``HartogsError`` (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise HartogsError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_curves(cfg: RunConfig, profile: Profile) -> None:
    """Developer-aid plot data: scal (along the fiber axis) and L versus x."""
    xs = _curve_x(cfg, profile)
    axis_pts = np.zeros((xs.size, cfg.n), dtype=complex)
    axis_pts[:, 0] = np.sqrt(xs)
    scal = scalar_curvature(axis_pts, profile)
    ell = radial_coefficients(profile, xs).L
    for tag, values in (("scal", scal), ("L", ell)):
        path = f"{cfg.curve_dump}.{tag}.csv"
        with _writing(path):
            np.savetxt(path, np.column_stack([xs, values]), delimiter=",",
                       header=f"x,{tag}", comments="")


def _execute(cfg: RunConfig, base_dir: Path | None) -> tuple[dict, str]:
    """The report and verdict of ``cfg``; writes the dumps of a single-profile command."""
    if cfg.command == "full-suite":
        return _run_full_suite(cfg)
    profile = build_profile(cfg.profile, base_dir)
    report, verdict = _RUNNERS[cfg.command](cfg, profile)
    if cfg.csv_dump:
        rows = grid_csv_rows(interior_points(profile, cfg.n, cfg.grid), profile)
        header = ",".join(grid_csv_header(cfg.n))
        with _writing(cfg.csv_dump):
            np.savetxt(cfg.csv_dump, rows, delimiter=",", header=header, comments="")
    if cfg.curve_dump:
        _write_curves(cfg, profile)
    return report, verdict


def run(cfg: RunConfig, base_dir: Path | None = None) -> tuple[dict, str, int]:
    """Execute the configured command; return (document, verdict, exit status).

    The document holds JSON values, except that the ``records`` of
    ``curvature-report`` are the batched :class:`CurvatureRecord`; ``main``
    writes it with ``_dumps``.  A division by zero, an invalid operation
    (0/0, log of a negative number) or an overflow raises ``NumericError``.
    """
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            report, verdict = _execute(cfg, base_dir)
    except FloatingPointError as exc:
        raise NumericError(f"floating-point error: {exc}") from exc
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
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line (a report without output still "
                             "goes to stdout)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.output:
            cfg = dataclasses.replace(cfg, output=args.output)
        document, verdict, status = run(cfg, base_dir=Path(args.config).resolve().parent)
        payload = _dumps(document) + "\n"
        if cfg.output:
            with _writing(cfg.output):
                Path(cfg.output).write_text(payload)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HartogsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"{cfg.command}: verdict {verdict} (report: {cfg.output or '<stdout>'})")
    if not cfg.output:
        print(payload, end="")
    return status


if __name__ == "__main__":
    sys.exit(main())
