"""Command-line front end: runs a configured pipeline and writes JSON reports.

Exit status: 0 when the verdict matches expectations, 1 on verdict
failure, 2 on configuration errors.  Reports are deterministic byte for
byte for a fixed config (fixed seeds, serial reductions, sorted keys);
they are written with the bytes of ``json.dumps(document,
sort_keys=True, indent=2)`` by a writer that fills row tables from arrays.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .classification import classify
from .config import RunConfig, build_profile, load_config
from .curvature import curvature_record, ricci_numeric
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


class _Slot:
    """A number in a :class:`_Rows` template: column ``column`` of the values."""

    __slots__ = ("column",)

    def __init__(self, column: int):
        self.column = column


@dataclasses.dataclass(frozen=True)
class _Rows:
    """A JSON list of rows that share one layout, filled from a number array.

    ``template`` is one row whose numbers are :class:`_Slot` leaves; row
    ``i`` of the list is the template with ``values[i, slot.column]`` at
    each slot.  :func:`_dumps` renders the layout once and fills it for
    every row in one formatting pass.
    """

    template: object
    values: np.ndarray


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(text: str) -> str:
    """JSON spelling of a ``float.__repr__`` text (``nan`` is ``NaN`` and so on)."""
    return _NON_FINITE.get(text, text)


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` byte for byte, plus :class:`_Rows`.

    Takes str, None, bool, int, float (NumPy ``float64`` included), lists,
    tuples and dicts with str keys; anything else is a ``TypeError``.
    """
    out: list = []
    _encode(obj, 0, out)
    return "".join(out)


def _encode(obj, level: int, out: list) -> None:
    """Append the text of ``obj`` at nesting ``level`` to ``out``.

    Inside a :class:`_Rows` template a :class:`_Slot` is appended as is;
    :func:`_encode_rows` turns it into a format slot.
    """
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(float.__repr__(obj)))
    elif isinstance(obj, _Slot):
        out.append(obj)
    elif isinstance(obj, _Rows):
        _encode_rows(obj, level, out)
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        indent = "\n" + "  " * (level + 1)
        if isinstance(obj, dict):
            for i, key in enumerate(sorted(obj)):
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
                out.append(("," if i else "{") + indent + encode_basestring_ascii(key) + ": ")
                _encode(obj[key], level + 1, out)
            out.append("\n" + "  " * level + "}")
        else:
            for i, item in enumerate(obj):
                out.append(("," if i else "[") + indent)
                _encode(item, level + 1, out)
            out.append("\n" + "  " * level + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _encode_rows(rows: _Rows, level: int, out: list) -> None:
    """Append the list ``rows`` stands for: its layout rendered once, then filled."""
    if not len(rows.values):
        out.append("[]")
        return
    layout: list = []
    _encode(rows.template, level + 1, layout)
    columns = [part.column for part in layout if isinstance(part, _Slot)]
    row = "".join("%s" if isinstance(part, _Slot) else part.replace("%", "%%")
                  for part in layout)
    values = rows.values[:, columns]
    texts = list(map(float.__repr__, values.ravel().tolist()))
    if not np.all(np.isfinite(values)):
        texts = list(map(_float_text, texts))
    indent = "\n" + "  " * (level + 1)
    out.append("[" + indent + ("," + indent).join([row] * len(values)) % tuple(texts)
               + "\n" + "  " * level + "]")


def _record_rows(batch) -> _Rows:
    """The ``records`` list of ``curvature-report`` from one batched record.

    Row ``i`` is ``CurvatureRecord.to_json()`` of point ``i``: the point as
    interleaved real and imaginary parts, Ricci as ``[re, im]`` pairs in
    row-major order, the scalar curvature and ``rho``.
    """
    m, n = batch.point.shape
    values = np.column_stack([
        np.stack([batch.point.real, batch.point.imag], axis=-1).reshape(m, 2 * n),
        np.stack([batch.ricci.real, batch.ricci.imag], axis=-1).reshape(m, 2 * n * n),
        batch.scal, batch.rho,
    ])
    slots = iter([_Slot(k) for k in range(values.shape[1])])

    def take(count):
        return [next(slots) for _ in range(count)]

    # slots in the column order above; the writer renders the keys sorted
    template = {"point": take(2 * n), "ricci": [take(2) for _ in range(n * n)],
                "scal": next(slots), "rho": take(n)}
    return _Rows(template, values)


def _run_curvature_report(cfg: RunConfig, profile: Profile) -> tuple[dict, str]:
    pts = interior_points(profile, cfg.n, cfg.grid)
    batch = curvature_record(pts, profile)
    h = metric_closed_form(pts, profile)
    # oracle deviations; FD Hessians only on a subsample, they dominate the cost.
    # Both Hessian oracles are judged per point relative to the size of the closed form.
    sub, h_sub, ric = pts[:25], h[:25], batch.ricci[:25]
    fd = wirtinger_hessian(lambda p: potential(p, profile), sub, cfg.fd_step)
    metric_ratio = _finite_max(
        np.max(np.abs(h_sub - fd), axis=(-2, -1))
        / (cfg.tol_oracle * (1.0 + np.max(np.abs(h_sub), axis=(-2, -1)))),
        "metric oracle error")
    ric_errs = np.max(np.abs(ric - ricci_numeric(sub, profile, cfg.fd_step)), axis=(-2, -1))
    ric_err = _finite_max(ric_errs, "Ricci oracle error")
    ricci_ratio = _finite_max(
        ric_errs / (cfg.tol_oracle * (1.0 + np.max(np.abs(ric), axis=(-2, -1)))),
        "Ricci oracle error")
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
        "records": _record_rows(batch),
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
    rep = classify(profile, cfg.n, cfg.grid, tol=cfg.tol_classify)
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
            "max_residual": ext["max_residual"],
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
    """Execute the configured command; return (document, verdict, exit status).

    The document holds JSON values, except that the ``records`` of
    ``curvature-report`` are a ``_Rows`` table; ``main`` writes it with
    ``_dumps``.
    """
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
    payload = _dumps(document) + "\n"
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
