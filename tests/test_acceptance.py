"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report).  The shared grids are 200 interior points per profile and
dimension, n in 2..12 (every n the CLI accepts), with the membership gap
bounded below by 0.05 * F(0).
"""

import time

import numpy as np
import pytest

from hartogs import (
    GridSpec,
    classify,
    equivalence_check,
    exp_profile,
    extremal_report,
    generalized_scalars_closed,
    generalized_scalars_poly,
    interior_points,
    inverse_metric_closed_form,
    kahler_indicator,
    linear_profile,
    metric_closed_form,
    potential,
    power_profile,
    profile_from_function,
    pullback_check,
    reduced_conditions,
    ricci_closed_form,
    ricci_numeric,
    scalar_curvature,
    wirtinger_hessian,
)
from hartogs.config import MAX_N, RunConfig
from hartogs.cli import run as cli_run
from hartogs.geometry import det_closed_form

PROFILES = {
    "linear(1,1)": linear_profile(1.0, 1.0),
    "linear(2,0.5)": linear_profile(2.0, 0.5),
    "exp": exp_profile(1.0),
    "power(2)": power_profile(2.0),
}
DIMS = range(2, MAX_N + 1)
SPEC = GridSpec(points=200, seed=7, a_margin=0.05)
FD_STEP = 2.5e-4   # keeps FD truncation below tolerance at the gap margin


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grids():
    return {(name, n): interior_points(prof, n, SPEC)
            for name, prof in PROFILES.items() for n in DIMS}


def test_criterion_1_metric_oracle(grids):
    t0 = time.perf_counter()
    worst = 0.0
    for (name, n), pts in grids.items():
        prof = PROFILES[name]
        h = metric_closed_form(pts, prof)
        # one stencil evaluation for the grid; each entry is that point's Hessian
        fd = wirtinger_hessian(lambda p: potential(p, prof), pts, FD_STEP)
        ratio = (np.max(np.abs(h - fd), axis=(-2, -1))
                 / (1e-5 * (1.0 + np.max(np.abs(h), axis=(-2, -1)))))
        worst = max(worst, float(np.max(ratio)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 5.0
    report(1, ok, f"metric vs FD Hessian, worst err/bound = {worst:.3e}, "
                  f"runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_determinant_identity(grids):
    worst = 0.0
    for (name, n), pts in grids.items():
        closed = det_closed_form(pts, PROFILES[name])
        brute = np.linalg.det(metric_closed_form(pts, PROFILES[name])).real
        worst = max(worst, float(np.max(np.abs(closed - brute) / np.abs(closed))))
    report(2, worst <= 1e-8, f"determinant closed vs brute force, max rel err = {worst:.3e}")


def test_criterion_3_inverse_identity(grids):
    worst = 0.0
    for (name, n), pts in grids.items():
        h = metric_closed_form(pts, PROFILES[name])
        minv = inverse_metric_closed_form(pts, PROFILES[name])
        err = np.abs(np.einsum("mab,mbc->mac", h, minv) - np.eye(n)[None])
        worst = max(worst, float(np.max(err)))
    report(3, worst <= 1e-8, f"max |h h^-1 - I| = {worst:.3e}")


def test_criterion_4_ricci_oracle(grids):
    worst = 0.0
    for (name, n), pts in grids.items():
        prof = PROFILES[name]
        closed = ricci_closed_form(pts, prof)
        # 25-point blocks give the bits of single-point calls (test_curvature)
        for i in range(0, len(pts), 25):
            err = np.max(np.abs(closed[i:i + 25] - ricci_numeric(pts[i:i + 25], prof, FD_STEP)))
            worst = max(worst, float(err))
    einstein = 0.0
    for name in ("linear(1,1)", "linear(2,0.5)"):
        for n in DIMS:
            pts = grids[name, n]
            ric = ricci_closed_form(pts, PROFILES[name])
            h = metric_closed_form(pts, PROFILES[name])
            einstein = max(einstein, float(np.max(np.abs(ric + (n + 1) * h))))
    ok = worst <= 1e-4 and einstein <= 1e-10
    report(4, ok, f"Ricci closed vs FD max abs = {worst:.3e} (<= 1e-4), "
                  f"Einstein residual = {einstein:.3e} (<= 1e-10)")


def test_criterion_5_scalar_curvature(grids):
    worst = 0.0
    for name in ("linear(1,1)", "linear(2,0.5)"):
        for n in DIMS:
            scal = scalar_curvature(grids[name, n], PROFILES[name])
            worst = max(worst, float(np.max(np.abs(scal + n * (n + 1)))))
    z = np.array([1.0, 0.0], complex)
    exp_val = scalar_curvature(z, PROFILES["exp"])
    # oracle: trace contraction of the closed-form matrices
    traced = float(np.real(np.einsum(
        "ba,ab->", inverse_metric_closed_form(z, PROFILES["exp"]),
        ricci_closed_form(z, PROFILES["exp"]))))
    ok = worst <= 1e-12 and abs(exp_val + 4.0) <= 1e-8 and abs(traced - exp_val) <= 1e-10
    report(5, ok, f"linear scal = -n(n+1) to {worst:.2e}; exp scal(1,0) = {exp_val:.12f} "
                  f"(target -4), contraction oracle gap {abs(traced - exp_val):.2e}")


def test_criterion_6_generalized_curvatures(grids):
    # the two routes differ by roundoff on |rho_k|, which reaches 2.3e13 at
    # n = 12: the bound is per entry, relative to the closed value
    route_gap = 0.0
    rho0_gap = 0.0
    for (name, n), pts in grids.items():
        prof = PROFILES[name]
        rho = generalized_scalars_closed(pts, prof)
        rho0_gap = max(rho0_gap, float(np.max(np.abs(
            rho[:, 0] - scalar_curvature(pts, prof)))))
        for z in pts[:25]:
            closed = generalized_scalars_closed(z, prof)
            gap = np.max(np.abs(closed - generalized_scalars_poly(z, prof))
                         / (1e-12 * (1.0 + np.abs(closed))))
            route_gap = max(route_gap, float(gap))
    v2 = generalized_scalars_closed(np.zeros(2, complex), PROFILES["linear(1,1)"])
    v3 = generalized_scalars_closed(np.zeros(3, complex), PROFILES["linear(1,1)"])
    hyper_ok = (np.allclose(v2, [-6.0, 9.0], atol=1e-12)
                and np.allclose(v3, [-12.0, 48.0, -64.0], atol=1e-12))
    ok = route_gap <= 1.0 and rho0_gap <= 1e-12 and hyper_ok
    report(6, ok, f"poly vs closed, worst err/(1e-12 (1 + |rho_k|)) = {route_gap:.3e} "
                  f"(<= 1), rho_0 vs scal = "
                  f"{rho0_gap:.3e} (<= 1e-12), hyperbolic vectors {'ok' if hyper_ok else 'BAD'}")


def test_criterion_7_extremality():
    results = {}
    for name, prof in PROFILES.items():
        results[name] = extremal_report(prof, 2, SPEC, tol=1e-5)
    linear_ok = all(results[k].verdict == "EXTREMAL" and results[k].max_residual == 0.0
                    for k in ("linear(1,1)", "linear(2,0.5)"))
    falsified_ok = all(results[k].verdict == "NOT_EXTREMAL"
                       and results[k].max_residual >= 1e-3
                       for k in ("exp", "power(2)"))
    oracle = max(rep.oracle_fiber_error for rep in results.values())
    xs = np.linspace(0.1, 3.0, 59)
    r1, r2 = reduced_conditions(PROFILES["exp"], xs)
    reduced_ok = (np.max(np.abs(r1)) <= 1e-10 and np.max(np.abs(r2 + 2.0)) <= 1e-8)
    ok = linear_ok and falsified_ok and oracle <= 1e-8 and reduced_ok
    report(7, ok, "linear radial residual = 0 (<= 1e-5): %s; exp/power radial residual "
                  ">= 1e-3: %s (%.2e, %.2e); FD oracle fiber error %.2e (<= 1e-8); "
                  "exp reduced r1 <= 1e-10, r2 = -2 +- 1e-8: %s" % (
                      linear_ok, falsified_ok, results["exp"].max_residual,
                      results["power(2)"].max_residual, oracle, reduced_ok))


def test_criterion_8_pseudoconvexity_equivalence():
    lin_rep = equivalence_check(PROFILES["linear(1,1)"], 2, GridSpec(points=500, seed=3))
    exp_rep = equivalence_check(PROFILES["exp"], 2, GridSpec(points=500, seed=3))
    wiggle = profile_from_function(
        lambda j: (-j + (j * 6.0).sin() * (1.0 / 12.0)).exp(),
        x0=float("inf"), name="wiggle")
    wig_rep = equivalence_check(wiggle, 2, GridSpec(points=500, seed=7, x_cap=2.0))
    x_star = abs(wig_rep.argmin_point[0]) ** 2
    flagged = wig_rep.min_levi <= 0.0 and kahler_indicator(wiggle, x_star) > 0.0
    ok = (lin_rep.verdict == "CONSISTENT" and exp_rep.verdict == "CONSISTENT" and flagged)
    report(8, ok, f"linear/exp CONSISTENT: {lin_rep.verdict}/{exp_rep.verdict}; "
                  f"sign-changing profile flagged at x = {x_star:.3f} "
                  f"(indicator {kahler_indicator(wiggle, x_star):+.3f}, "
                  f"levi {wig_rep.min_levi:+.3f})")


def test_criterion_9_classification():
    verdicts = {name: classify(prof, 2, SPEC).verdict for name, prof in PROFILES.items()}
    pattern_ok = (verdicts["linear(1,1)"] == "HYPERBOLIC"
                  and verdicts["linear(2,0.5)"] == "HYPERBOLIC"
                  and verdicts["exp"] == "NON_CONSTANT_CURVATURE"
                  and verdicts["power(2)"] == "NON_CONSTANT_CURVATURE")
    pull = max(pullback_check(1.0, 1.0, 2, SPEC).max_error,
               pullback_check(2.0, 0.5, 2, SPEC).max_error,
               pullback_check(2.0, 0.5, 3, SPEC).max_error)
    t0 = time.perf_counter()
    _, suite_verdict, status = cli_run(RunConfig(command="full-suite", profile={},
                                                 grid=GridSpec(points=200, seed=7)))
    elapsed = time.perf_counter() - t0
    ok = (pattern_ok and pull <= 1e-10 and suite_verdict == "SUITE_PASS"
          and status == 0 and elapsed < 60.0)
    report(9, ok, f"verdicts {verdicts}; pullback max err = {pull:.3e} (<= 1e-10); "
                  f"full-suite {suite_verdict} in {elapsed:.2f}s (< 60s)")
