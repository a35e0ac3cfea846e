"""Rescaling to the ball, pullback isometry, and the verdict pipeline."""

import numpy as np
import pytest

from hartogs import (
    DomainError,
    GridSpec,
    NumericError,
    HyperbolicMap,
    classify,
    extremal_report,
    hyperbolic_metric,
    interior_points,
    linear_profile,
    profile_from_function,
    pullback_check,
    scalar_curvature,
    wirtinger_hessian,
)
from hartogs.classification import PULLBACK_TOL
from hartogs.config import MAX_N
from conftest import make_custom


class TestHyperbolicMetric:
    def test_identity_at_origin(self):
        np.testing.assert_allclose(hyperbolic_metric(np.zeros(2, complex)),
                                   np.eye(2), atol=1e-15)

    def test_matches_hessian_on_axis(self):
        z = np.array([0.0, 0.55], complex)

        def ball_potential(pts):
            return -np.log(1.0 - np.sum(np.abs(pts) ** 2, axis=-1))

        fd = wirtinger_hessian(ball_potential, z, 1e-3)
        assert np.max(np.abs(fd - hyperbolic_metric(z))) <= 1e-6

    def test_constant_scalar_curvature(self):
        ball = linear_profile(1.0, 1.0)
        rng = np.random.default_rng(17)
        count = 0
        while count < 50:
            z = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            if np.sum(np.abs(z) ** 2) >= 0.95:
                continue
            count += 1
            assert scalar_curvature(z, ball) == pytest.approx(-6.0, abs=1e-12)

    def test_outside_ball(self):
        with pytest.raises(DomainError):
            hyperbolic_metric(np.array([0.8, 0.7], complex))


class TestHyperbolicMap:
    def test_maps_into_ball(self):
        c1, c2 = 2.0, 0.5
        phi = HyperbolicMap(c1, c2)
        pts = interior_points(linear_profile(c1, c2), 3, GridSpec(points=100, seed=4))
        images = phi(pts)
        assert np.all(np.sum(np.abs(images) ** 2, axis=-1) < 1.0)

    def test_identity_scales(self):
        phi = HyperbolicMap(1.0, 1.0)
        np.testing.assert_array_equal(phi.scales(3), np.ones(3))


class TestPullback:
    def test_identity_map(self):
        rep = pullback_check(1.0, 1.0, 2, GridSpec(points=100, seed=1))
        assert rep.max_error <= 1e-15
        assert rep.passed

    def test_generic_rescaling(self):
        rep = pullback_check(2.0, 0.5, 2, GridSpec(points=200, seed=2))
        assert rep.max_error <= 1e-10
        rep = pullback_check(1.0, 4.0, 3, GridSpec(points=200, seed=3))
        assert rep.max_error <= 1e-10

    def test_reads_the_linear_profiles_own_sample(self):
        # the bits of the check when it built the metric of a fresh linear profile
        spec = GridSpec(points=200, seed=11)
        errors = [pullback_check(c1, c2, n, spec).max_error
                  for c1, c2, n in ((1.0, 1.0, 2), (2.0, 0.5, 2), (2.0, 0.5, 3))]
        assert errors == [0.0, 1.2899732567169359e-14, 1.2987701261298712e-14]


class TestClassify:
    def test_linear_is_hyperbolic(self):
        rep = classify(linear_profile(3.0, 0.5), 2)
        assert rep.verdict == "HYPERBOLIC"
        assert rep.c1 == pytest.approx(3.0)
        assert rep.c2 == pytest.approx(0.5)
        assert rep.pullback_max_error <= 1e-10
        assert rep.max_abs_l == 0.0

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_near_linear_member_reads_its_own_metric(self, n):
        # F = (1 - x) exp(-eps x) passes the L sweep and the linear fit at each eps
        # here, and its metric departs from that of 1 - x by about 38 eps: the
        # pullback check compares the ball's metric with that metric, not the line's
        spec = GridSpec(points=200, seed=1)
        for eps, verdict in ((1e-9, "INCONSISTENT"), (1e-10, "INCONSISTENT"),
                             (1e-11, "INCONSISTENT"), (1e-12, "HYPERBOLIC")):
            prof = profile_from_function(lambda j, e=eps: (1.0 - j) * (j * -e).exp(), x0=1.0)
            rep = classify(prof, n, spec)
            assert rep.fit_error <= rep.tol and rep.max_abs_l <= rep.tol
            assert rep.verdict == verdict, eps
            assert rep.pullback_max_error == pytest.approx(38.3 * eps, rel=1e-3), eps
            assert (rep.pullback_max_error > PULLBACK_TOL) == (verdict == "INCONSISTENT")

    def test_exponential_not_constant(self, expp):
        rep = classify(expp, 2)
        assert rep.verdict == "NON_CONSTANT_CURVATURE"
        assert rep.max_abs_l == pytest.approx(2.0, rel=1e-10)
        assert rep.rho0_spread > 0.5
        assert rep.extremal_max_residual > 1e-3

    def test_power_not_constant(self, pw2):
        rep = classify(pw2, 2)
        assert rep.verdict == "NON_CONSTANT_CURVATURE"
        assert rep.max_abs_l > 2.0   # |L| = 2/(1-x)^2 grows toward the endpoint

    def test_inconsistent_profile_detected(self):
        # derivative table claims linearity but the values are curved
        def lie(k, x):
            xa = np.asarray(x, dtype=float)
            if k == 0:
                return 1.0 - xa + 0.05 * xa ** 2
            if k == 1:
                return np.full_like(xa, -1.0)
            return np.zeros_like(xa)

        liar = make_custom(lie, x0=1.0, name="liar")
        assert classify(liar, 2).verdict == "INCONSISTENT"

    @pytest.mark.parametrize("n", range(2, MAX_N + 1))
    def test_linear_is_hyperbolic_near_the_boundary(self, n):
        # non-unit scales at a tight margin: the metric entries grow like 1/A^2,
        # and the pullback's roundoff is judged per point against their size
        rng = np.random.default_rng(n)
        for _ in range(3):
            c1, c2 = rng.uniform(0.5, 3.0), rng.uniform(0.2, 2.0)
            rep = classify(linear_profile(c1, c2), n,
                           GridSpec(points=200, seed=int(rng.integers(1000)), a_margin=0.005))
            assert rep.verdict == "HYPERBOLIC", (c1, c2, rep.pullback_max_error)
            assert rep.pullback_max_error <= 1e-12

    def test_verdict_stable_under_tighter_tolerance(self):
        prof = linear_profile(2.0, 1.0)
        for tol in (1e-8, 5e-9, 2.5e-9):
            assert classify(prof, 2, tol=tol).verdict == "HYPERBOLIC"

    def test_a_nan_l_sweep_is_a_numeric_error(self):
        # a domain declared past the profile's zero at x = 2: the L sweep reaches
        # x = 2.97 and is NaN there, while the interior draw rejects those points
        prof = profile_from_function(lambda j: (2.0 - j) ** 0.5, x0=3.0)
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError, match="^non-finite radial Ricci correction L$"):
            classify(prof, 2, GridSpec(points=50, seed=1))

    def test_json_fields(self, expp):
        doc = classify(expp, 2).to_json()
        for key in ("profile", "L_grid", "c1", "c2", "pullback_max_error", "verdict"):
            assert key in doc
        assert doc["L_grid"]["max_abs"] == pytest.approx(2.0, rel=1e-10)


def test_extremal_and_classification_agree(builtin_profiles):
    # on the built-in family, the extremal verdict and the constant-curvature
    # verdict single out exactly the same profiles
    spec = GridSpec(points=100, seed=15)
    for name, prof in builtin_profiles.items():
        extremal = extremal_report(prof, 2, spec).verdict == "EXTREMAL"
        hyperbolic = classify(prof, 2, spec).verdict == "HYPERBOLIC"
        assert extremal == hyperbolic, name
