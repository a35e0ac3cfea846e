"""Curvature: closed forms vs numeric Ricci, contraction, and polynomial routes."""

import numpy as np
import pytest

from hartogs import (
    GridSpec,
    NumericError,
    curvature_polynomial_coefficients,
    curvature_record,
    det_closed_form,
    exp_profile,
    generalized_scalars_closed,
    generalized_scalars_poly,
    interior_points,
    inverse_metric_closed_form,
    metric_closed_form,
    profile_from_function,
    radial_coefficients,
    ricci_closed_form,
    ricci_numeric,
    scalar_curvature,
    table_profile,
)
from hartogs.config import MAX_N


class TestRicci:
    def test_hyperbolic_origin(self, lin11):
        ric = ricci_closed_form(np.zeros(2, complex), lin11)
        np.testing.assert_allclose(ric, -3.0 * np.eye(2), atol=1e-14)

    def test_exponential_origin(self, expp):
        # h(0) = I and L = -2, so Ric = -3 h + 2 E00 = diag(-1, -3)
        ric = ricci_closed_form(np.zeros(2, complex), expp)
        np.testing.assert_allclose(ric, np.diag([-1.0, -3.0]), atol=1e-13)

    def test_numeric_hyperbolic_origin(self, lin11):
        ric = ricci_numeric(np.zeros(2, complex), lin11, 1e-3)
        np.testing.assert_allclose(ric, -3.0 * np.eye(2), atol=1e-6)

    def test_numeric_einstein_point(self, lin11):
        z = np.array([0.1, 0.2, 0.1], complex)
        ric = ricci_numeric(z, lin11, 1e-3)
        target = -4.0 * metric_closed_form(z, lin11)
        assert np.max(np.abs(ric - target)) <= 1e-5

    def test_closed_vs_numeric_sweep(self, builtin_profiles, sample_points):
        for name, prof in builtin_profiles.items():
            for n in (2, 3):
                for z in sample_points[name, n][:20]:
                    err = np.abs(ricci_closed_form(z, prof) - ricci_numeric(z, prof, 2.5e-4))
                    assert np.max(err) <= 1e-4, (name, n)

    def test_numeric_batch_equals_single_points(self, oracle_profiles):
        # bit for bit where every stencil determinant is positive; where one
        # is not (wiggle's non-admissible points), the batch call and the
        # call on such a point both raise
        for name, prof in oracle_profiles.items():
            for n in range(2, MAX_N + 1):
                pts = interior_points(prof, n, GridSpec(points=3, seed=n))
                single, failed = [], 0
                for z in pts:
                    try:
                        single.append(ricci_numeric(z, prof, 1e-3))
                    except NumericError:
                        failed += 1
                if failed:
                    with pytest.raises(NumericError):
                        ricci_numeric(pts, prof, 1e-3)
                    continue
                batch = ricci_numeric(pts, prof, 1e-3)
                assert batch.shape == (3, n, n) and single[0].shape == (n, n)
                np.testing.assert_array_equal(batch, np.stack(single), err_msg=name)

    def test_numeric_rejects_non_admissible_points(self, wiggle):
        # log det of a negative determinant would be NaN; the oracle raises
        pts = interior_points(wiggle, 3, GridSpec(points=6, seed=3))
        for i in (0, 3):
            with pytest.raises(NumericError):
                ricci_numeric(pts[i], wiggle, 1e-3)
        with pytest.raises(NumericError):
            ricci_numeric(pts, wiggle, 1e-3)
        ricci_numeric(pts[[1, 2, 4, 5]], wiggle, 1e-3)

    def test_einstein_identity_linear(self, lin2_05, sample_points):
        pts = sample_points["linear(2,0.5)", 3]
        ric = ricci_closed_form(pts, lin2_05)
        h = metric_closed_form(pts, lin2_05)
        assert np.max(np.abs(ric + 4.0 * h)) <= 1e-10


class TestScalarCurvature:
    def test_hyperbolic_constant(self, lin11, lin2_05, sample_points):
        for prof, key in ((lin11, "linear(1,1)"), (lin2_05, "linear(2,0.5)")):
            scal2 = scalar_curvature(sample_points[key, 2], prof)
            scal3 = scalar_curvature(sample_points[key, 3], prof)
            np.testing.assert_allclose(scal2, -6.0, atol=1e-12)
            np.testing.assert_allclose(scal3, -12.0, atol=1e-12)

    def test_exponential_value(self, expp):
        # A = e^{-1}, G = 2e, scal = -6 + G A = -4
        val = scalar_curvature(np.array([1.0, 0.0], complex), expp)
        assert val == pytest.approx(-4.0, abs=1e-8)

    def test_trace_contraction_oracle(self, builtin_profiles, sample_points):
        for name, prof in builtin_profiles.items():
            for n in (2, 3):
                pts = sample_points[name, n]
                minv = inverse_metric_closed_form(pts, prof)
                ric = ricci_closed_form(pts, prof)
                traced = np.einsum("mba,mab->m", minv, ric)
                assert np.max(np.abs(traced.imag)) <= 1e-10
                direct = scalar_curvature(pts, prof)
                assert np.max(np.abs(traced.real - direct)) <= 1e-10, (name, n)

    def test_two_groupings_agree(self, builtin_profiles, wiggle, grid_small):
        # G A - n(n+1), G = -L F / B, against the grouping -(A/B) F L - n(n+1)
        xs = np.linspace(0.0, 2.0, 200)
        table = table_profile(xs, np.exp(-xs - 0.1 * xs ** 2))
        profiles = dict(builtin_profiles, wiggle=wiggle, table=table)
        for n in (2, 3, 4):
            for name, prof in profiles.items():
                pts = interior_points(prof, n, grid_small)
                scal = scalar_curvature(pts, prof)
                rad = radial_coefficients(prof, np.abs(pts[:, 0]) ** 2)
                a = rad.F[0] - np.sum(np.abs(pts[:, 1:]) ** 2, axis=1)
                regrouped = -(a / rad.B) * rad.F[0] * rad.L - n * (n + 1.0)
                assert np.all(np.abs(scal - regrouped) <= 1e-12 * (1.0 + np.abs(scal))), (name, n)

    def test_depends_only_on_radii(self, expp):
        # same |z_0| and same total fiber radius, different phases/splitting
        za = np.array([0.3 * np.exp(0.4j), 0.2 * np.exp(1.1j), 0.1 * np.exp(2.0j)])
        zb = np.array([0.3 * np.exp(-2.2j), np.sqrt(0.05) * np.exp(0.3j), 0.0])
        assert scalar_curvature(za, expp) == pytest.approx(
            scalar_curvature(zb, expp), abs=1e-12)


class TestGeneralizedScalars:
    def test_hyperbolic_vectors(self, lin11):
        np.testing.assert_allclose(
            generalized_scalars_closed(np.zeros(2, complex), lin11), [-6.0, 9.0], atol=1e-12)
        np.testing.assert_allclose(
            generalized_scalars_closed(np.zeros(3, complex), lin11),
            [-12.0, 48.0, -64.0], atol=1e-12)

    def test_rho0_equals_scal(self, builtin_profiles, sample_points):
        for name, prof in builtin_profiles.items():
            for n in (2, 3):
                pts = sample_points[name, n]
                rho = generalized_scalars_closed(pts, prof)
                scal = scalar_curvature(pts, prof)
                assert np.max(np.abs(rho[..., 0] - scal)) <= 1e-12, (name, n)

    @pytest.mark.parametrize("n", range(2, MAX_N + 1))
    def test_rho0_is_scal_bit_for_bit(self, builtin_profiles, n):
        # rho is computed from scal, so rho_0 is scal itself, in both entry points
        for name, prof in builtin_profiles.items():
            pts = interior_points(prof, n, GridSpec(points=200, seed=7))
            scal = scalar_curvature(pts, prof)
            np.testing.assert_array_equal(generalized_scalars_closed(pts, prof)[:, 0], scal,
                                          err_msg=name)
            rec = curvature_record(pts, prof)
            np.testing.assert_array_equal(rec.scal, scal, err_msg=name)
            np.testing.assert_array_equal(rec.rho[:, 0], scal, err_msg=name)

    def test_exponential_rho0(self, expp):
        rho = generalized_scalars_closed(np.array([1.0, 0.0], complex), expp)
        assert rho[0] == pytest.approx(-4.0, abs=1e-8)

    def test_poly_route_matches_closed(self, builtin_profiles):
        for n in (2, 3, 4):
            for name, prof in builtin_profiles.items():
                pts = interior_points(prof, n, GridSpec(points=12, seed=n))
                for z in pts:
                    closed = generalized_scalars_closed(z, prof)
                    poly = generalized_scalars_poly(z, prof)
                    assert np.max(np.abs(closed - poly)) <= 1e-8, (name, n)

    def test_poly_route_matches_closed_up_to_n12(self, oracle_profiles):
        for n in range(2, MAX_N + 1):
            for name, prof in oracle_profiles.items():
                pts = interior_points(prof, n, GridSpec(points=20, seed=n))
                closed = generalized_scalars_closed(pts, prof)
                poly = generalized_scalars_poly(pts, prof)
                assert poly.shape == (20, n)
                assert np.max(np.abs(closed - poly)) <= 1e-8 * (1.0 + np.max(np.abs(closed))), (
                    name, n)

    def test_zero_ricci_gives_zero(self, lin11):
        h = metric_closed_form(np.array([0.2, 0.3], complex), lin11)
        coeffs = curvature_polynomial_coefficients(h, np.zeros_like(h))
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-12)

    def test_factored_determinant_identity(self, expp):
        # det(I + t M) = (1-(n+1)t)^n - t L (1-(n+1)t)^(n-1) A F / B at t = 0.1
        z = np.array([0.31 - 0.22j, 0.41 + 0.05j, -0.13 + 0.33j])
        n = 3
        t = 0.1
        h = metric_closed_form(z, expp)
        ric = ricci_closed_form(z, expp)
        m = np.linalg.solve(h, ric)
        lhs = np.linalg.det(np.eye(n) + t * m).real
        x = abs(z[0]) ** 2
        b = radial_coefficients(expp, x)
        f = expp.deriv(0, x)
        a = f - np.sum(np.abs(z[1:]) ** 2)
        rhs = (1 - (n + 1) * t) ** n - t * b.L * (1 - (n + 1) * t) ** (n - 1) * a * f / b.B
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_constancy_propagation(self, lin11, expp):
        pts = interior_points(lin11, 2, GridSpec(points=200, seed=1))
        rho = generalized_scalars_closed(pts, lin11)
        assert np.max(np.ptp(rho, axis=0)) <= 1e-8
        # exponential profile: rho_0 varies visibly once A spans a wide range
        pts = interior_points(expp, 2, GridSpec(points=200, seed=1, a_margin=0.1))
        scal = scalar_curvature(pts, expp)
        assert np.ptp(scal) > 0.5


class TestCurvatureRecord:
    def test_json_shape(self, expp):
        rec = curvature_record(np.array([0.4 + 0.1j, 0.2 - 0.3j], complex), expp)
        doc = rec.to_json()
        assert sorted(doc) == sorted(["point", "L", "scal", "rho"])
        assert len(doc["point"]) == 4
        assert isinstance(doc["L"], float)
        assert len(doc["rho"]) == 2
        assert doc["rho"][0] == pytest.approx(doc["scal"], abs=1e-12)

    def test_record_consistency(self, lin11):
        rec = curvature_record(np.zeros(2, complex), lin11)
        assert rec.scal == pytest.approx(-6.0, abs=1e-12)
        assert rec.L == pytest.approx(0.0, abs=1e-13)

    def test_batch_equals_single(self, builtin_profiles, sample_points):
        # one batched record holds the per-point records, bit for bit
        for name, prof in builtin_profiles.items():
            pts = sample_points[name, 3]
            batch = curvature_record(pts, prof)
            assert batch.scal.shape == (60,) and batch.L.shape == (60,)
            for k, z in enumerate(pts):
                one = curvature_record(z, prof)
                assert isinstance(one.scal, float)
                np.testing.assert_array_equal(batch.point[k], one.point)
                assert isinstance(one.L, float)
                assert batch.L[k] == one.L
                assert batch.scal[k] == one.scal
                np.testing.assert_array_equal(batch.rho[k], one.rho)


def _relative(a, b) -> float:
    """Largest per-point ``max|a - b| / max|b|`` over the trailing axes."""
    a, b = np.asarray(a), np.asarray(b)
    axes = tuple(range(1, a.ndim))
    return float(np.max(np.max(np.abs(a - b), axis=axes, initial=0.0)
                        / np.max(np.abs(b), axis=axes, initial=0.0)))


def _scaled_pair(kind: str, s: float) -> tuple:
    """A profile ``F`` and ``F_s(x) = F(s x)``: exp in closed form, or a jet-backed formula."""
    if kind == "exp":
        return exp_profile(1.0), exp_profile(s)

    def formula(j):
        return (2.0 - j) ** 1.5 * (-0.5 * j).exp()

    return (profile_from_function(formula, 2.0),
            profile_from_function(lambda j: formula(s * j), 2.0 / s))


# The relative bound of the isometry oracle.  On the grids below (seed n) the
# worst case is 7.2e-14, the radial block (G' of exp at s = 50, n = 4), then
# det 6.5e-14, Ricci 1.6e-14, rho 1.2e-14, the metric 9.8e-15 and scal
# 4.0e-15; over seeds n + 100, n + 200 and n + 300 it is 7.9e-14.
ISOMETRY_RTOL = 2e-13


class TestScalingIsometry:
    """``phi(z) = (sqrt(s) z_0, z')`` maps ``D_(F_s)`` onto ``D_F`` for
    ``F_s(x) = F(s x)``, since ``A_s = A o phi``: a step-free oracle at every
    ``n``.  With ``J = diag(sqrt s, 1, ..., 1)`` the metric and Ricci pull back
    as ``J g(phi(z)) J``, ``det_s = s det``, ``scal`` and ``rho`` are equal,
    and the radial block goes as ``L_s(x) = s L(s x)``, ``G_s(x) = G(s x)``,
    ``L_s'(x) = s^2 L'(s x)``, ``G_s'(x) = s G'(s x)``."""

    @pytest.mark.parametrize("kind", ["exp", "jet"])
    @pytest.mark.parametrize("s", [3.0, 50.0])
    @pytest.mark.parametrize("n", range(2, MAX_N + 1))
    def test_closed_forms_are_invariant(self, kind, s, n):
        base, scaled = _scaled_pair(kind, s)
        z = interior_points(scaled, n, GridSpec(points=100, seed=n))
        w = z.copy()
        w[:, 0] *= np.sqrt(s)
        j = np.ones(n)
        j[0] = np.sqrt(s)
        jj = j[:, None] * j[None, :]
        # the radial block on the samples' abscissae, not on a sweep: at
        # x' = 250, r1 + x r2 cancels in L
        x = np.square(np.abs(z[:, 0]))
        mine, theirs = radial_coefficients(scaled, x), radial_coefficients(base, s * x)
        errors = {
            "metric": _relative(metric_closed_form(z, scaled), jj * metric_closed_form(w, base)),
            "ricci": _relative(ricci_closed_form(z, scaled), jj * ricci_closed_form(w, base)),
            "det": _relative(det_closed_form(z, scaled), s * det_closed_form(w, base)),
            "scal": _relative(scalar_curvature(z, scaled), scalar_curvature(w, base)),
            "rho": _relative(generalized_scalars_closed(z, scaled),
                             generalized_scalars_closed(w, base)),
            "radial": _relative(
                np.stack([mine.L / s, mine.G, mine.dL / s**2, mine.dG / s], axis=-1),
                np.stack([theirs.L, theirs.G, theirs.dL, theirs.dG], axis=-1)),
        }
        assert max(errors.values()) <= ISOMETRY_RTOL, errors
