"""Extremality: gradients, Hamiltonian field, residual sweeps, reduced conditions."""

import numpy as np
import pytest

from hartogs import (
    GridSpec,
    StepError,
    dbar_jacobian,
    extremal_report,
    extremal_residual,
    hamiltonian_field,
    interior_points,
    inverse_metric_closed_form,
    kahler_indicator,
    metric_closed_form,
    power_profile,
    radial_coefficients,
    reduced_conditions,
    scal_conjugate_gradient,
    scalar_curvature,
    table_profile,
)


def dbar_reference(z, profile, step):
    """One stencil pass that evaluates the field at every stencil point."""
    m, n = z.shape
    disp = np.zeros((4 * n, n), dtype=complex)
    for c in range(n):
        disp[4 * c:4 * c + 4, c] = (step, -step, 1j * step, -1j * step)
    pts = (z[:, None, :] + disp[None]).reshape(m * 4 * n, n)
    vals = hamiltonian_field(pts, profile).reshape(m, 4 * n, n)
    out = np.empty((m, n, n), dtype=complex)
    for c in range(n):
        dx = (vals[:, 4 * c] - vals[:, 4 * c + 1]) / (2.0 * step)
        dy = (vals[:, 4 * c + 2] - vals[:, 4 * c + 3]) / (2.0 * step)
        out[:, :, c] = 0.5 * (dx + 1j * dy)
    return out


@pytest.fixture(scope="module")
def field_profiles(builtin_profiles, wiggle):
    xs = np.linspace(0.0, 3.0, 200)
    return dict(builtin_profiles, table=table_profile(xs, np.exp(-xs)), wiggle=wiggle)


def grad_conj_fd(profile, z, h=1e-4):
    """Oracle: conjugate Wirtinger gradient of scal by 5-point differences."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[0]

    def d5(e):
        s = lambda k: scalar_curvature(z + k * e, profile)
        return (s(-2) - 8 * s(-1) + 8 * s(1) - s(2)) / (12 * h)

    out = np.empty(n, dtype=complex)
    for a in range(n):
        e = np.zeros(n, complex)
        e[a] = h
        out[a] = 0.5 * (d5(e) + 1j * d5(1j * e))
    return out


class TestGradient:
    def test_linear_vanishes(self, lin11, sample_points):
        g = scal_conjugate_gradient(sample_points["linear(1,1)", 3], lin11)
        assert np.max(np.abs(g)) == 0.0

    def test_exponential_fiber_component(self, expp):
        # d scal / dz~_1 = -G(0.25) * 0.3 = -2 e^{0.25} * 0.3
        g = scal_conjugate_gradient(np.array([0.5, 0.3], complex), expp)
        assert g[1] == pytest.approx(-0.7704152500126449, rel=1e-12)

    def test_against_fd_oracle(self, builtin_profiles, sample_points):
        for name, prof in builtin_profiles.items():
            for z in sample_points[name, 2][:15]:
                closed = scal_conjugate_gradient(z, prof)
                fd = grad_conj_fd(prof, z)
                assert np.max(np.abs(closed - fd)) <= 1e-6, name


class TestHamiltonianField:
    def test_linear_vanishes(self, lin2_05, sample_points):
        x = hamiltonian_field(sample_points["linear(2,0.5)", 2], lin2_05)
        assert np.max(np.abs(x)) == 0.0

    def test_exponential_origin_vanishes(self, expp):
        for n in (2, 3, 4):
            x = hamiltonian_field(np.zeros(n, complex), expp)
            assert np.max(np.abs(x)) == 0.0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_against_matrix_route(self, field_profiles, n):
        # the O(n) field against the inverse metric contracted with the gradient
        for name, prof in field_profiles.items():
            pts = interior_points(prof, n, GridSpec(points=40, seed=n, x_cap=2.5))
            closed = hamiltonian_field(pts, prof)
            ref = np.einsum("...ba,...b->...a", inverse_metric_closed_form(pts, prof),
                            scal_conjugate_gradient(pts, prof))
            err = np.max(np.abs(closed - ref), axis=-1)
            assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=-1)), name

    def test_against_linear_solve(self, builtin_profiles, sample_points):
        # X^a contracts the inverse over its first index: X = Minv^T grad,
        # equivalently the solution of h^T X = grad
        for name, prof in builtin_profiles.items():
            for z in sample_points[name, 3][:15]:
                closed = hamiltonian_field(z, prof)
                h = metric_closed_form(z, prof)
                solved = np.linalg.solve(h.T, scal_conjugate_gradient(z, prof))
                assert np.max(np.abs(closed - solved)) <= 1e-8, name


class TestResidual:
    def test_linear_certificate(self, lin11, lin2_05):
        for prof in (lin11, lin2_05):
            for n in (2, 3):
                pts = interior_points(prof, n, GridSpec(points=200, seed=2))
                res = dbar_jacobian(pts, prof)
                assert np.max(np.abs(res)) <= 1e-6
        # single-point API agrees with the batched sweep
        assert extremal_residual(np.array([0.2, 0.3], complex), lin11).max_abs <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_shared_record_matches_pointwise_field(self, field_profiles, n):
        # the stencil shares one radial record per abscissa; the reference
        # evaluates hamiltonian_field at every stencil point
        for name, prof in field_profiles.items():
            pts = interior_points(prof, n, GridSpec(points=40, seed=2, x_cap=2.5))
            ref = (4.0 * dbar_reference(pts, prof, 5e-4) - dbar_reference(pts, prof, 1e-3)) / 3.0
            err = np.max(np.abs(dbar_jacobian(pts, prof) - ref), axis=(1, 2))
            assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=(1, 2))), name

    def test_fiber_displacement_leaves_domain(self, lin11):
        # |z_0|^2 + |z_1|^2 < 1: the axial neighbours of (0, 0.9995) stay
        # inside, the fiber neighbour z_1 + step does not
        z = np.array([0.0, 0.9995], complex)
        for z0 in (1e-3, -1e-3, 1e-3j, -1e-3j):
            hamiltonian_field(z + np.array([z0, 0.0]), lin11)
        with pytest.raises(StepError):
            dbar_jacobian(z, lin11, step=1e-3)

    def test_exponential_falsified(self, expp):
        res = extremal_residual(np.array([0.7, 0.4], complex), expp)
        assert res.max_abs > 0.01

    def test_exponential_on_axis_recorded(self, expp):
        # z_1 = 0: derivation hypotheses fail; value recorded, not asserted
        res = extremal_residual(np.array([0.7, 0.0], complex), expp)
        assert np.all(np.isfinite(res.residual))

    def test_residual_shape(self, expp):
        res = extremal_residual(np.array([0.5, 0.2, 0.1], complex), expp)
        assert res.residual.shape == (3, 3)
        assert res.max_abs == np.max(np.abs(res.residual))


class TestReducedConditions:
    def test_linear_zero(self, lin11):
        assert reduced_conditions(lin11, 0.5) == (0.0, 0.0)

    def test_exponential(self, expp):
        # G F = 2 so r1 = 0; G F' x = -2x so r2 = -2
        for x in np.linspace(0.1, 3.0, 30):
            r1, r2 = reduced_conditions(expp, x)
            assert abs(r1) <= 1e-10
            assert r2 == pytest.approx(-2.0, abs=1e-8)

    def test_inverse_profile_family(self):
        # power profiles have G = c/F with c = 2(p-1)/p: first condition
        # holds, second reduces to c * (x F'/F)' < 0
        for p in (2.0, 3.0):
            prof = power_profile(p)
            c = 2.0 * (p - 1.0) / p
            for x in (0.1, 0.3, 0.6):
                r1, r2 = reduced_conditions(prof, x)
                assert abs(r1) <= 1e-10
                assert r2 == pytest.approx(c * kahler_indicator(prof, x), rel=1e-10)
                assert r2 < 0.0

    def test_reduction_soundness(self, builtin_profiles):
        # the proof-level combinations are exact rearrangements of r1, r2
        for prof in builtin_profiles.values():
            for x in (0.05, 0.3, 0.7):
                b = radial_coefficients(prof, np.asarray(x))
                f, f1, f2 = b.F[:3]
                g, g1 = b.G, b.dG
                q00, q0a, raa = -f / b.B, -f1 / b.B, (f1 + f2 * x) / b.B
                r1, r2 = reduced_conditions(prof, x)
                assert q00 * g1 + g * q0a == pytest.approx(-r1 / b.B, abs=1e-10)
                assert -g1 * x * q0a + g * raa == pytest.approx(r2 / b.B, abs=1e-10)

    def test_g_prime_against_fd(self, expp, pw2):
        # cross-check the closed-form G' with differences of the bundle G
        from conftest import fd1
        for prof, x in ((expp, 0.8), (pw2, 0.3)):
            def g_of(t):
                return float(radial_coefficients(prof, t).G)
            g1 = radial_coefficients(prof, np.asarray(x)).dG
            assert float(g1) == pytest.approx(fd1(g_of, x, 1e-3), rel=1e-7)

    def test_table_profile_rejected_at_zero(self):
        from hartogs import DomainError, table_profile
        xs = np.linspace(0.0, 2.0, 200)
        tab = table_profile(xs, np.exp(-xs))
        with pytest.raises(DomainError):
            reduced_conditions(tab, 0.0)


class TestReport:
    def test_linear_passes(self, lin11):
        rep = extremal_report(lin11, 2, GridSpec(points=120, seed=6))
        assert rep.verdict == "EXTREMAL"
        assert rep.max_residual <= 1e-6
        assert np.max(np.abs(rep.r1)) == 0.0 and np.max(np.abs(rep.r2)) == 0.0

    def test_exponential_fails(self, expp):
        rep = extremal_report(expp, 2, GridSpec(points=120, seed=6))
        assert rep.verdict == "NOT_EXTREMAL"
        assert rep.max_residual_offaxis >= 1e-3

    def test_power_fails(self, pw2):
        rep = extremal_report(pw2, 2, GridSpec(points=120, seed=6))
        assert rep.verdict == "NOT_EXTREMAL"
        assert rep.max_residual_offaxis >= 1e-3

    def test_json_fields(self, expp):
        doc = extremal_report(expp, 2, GridSpec(points=60, seed=1)).to_json()
        for key in ("profile", "n", "grid", "max_residual", "max_residual_offaxis",
                    "argmax_point", "reduced_conditions", "verdict"):
            assert key in doc
        rc = doc["reduced_conditions"]
        assert len(rc["x"]) == len(rc["r1"]) == len(rc["r2"])
