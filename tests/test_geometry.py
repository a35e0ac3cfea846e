"""Geometry closed forms against finite-difference and linear-algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hartogs import (
    MAX_DERIV_ORDER,
    DomainError,
    Profile,
    SingularCoefficientError,
    boundary_samples,
    curvature_record,
    det_closed_form,
    grid_csv_header,
    grid_csv_rows,
    hamiltonian_field,
    hermitize,
    interior_points,
    inverse_metric_closed_form,
    kahler_indicator,
    linear_profile,
    metric_closed_form,
    potential,
    principal_minor,
    radial_coefficients,
    ricci_closed_form,
    scalar_curvature,
    wirtinger_hessian,
    GridSpec,
)
from hartogs.extremal import dbar_jacobian
from conftest import l_coefficient_fd


def leading_minors_positive(h):
    n = h.shape[-1]
    return all(np.linalg.det(h[:k, :k]).real > 0.0 for k in range(1, n + 1))


class TestPotential:
    def test_at_origin(self, lin11):
        assert potential(np.zeros(2, complex), lin11) == pytest.approx(0.0, abs=1e-15)

    def test_fiber_point(self, lin11):
        # A = 1 - 0.36 = 0.64
        val = potential(np.array([0.0, 0.6], complex), lin11)
        assert val == pytest.approx(0.4462871026284195, abs=1e-14)

    def test_exponential(self, expp):
        assert potential(np.array([1.0, 0.0], complex), expp) == pytest.approx(1.0, abs=1e-14)

    def test_boundary_rejected(self, lin11):
        with pytest.raises(DomainError):
            potential(np.array([0.0, 1.0], complex), lin11)
        with pytest.raises(DomainError):
            potential(np.array([0.0, 1.5], complex), lin11)


class TestMetric:
    def test_identity_at_origin(self, lin11):
        h = metric_closed_form(np.zeros(2, complex), lin11)
        np.testing.assert_allclose(h, np.eye(2), atol=1e-15)

    def test_diagonal_at_origin(self, lin2_05):
        # diag(-F'(0)/F(0), 1/F(0), ...) = diag(0.25, 0.5, 0.5)
        h = metric_closed_form(np.zeros(3, complex), lin2_05)
        np.testing.assert_allclose(h, np.diag([0.25, 0.5, 0.5]), atol=1e-15)

    def test_matches_hessian_of_potential(self, expp):
        z = np.array([0.5, 0.3], complex)
        h = metric_closed_form(z, expp)
        fd = wirtinger_hessian(lambda p: potential(p, expp), z, 1e-3)
        assert np.max(np.abs(h - fd)) <= 1e-5 * (1 + np.max(np.abs(h)))

    def test_exactly_hermitian(self, expp, sample_points):
        pts = sample_points["exp", 3]
        h = metric_closed_form(pts, expp)
        assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))

    def test_oracle_equivalence_sweep(self, builtin_profiles, sample_points):
        for name, prof in builtin_profiles.items():
            for n in (2, 3):
                for z in sample_points[name, n][:25]:
                    h = metric_closed_form(z, prof)
                    fd = wirtinger_hessian(lambda p: potential(p, prof), z, 2.5e-4)
                    bound = 1e-5 * (1 + np.max(np.abs(h)))
                    assert np.max(np.abs(h - fd)) <= bound, (name, n)

    def test_rotation_covariance(self, expp):
        rng = np.random.default_rng(42)
        z = np.array([0.31 - 0.22j, 0.41 + 0.05j, -0.13 + 0.33j])
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        v = np.zeros((3, 3), complex)
        v[0, 0] = np.exp(0.7j)
        v[1:, 1:] = q
        assert potential(v @ z, expp) == pytest.approx(potential(z, expp), abs=1e-12)
        lhs = metric_closed_form(v @ z, expp)
        rhs = np.conj(v) @ metric_closed_form(z, expp) @ v.T
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestWirtingerHessian:
    def test_quadratic_is_exact(self):
        prof = linear_profile(1.0, 1.0)
        z = np.array([0.2 + 0.1j, 0.3 - 0.2j])
        h = wirtinger_hessian(lambda p: np.abs(p[..., 0]) ** 2, z, 1e-3)
        np.testing.assert_allclose(h, np.array([[1, 0], [0, 0]]), atol=1e-9)
        del prof

    def test_pluriharmonic_vanishes(self):
        z = np.array([0.2 + 0.1j, 0.3 - 0.2j])
        h = wirtinger_hessian(lambda p: p[..., 0].real, z, 1e-3)
        assert np.max(np.abs(h)) <= 1e-12

    def test_self_validation_against_closed_form(self, lin11):
        z = np.array([0.2, 0.3], complex)
        fd = wirtinger_hessian(lambda p: potential(p, lin11), z, 1e-3)
        assert np.max(np.abs(fd - metric_closed_form(z, lin11))) <= 1e-6

    def test_step_too_large(self, lin11):
        z = np.array([0.0, 0.9998], complex)
        from hartogs import StepError
        with pytest.raises(StepError):
            wirtinger_hessian(lambda p: potential(p, lin11), z, 1e-2)
        # in a batch, one point whose stencil leaves the domain is enough
        inside = np.array([[0.2, 0.3], [0.1 + 0.1j, -0.2j]], complex)
        wirtinger_hessian(lambda p: potential(p, lin11), inside, 1e-2)
        with pytest.raises(StepError):
            wirtinger_hessian(lambda p: potential(p, lin11), np.vstack([inside, z]), 1e-2)

    def test_batch_equals_single_points(self, oracle_profiles):
        # one stencil evaluation for the batch gives each point's Hessian bit for bit
        for name, prof in oracle_profiles.items():
            for n in range(2, 13):
                pts = interior_points(prof, n, GridSpec(points=3, seed=n))
                batch = wirtinger_hessian(lambda p: potential(p, prof), pts, 1e-3)
                single = [wirtinger_hessian(lambda p: potential(p, prof), z, 1e-3) for z in pts]
                assert batch.shape == (3, n, n) and single[0].shape == (n, n)
                np.testing.assert_array_equal(batch, np.stack(single), err_msg=name)


class TestDeterminant:
    def test_origin(self, lin11):
        assert det_closed_form(np.zeros(2, complex), lin11) == pytest.approx(1.0, abs=1e-15)

    def test_fiber_point(self, lin11):
        val = det_closed_form(np.array([0.0, 0.6], complex), lin11)
        assert val == pytest.approx(3.814697265625, rel=1e-13)   # 1/0.64^3

    def test_against_brute_force(self, builtin_profiles, sample_points):
        for name, prof in builtin_profiles.items():
            for n in (2, 3):
                pts = sample_points[name, n]
                closed = det_closed_form(pts, prof)
                brute = np.linalg.det(metric_closed_form(pts, prof)).real
                assert np.max(np.abs(closed - brute) / np.abs(closed)) <= 1e-8

    def test_sign_tracks_indicator(self, wiggle):
        good = np.array([np.sqrt(0.3), 0.2], complex)   # indicator < 0 at 0.3
        bad = np.array([np.sqrt(0.8), 0.1], complex)    # indicator > 0 at 0.8
        assert kahler_indicator(wiggle, 0.3) < 0 < det_closed_form(good, wiggle)
        assert kahler_indicator(wiggle, 0.8) > 0 > det_closed_form(bad, wiggle)


class TestPrincipalMinor:
    def test_two_dim_example(self, lin11):
        val = principal_minor(np.array([0.0, 0.6], complex), lin11, 1)
        assert val == pytest.approx(1.0, abs=1e-14)  # A + |z1|^2 = 0.64 + 0.36

    def test_origin_power(self, lin2_05):
        val = principal_minor(np.zeros(3, complex), lin2_05, 1)
        assert val == pytest.approx(4.0, abs=1e-14)  # A^2 = F(0)^2

    def test_against_brute_force(self, expp):
        pts = interior_points(expp, 4, GridSpec(points=20, seed=3))
        for z in pts:
            h = metric_closed_form(z, expp)
            gap = float(np.exp(-potential(z, expp)))
            for alpha in (1, 2, 3):
                brute = np.linalg.det((gap ** 2 * h)[alpha:, alpha:]).real
                assert principal_minor(z, expp, alpha) == pytest.approx(brute, rel=1e-10)

    def test_argument_error(self, lin11):
        with pytest.raises(ValueError):
            principal_minor(np.zeros(2, complex), lin11, 2)


class TestInverseMetric:
    def test_identity_at_origin(self, lin11):
        minv = inverse_metric_closed_form(np.zeros(2, complex), lin11)
        np.testing.assert_allclose(minv, np.eye(2), atol=1e-15)

    def test_diagonal_at_origin(self, lin2_05):
        # diag(-F(0)/F'(0), F(0), F(0)) = diag(4, 2, 2)
        minv = inverse_metric_closed_form(np.zeros(3, complex), lin2_05)
        np.testing.assert_allclose(minv, np.diag([4.0, 2.0, 2.0]), atol=1e-14)

    def test_product_identity_sweep(self, builtin_profiles, sample_points):
        for name, prof in builtin_profiles.items():
            for n in (2, 3):
                pts = sample_points[name, n]
                h = metric_closed_form(pts, prof)
                minv = inverse_metric_closed_form(pts, prof)
                err = np.abs(np.einsum("mab,mbc->mac", h, minv) - np.eye(n)[None])
                assert np.max(err) <= 1e-8, (name, n)

    def test_singular_coefficient(self, constant_profile):
        with pytest.raises(SingularCoefficientError):
            inverse_metric_closed_form(np.array([0.3, 0.4], complex), constant_profile)

    def test_one_singularity_rule(self, constant_profile):
        # B = 1e-15 is tiny but nonzero: every evaluator that divides by B
        # evaluates, and the inverse is still accurate; at B == 0 all raise
        z = np.array([0.3, 0.2], complex)
        nearly_constant = linear_profile(1.0, 1e-15)
        assert radial_coefficients(nearly_constant, 0.09).B > 0.0
        assert scalar_curvature(z, nearly_constant) == pytest.approx(-6.0, abs=1e-12)
        minv = inverse_metric_closed_form(z, nearly_constant)
        np.testing.assert_allclose(metric_closed_form(z, nearly_constant) @ minv,
                                   np.eye(2), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(hamiltonian_field(z, nearly_constant), 0.0, atol=1e-12)
        for evaluator in (scalar_curvature, inverse_metric_closed_form, hamiltonian_field):
            with pytest.raises(SingularCoefficientError):
                evaluator(z, constant_profile)


class TestCoefficientBundle:
    """The radial coefficient record and the split of the inverse metric."""

    def test_linear(self, lin11):
        b = radial_coefficients(lin11, 0.0)
        assert b.B == pytest.approx(1.0, abs=1e-15)
        assert b.L == pytest.approx(0.0, abs=1e-15)
        assert b.G == pytest.approx(0.0, abs=1e-15)
        assert -b.F[0] / b.B == pytest.approx(-1.0, abs=1e-15)       # q00
        assert b.F[0] ** 2 / b.B == pytest.approx(1.0, abs=1e-15)    # p00

    def test_exponential(self, expp):
        x = 0.25
        b = radial_coefficients(expp, x)
        assert b.B == pytest.approx(np.exp(-2 * x), rel=1e-13)
        assert b.L == pytest.approx(-2.0, abs=1e-12)
        assert b.G == pytest.approx(2 * np.exp(x), rel=1e-12)
        # independent oracle: nested finite differences of log B
        assert b.L == pytest.approx(l_coefficient_fd(expp, x), abs=1e-6)

    def test_power_l_value(self, pw2):
        # L = -2/(1-x)^2 for F = (1-x)^2, cross-checked by the FD oracle
        z = np.array([np.sqrt(0.3), 0.2], complex)
        b = radial_coefficients(pw2, abs(z[0]) ** 2)
        assert b.L == pytest.approx(-2.0 / 0.7 ** 2, rel=1e-11)
        assert b.L == pytest.approx(l_coefficient_fd(pw2, 0.3), abs=1e-5)

    def test_internal_identities(self, builtin_profiles):
        # the inverse metric splits as P + Q S in the total fiber radius S,
        # with P, Q built from the radial record; C is the (0,0) Hessian numerator
        rng = np.random.default_rng(8)
        header = grid_csv_header(3)
        for prof in builtin_profiles.values():
            z = np.array([0.4 * rng.standard_normal() + 0.1j, 0.3 + 0.1j, 0.2j])
            x = abs(z[0]) ** 2
            s = np.sum(np.abs(z[1:]) ** 2)
            b = radial_coefficients(prof, x)
            f, f1, f2 = b.F[:3]
            t = f1 + f2 * x
            minv = inverse_metric_closed_form(z, prof)
            row = grid_csv_rows(z[None], prof)[0]
            a = row[header.index("A")]
            assert a == pytest.approx(f - s, rel=1e-13)
            assert minv[0, 0] == pytest.approx(f ** 2 / b.B + (-f / b.B) * s, rel=1e-13)
            assert minv[1, 0] == pytest.approx(
                (f1 * f / b.B + (-f1 / b.B) * s) * z[0] * np.conj(z[1]), rel=1e-13)
            assert minv[1, 2] == pytest.approx(
                (f * t / b.B + (-t / b.B) * s) * np.conj(z[1]) * z[2], rel=1e-12)
            assert minv[1, 1] == pytest.approx(
                a + (f * t / b.B + (-t / b.B) * s) * abs(z[1]) ** 2, rel=1e-12)
            assert row[header.index("C")] == pytest.approx(f1 ** 2 * x - t * a, rel=1e-12)
            assert b.G == pytest.approx(-b.L * f / b.B, rel=1e-12, abs=1e-15)

    def test_b_positive_iff_admissible(self, builtin_profiles, wiggle):
        for prof in builtin_profiles.values():
            for x in np.linspace(0.01, min(prof.x0, 5.0) * 0.9, 23):
                assert (radial_coefficients(prof, x).B > 0) == (kahler_indicator(prof, x) < 0)
        for x in (0.3, 0.8):  # wiggle straddles the sign change
            assert (radial_coefficients(wiggle, x).B > 0) == (kahler_indicator(wiggle, x) < 0)

    def test_singular_coefficient(self, constant_profile):
        with pytest.raises(SingularCoefficientError):
            radial_coefficients(constant_profile, 0.3)


class TestPositivity:
    def test_admissible_profiles_positive_definite(self, builtin_profiles, sample_points):
        for name, prof in builtin_profiles.items():
            for z in sample_points[name, 2][:20]:
                assert leading_minors_positive(metric_closed_form(z, prof))

    def test_constant_profile_not_positive_definite(self, constant_profile):
        h = metric_closed_form(np.array([0.3, 0.4], complex), constant_profile)
        assert not leading_minors_positive(h)

    def test_wiggle_tracks_indicator(self, wiggle):
        for x in (0.3, 0.8):
            z = np.array([np.sqrt(x), 0.1], complex)
            h = metric_closed_form(z, wiggle)
            assert leading_minors_positive(h) == (kahler_indicator(wiggle, x) < 0.0)


class TestGridDump:
    def test_header_and_rows(self, expp, grid_small):
        pts = interior_points(expp, 2, grid_small)
        header = grid_csv_header(2)
        assert header == ["z0_re", "z0_im", "z1_re", "z1_im",
                          "A", "B", "C", "L", "G", "det", "min_eig"]
        rows = grid_csv_rows(pts, expp)
        assert rows.shape == (grid_small.points, len(header))
        np.testing.assert_allclose(rows[:, header.index("L")], -2.0, atol=1e-10)
        assert np.all(rows[:, header.index("A")] > 0)
        assert np.all(rows[:, header.index("min_eig")] > 0)


class TestSampling:
    def test_margin_respected(self, builtin_profiles):
        spec = GridSpec(points=100, seed=1, a_margin=0.05)
        for prof in builtin_profiles.values():
            pts = interior_points(prof, 3, spec)
            gap = np.exp(-potential(pts, prof))
            assert np.all(gap >= 0.05 * prof.deriv(0, 0.0) - 1e-12)

    def test_deterministic(self, expp):
        a = interior_points(expp, 2, GridSpec(points=50, seed=9))
        b = interior_points(expp, 2, GridSpec(points=50, seed=9))
        np.testing.assert_array_equal(a, b)

    def test_rejects_n1(self, expp):
        with pytest.raises(DomainError):
            interior_points(expp, 1, GridSpec(points=10))

    @pytest.mark.parametrize("sampler", [interior_points, boundary_samples])
    def test_shared_argument_rule(self, expp, sampler):
        with pytest.raises(DomainError):
            sampler(expp, 1, GridSpec(points=10))
        with pytest.raises(ValueError):
            sampler(expp, 2, GridSpec(points=0))


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_hermitize_exactness(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = hermitize(m)
    assert np.array_equal(h, np.conj(h.T))


def dbar_stencil(z, profile):
    """The extremality FD oracle: the field on every axial stencil point of both steps."""
    return dbar_jacobian(z, profile)


@pytest.mark.parametrize("evaluator", [
    metric_closed_form, inverse_metric_closed_form, ricci_closed_form,
    scalar_curvature, hamiltonian_field, curvature_record, dbar_stencil,
])
def test_one_derivative_evaluation_per_call(evaluator, expp, monkeypatch):
    calls = []
    derivs = Profile.derivs

    def counted(self, x, upto=MAX_DERIV_ORDER):
        calls.append(np.shape(x))
        return derivs(self, x, upto)

    monkeypatch.setattr(Profile, "derivs", counted)
    pts = interior_points(expp, 3, GridSpec(points=7, seed=2))
    batches = [pts[0]] if evaluator is curvature_record else [pts[0], pts]
    for z in batches:
        calls.clear()
        evaluator(z, expp)
        if evaluator is dbar_stencil:
            # one call on the centre and the 4n axial points of both steps
            assert calls == [(np.atleast_2d(z).shape[0] * (1 + 8 * 3),)]
        else:
            assert calls == [np.shape(z)[:-1]], evaluator.__name__
