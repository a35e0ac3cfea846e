"""Boundary Levi form, tangent solve, and the sampled equivalence test."""

import math

import numpy as np
import pytest

from hartogs import (
    DomainError,
    GridSpec,
    NumericError,
    boundary_point,
    equivalence_check,
    exp_profile,
    kahler_indicator,
    levi_form,
    linear_profile,
    power_profile,
    restricted_levi,
    tangent_vector,
    wirtinger_hessian,
)
from hartogs.sampling import boundary_samples

from conftest import make_custom


def rho_of(profile):
    """Defining function as a batch-callable, for the Hessian oracle."""

    def rho(pts):
        pts = np.asarray(pts, dtype=complex)
        x = np.abs(pts[..., 0]) ** 2
        return np.sum(np.abs(pts[..., 1:]) ** 2, axis=-1) - profile.deriv(0, x)

    return rho


def d_rho(point):
    """Holomorphic gradient of ``rho`` at boundary points, ``(-F' z~_0, z~_1, ..., z~_{n-1})``."""
    lead = -np.asarray(point.F[1]) * np.conj(point.z0)
    return np.concatenate([lead[..., None], np.conj(point.fiber)], axis=-1)


class TestBoundaryPoint:
    def test_hyperbolic_origin(self, lin11):
        bp = boundary_point(lin11, 0.0, np.array([1.0]))
        np.testing.assert_allclose(bp.coords, [0.0, 1.0], atol=1e-15)

    def test_exponential(self, expp):
        bp = boundary_point(expp, 1.0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(
            bp.coords, [1.0, 0.6065306597126334, 0.0], atol=1e-15)

    def test_fiber_radius(self, lin11):
        z0 = 0.6 * np.exp(0.9j)   # |z0|^2 = 0.36, so radius sqrt(0.64) = 0.8
        bp = boundary_point(lin11, z0, np.array([0.6, 0.8j]))
        assert np.linalg.norm(bp.fiber) == pytest.approx(0.8, abs=1e-14)

    def test_boundary_identity_and_normal(self, builtin_profiles):
        rng = np.random.default_rng(2)
        for prof in builtin_profiles.values():
            xmax = min(prof.x0, 4.0)
            for _ in range(10):
                x = rng.uniform(0.01, 0.9 * xmax)
                d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                bp = boundary_point(prof, np.sqrt(x), d)
                resid = np.sum(np.abs(bp.fiber) ** 2) - prof.deriv(0, x)
                assert abs(resid) <= 1e-12
                assert np.linalg.norm(d_rho(bp)) > 0

    def test_outside_domain(self, lin11):
        with pytest.raises(DomainError):
            boundary_point(lin11, 1.2, np.array([1.0]))


class TestLeviForm:
    def test_zero_vector(self, expp):
        bp = boundary_point(expp, 0.5, np.array([1.0]))
        assert levi_form(bp, np.zeros(2, complex)) == 0.0

    def test_hyperbolic_is_sum_of_squares(self, lin11):
        # F' = -1 and F'' = 0, so L = |X_1|^2 + |X_0|^2
        bp = boundary_point(lin11, 0.4, np.array([1.0]))
        x_vec = np.array([0.3 - 0.1j, 0.2 + 0.5j])
        assert levi_form(bp, x_vec) == pytest.approx(
            np.sum(np.abs(x_vec) ** 2), rel=1e-14)

    def test_positive_at_z0_zero(self, builtin_profiles):
        rng = np.random.default_rng(5)
        for prof in builtin_profiles.values():
            bp = boundary_point(prof, 0.0, np.array([1.0, 0.0]))
            for _ in range(25):
                v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                v /= np.linalg.norm(v)
                assert levi_form(bp, v) > 0.0

    def test_against_hessian_oracle(self, expp):
        # contract the FD complex Hessian of rho with X
        bp = boundary_point(expp, 0.9, np.array([0.8, 0.6j]))
        hess = wirtinger_hessian(rho_of(expp), bp.coords, 1e-3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x_vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            oracle = float(np.real(x_vec @ hess @ np.conj(x_vec)))
            assert levi_form(bp, x_vec) == pytest.approx(oracle, abs=1e-8)

    def test_scale_covariance(self, expp):
        # Levi form of lambda * rho is lambda times the Levi form: same sign
        bp = boundary_point(expp, 0.9, np.array([0.8, 0.6j]))
        lam = 3.7
        hess = wirtinger_hessian(
            lambda p: lam * rho_of(expp)(p), bp.coords, 1e-3)
        x_vec = np.array([0.2 + 1.0j, -0.4, 0.9j])
        oracle = float(np.real(x_vec @ hess @ np.conj(x_vec)))
        direct = levi_form(bp, x_vec)
        assert oracle == pytest.approx(lam * direct, abs=1e-7)
        assert np.sign(oracle) == np.sign(direct)


class TestTangentVector:
    def test_orthogonal_fiber_direction(self, expp):
        bp = boundary_point(expp, 0.7, np.array([1.0, 0.0]))
        y = np.array([0.0, 1.0], complex)   # orthogonal to the fiber point
        x_vec = tangent_vector(bp, y)
        assert x_vec[0] == 0.0

    def test_hand_example(self, lin11):
        bp = boundary_point(lin11, 0.6, np.array([1.0]))
        x_vec = tangent_vector(bp, np.array([1.0]))
        assert x_vec[0] == pytest.approx(-4.0 / 3.0, rel=1e-14)

    def test_membership(self, builtin_profiles):
        rng = np.random.default_rng(7)
        for prof in builtin_profiles.values():
            bp = boundary_point(prof, 0.55, rng.standard_normal(3) + 1j * rng.standard_normal(3))
            for _ in range(5):
                y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                x_vec = tangent_vector(bp, y)
                assert abs(np.sum(d_rho(bp) * x_vec)) <= 1e-12

    def test_z0_zero_signals(self, lin11):
        bp = boundary_point(lin11, 0.0, np.array([1.0]))
        with pytest.raises(DomainError):
            tangent_vector(bp, np.array([1.0]))
        with pytest.raises(DomainError):
            restricted_levi(bp, np.array([1.0]))

    def test_flat_stratum_signals(self, constant_profile):
        # F' = 0: the tangency condition leaves X_0 free, so the solve for it
        # degenerates like at z_0 = 0; the Levi form on e_0 is -T
        bp = boundary_point(constant_profile, 0.5 + 0.5j, np.array([1.0, 1.0j]))
        for fn in (tangent_vector, restricted_levi):
            with pytest.raises(DomainError, match=r"^F' = 0 stratum: [^\n]*$"):
                fn(bp, np.array([1.0, 0.0]))
        assert levi_form(bp, np.array([1.0, 0.0, 0.0])) == -bp.T == 0.0


class TestRestrictedLevi:
    def test_equals_levi_on_tangent(self, builtin_profiles):
        rng = np.random.default_rng(9)
        for prof in builtin_profiles.values():
            for _ in range(10):
                bp = boundary_point(prof, np.sqrt(rng.uniform(0.05, 0.8)),
                                    rng.standard_normal(2) + 1j * rng.standard_normal(2))
                y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                direct = restricted_levi(bp, y)
                via_tangent = levi_form(bp, tangent_vector(bp, y))
                assert direct == pytest.approx(via_tangent, rel=1e-12, abs=1e-12)

    def test_special_vector_formula(self, expp):
        # inserting the fiber point itself gives F (1 - (F'+F''x)/(F'^2 x) F)
        bp = boundary_point(expp, 0.8, np.array([0.6, 0.8]))
        x = 0.64
        f = expp.deriv(0, x)
        f1 = expp.deriv(1, x)
        f2 = expp.deriv(2, x)
        expected = f * (1.0 - (f1 + f2 * x) / (f1 ** 2 * x) * f)
        assert restricted_levi(bp, bp.fiber) == pytest.approx(expected, rel=1e-12)

    def test_orthogonal_direction_gives_norm(self, expp):
        bp = boundary_point(expp, 0.7, np.array([1.0, 0.0]))
        y = np.array([0.0, 2.0], complex)
        assert restricted_levi(bp, y) == pytest.approx(4.0, rel=1e-14)

    def test_hyperbolic_positive(self, lin11):
        rng = np.random.default_rng(12)
        for _ in range(30):
            bp = boundary_point(lin11, np.sqrt(rng.uniform(0.02, 0.95)),
                                rng.standard_normal(1) + 1j * rng.standard_normal(1))
            y = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            assert restricted_levi(bp, y) > 0.0

    def test_cauchy_schwarz_lower_bound(self, builtin_profiles):
        rng = np.random.default_rng(13)
        for prof in builtin_profiles.values():
            for _ in range(10):
                bp = boundary_point(prof, np.sqrt(rng.uniform(0.05, 0.8)),
                                    rng.standard_normal(3) + 1j * rng.standard_normal(3))
                y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                zf = bp.fiber
                bound = ((np.sum(np.abs(y) ** 2) * np.sum(np.abs(zf) ** 2)
                          - np.abs(np.sum(np.conj(zf) * y)) ** 2)
                         / np.sum(np.abs(zf) ** 2))
                assert bound >= -1e-12
                assert restricted_levi(bp, y) >= bound - 1e-12
                # parallel direction: the bound degenerates to zero but the
                # restricted form stays strictly positive for admissible profiles
                assert restricted_levi(bp, zf) > 0.0


class TestEquivalenceCheck:
    def test_hyperbolic(self, lin11):
        rep = equivalence_check(lin11, 2, GridSpec(points=500, seed=3))
        assert rep.verdict == "CONSISTENT"
        assert rep.min_levi > 0.0
        assert rep.max_indicator < 0.0

    def test_exponential(self, expp):
        rep = equivalence_check(expp, 2, GridSpec(points=500, seed=3))
        assert rep.verdict == "CONSISTENT"
        assert rep.min_levi > 0.0
        assert rep.max_indicator < 0.0

    def test_sign_changing_profile_flags_violation(self, wiggle):
        rep = equivalence_check(wiggle, 2, GridSpec(points=500, seed=7, x_cap=2.0))
        assert rep.verdict == "CONSISTENT"       # both conditions fail together
        assert rep.min_levi <= 0.0
        assert rep.max_indicator > 0.0
        x_star = abs(rep.argmin_point[0]) ** 2
        assert kahler_indicator(wiggle, x_star) > 0.0   # flagged inside the bad interval

    def test_flat_profile(self, constant_profile):
        # every sample on the F' = 0 stratum: the Levi form on e_0 is 0, so
        # neither positivity holds and the verdict is CONSISTENT
        rep = equivalence_check(constant_profile, 3, GridSpec(points=30, seed=1))
        assert rep.verdict == "CONSISTENT"
        assert rep.min_levi == 0.0 and rep.max_indicator == 0.0
        np.testing.assert_array_equal(rep.argmin_direction, np.zeros(2))

    def test_flat_stratum_in_a_mixed_batch(self):
        # F' = 0 for x <= 1 only: those samples take the Levi form on e_0,
        # -T = 0, and the others the restricted form, positive here
        def deriv(k, x):
            u = np.maximum(np.asarray(x) - 1.0, 0.0)
            return (1.0 if k == 0 else 0.0) - math.perm(6, k) * u ** (6 - k)

        prof = make_custom(deriv, x0=2.0, name="flat-then-bent")
        spec = GridSpec(points=40, seed=3)
        x, z0, fiber, tangent = boundary_samples(prof, 3, spec)
        flat = x <= 1.0
        assert flat.any() and not flat.all()
        rep = equivalence_check(prof, 3, spec)
        assert rep.verdict == "CONSISTENT" and rep.min_levi == 0.0
        assert rep.argmin_point[0] == z0[np.argmax(flat)]
        np.testing.assert_array_equal(rep.argmin_direction, np.zeros(2))
        # the two directions of the bent samples, as the check draws them
        bent = boundary_point(prof, z0[~flat], fiber[~flat])
        assert np.all(restricted_levi(bent, tangent[~flat]) > 0.0)
        assert np.all(restricted_levi(bent, bent.fiber) > 0.0)

    def test_rows_are_gathered_only_on_the_flat_stratum(self, expp, constant_profile,
                                                       monkeypatch):
        import hartogs.pseudoconvexity
        calls = []
        rows = hartogs.pseudoconvexity._rows
        monkeypatch.setattr(hartogs.pseudoconvexity, "_rows",
                            lambda point, which: calls.append(which) or rows(point, which))
        spec = GridSpec(points=30, seed=1)
        equivalence_check(expp, 3, spec)   # F' < 0 everywhere: no stratum to split off
        assert calls == []
        equivalence_check(constant_profile, 3, spec)
        assert len(calls) == 2

    def test_one_derivative_table(self, expp, derivs_calls):
        # the boundary batch's table: the Levi form and the indicator both read it
        equivalence_check(expp, 2, GridSpec(points=50, seed=1))
        assert [upto for _, upto in derivs_calls] == [2]

    def test_deterministic(self, expp):
        a = equivalence_check(expp, 2, GridSpec(points=100, seed=21))
        b = equivalence_check(expp, 2, GridSpec(points=100, seed=21))
        assert a.min_levi == b.min_levi
        np.testing.assert_array_equal(a.argmin_point, b.argmin_point)

    def test_json_fields(self, lin11):
        doc = equivalence_check(lin11, 2, GridSpec(points=50, seed=1)).to_json()
        for key in ("profile", "samples", "seed", "min_levi", "argmin",
                    "max_indicator", "verdict"):
            assert key in doc
        assert len(doc["argmin"]["point"]) == 4


class TestBatchedLevi:
    """Batched calls equal the single-point calls, point by point."""

    CASES = [("linear", lambda: linear_profile(1.0, 1.0), 0.0),
             ("exp", lambda: exp_profile(1.0), 0.0),
             ("power(2)", lambda: power_profile(2.0), 0.0),
             ("power(3)", lambda: power_profile(3.0), 0.0)]

    @staticmethod
    def _same(batch, single, rtol):
        if rtol == 0.0:
            np.testing.assert_array_equal(batch, single)
        else:
            np.testing.assert_allclose(batch, single, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("name,make,rtol", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("n", [2, 4])
    def test_batch_equals_single(self, name, make, rtol, n):
        prof = make()
        x, z0, fiber, tangent = boundary_samples(prof, n, GridSpec(points=40, seed=17, x_cap=2.0))
        rng = np.random.default_rng(4)
        x_vecs = rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))
        pts = boundary_point(prof, z0, fiber)
        assert pts.coords.shape == (40, n)
        levi = levi_form(pts, x_vecs)
        rlevi = restricted_levi(pts, tangent)
        tvec = tangent_vector(pts, tangent)
        for k in range(40):
            one = boundary_point(prof, z0[k], fiber[k])
            self._same(pts.coords[k], one.coords, rtol)
            single = levi_form(one, x_vecs[k])
            assert isinstance(single, float)
            self._same(levi[k], single, rtol)
            self._same(rlevi[k], restricted_levi(one, tangent[k]), rtol)
            self._same(tvec[k], tangent_vector(one, tangent[k]), rtol)

    def test_point_broadcasts_over_directions(self, expp):
        _, z0, fiber, tangent = boundary_samples(expp, 3, GridSpec(points=6, seed=2))
        pts = boundary_point(expp, z0[:, None], fiber[:, None])
        ys = np.stack([tangent, fiber], axis=1)
        vals = restricted_levi(pts, ys)
        assert vals.shape == (6, 2)
        for k in range(6):
            one = boundary_point(expp, z0[k], fiber[k])
            for j in range(2):
                assert vals[k, j] == restricted_levi(one, ys[k, j])


def _reference_equivalence(profile, samples, seed, n, x_cap=5.0):
    """Sample by sample over the same three block draws: single-point calls, strict updates."""
    rng = np.random.default_rng(seed)
    xmax = min(profile.x0, x_cap)
    eps = 1e-3 * xmax
    xs = rng.uniform(eps, xmax - eps, samples)
    us = rng.uniform(size=samples)
    normals = rng.standard_normal((samples, 4, n - 1))

    def unit(re, im):
        v = re + 1j * im
        return v / np.linalg.norm(v)

    min_levi, arg_pt, arg_dir = np.inf, None, None
    max_ind, arg_x = -np.inf, 0.0
    for x, u, (f_re, f_im, t_re, t_im) in zip(xs, us, normals):
        z0 = np.sqrt(x) * np.exp(2j * np.pi * u)
        pt = boundary_point(profile, z0, unit(f_re, f_im))
        ind = kahler_indicator(profile, pt.x)   # at |z_0|^2, as the Levi form reads it
        if ind > max_ind:
            max_ind, arg_x = ind, pt.x
        for y in (unit(t_re, t_im), pt.fiber / np.linalg.norm(pt.fiber)):
            val = restricted_levi(pt, y)
            if val < min_levi:
                min_levi, arg_pt, arg_dir = val, pt.coords, y
    return min_levi, arg_pt, arg_dir, max_ind, arg_x


class TestEquivalenceReference:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_reference_loop(self, expp, n):
        rep = equivalence_check(expp, n, GridSpec(points=500, seed=3))
        min_levi, arg_pt, arg_dir, max_ind, arg_x = _reference_equivalence(expp, 500, 3, n)
        assert (rep.max_indicator, rep.argmax_x) == (max_ind, arg_x)
        if n == 2:
            assert rep.min_levi == min_levi
            np.testing.assert_array_equal(rep.argmin_point, arg_pt)
            np.testing.assert_array_equal(rep.argmin_direction, arg_dir)
        else:   # the batched row norm sums in another order than np.linalg.norm
            assert rep.min_levi == pytest.approx(min_levi, rel=1e-13)
            np.testing.assert_allclose(rep.argmin_point, arg_pt, rtol=1e-13)
            np.testing.assert_allclose(rep.argmin_direction, arg_dir, rtol=1e-13)

    def test_non_finite_levi_is_an_error(self):
        # exp(-x) with F'' replaced by NaN beyond x = 2: the Levi form and
        # the indicator turn NaN there and must not be skipped
        def deriv(k, x):
            val = (-1.0) ** k * np.exp(-np.asarray(x, dtype=float))
            return np.where(np.asarray(x) > 2.0, np.nan, val) if k == 2 else val

        prof = make_custom(deriv, x0=float("inf"), name="nan-beyond-2")
        with pytest.raises(NumericError):
            equivalence_check(prof, 2, GridSpec(points=200, seed=1))
