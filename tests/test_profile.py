"""Profiles: derivative tables against Taylor jets, admissibility indicator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hartogs import (
    MAX_DERIV_ORDER,
    DomainError,
    ProfileError,
    exp_profile,
    kahler_indicator,
    linear_profile,
    power_profile,
    profile_from_function,
    table_profile,
)
from hartogs import jets
from conftest import fd1, make_custom


def indicator_fd(profile, x, h=1e-5):
    """Oracle: five-point derivative of x F'/F."""

    def u(t):
        return t * profile.deriv(1, t) / profile.deriv(0, t)

    return fd1(u, x, h)


class TestKahlerIndicator:
    def test_linear_at_zero(self, lin11):
        # hand differentiation of -x/(1-x) gives -1/(1-x)^2, so -1 at x = 0
        assert kahler_indicator(lin11, 0.0) == pytest.approx(-1.0, abs=1e-14)
        assert kahler_indicator(lin11, 0.25) == pytest.approx(indicator_fd(lin11, 0.25), abs=1e-9)

    def test_exponential_is_minus_one_everywhere(self, expp):
        for x in (0.0, 0.3, 1.7, 4.0):
            assert kahler_indicator(expp, x) == pytest.approx(-1.0, abs=1e-13)
            if x > 0:
                assert kahler_indicator(expp, x) == pytest.approx(indicator_fd(expp, x), abs=1e-9)

    def test_constant_profile_rejected(self, constant_profile):
        # x F'/F vanishes identically: indicator 0, hence not Kaehler-admissible
        assert kahler_indicator(constant_profile, 0.8) == 0.0
        assert not (kahler_indicator(constant_profile, 0.8) < 0.0)

    def test_linear_family_negative_on_domain(self):
        prof = linear_profile(2.0, 0.5)
        xs = np.linspace(0.0, 4.0 * 0.99, 50)
        assert np.all(kahler_indicator(prof, xs) < 0.0)

    def test_domain_errors(self, lin11):
        with pytest.raises(DomainError):
            kahler_indicator(lin11, 1.0)
        with pytest.raises(DomainError):
            kahler_indicator(lin11, -0.1)

    def test_invalid_profile_error(self):
        bad = make_custom(
            lambda k, x: (1.0 - x if k == 0 else
                          np.full_like(np.asarray(x, float), -1.0) if k == 1 else
                          np.zeros_like(np.asarray(x, float))),
            x0=math.inf, name="goes-negative")
        with pytest.raises(ProfileError):
            kahler_indicator(bad, 2.0)

    @given(lam=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_scaling_invariance(self, lam):
        # x F'/F is unchanged under F -> lam F, hence so is the indicator
        base = exp_profile(1.0)
        scaled = make_custom(lambda k, x: lam * (-1.0) ** k * np.exp(-x),
                             x0=math.inf, name="scaled-exp")
        for x in (0.0, 0.5, 2.0):
            a = kahler_indicator(base, x)
            b = kahler_indicator(scaled, x)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


# Each built-in family, the same formula in jet arithmetic, and the parameters
# it is checked at.  An integer power multiplies jets, so its orders above p
# are exact zeros, as the family's table has them.
BUILTIN_FORMULAS = [
    (linear_profile, lambda c1, c2: lambda j: c1 - c2 * j, [(1.0, 1.0), (2.0, 0.5), (3.0, 0.0)]),
    (exp_profile, lambda scale: lambda j: (-scale * j).exp(), [(1.0,), (2.5,), (0.3,)]),
    (power_profile, lambda p: lambda j: (1.0 - j) ** p,
     [(2,), (3,), (0.5,), (1.5,), (2.7,), (4.5,)]),
]

# The relative bound of a table against its jet.
JET_RTOL = 1.1e-15


class TestDerivativeConsistency:
    """Derivative tables against the Taylor jet of the same formula (:mod:`hartogs.jets`)."""

    @staticmethod
    def assert_matches_jet(prof, formula):
        # orders 0..5 on 100 abscissae; where the jet is exactly zero the table is too
        xs = np.linspace(0.0, min(prof.x0, 10.0), 101)[:-1]
        oracle = jets.derivatives(formula, xs, MAX_DERIV_ORDER)
        for k, stated in enumerate(prof.derivs(xs, MAX_DERIV_ORDER)):
            np.testing.assert_allclose(stated, oracle[k], rtol=JET_RTOL, atol=0.0,
                                       err_msg=f"{prof.describe()}, order {k}")

    def test_linear_exact(self, lin11):
        self.assert_matches_jet(lin11, lambda j: 1.0 - j)

    def test_exponential(self, expp):
        self.assert_matches_jet(expp, lambda j: (-j).exp())

    def test_builtins_on_grid(self):
        # every family at several parameters
        for make, formula, params in BUILTIN_FORMULAS:
            for args in params:
                self.assert_matches_jet(make(*args), formula(*args))

    def test_corrupted_second_derivative_detected(self):
        # negative control: a cosine profile on [0, pi/2) whose F'' is off by +1
        table = [np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t),
                 np.sin, np.cos, lambda t: -np.sin(t)]

        def healthy(k, x):
            return table[k](np.asarray(x, dtype=float))

        def corrupted(k, x):
            base = healthy(k, x)
            return base + 1.0 if k == 2 else base

        good = make_custom(healthy, x0=math.pi / 2, name="cos")
        bad = make_custom(corrupted, x0=math.pi / 2, name="cos-corrupt")
        xs = np.linspace(0.05, 1.5, 30)
        oracle = jets.derivatives(lambda j: j.cos(), xs, MAX_DERIV_ORDER)
        for k, stated in enumerate(good.derivs(xs)):
            np.testing.assert_allclose(stated, oracle[k], rtol=JET_RTOL, atol=0.0)
        worst = max(np.max(np.abs(stated - exact) / (1.0 + np.abs(exact)))
                    for stated, exact in zip(bad.derivs(xs), oracle))
        assert worst >= 0.5


class TestProfileBasics:
    def test_monotone_and_positive(self, builtin_profiles):
        for prof in builtin_profiles.values():
            xs = np.linspace(0.0, min(prof.x0, 10.0) * 0.98, 64)
            assert np.all(prof.deriv(0, xs) > 0.0)
            assert np.all(prof.deriv(1, xs) <= 0.0)

    def test_power_derivatives(self, pw2):
        # (1-x)^2: F' = -2(1-x), F'' = 2, higher orders vanish
        assert pw2.deriv(1, 0.25) == pytest.approx(-1.5)
        assert pw2.deriv(2, 0.25) == pytest.approx(2.0)
        assert pw2.deriv(3, 0.25) == 0.0
        assert pw2.deriv(5, 0.25) == 0.0

    def test_bad_parameters(self):
        with pytest.raises(ProfileError):
            linear_profile(-1.0, 1.0)
        with pytest.raises(ProfileError):
            exp_profile(0.0)
        with pytest.raises(ProfileError):
            power_profile(-2.0)

    def test_unsupported_order(self, lin11):
        with pytest.raises(ValueError):
            lin11.deriv(6, 0.1)

    def test_describe(self, lin2_05, expp):
        assert lin2_05.describe() == {"kind": "linear", "params": {"c1": 2.0, "c2": 0.5}, "x0": 4.0}
        assert expp.describe()["x0"] == "inf"


class TestTableProfile:
    def test_interpolates_exponential(self):
        xs = np.linspace(0.0, 4.0, 400)
        tab = table_profile(xs, np.exp(-xs))
        assert not tab.exact_derivatives
        assert tab.deriv(0, 1.3) == pytest.approx(math.exp(-1.3), abs=1e-12)
        assert tab.deriv(2, 1.3) == pytest.approx(math.exp(-1.3), abs=1e-9)
        # orders 0..4 against the exact derivatives (-1)^k e^-x
        x = np.linspace(0.1, 3.9, 100)
        for k, stated in enumerate(tab.derivs(x, 4)):
            np.testing.assert_allclose(stated, (-1.0) ** k * np.exp(-x), rtol=1e-4, atol=1e-4,
                                       err_msg=f"order {k}")
        ind = kahler_indicator(tab, np.linspace(0.05, 3.5, 50))
        np.testing.assert_allclose(ind, -1.0, atol=1e-6)

    def test_rejects_bad_tables(self):
        xs = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ProfileError):
            table_profile(xs[::-1], np.exp(-xs))
        with pytest.raises(ProfileError):
            table_profile(xs, xs - 0.5)
        with pytest.raises(ProfileError):
            table_profile(xs[:4], np.exp(-xs[:4]))
        # the domain contains z_0 = 0: data from x = 0.5 would be extrapolated below
        with pytest.raises(ProfileError, match=r"start at x <= 0, got x\[0\] = 0.5$"):
            table_profile(xs + 0.5, np.exp(-xs))


def test_profile_from_function_matches_builtin(expp):
    custom = profile_from_function(lambda j: (-j).exp(), x0=math.inf)
    xs = np.linspace(0.0, 3.0, 17)
    for k in range(6):
        np.testing.assert_allclose(custom.deriv(k, xs), expp.deriv(k, xs),
                                   rtol=1e-12, atol=1e-12)


def _gauss(j):
    return (-j - j * j * 0.25).exp()


class TestDerivs:
    @pytest.fixture
    def zoo(self):
        xs = np.linspace(0.0, 2.0, 200)
        return {
            "linear": linear_profile(2.0, 0.5),
            "exp": exp_profile(1.5),
            "power": power_profile(2.5),
            "table": table_profile(xs, np.exp(-xs - 0.1 * xs ** 2)),
            "jet": profile_from_function(_gauss, x0=math.inf, name="gauss"),
        }

    def test_matches_deriv_bit_for_bit(self, zoo):
        for name, prof in zoo.items():
            for x in (0.7, np.linspace(0.05, 0.95, 13)):
                for upto in range(MAX_DERIV_ORDER + 1):
                    table = prof.derivs(x, upto)
                    assert len(table) == upto + 1
                    for k in range(upto + 1):
                        stated = prof.deriv(k, x)
                        assert type(table[k]) is type(stated), (name, upto, k)
                        np.testing.assert_array_equal(table[k], stated)

    def test_jet_table_matches_full_order_jet(self, zoo):
        # a lower-order jet carries the same leading coefficients, bit for bit
        xs = np.linspace(0.05, 0.95, 13)
        full = jets.derivatives(_gauss, xs, MAX_DERIV_ORDER)
        for upto in range(MAX_DERIV_ORDER + 1):
            for k, v in enumerate(zoo["jet"].derivs(xs, upto)):
                np.testing.assert_array_equal(v, full[k])

    def test_default_order(self, expp):
        assert len(expp.derivs(0.5)) == MAX_DERIV_ORDER + 1

    def test_same_errors_as_deriv(self, zoo):
        for prof in zoo.values():
            for bad in (-0.1, np.array([0.2, -1e-9]), prof.x0):
                with pytest.raises(DomainError):
                    prof.derivs(bad)
                with pytest.raises(DomainError):
                    prof.deriv(0, bad)
            for order in (-1, MAX_DERIV_ORDER + 1):
                with pytest.raises(ValueError):
                    prof.derivs(0.5, order)
                with pytest.raises(ValueError):
                    prof.deriv(order, 0.5)
