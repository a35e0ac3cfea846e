"""Taylor-jet arithmetic against hand-differentiated references."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hartogs import jets


def test_exp_derivatives():
    # d^k/dx^k exp(-2x) = (-2)^k exp(-2x)
    d = jets.derivatives(lambda j: (j * -2.0).exp(), 0.7, 5)
    for k in range(6):
        assert d[k] == pytest.approx((-2.0) ** k * math.exp(-1.4), rel=1e-13)


def test_product_and_quotient():
    # f = sin(x)/x has known series; compare against mpmath-free closed forms
    x = 0.9
    d = jets.derivatives(lambda j: j.sin() / j, x, 3)
    s, c = math.sin(x), math.cos(x)
    assert d[0] == pytest.approx(s / x, rel=1e-13)
    assert d[1] == pytest.approx(c / x - s / x ** 2, rel=1e-13)
    assert d[2] == pytest.approx(-s / x - 2 * c / x ** 2 + 2 * s / x ** 3, rel=1e-13)


def test_log_and_powers():
    x = 1.7
    d = jets.derivatives(lambda j: (j ** 2 + 1.0).log(), x, 4)
    u = x ** 2 + 1
    assert d[0] == pytest.approx(math.log(u), rel=1e-13)
    assert d[1] == pytest.approx(2 * x / u, rel=1e-13)
    assert d[2] == pytest.approx((2 * u - 4 * x ** 2) / u ** 2, rel=1e-12)


def test_real_exponent_pow():
    x = 0.4
    d = jets.derivatives(lambda j: (1.0 - j) ** 2.5, x, 3)
    assert d[1] == pytest.approx(-2.5 * (1 - x) ** 1.5, rel=1e-12)
    assert d[2] == pytest.approx(2.5 * 1.5 * (1 - x) ** 0.5, rel=1e-12)


def test_array_coefficients():
    xs = np.linspace(0.1, 2.0, 7)
    d = jets.derivatives(lambda j: (j * -1.0).exp(), xs, 5)
    for k in range(6):
        np.testing.assert_allclose(d[k], (-1.0) ** k * np.exp(-xs), rtol=1e-13)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_product_rule(a, b):
    # first derivative of exp(ax) * sin(bx + 1) at x0 obeys the product rule
    x0 = 0.3

    def f(j):
        return (j * a).exp() * (j * b + 1.0).sin()

    d = jets.derivatives(f, x0, 2)
    expected = (a * math.exp(a * x0) * math.sin(b * x0 + 1)
                + b * math.exp(a * x0) * math.cos(b * x0 + 1))
    assert d[1] == pytest.approx(expected, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("op, forward, backward", [
    (lambda f, g: f + g, [3.0, 7.0], [3.0, 7.0]),
    (lambda f, g: f - g, [-1.0, -3.0], [1.0, 3.0]),
    (lambda f, g: f * g, [2.0, 9.0], [2.0, 9.0]),
    (lambda f, g: f / g, [0.5, -0.25], [2.0, 1.0]),
], ids=["add", "sub", "mul", "div"])
def test_mixed_orders_truncate_to_the_lower(op, forward, backward):
    # the order-2 jet is cut to order 1, in either operand order: its
    # extra term is not determined by the order-1 jet
    long, short = jets.Jet([1.0, 2.0, 3.0]), jets.Jet([2.0, 5.0])
    assert [float(c) for c in op(long, short).coeffs] == forward
    assert [float(c) for c in op(short, long).coeffs] == backward
