"""Univariate truncated Taylor arithmetic (forward-mode derivatives).

A :class:`Jet` carries the Taylor coefficients ``c_k = f^(k)(x0)/k!`` of a
scalar function at an expansion point, up to a fixed order.  Arithmetic on
jets propagates derivatives exactly (to floating-point roundoff), which is
how profiles defined by arbitrary smooth formulas get their higher
derivatives without symbolic algebra or finite differences.

Coefficients are stored as numpy arrays so a jet can carry a whole grid of
expansion points at once.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet", "variable", "derivatives"]


def _as_coeff(x, shape):
    return np.broadcast_to(np.asarray(x, dtype=float), shape).copy()


class Jet:
    """Taylor coefficients ``(c_0, ..., c_order)`` of a function at a point."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [np.asarray(c, dtype=float) for c in coeffs]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        shape = np.shape(self.coeffs[0])
        cs = [_as_coeff(other, shape)] + [np.zeros(shape) for _ in range(self.order)]
        return Jet(cs)

    def _operands(self, other) -> tuple[list, list]:
        """The coefficients of ``self`` and of ``other`` (a jet or a constant),
        both cut to the lower of their orders: the higher terms of the
        longer jet are not determined by the shorter one."""
        o = self._lift(other).coeffs
        k = min(len(self.coeffs), len(o))
        return self.coeffs[:k], o[:k]

    # -- ring operations (the order of the result is the lower one) -----------
    def __add__(self, other):
        f, g = self._operands(other)
        return Jet([a + b for a, b in zip(f, g)])

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        f, g = self._operands(other)
        return Jet([sum(f[j] * g[k - j] for j in range(k + 1)) for k in range(len(f))])

    __rmul__ = __mul__

    def __truediv__(self, other):
        f, g = self._operands(other)
        out = []
        for k in range(len(f)):
            s = f[k] - sum(out[j] * g[k - j] for j in range(k))
            out.append(s / g[0])
        return Jet(out)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            result = self._lift(1.0)
            base = self
            e = p
            while e:
                if e & 1:
                    result = result * base
                base = base * base
                e >>= 1
            return result
        # real exponent: f^p = exp(p log f), requires f > 0
        return (p * self.log()).exp()

    # -- elementary functions (standard Taylor recurrences) ---------------
    def exp(self) -> "Jet":
        K = self.order
        f = self.coeffs
        g = [np.exp(f[0])]
        for k in range(1, K + 1):
            s = sum(j * f[j] * g[k - j] for j in range(1, k + 1))
            g.append(s / k)
        return Jet(g)

    def log(self) -> "Jet":
        K = self.order
        f = self.coeffs
        g = [np.log(f[0])]
        for k in range(1, K + 1):
            s = k * f[k] - sum(j * g[j] * f[k - j] for j in range(1, k))
            g.append(s / (k * f[0]))
        return Jet(g)

    def sqrt(self) -> "Jet":
        return self ** 0.5

    def sin(self) -> "Jet":
        return self._sincos()[0]

    def cos(self) -> "Jet":
        return self._sincos()[1]

    def _sincos(self):
        K = self.order
        f = self.coeffs
        s = [np.sin(f[0])]
        c = [np.cos(f[0])]
        for k in range(1, K + 1):
            sk = sum(j * f[j] * c[k - j] for j in range(1, k + 1)) / k
            ck = -sum(j * f[j] * s[k - j] for j in range(1, k + 1)) / k
            s.append(sk)
            c.append(ck)
        return Jet(s), Jet(c)


def variable(x, order: int) -> Jet:
    """Seed jet for the independent variable at expansion point(s) ``x``."""
    x = np.asarray(x, dtype=float)
    coeffs = [x.copy(), np.ones(x.shape)]
    coeffs += [np.zeros(x.shape) for _ in range(order - 1)]
    return Jet(coeffs)


def derivatives(fn, x, order: int) -> list[np.ndarray]:
    """Evaluate ``[f(x), f'(x), ..., f^(order)(x)]`` for a jet-aware callable."""
    jet = fn(variable(x, order))
    return [c * math.factorial(k) for k, c in enumerate(jet.coeffs)]
