"""Radial profiles of Hartogs domains.

A profile is a positive decreasing function ``F`` on ``[0, x0)`` together
with its derivatives.  The whole geometry of the associated domain --
metric, curvatures, extremality residuals -- is driven by ``F`` evaluated
at ``x = |z_0|^2``, so profiles expose exact derivatives up to order
:data:`MAX_DERIV_ORDER` (the scalar-curvature gradient needs five).

Built-in families carry hand-written closed-form derivatives.  Profiles
built from arbitrary formulas use truncated Taylor arithmetic
(:mod:`hartogs.jets`); profiles built from tabulated data use quintic
spline interpolation and are flagged as lower precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ProfileError, StepError
from . import jets

__all__ = [
    "MAX_DERIV_ORDER",
    "Profile",
    "linear_profile",
    "exp_profile",
    "power_profile",
    "table_profile",
    "profile_from_function",
    "kahler_indicator",
    "derivative_consistency",
]

# Metric needs F'', the Ricci correction needs F'''', and the derivative of
# the scalar-curvature coefficient needs F'''''.
MAX_DERIV_ORDER = 5


@dataclass(frozen=True)
class Profile:
    """Decreasing radial profile ``F: [0, x0) -> (0, inf)``.

    Immutable; evaluation is a pure function, safe for concurrent use.

    Attributes
    ----------
    x0 : float
        Right endpoint of the abscissa domain (``math.inf`` if unbounded).
    kind : str
        Family tag: ``linear``, ``exp``, ``power``, ``table`` or ``custom``.
    params : dict
        Family parameters, kept for report serialization.
    exact_derivatives : bool
        False for spline-backed (table) profiles, whose higher derivatives
        are interpolation artifacts rather than closed forms.

    The family's ``_table(x, upto)`` returns ``F, ..., F^(upto)`` at ``x``
    (at least ``upto + 1`` entries) from one evaluation.
    """

    x0: float
    kind: str
    params: dict = field(default_factory=dict)
    _table: Callable = None
    exact_derivatives: bool = True

    def derivs(self, x, upto: int = MAX_DERIV_ORDER) -> tuple:
        """``(F(x), F'(x), ..., F^(upto)(x))`` from one evaluation, vectorized over ``x``.

        Raises ``ValueError`` for unsupported orders and ``DomainError`` if
        any ``x`` falls outside ``[0, x0)`` (NaN included); the message gives
        the count and the first offending value.
        """
        if not 0 <= upto <= MAX_DERIV_ORDER:
            raise ValueError(f"derivative order must be in 0..{MAX_DERIV_ORDER}, got {upto}")
        xa = np.asarray(x, dtype=float)
        outside = ~((xa >= 0.0) & (xa < self.x0))
        if np.any(outside):
            raise DomainError(f"{np.count_nonzero(outside)} abscissa(e) outside "
                              f"[0, {self.x0}), first {float(xa[outside].flat[0])!r}")
        table = [np.asarray(v, dtype=float) for v in self._table(xa, upto)[: upto + 1]]
        return tuple(table) if xa.ndim else tuple(float(v) for v in table)

    def deriv(self, k: int, x):
        """k-th derivative ``F^(k)(x)``; the last entry of ``derivs(x, k)``."""
        return self.derivs(x, k)[k]

    def __call__(self, x):
        return self.deriv(0, x)

    def describe(self) -> dict:
        """JSON-ready description of the profile."""
        x0 = self.x0 if math.isfinite(self.x0) else "inf"
        return {"kind": self.kind, "params": dict(self.params), "x0": x0}


def linear_profile(c1: float, c2: float) -> Profile:
    """``F(x) = c1 - c2 x`` with ``c1 > 0``, ``c2 >= 0``.

    For ``c1, c2 > 0`` this is the profile of complex hyperbolic space (up
    to the coordinate rescaling tested in :mod:`hartogs.classification`).
    ``c2 = 0`` yields a constant profile, useful as a non-admissible
    control case.
    """
    if c1 <= 0 or c2 < 0:
        raise ProfileError(f"linear profile needs c1 > 0 and c2 >= 0, got ({c1}, {c2})")
    x0 = math.inf if c2 == 0 else c1 / c2

    def table(x, upto):
        return [c1 - c2 * x, np.full_like(x, -c2)] + [np.zeros_like(x) for _ in range(upto - 1)]

    return Profile(x0=x0, kind="linear", params={"c1": c1, "c2": c2}, _table=table)


def exp_profile(scale: float = 1.0) -> Profile:
    """``F(x) = exp(-scale * x)`` on ``[0, inf)``."""
    if scale <= 0:
        raise ProfileError(f"exp profile needs scale > 0, got {scale}")

    def table(x, upto):
        e = np.exp(-scale * x)
        return [(-scale) ** k * e for k in range(upto + 1)]

    return Profile(x0=math.inf, kind="exp", params={"scale": scale}, _table=table)


def power_profile(p: float) -> Profile:
    """``F(x) = (1 - x)^p`` on ``[0, 1)`` with ``p > 0``."""
    if p <= 0:
        raise ProfileError(f"power profile needs p > 0, got {p}")

    def table(x, upto):
        u = 1.0 - x
        return [(-1.0) ** k * math.prod(p - i for i in range(k)) * u ** (p - k)
                for k in range(upto + 1)]

    return Profile(x0=1.0, kind="power", params={"p": p}, _table=table)


def profile_from_function(fn: Callable, x0: float, name: str = "custom",
                          params: dict | None = None) -> Profile:
    """Profile from a jet-aware callable ``fn`` (see :mod:`hartogs.jets`).

    ``fn`` receives a :class:`hartogs.jets.Jet` and must return one, using
    only jet arithmetic; derivatives up to order 5 are then exact.
    """

    def table(x, upto):
        return jets.derivatives(fn, x, upto)

    return Profile(x0=x0, kind="custom", params=dict(params or {"name": name}),
                   _table=table)


def table_profile(x: np.ndarray, f: np.ndarray, kind_params: dict | None = None) -> Profile:
    """Profile interpolated from ``(x, F)`` samples with a quintic spline.

    ``x`` must be strictly increasing and start at 0 (or close to it); the
    usable domain is ``[x[0], x[-1])``.  Derivatives come from the spline
    and are flagged as lower precision.
    """
    from scipy.interpolate import InterpolatedUnivariateSpline

    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.ndim != 1 or x.shape != f.shape or x.size < 8:
        raise ProfileError("table profile needs matching 1-D arrays with >= 8 rows")
    if np.any(np.diff(x) <= 0):
        raise ProfileError("table abscissae must be strictly increasing")
    if np.any(f <= 0):
        raise ProfileError("table profile values must be positive")
    spline = InterpolatedUnivariateSpline(x, f, k=5)
    splines = [spline] + [spline.derivative(k) for k in range(1, MAX_DERIV_ORDER + 1)]

    def table(xx, upto):
        return [s(xx) for s in splines[: upto + 1]]

    params = dict(kind_params or {})
    params.setdefault("rows", int(x.size))
    return Profile(x0=float(x[-1]), kind="table", params=params,
                   _table=table, exact_derivatives=False)


def kahler_indicator(profile: Profile, x) -> float:
    """Derivative of ``x F'(x)/F(x)``; the metric is Kaehler iff this is < 0.

    Computed by the quotient rule from ``F, F', F''``:
    ``(x F'/F)' = (F' + x F'')/F - x (F'/F)^2``.
    """
    xa = np.asarray(x, dtype=float)
    f, f1, f2 = profile.derivs(xa, 2)
    if np.any(np.asarray(f) <= 0.0):
        raise ProfileError(f"profile non-positive at x={x!r}")
    out = (f1 + xa * f2) / f - xa * (f1 / f) ** 2
    return out if xa.ndim else float(out)


# 5-point first-derivative stencil: O(step^4) truncation error.
_STENCIL = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))


def derivative_consistency(profile: Profile, x: float, step: float) -> float:
    """Largest mismatch between stated and finite-difference derivatives.

    For each order ``k = 1..4`` the profile's ``F^(k)(x)`` is compared
    against a five-point central difference of ``F^(k-1)``, and the
    worst relative deviation ``|fd - deriv| / (1 + |deriv|)`` is returned.
    Chaining through the next-lower order keeps the finite-difference
    noise at first-derivative level for every k, so a healthy profile
    scores near roundoff while a corrupted derivative table is flagged
    with an O(1) score.
    """
    if step <= 0:
        raise StepError(f"step must be positive, got {step}")
    if x - 2 * step <= 0 or x + 2 * step >= profile.x0:
        raise DomainError(f"stencil [x-2*step, x+2*step] leaves (0, {profile.x0})")
    stated = profile.derivs(x, 4)
    shifted = [(w, profile.derivs(x + j * step, 3)) for j, w in _STENCIL]
    worst = 0.0
    for k in range(1, 5):
        fd = sum(w * d[k - 1] for w, d in shifted) / (12.0 * step)
        worst = max(worst, abs(fd - stated[k]) / (1.0 + abs(stated[k])))
    return worst
