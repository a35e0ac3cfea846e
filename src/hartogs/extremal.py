"""Extremality of the metric: Hamiltonian field, radial residual and FD oracle.

A Kaehler metric is extremal when the (1,0)-part of the Hamiltonian vector
field of its scalar curvature is holomorphic, i.e. when every
antiholomorphic derivative of ``X^a = sum_b g^{b a~} d(scal)/dz~_b``
vanishes.  For these domains the scalar curvature is
``-n(n+1) + G(x) A``, and the field factors through the two reduced
radial conditions ``r1 = (G F)'`` and ``r2 = (G F' x)'``:

    X = (A^2 / B) (r1 z_0, r2 z_1, ..., r2 z_{n-1}),

which costs O(n) per point and needs no inverse-metric matrix.  Only
``A = F - sum_{i>=1} |z_i|^2`` depends on the fiber coordinates, so the
fiber columns of the residual matrix are closed:

    d X^a / dz~_i = -2 A (r_a / B) z_a z_i,   r_0 = r1,  r_j = r2.

Every entry of the residual matrix vanishes exactly when ``r1 = r2 = 0``
where ``A > 0``, so the verdict is decided on the per-point radial
residual ``max(|A r1 / B|, |A r2 / B|)``, which carries no ``z_a z_c``
factor and so needs no off-axis points.  Extremality forces both
conditions to vanish, and together they force ``G = 0``, i.e. constant
scalar curvature.

The full residual matrix ``d X^a / dz~_c`` by central differences of the
field (:func:`dbar_jacobian`, the ``d/dz~`` mode of the stencil engine in
:mod:`hartogs.geometry`) is the independent oracle: the report compares
it with the closed fiber columns on a fixed subsample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import (
    _PointBatch,
    _dbar,
    _interior,
    _interleave,
    _oracle_error,
    radial_coefficients,
)
from .profiles import MAX_DERIV_ORDER, Profile, _bounded, _finite_max, _scalar
from .sampling import _BOUNDS, GridSpec, _interior_sample, x_grid

__all__ = [
    "scal_conjugate_gradient",
    "hamiltonian_field",
    "dbar_jacobian",
    "reduced_conditions",
    "ExtremalReport",
    "extremal_report",
]

# abscissae of the reduced-condition table in a report
X_POINTS = 41
# grid points (the first ones) on which the FD oracle runs in a report
ORACLE_POINTS = 25


def scal_conjugate_gradient(z, profile: Profile) -> np.ndarray:
    """Antiholomorphic gradient ``(d scal/dz~_0, ..., d scal/dz~_{n-1})``.

    From ``scal = -n(n+1) + G(x) A``:  the leading component is
    ``G' z_0 A + z_0 G F'`` and the fiber components are ``-G z_i``.
    Requires five profile derivatives (``G'`` contains ``F^(5)``).
    """
    p = _interior(z, profile, MAX_DERIV_ORDER)
    z, a = p.points, p.A
    out = np.empty_like(z)
    out[..., 0] = p.dG * z[..., 0] * a + z[..., 0] * p.G * p.F[1]
    out[..., 1:] = -np.asarray(p.G)[..., None] * z[..., 1:]
    return out


def _reduced(rad):
    """``(r1, r2) = ((G F)', (G F' x)')`` from a radial record."""
    f, f1 = rad.F[:2]
    return rad.dG * f + rad.G * f1, rad.dG * f1 * rad.x + rad.G * rad.T


def _radial_parts(p: _PointBatch):
    """``(A r1 / B, A r2 / B)``: the field is ``A`` times these scaling ``z``."""
    r1, r2 = _reduced(p)
    ab = p.A / p.B
    return ab * r1, ab * r2


def _scaled(z, c0, c1) -> np.ndarray:
    """``(c0 z_0, c1 z_1, ..., c1 z_{n-1})``."""
    out = z * np.asarray(c1)[..., None]
    out[..., 0] = z[..., 0] * c0
    return out


def _radial_residual(c0, c1) -> tuple:
    """The per-point residual ``max(|A r1 / B|, |A r2 / B|)`` from :func:`_radial_parts`
    and its largest value; a NaN or inf raises instead of turning into a verdict."""
    res = np.maximum(np.abs(c0), np.abs(c1))
    return res, _finite_max(res, "radial extremality residual")


def _extremal_verdict(profile: Profile, n: int, spec: GridSpec | None, tol: float) -> tuple:
    """The extremality verdict on the kept interior sample: the one ``tol`` rule.

    Returns ``(spec, sample, tol, (c0, c1), per_point, max_residual,
    verdict)``: ``spec`` and ``tol`` checked, the radial parts and the
    per-point residual of :func:`_radial_residual` over the sample, and
    ``EXTREMAL`` when the largest residual is at most ``tol``, else
    ``NOT_EXTREMAL``.  It computes no oracle.
    """
    tol = _bounded("tol", tol, _BOUNDS["tol"])
    spec, sample = _interior_sample(profile, n, spec)
    parts = _radial_parts(sample)
    per_point, max_res = _radial_residual(*parts)
    return (spec, sample, tol, parts, per_point, max_res,
            "EXTREMAL" if max_res <= tol else "NOT_EXTREMAL")


def hamiltonian_field(z, profile: Profile) -> np.ndarray:
    """(1,0)-part of the Hamiltonian field, ``X^a = sum_b g^{b a~} d scal/dz~_b``.

    Evaluated in O(n) per point without forming the inverse metric:
    ``X = (A^2/B)(r1 z_0, r2 z_1, ..., r2 z_{n-1})`` with the reduced
    conditions ``r1 = (G F)'`` and ``r2 = (G F' x)'``.  This is
    ``X^0 = (A/B)(F v_0 + F' z_0 w)``,
    ``X^j = (A/B)(F' z~_0 z_j v_0 + T z_j w + B v_j)`` (``v`` the gradient,
    ``w = sum_{i>=1} z~_i v_i``, ``T = F' + F'' x``) with the radial form of
    ``v`` and ``B = F'^2 x - F T`` inserted.
    """
    p = _interior(z, profile, MAX_DERIV_ORDER)
    c0, c1 = _radial_parts(p)
    return _scaled(p.points, p.A * c0, p.A * c1)


def dbar_jacobian(z, profile: Profile, step: float = 1e-3):
    """Residual matrices ``d X^a / dz~_c`` by central differences (the oracle).

    Broadcasts like :func:`hartogs.geometry.wirtinger_hessian`: ``(m, n)``
    points give ``(m, n, n)`` from one field evaluation on every stencil
    point; a stencil point outside the domain raises ``StepError``.
    """
    return _dbar(lambda p: hamiltonian_field(p, profile), z, step)


def reduced_conditions(profile: Profile, x: float) -> tuple[float, float]:
    """The two radial extremality conditions ``((G F)', (G F' x)')`` at ``x``.

    Both vanish identically iff the metric is extremal on an open set; the
    first alone forces ``G = c/F``, and the second then kills ``c``.  At
    ``x = 0`` built-ins evaluate by their smooth extension; table profiles
    are rejected there since spline derivatives are unreliable at the edge.
    """
    xa = np.asarray(x, dtype=float)
    if not profile.exact_derivatives and np.any(xa == 0.0):
        raise DomainError("reduced conditions at x = 0 need exact derivatives")
    r1, r2 = _reduced(radial_coefficients(profile, xa))
    return _scalar(r1), _scalar(r2)


@dataclass(frozen=True, eq=False)
class ExtremalReport:
    """Grid sweep summary for the extremality test."""

    profile: dict
    n: int
    grid: dict
    step: float
    tol: float
    max_residual: float
    oracle_fiber_error: float
    argmax_point: np.ndarray
    x: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    verdict: str

    def to_json(self) -> dict:
        return {
            "profile": self.profile, "n": self.n, "grid": self.grid,
            "step": self.step, "tol": self.tol,
            "max_residual": self.max_residual,
            "oracle_fiber_error": self.oracle_fiber_error,
            "argmax_point": _interleave(self.argmax_point).tolist(),
            "reduced_conditions": {
                "x": [float(v) for v in self.x],
                "r1": [float(v) for v in self.r1],
                "r2": [float(v) for v in self.r2],
            },
            "verdict": self.verdict,
        }


def extremal_report(profile: Profile, n: int, spec: GridSpec | None = None,
                    step: float = 1e-3, tol: float = 1e-5) -> ExtremalReport:
    """Sweep the radial residual over an interior grid and issue a verdict.

    ``max_residual`` is the largest ``max(|A r1 / B|, |A r2 / B|)`` over
    every grid point, and the verdict is ``EXTREMAL`` when it is at most
    ``tol``.  The FD oracle :func:`dbar_jacobian` (base step ``step``) runs
    on the first ``ORACLE_POINTS`` grid points only; ``oracle_fiber_error``
    is the largest ``max|FD - closed| / (1 + max|closed|)`` over them,
    against the closed fiber columns ``-2 A (r_a / B) z_a z_i``.  A ``tol`` not
    positive and finite raises ``ValueError``, a NaN or inf figure ``NumericError``.
    """
    spec, sample, tol, (c0, c1), per_point, max_res, verdict = _extremal_verdict(
        profile, n, spec, tol)
    z = sample.points
    k = ORACLE_POINTS
    sub = z[:k]
    closed = -2.0 * _scaled(sub, c0[:k], c1[:k])[:, :, None] * sub[:, None, 1:]
    err, size = _oracle_error(dbar_jacobian(sub, profile, step)[:, :, 1:], closed)
    oracle = _finite_max(err / size, "extremality oracle error")
    arg = int(np.argmax(per_point))
    xs = x_grid(profile, X_POINTS, spec)
    r1, r2 = reduced_conditions(profile, xs)
    return ExtremalReport(
        profile=profile.describe(), n=sample.n, grid=spec.describe(), step=step, tol=tol,
        max_residual=max_res, oracle_fiber_error=oracle, argmax_point=z[arg],
        x=xs, r1=np.asarray(r1), r2=np.asarray(r2), verdict=verdict,
    )
