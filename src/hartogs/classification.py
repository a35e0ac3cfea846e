"""Constant-curvature endgame: rescaling to the unit ball and the verdict.

Linear profiles ``F = c1 - c2 x`` define domains that a diagonal
coordinate rescaling maps onto the unit ball carrying the hyperbolic
metric; the potentials differ by an additive constant, so the pullback of
the hyperbolic metric reproduces the domain metric exactly.  The verdict
pipeline tests a profile for that situation: the radial Ricci correction
``L`` must vanish on a grid, the profile must actually fit a linear form,
and the pullback identity must hold numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .extremal import _radial_parts, _radial_residual
from .geometry import _oracle_error, metric_closed_form, radial_coefficients
from .curvature import _scal
from .profiles import Profile, _bounded, _finite_max, linear_profile
from .sampling import _BOUNDS, GridSpec, _interior_sample, x_grid

__all__ = [
    "HyperbolicMap",
    "hyperbolic_metric",
    "PullbackReport",
    "pullback_check",
    "ClassificationReport",
    "classify",
]

_BALL = linear_profile(1.0, 1.0)
# abscissae of the L sweep in classify
X_POINTS = 101
# largest pullback error for which classify accepts the isometry
PULLBACK_TOL = 1e-10


@dataclass(frozen=True)
class HyperbolicMap:
    """Diagonal biholomorphism from a linear-profile domain to the unit ball.

    ``z -> (z_0 sqrt(c2/c1), z_1/sqrt(c1), ..., z_{n-1}/sqrt(c1))``.
    """

    c1: float
    c2: float

    def scales(self, n: int) -> np.ndarray:
        s = np.full(n, 1.0 / np.sqrt(self.c1))
        s[0] = np.sqrt(self.c2 / self.c1)
        return s

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return z * self.scales(z.shape[-1])


def hyperbolic_metric(z) -> np.ndarray:
    """Metric of the unit ball with potential ``-log(1 - |z|^2)``.

    This is the linear-profile metric specialized to ``F = 1 - x``; points
    must satisfy ``|z|^2 < 1``.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.sum(np.square(np.abs(z)), axis=-1) >= 1.0):
        raise DomainError("point outside the unit ball")
    return metric_closed_form(z, _BALL)


@dataclass(frozen=True)
class PullbackReport:
    c1: float
    c2: float
    n: int
    grid: dict
    max_error: float
    tol: float
    passed: bool


def pullback_check(c1: float, c2: float, n: int, spec: GridSpec | None = None,
                   tol: float = PULLBACK_TOL) -> PullbackReport:
    """Compare ``J^H g_hyp(phi(z)) J`` with the kept metric of the linear profile's sample.

    The Jacobian ``J`` of the rescaling is constant and diagonal, so the
    pullback is a congruence by a fixed real diagonal matrix; the identity
    is exact up to roundoff when the profile really is ``c1 - c2 x``.
    ``max_error`` is the largest per-point ``max|diff| / (1 + max|g|)``, the
    FD oracles' measure, and passes at most ``tol``.  A ``tol`` not positive
    and finite raises ``ValueError``, a NaN or inf error ``NumericError``.
    """
    tol = _bounded("tol", tol, _BOUNDS["tol"])
    spec, sample = _interior_sample(linear_profile(c1, c2), n, spec)
    err = _pullback_error(c1, c2, sample)
    return PullbackReport(c1=c1, c2=c2, n=sample.n, grid=spec.describe(),
                          max_error=err, tol=tol, passed=err <= tol)


def _pullback_error(c1: float, c2: float, sample) -> float:
    """Largest per-point ``max|J^H g_hyp(phi(z)) J - g(z)| / (1 + max|g(z)|)`` over the
    points of ``sample``, ``phi`` the map of ``F = c1 - c2 x`` and ``g`` the sample's kept metric:
    the oracles' measure (``_oracle_error``), so roundoff in entries that grow like
    ``1/A^2`` near the boundary is judged against their size."""
    phi = HyperbolicMap(c1, c2)
    scales = phi.scales(sample.n)
    g_ball = hyperbolic_metric(phi(sample.points))
    pulled = scales[None, :, None] * g_ball * scales[None, None, :]
    err, size = _oracle_error(pulled, sample.metric)
    return _finite_max(err / size, "pullback error")


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict of the constant-curvature test pipeline."""

    profile: dict
    n: int
    grid: dict
    tol: float
    max_abs_l: float
    argmax_x: float
    c1: float | None
    c2: float | None
    fit_error: float | None
    pullback_max_error: float | None
    rho0_spread: float | None
    extremal_max_residual: float | None
    verdict: str

    def to_json(self) -> dict:
        return {
            "profile": self.profile, "n": self.n, "grid": self.grid, "tol": self.tol,
            "L_grid": {"max_abs": self.max_abs_l, "argmax_x": self.argmax_x},
            "c1": self.c1, "c2": self.c2, "fit_error": self.fit_error,
            "pullback_max_error": self.pullback_max_error,
            "rho0_spread": self.rho0_spread,
            "extremal_max_residual": self.extremal_max_residual,
            "verdict": self.verdict,
        }


def classify(profile: Profile, n: int = 2, spec: GridSpec | None = None,
             tol: float = 1e-8) -> ClassificationReport:
    """Decide whether the metric is the hyperbolic one in disguise.

    Pipeline: sweep ``L`` over an abscissa grid; if it vanishes to ``tol``,
    fit ``c1 = F(0)``, ``c2 = -F'(0)``, verify the fit pointwise, and
    confirm the pullback identity -> HYPERBOLIC.  A non-vanishing ``L``
    yields NON_CONSTANT_CURVATURE together with the spread of the scalar
    curvature and the radial extremality residual over an interior grid
    (the ``max_residual`` of :func:`hartogs.extremal.extremal_report`).  A
    vanishing ``L`` whose fit or pullback check fails yields INCONSISTENT:
    either the tolerances are misconfigured or the profile data violates
    the standing hypotheses.  The pullback check reads the kept interior metric of ``profile``.
    A ``tol`` not positive and finite raises ``ValueError``, a NaN or inf figure ``NumericError``.
    """
    tol = _bounded("tol", tol, _BOUNDS["tol"])
    spec, sample = _interior_sample(profile, n, spec)
    xs = x_grid(profile, X_POINTS, spec)
    rad = radial_coefficients(profile, xs)
    max_l = _finite_max(np.abs(rad.L), "radial Ricci correction L")
    arg_x = float(xs[int(np.argmax(np.abs(rad.L)))])
    base = dict(profile=profile.describe(), n=sample.n, grid=spec.describe(), tol=tol,
                max_abs_l=max_l, argmax_x=arg_x)
    if max_l > tol:
        spread = _finite_max(np.ptp(_scal(sample)), "scalar curvature spread")
        res = _radial_residual(*_radial_parts(sample))[1]
        return ClassificationReport(
            **base, c1=None, c2=None, fit_error=None, pullback_max_error=None,
            rho0_spread=spread, extremal_max_residual=res,
            verdict="NON_CONSTANT_CURVATURE",
        )
    f0, f1 = profile.derivs(0.0, 1)
    c1, c2 = float(f0), float(-f1)
    fit_error = _finite_max(np.abs(rad.F[0] - (c1 - c2 * xs)), "linear fit error")
    if fit_error > tol or c2 <= 0:
        return ClassificationReport(
            **base, c1=c1, c2=c2, fit_error=fit_error, pullback_max_error=None,
            rho0_spread=None, extremal_max_residual=None, verdict="INCONSISTENT",
        )
    pull_error = _pullback_error(c1, c2, sample)
    verdict = "HYPERBOLIC" if pull_error <= PULLBACK_TOL else "INCONSISTENT"
    return ClassificationReport(
        **base, c1=c1, c2=c2, fit_error=fit_error,
        pullback_max_error=pull_error, rho0_spread=None,
        extremal_max_residual=None, verdict=verdict,
    )
