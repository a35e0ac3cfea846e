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
from .extremal import dbar_jacobian
from .geometry import metric_closed_form, radial_coefficients
from .curvature import scalar_curvature
from .profiles import Profile, linear_profile
from .sampling import GridSpec, interior_points, x_grid

__all__ = [
    "HyperbolicMap",
    "hyperbolic_metric",
    "PullbackReport",
    "pullback_check",
    "ClassificationReport",
    "classify",
]

_BALL = linear_profile(1.0, 1.0)


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

    def jacobian(self, n: int) -> np.ndarray:
        return np.diag(self.scales(n))


def hyperbolic_metric(z) -> np.ndarray:
    """Metric of the unit ball with potential ``-log(1 - |z|^2)``.

    This is the linear-profile metric specialized to ``F = 1 - x``; points
    must satisfy ``|z|^2 < 1``.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.sum(np.abs(z) ** 2, axis=-1) >= 1.0):
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

    def to_json(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "n": self.n, "grid": self.grid,
                "max_error": self.max_error, "tol": self.tol, "passed": self.passed}


def pullback_check(c1: float, c2: float, n: int, spec: GridSpec | None = None,
                   tol: float = 1e-10) -> PullbackReport:
    """Compare ``J^H g_hyp(phi(z)) J`` with the linear-profile metric.

    The Jacobian ``J`` of the rescaling is constant and diagonal, so the
    pullback is a congruence by a fixed real diagonal matrix; the identity
    is exact up to roundoff when the profile really is ``c1 - c2 x``.
    """
    spec = spec or GridSpec()
    prof = linear_profile(c1, c2)
    pts = interior_points(prof, n, spec)
    phi = HyperbolicMap(c1, c2)
    scales = phi.scales(n)
    g_ball = hyperbolic_metric(phi(pts))
    pulled = scales[None, :, None] * g_ball * scales[None, None, :]
    err = float(np.max(np.abs(pulled - metric_closed_form(pts, prof))))
    return PullbackReport(c1=c1, c2=c2, n=n, grid=spec.describe(),
                          max_error=err, tol=tol, passed=err <= tol)


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
             tol: float = 1e-8, pullback_tol: float = 1e-10,
             x_points: int = 101, step: float = 1e-3) -> ClassificationReport:
    """Decide whether the metric is the hyperbolic one in disguise.

    Pipeline: sweep ``L`` over an abscissa grid; if it vanishes to ``tol``,
    fit ``c1 = F(0)``, ``c2 = -F'(0)``, verify the fit pointwise, and
    confirm the pullback identity -> HYPERBOLIC.  A non-vanishing ``L``
    yields NON_CONSTANT_CURVATURE together with the spread of the scalar
    curvature and the extremality residual (difference step ``step``, as
    in :func:`hartogs.extremal.extremal_report`) over an interior grid.  A
    vanishing ``L`` whose fit or pullback check fails yields INCONSISTENT:
    either the tolerances are misconfigured or the profile data violates
    the standing hypotheses.
    """
    spec = spec or GridSpec()
    xs = x_grid(profile, x_points, spec)
    rad = radial_coefficients(profile, xs)
    max_l = float(np.max(np.abs(rad.L)))
    arg_x = float(xs[int(np.argmax(np.abs(rad.L)))])
    base = dict(profile=profile.describe(), n=n, grid=spec.describe(), tol=tol,
                max_abs_l=max_l, argmax_x=arg_x)
    if max_l > tol:
        pts = interior_points(profile, n, spec)
        scal = scalar_curvature(pts, profile)
        res = float(np.max(np.abs(dbar_jacobian(pts, profile, step))))
        return ClassificationReport(
            **base, c1=None, c2=None, fit_error=None, pullback_max_error=None,
            rho0_spread=float(np.ptp(scal)), extremal_max_residual=res,
            verdict="NON_CONSTANT_CURVATURE",
        )
    f0, f1 = profile.derivs(0.0, 1)
    c1, c2 = float(f0), float(-f1)
    fit_error = float(np.max(np.abs(rad.F[0] - (c1 - c2 * xs))))
    if fit_error > tol or c2 <= 0:
        return ClassificationReport(
            **base, c1=c1, c2=c2, fit_error=fit_error, pullback_max_error=None,
            rho0_spread=None, extremal_max_residual=None, verdict="INCONSISTENT",
        )
    pull = pullback_check(c1, c2, n, spec, pullback_tol)
    verdict = "HYPERBOLIC" if pull.passed else "INCONSISTENT"
    return ClassificationReport(
        **base, c1=c1, c2=c2, fit_error=fit_error,
        pullback_max_error=pull.max_error, rho0_spread=None,
        extremal_max_residual=None, verdict=verdict,
    )
