"""Boundary Levi-form computations and the sampled equivalence test.

With defining function ``rho = |z_1|^2 + ... + |z_{n-1}|^2 - F(|z_0|^2)``,
the boundary of the domain is strongly pseudoconvex at a point exactly
when the Levi form of ``rho`` is positive on the complex tangent space.
On the stratum ``z_0 != 0`` the tangency condition can be solved for
``X_0``, giving a restricted Levi form in the fiber components alone; at
``z_0 = 0`` the Levi form is positive on all of C^n and no restriction is
needed.  The sampled equivalence test plays the sign of the restricted
Levi form against the sign of the Kaehler admissibility indicator
``(x F'/F)'``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .geometry import _interleave
from .profiles import Profile, kahler_indicator
from .sampling import GridSpec, _norm, boundary_samples

__all__ = [
    "BoundaryPoint",
    "boundary_point",
    "levi_form",
    "tangent_vector",
    "restricted_levi",
    "EquivalenceReport",
    "equivalence_check",
]


def _scalar(out):
    return out if np.ndim(out) else float(out)


def _abs2(c):
    """``|c|^2`` elementwise, rounded as ``abs(c) ** 2`` rounds it for one complex scalar."""
    c = np.asarray(c)
    return np.hypot(c.real, c.imag) ** 2


@dataclass(frozen=True)
class BoundaryPoint:
    """Points on the fiber boundary together with the gradient of ``rho``.

    ``coords`` satisfies ``sum_{k>=1} |z_k|^2 = F(|z_0|^2)`` to 1e-12 and
    ``normal`` holds the holomorphic gradient
    ``(d rho/dz_0, ..., d rho/dz_{n-1}) = (-F' z~_0, z~_1, ..., z~_{n-1})``,
    which never vanishes on this stratum.  Both have shape ``(..., n)``:
    one point, or a batch over leading axes.
    """

    coords: np.ndarray
    normal: np.ndarray

    @property
    def z0(self):
        return self.coords[..., 0][()]   # [()]: a scalar for one point

    @property
    def fiber(self) -> np.ndarray:
        return self.coords[..., 1:]


def boundary_point(profile: Profile, z0, direction) -> BoundaryPoint:
    """Boundary point over ``z0`` in the given fiber direction.

    ``direction`` is a nonzero vector in C^(n-1); it is normalized here, so
    only its direction matters.  Requires ``|z0|^2 < x0``.  Broadcasts:
    ``z0`` of shape ``(...)`` and ``direction`` of shape ``(..., n-1)``
    give coordinates of shape ``(..., n)``.
    """
    direction = np.asarray(direction, dtype=complex)
    if direction.ndim < 1 or direction.shape[-1] < 1:
        raise ValueError("direction must be a vector in C^(n-1)")
    norm = _norm(direction)
    if np.any(norm == 0):
        raise ValueError("direction must be nonzero")
    z0 = np.asarray(z0, dtype=complex)
    x = _abs2(z0)
    f, f1 = profile.derivs(x, 1)   # raises DomainError when |z0|^2 >= x0
    fiber = np.sqrt(f)[..., None] * direction / norm[..., None]
    z0 = np.broadcast_to(z0, fiber.shape[:-1])
    coords = np.concatenate([z0[..., None], fiber], axis=-1)
    normal = np.concatenate([(-f1 * np.conj(z0))[..., None], np.conj(fiber)], axis=-1)
    return BoundaryPoint(coords=coords, normal=normal)


def levi_form(point: BoundaryPoint, x_vec, profile: Profile):
    """Levi form of ``rho`` at the point, applied to ``x_vec``.

    ``L = sum_{k>=1} |X_k|^2 - (F' + F'' |z_0|^2) |X_0|^2``; defined for
    every ``z_0`` including the ``z_0 = 0`` stratum, where it is positive
    on all nonzero vectors because ``F' < 0``.  ``x_vec`` of shape
    ``(..., n)`` broadcasts against the point's leading axes.
    """
    x_vec = np.asarray(x_vec, dtype=complex)
    x = _abs2(point.z0)
    _, f1, f2 = profile.derivs(x, 2)
    out = (np.sum(np.abs(x_vec[..., 1:]) ** 2, axis=-1)
           - (f1 + f2 * x) * _abs2(x_vec[..., 0]))
    return _scalar(out)


def tangent_vector(point: BoundaryPoint, y, profile: Profile) -> np.ndarray:
    """Complete fiber components ``Y`` to a complex tangent vector.

    Solves the tangency condition
    ``-F' z~_0 X_0 + z~_1 X_1 + ... + z~_{n-1} X_{n-1} = 0`` for ``X_0``.
    Requires ``z_0 != 0``; at the ``z_0 = 0`` stratum the Levi form is
    positive without restriction, so use :func:`levi_form` directly there.
    ``y`` of shape ``(..., n-1)`` broadcasts against the point's leading axes.
    """
    if np.any(point.z0 == 0):
        raise DomainError("z_0 = 0 stratum: tangency solve degenerates; "
                          "test the unrestricted Levi form instead")
    y = np.asarray(y, dtype=complex)
    x = _abs2(point.z0)
    f1 = profile.deriv(1, x)
    pairing = np.sum(np.conj(point.fiber) * y, axis=-1)
    x0 = pairing / (f1 * np.conj(point.z0))
    y = np.broadcast_to(y, np.shape(x0) + y.shape[-1:])
    return np.concatenate([x0[..., None], y], axis=-1)


def restricted_levi(point: BoundaryPoint, y, profile: Profile):
    """Levi form restricted to the complex tangent space, in closed form.

    Equals ``levi_form(point, tangent_vector(point, y))``:
    ``sum |Y_k|^2 - ((F' + F'' x)/(F'^2 x)) |<z_fiber, Y>|^2`` with
    ``x = |z_0|^2`` and the pairing ``<z, Y> = sum z~_k Y_k``.  ``y`` of
    shape ``(..., n-1)`` broadcasts against the point's leading axes.
    """
    if np.any(point.z0 == 0):
        raise DomainError("z_0 = 0 stratum: use the unrestricted Levi form")
    y = np.asarray(y, dtype=complex)
    x = _abs2(point.z0)
    _, f1, f2 = profile.derivs(x, 2)
    pairing = np.sum(np.conj(point.fiber) * y, axis=-1)
    out = (np.sum(np.abs(y) ** 2, axis=-1)
           - (f1 + f2 * x) / (f1 ** 2 * x) * _abs2(pairing))
    return _scalar(out)


@dataclass(frozen=True)
class EquivalenceReport:
    """Result of the sampled pseudoconvexity/admissibility equivalence test."""

    profile: dict
    n: int
    samples: int
    seed: int
    min_levi: float
    argmin_point: np.ndarray
    argmin_direction: np.ndarray
    max_indicator: float
    argmax_x: float
    verdict: str

    def to_json(self) -> dict:
        return {
            "profile": self.profile, "n": self.n,
            "samples": self.samples, "seed": self.seed,
            "min_levi": self.min_levi,
            "argmin": {"point": _interleave(self.argmin_point).tolist(),
                       "direction": _interleave(self.argmin_direction).tolist()},
            "max_indicator": self.max_indicator, "argmax_x": self.argmax_x,
            "verdict": self.verdict,
        }


def equivalence_check(profile: Profile, n: int = 2,
                      spec: GridSpec | None = None) -> EquivalenceReport:
    """Sample boundary points and compare the two positivity conditions.

    Draws ``spec.points`` boundary samples seeded with ``spec.seed``
    (:func:`hartogs.sampling.boundary_samples`).  At every boundary point
    the restricted Levi form is evaluated both on the random tangent
    direction and on the fiber-aligned direction (the worst case of the
    Cauchy-Schwarz bound).  Verdict is CONSISTENT when "restricted Levi
    positive at all samples" agrees with "indicator negative at all
    samples", i.e. when the sampled equivalence holds in either direction.
    The worst sample is the first one in draw order (tangent direction
    before fiber-aligned); a NaN or inf raises ``NumericError``.
    """
    spec = spec or GridSpec()
    x, z0, fiber_dir, tangent_dir = boundary_samples(profile, n, spec)
    # leading axes (m, 1): each point broadcasts over its two directions
    pts = boundary_point(profile, z0[:, None], fiber_dir[:, None])
    aligned = pts.fiber / _norm(pts.fiber)[..., None]
    directions = np.concatenate([tangent_dir[:, None], aligned], axis=1)
    levi = restricted_levi(pts, directions, profile)
    ind = kahler_indicator(profile, x)
    if not (np.all(np.isfinite(levi)) and np.all(np.isfinite(ind))):
        raise NumericError("non-finite restricted Levi form or Kaehler indicator")
    k, j = np.unravel_index(np.argmin(levi), levi.shape)
    i = int(np.argmax(ind))
    min_levi, max_ind = float(levi[k, j]), float(ind[i])
    verdict = "CONSISTENT" if (min_levi > 0.0) == (max_ind < 0.0) else "INCONSISTENT"
    return EquivalenceReport(
        profile=profile.describe(), n=n, samples=spec.points, seed=spec.seed,
        min_levi=min_levi, argmin_point=pts.coords[k, 0],
        argmin_direction=directions[k, j],
        max_indicator=max_ind, argmax_x=float(x[i]), verdict=verdict,
    )
