"""Boundary Levi-form computations and the sampled equivalence test.

With defining function ``rho = |z_1|^2 + ... + |z_{n-1}|^2 - F(|z_0|^2)``,
the boundary of the domain is strongly pseudoconvex at a point exactly
when the Levi form of ``rho`` is positive on the complex tangent space.
Where ``F' z~_0 != 0`` the tangency condition can be solved for ``X_0``,
giving a restricted Levi form in the fiber components alone.  At
``z_0 = 0`` the Levi form is positive on all of C^n and no restriction is
needed; where ``F' = 0`` the condition leaves ``X_0`` free, and the Levi
form on ``e_0 = (1, 0, ..., 0)`` is ``-T``.  The sampled equivalence test
plays the sign of the restricted Levi form against the sign of the
Kaehler admissibility indicator ``(x F'/F)'``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import RadialCoefficients, _interleave
from .profiles import Profile, _finite_max, _indicator, _scalar
from .sampling import GridSpec, _grid_spec, _norm, boundary_samples

__all__ = [
    "BoundaryPoint",
    "boundary_point",
    "levi_form",
    "tangent_vector",
    "restricted_levi",
    "EquivalenceReport",
    "equivalence_check",
]


def _abs2(c):
    """``|c|^2`` elementwise: ``hypot(re, im)``, the ``abs`` of one complex scalar, squared."""
    c = np.asarray(c)
    return np.square(np.hypot(c.real, c.imag))


@dataclass(frozen=True, eq=False)
class BoundaryPoint(RadialCoefficients):
    """Points on the fiber boundary: the radial record of ``|z_0|^2`` and the coordinates.

    The record holds ``x = |z_0|^2`` and the table ``F = (F, F', F'')``
    at ``x``, one entry per point (floats for one point), and builds
    ``T = F' + F'' x`` on first use; the Levi-form functions read them,
    so they take no profile.  ``coords`` satisfies
    ``sum_{k>=1} |z_k|^2 = F(|z_0|^2)`` to 1e-12 and has shape
    ``(..., n)``: one point, or a batch over leading axes.  The holomorphic
    gradient of ``rho`` there, ``(-F' z~_0, z~_1, ..., z~_{n-1})``, follows
    from ``coords`` and ``F'``; the tangency condition of
    :func:`tangent_vector` is its pairing with ``X``.
    """

    coords: np.ndarray

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
    give coordinates of shape ``(..., n)``.  The one ``derivs`` call of the
    batch gives the point's table ``F`` to order two.
    """
    direction = np.asarray(direction, dtype=complex)
    if direction.ndim < 1 or direction.shape[-1] < 1:
        raise ValueError("direction must be a vector in C^(n-1)")
    norm = _norm(direction)
    if np.any(norm == 0):
        raise ValueError("direction must be nonzero")
    z0 = np.asarray(z0, dtype=complex)
    z0 = np.broadcast_to(z0, np.broadcast_shapes(z0.shape, direction.shape[:-1]))
    x = _abs2(z0)
    table = profile.derivs(x, 2)   # raises DomainError when |z0|^2 >= x0
    fiber = np.sqrt(table[0])[..., None] * direction / norm[..., None]
    coords = np.concatenate([z0[..., None], fiber], axis=-1)
    return BoundaryPoint(x=x, F=table, coords=coords)


def _solvable(point: BoundaryPoint) -> None:
    """Raises ``DomainError`` where ``F' z~_0 == 0``: the solve for ``X_0`` degenerates there."""
    if np.any(point.z0 == 0):
        raise DomainError("z_0 = 0 stratum: tangency solve degenerates; "
                          "test the unrestricted Levi form instead")
    if np.any(point.F[1] == 0):
        raise DomainError("F' = 0 stratum: tangency leaves X_0 free; "
                          "test the Levi form on e_0 instead")


def _rows(point: BoundaryPoint, rows) -> BoundaryPoint:
    """The boundary points ``rows`` (an index along the leading axis) of ``point``."""
    return BoundaryPoint(x=point.x[rows], F=tuple(f[rows] for f in point.F),
                         coords=point.coords[rows])


def levi_form(point: BoundaryPoint, x_vec):
    """Levi form of ``rho`` at the point, applied to ``x_vec``.

    ``L = sum_{k>=1} |X_k|^2 - T |X_0|^2`` with ``T = F' + F'' |z_0|^2``
    from the point's record; defined for every ``z_0``
    including the ``z_0 = 0`` stratum, where it is positive on all
    nonzero vectors because ``F' < 0``.  ``x_vec`` of shape ``(..., n)``
    broadcasts against the point's leading axes.
    """
    x_vec = np.asarray(x_vec, dtype=complex)
    out = (np.sum(np.square(np.abs(x_vec[..., 1:])), axis=-1)
           - point.T * _abs2(x_vec[..., 0]))
    return _scalar(out)


def tangent_vector(point: BoundaryPoint, y) -> np.ndarray:
    """Complete fiber components ``Y`` to a complex tangent vector.

    Solves the tangency condition
    ``-F' z~_0 X_0 + z~_1 X_1 + ... + z~_{n-1} X_{n-1} = 0`` for ``X_0``,
    with ``F'`` from the point's table.  Requires ``F' z~_0 != 0``; at the
    ``z_0 = 0`` stratum the Levi form is positive without restriction, and
    where ``F' = 0`` ``X_0`` is free, so use :func:`levi_form` directly
    there (``DomainError`` otherwise).  ``y`` of shape ``(..., n-1)``
    broadcasts against the point's leading axes.
    """
    _solvable(point)
    y = np.asarray(y, dtype=complex)
    f1 = point.F[1]
    pairing = np.sum(np.conj(point.fiber) * y, axis=-1)
    x0 = pairing / (f1 * np.conj(point.z0))
    y = np.broadcast_to(y, np.shape(x0) + y.shape[-1:])
    return np.concatenate([x0[..., None], y], axis=-1)


def restricted_levi(point: BoundaryPoint, y):
    """Levi form restricted to the complex tangent space, in closed form.

    Equals ``levi_form(point, tangent_vector(point, y))``:
    ``sum |Y_k|^2 - (T/(F'^2 x)) |<z_fiber, Y>|^2`` with ``x = |z_0|^2``,
    ``F'`` and ``T = F' + F'' x`` from the point's record, and the
    pairing ``<z, Y> = sum z~_k Y_k``.  ``y`` of shape ``(..., n-1)``
    broadcasts against the point's leading axes.  Like :func:`tangent_vector`,
    raises ``DomainError`` where ``F' z~_0 == 0``.
    """
    _solvable(point)
    y = np.asarray(y, dtype=complex)
    pairing = np.sum(np.conj(point.fiber) * y, axis=-1)
    out = (np.sum(np.square(np.abs(y)), axis=-1)
           - point.T / (np.square(point.F[1]) * point.x) * _abs2(pairing))
    return _scalar(out)


@dataclass(frozen=True, eq=False)
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
    Cauchy-Schwarz bound).  Where ``F' = 0`` tangency leaves ``X_0``
    free, so both entries of that sample are the Levi form on ``e_0``,
    ``-T``, and its reported direction (the fiber part) is zero.  The
    indicator is read at ``x = |z_0|^2`` from the batch's table, the one
    the Levi form reads.  Verdict is CONSISTENT when "restricted Levi
    positive at all samples" agrees with "indicator negative at all
    samples", i.e. when the sampled equivalence holds in either direction.
    The worst sample is the first one in draw order (tangent direction
    before fiber-aligned); a NaN or inf raises ``NumericError``.
    """
    spec = _grid_spec(spec)
    _, z0, fiber_dir, tangent_dir = boundary_samples(profile, n, spec)
    # leading axes (m, 1): each point broadcasts over its two directions
    pts = boundary_point(profile, z0[:, None], fiber_dir[:, None])
    aligned = pts.fiber / _norm(pts.fiber)[..., None]
    directions = np.concatenate([tangent_dir[:, None], aligned], axis=1)
    free = pts.F[1][:, 0] == 0.0   # X_0 free: the Levi form on e_0 there
    if not free.any():   # the usual case: no rows to gather
        levi = restricted_levi(pts, directions)
    else:
        directions[free] = 0.0
        levi = np.empty(directions.shape[:-1])
        levi[~free] = restricted_levi(_rows(pts, ~free), directions[~free])
        levi[free] = levi_form(_rows(pts, free), np.eye(n)[0])
    ind = _indicator(pts.x, *pts.F)[:, 0]   # the batch's table, at x = |z_0|^2
    for values in (levi, ind):
        _finite_max(values, "restricted Levi form or Kaehler indicator")
    k, j = np.unravel_index(np.argmin(levi), levi.shape)
    i = int(np.argmax(ind))
    min_levi, max_ind = float(levi[k, j]), float(ind[i])
    verdict = "CONSISTENT" if (min_levi > 0.0) == (max_ind < 0.0) else "INCONSISTENT"
    return EquivalenceReport(
        profile=profile.describe(), n=pts.coords.shape[-1], samples=spec.points, seed=spec.seed,
        min_levi=min_levi, argmin_point=pts.coords[k, 0],
        argmin_direction=directions[k, j],
        max_indicator=max_ind, argmax_x=float(pts.x[i, 0]), verdict=verdict,
    )
