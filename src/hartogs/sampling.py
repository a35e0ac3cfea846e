"""Deterministic point samples inside and on the boundary of a Hartogs domain.

Interior sweeps use a scrambled Halton sequence mapped through polar
coordinates: one dimension drives ``|z_0|^2``, one its phase, one the total
fiber radius, and the rest split the fiber energy across coordinates and
phases.  Points too close to the boundary are rejected because the closed
forms blow up like ``A^-(n+1)`` there; the margin is configurable.

Boundary samples for the Levi-form test are three block draws from a
seeded ``numpy`` generator (:func:`boundary_samples`).  Both samplers take
``(profile, n, spec)`` and reject ``n < 2`` and ``spec.points < 1`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np
from scipy.stats import qmc

from .errors import DomainError
from .profiles import Profile

__all__ = ["GridSpec", "interior_points", "x_grid", "boundary_samples"]


@dataclass(frozen=True)
class GridSpec:
    """Sweep parameters: size, seed, boundary margin, cap for unbounded domains."""

    points: int = 200
    seed: int = 0
    a_margin: float = 0.05   # keep A >= a_margin * F(0)
    x_cap: float = 5.0       # cap on |z_0|^2 when x0 = inf

    def describe(self) -> dict:
        return asdict(self)


def _x_max(profile: Profile, spec: GridSpec) -> float:
    return min(spec.x_cap, profile.x0 * (1.0 - 1e-2))


def _checked(n: int, spec: GridSpec | None) -> GridSpec:
    """The argument rule of both samplers; ``spec`` defaults to ``GridSpec()``."""
    if n < 2:
        raise DomainError(f"Hartogs domains need n >= 2 coordinates, got n={n}")
    spec = spec or GridSpec()
    if spec.points < 1:
        raise ValueError(f"points must be >= 1, got {spec.points}")
    return spec


def x_grid(profile: Profile, count: int, spec: GridSpec | None = None) -> np.ndarray:
    """Uniform abscissa grid in ``(0, min(x0, x_cap))`` away from endpoints."""
    hi = _x_max(profile, spec or GridSpec())
    return np.linspace(1e-3 * hi, hi, count)


def interior_points(profile: Profile, n: int, spec: GridSpec | None = None) -> np.ndarray:
    """Quasi-random interior points, shape ``(spec.points, n)`` complex.

    Every returned point satisfies ``A >= a_margin * F(0)``.  The Halton
    stream is scrambled with ``spec.seed``, so grids are reproducible.
    """
    spec = _checked(n, spec)
    delta = spec.a_margin * profile.deriv(0, 0.0)
    xmax = _x_max(profile, spec)
    # spline-backed profiles are unreliable at the edge of their data range
    xmin = 0.0 if profile.exact_derivatives else 1e-3 * xmax
    # dims: x, theta0, fiber budget, n-1 fiber weights, n-1 fiber phases
    sampler = qmc.Halton(d=2 * n + 1, scramble=True, seed=spec.seed)
    out = []
    for _ in range(64):
        u = sampler.random(max(2 * spec.points, 64))
        x = xmin + u[:, 0] * (xmax - xmin)
        f_here = profile.deriv(0, x)
        keep = f_here > delta
        x, u, f_here = x[keep], u[keep], f_here[keep]
        z0 = np.sqrt(x) * np.exp(2j * np.pi * u[:, 1])
        budget = u[:, 2] * (f_here - delta)
        # split the fiber budget with exponential spacings (simplex sample)
        w = -np.log(np.clip(u[:, 3:n + 2], 1e-12, 1.0))
        w /= np.sum(w, axis=1, keepdims=True)
        radii = np.sqrt(budget[:, None] * w)
        phases = np.exp(2j * np.pi * u[:, n + 2:2 * n + 1])
        pts = np.concatenate([z0[:, None], radii * phases], axis=1)
        out.append(pts)
        if sum(p.shape[0] for p in out) >= spec.points:
            break
    pts = np.concatenate(out, axis=0)
    if pts.shape[0] < spec.points:
        raise DomainError("could not draw enough interior points; margin too tight?")
    return pts[: spec.points]


def _norm(v) -> np.ndarray:
    """Euclidean norm over the last axis, summing real and imaginary parts
    apart as ``np.linalg.norm`` does for one complex vector."""
    return np.sqrt(np.sum(v.real ** 2, axis=-1) + np.sum(v.imag ** 2, axis=-1))


def _unit_rows(re, im) -> np.ndarray:
    v = re + 1j * im
    return v / _norm(v)[..., None]


def boundary_samples(profile: Profile, n: int, spec: GridSpec | None = None) -> tuple:
    """Random abscissae, base points and unit fiber/tangent directions.

    Returns ``(x, z0, fiber, tangent)`` with shapes ``(m,)``, ``(m,)``,
    ``(m, n-1)`` and ``(m, n-1)``, ``m = spec.points``: ``x`` is uniform in
    ``(eps, xmax - eps)`` with ``xmax = min(x0, spec.x_cap)`` and
    ``eps = 1e-3 xmax``, ``z0 = sqrt(x) e^(2 pi i u)`` with ``u`` uniform,
    and both directions are uniform on the unit sphere of C^(n-1).

    The generator, seeded with ``spec.seed``, makes three block draws: all
    ``x``, all ``u``, then ``(m, 4, n-1)`` standard normals (real and
    imaginary parts of the fiber direction, then of the tangent direction).
    """
    spec = _checked(n, spec)
    rng = np.random.default_rng(spec.seed)
    xmax = min(profile.x0, spec.x_cap)
    eps = 1e-3 * xmax
    x = rng.uniform(eps, xmax - eps, spec.points)
    z0 = np.sqrt(x) * np.exp(2j * np.pi * rng.uniform(size=spec.points))
    normals = rng.standard_normal((spec.points, 4, n - 1))
    fiber = _unit_rows(normals[:, 0], normals[:, 1])
    return x, z0, fiber, _unit_rows(normals[:, 2], normals[:, 3])
