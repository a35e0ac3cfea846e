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

from .errors import DomainError
from .profiles import Profile, kahler_indicator

__all__ = [
    "BoundaryPoint",
    "boundary_point",
    "levi_form",
    "tangent_vector",
    "restricted_levi",
    "EquivalenceReport",
    "equivalence_check",
]


@dataclass(frozen=True)
class BoundaryPoint:
    """Point on the fiber boundary together with the gradient of ``rho``.

    ``coords`` satisfies ``sum_{k>=1} |z_k|^2 = F(|z_0|^2)`` to 1e-12 and
    ``normal`` holds the holomorphic gradient
    ``(d rho/dz_0, ..., d rho/dz_{n-1}) = (-F' z~_0, z~_1, ..., z~_{n-1})``,
    which never vanishes on this stratum.
    """

    coords: np.ndarray
    normal: np.ndarray

    @property
    def z0(self) -> complex:
        return self.coords[0]

    @property
    def fiber(self) -> np.ndarray:
        return self.coords[1:]


def boundary_point(profile: Profile, z0: complex, direction) -> BoundaryPoint:
    """Boundary point over ``z0`` in the given fiber direction.

    ``direction`` is a nonzero vector in C^(n-1); it is normalized here, so
    only its direction matters.  Requires ``|z0|^2 < x0``.
    """
    direction = np.asarray(direction, dtype=complex)
    if direction.ndim != 1 or direction.shape[0] < 1:
        raise ValueError("direction must be a vector in C^(n-1)")
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ValueError("direction must be nonzero")
    x = abs(z0) ** 2
    f, f1 = profile.derivs(x, 1)   # raises DomainError when |z0|^2 >= x0
    fiber = np.sqrt(f) * direction / norm
    coords = np.concatenate([[complex(z0)], fiber])
    normal = np.concatenate([[-f1 * np.conj(z0)], np.conj(fiber)])
    return BoundaryPoint(coords=coords, normal=normal)


def levi_form(point: BoundaryPoint, x_vec, profile: Profile) -> float:
    """Levi form of ``rho`` at the point, applied to ``x_vec``.

    ``L = sum_{k>=1} |X_k|^2 - (F' + F'' |z_0|^2) |X_0|^2``; defined for
    every ``z_0`` including the ``z_0 = 0`` stratum, where it is positive
    on all nonzero vectors because ``F' < 0``.
    """
    x_vec = np.asarray(x_vec, dtype=complex)
    x = abs(point.z0) ** 2
    _, f1, f2 = profile.derivs(x, 2)
    return float(np.sum(np.abs(x_vec[1:]) ** 2) - (f1 + f2 * x) * abs(x_vec[0]) ** 2)


def tangent_vector(point: BoundaryPoint, y, profile: Profile) -> np.ndarray:
    """Complete fiber components ``Y`` to a complex tangent vector.

    Solves the tangency condition
    ``-F' z~_0 X_0 + z~_1 X_1 + ... + z~_{n-1} X_{n-1} = 0`` for ``X_0``.
    Requires ``z_0 != 0``; at the ``z_0 = 0`` stratum the Levi form is
    positive without restriction, so use :func:`levi_form` directly there.
    """
    if point.z0 == 0:
        raise DomainError("z_0 = 0 stratum: tangency solve degenerates; "
                          "test the unrestricted Levi form instead")
    y = np.asarray(y, dtype=complex)
    x = abs(point.z0) ** 2
    f1 = profile.deriv(1, x)
    pairing = np.sum(np.conj(point.fiber) * y)
    x0 = pairing / (f1 * np.conj(point.z0))
    return np.concatenate([[x0], y])


def restricted_levi(point: BoundaryPoint, y, profile: Profile) -> float:
    """Levi form restricted to the complex tangent space, in closed form.

    Equals ``levi_form(point, tangent_vector(point, y))``:
    ``sum |Y_k|^2 - ((F' + F'' x)/(F'^2 x)) |<z_fiber, Y>|^2`` with
    ``x = |z_0|^2`` and the pairing ``<z, Y> = sum z~_k Y_k``.
    """
    if point.z0 == 0:
        raise DomainError("z_0 = 0 stratum: use the unrestricted Levi form")
    y = np.asarray(y, dtype=complex)
    x = abs(point.z0) ** 2
    _, f1, f2 = profile.derivs(x, 2)
    pairing = np.sum(np.conj(point.fiber) * y)
    return float(np.sum(np.abs(y) ** 2) - (f1 + f2 * x) / (f1 ** 2 * x) * abs(pairing) ** 2)


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
        pt = []
        for c in self.argmin_point:
            pt += [float(c.real), float(c.imag)]
        d = []
        for c in self.argmin_direction:
            d += [float(c.real), float(c.imag)]
        return {
            "profile": self.profile, "n": self.n,
            "samples": self.samples, "seed": self.seed,
            "min_levi": self.min_levi,
            "argmin": {"point": pt, "direction": d},
            "max_indicator": self.max_indicator, "argmax_x": self.argmax_x,
            "verdict": self.verdict,
        }


def _unit_complex(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def equivalence_check(profile: Profile, samples: int = 500, seed: int = 0,
                      n: int = 2, x_cap: float = 5.0) -> EquivalenceReport:
    """Sample boundary points and compare the two positivity conditions.

    Draws ``|z_0|^2`` uniformly in the (capped) open abscissa range, fiber
    and tangent directions uniformly on unit spheres.  At every boundary
    point the restricted Levi form is evaluated both on the random tangent
    direction and on the fiber-aligned direction (the worst case of the
    Cauchy-Schwarz bound).  Verdict is CONSISTENT when "restricted Levi
    positive at all samples" agrees with "indicator negative at all
    samples", i.e. when the sampled equivalence holds in either direction.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    xmax = min(profile.x0, x_cap)
    eps = 1e-3 * xmax
    min_levi = np.inf
    arg_pt = arg_dir = None
    max_ind = -np.inf
    arg_x = 0.0
    for _ in range(samples):
        x = rng.uniform(eps, xmax - eps)
        z0 = np.sqrt(x) * np.exp(2j * np.pi * rng.uniform())
        pt = boundary_point(profile, z0, _unit_complex(rng, n - 1))
        ind = kahler_indicator(profile, x)
        if ind > max_ind:
            max_ind, arg_x = ind, x
        directions = [_unit_complex(rng, n - 1),
                      pt.fiber / np.linalg.norm(pt.fiber)]
        for y in directions:
            val = restricted_levi(pt, y, profile)
            if val < min_levi:
                min_levi, arg_pt, arg_dir = val, pt.coords, y
    verdict = "CONSISTENT" if (min_levi > 0.0) == (max_ind < 0.0) else "INCONSISTENT"
    return EquivalenceReport(
        profile=profile.describe(), n=n, samples=samples, seed=seed,
        min_levi=float(min_levi), argmin_point=arg_pt, argmin_direction=arg_dir,
        max_indicator=float(max_ind), argmax_x=float(arg_x), verdict=verdict,
    )
