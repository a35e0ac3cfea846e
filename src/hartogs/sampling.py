"""Deterministic point samples inside and on the boundary of a Hartogs domain.

Interior sweeps use an Owen-scrambled Halton sequence, computed in the
package and bit-identical to SciPy's ``Halton(scramble=True,
seed=spec.seed)`` sampler, mapped through polar coordinates: one dimension
drives ``|z_0|^2``, one its phase, one the total fiber radius, and the rest
split the fiber energy across coordinates and phases.  Points too close to
the boundary are rejected because the closed forms blow up like
``A^-(n+1)`` there; the margin is configurable.

An :class:`InteriorSample` is one interior draw as the point-batch record
that every closed form reads (:func:`interior_sample`).  The closed forms
take it in place of points and the pipelines in place of a ``GridSpec``,
so one run draws each grid, evaluates its derivative table and builds
its radial coefficients once.  The last sample drawn is kept, so callers
that pass the same profile, ``n`` and ``GridSpec`` share it, and
:func:`interior_points` returns its read-only points.

Boundary samples for the Levi-form test are three block draws from a
seeded ``numpy`` generator (:func:`boundary_samples`).  Both samplers take
``(profile, n, spec)`` and reject ``n < 2`` and ``spec.points < 1`` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DomainError
from .geometry import _PointBatch, _interior
from .profiles import MAX_DERIV_ORDER, Profile

__all__ = ["GridSpec", "InteriorSample", "interior_points", "interior_sample", "x_grid",
           "boundary_samples"]


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


def _primes(count: int) -> list:
    """The first ``count`` primes."""
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _halton_terms(d: int, seed: int) -> list:
    """Per dimension of the scrambled Halton sequence, ``terms[j, digit] = perm[j, digit] r_j``.

    The same scrambling as SciPy's ``Halton(d, scramble=True, seed=seed)``
    (Owen, "A randomized Halton algorithm in R", arXiv:1706.02808).
    Dimension ``i`` has base ``b``, the ``i``-th prime, and
    ``ceil(54 / log2 b) - 1`` digit permutations drawn row by row from
    ``default_rng(seed)``, base after base; ``r_0 = 1/b`` and
    ``r_(j+1) = r_j / b``.
    """
    rng = np.random.default_rng(seed)
    terms = []
    for base in _primes(d):
        count = math.ceil(54 / math.log2(base)) - 1
        perm = rng.permuted(np.tile(np.arange(base), (count, 1)), axis=1)
        r = np.divide.accumulate(np.full(count + 2, float(base)))[2:]   # b/b = 1, 1/b, ...
        terms.append(perm * r[:, None])
    return terms


def _halton(terms: list, k: np.ndarray) -> np.ndarray:
    """Points ``k`` (any indices) of the sequence of ``terms``, shape ``(len(k), len(terms))``.

    Bit for bit SciPy's points ``k``: point ``k`` is
    ``0.0 + terms[0, k_0] + terms[1, k_1] + ...`` over its base-``b``
    digits ``k_j``, added in that order, whatever other indices are asked
    for.  The levels up to the top digit of the largest index go through a
    table of partial sums, and the levels above it, whose digit is 0 at
    every point, are added one at a time.  The result is C-contiguous, as
    the row sums of the fiber weights need for their bits.
    """
    out = np.zeros((k.size, len(terms)))
    last = int(k.max(initial=0))
    for term, v in zip(terms, out.T):
        base = term.shape[1]
        top = 0   # levels up to the largest index's top digit
        while top < len(term) and base ** top <= last:
            top += 1
        if top:
            # partial sums over the lower levels, indexed by k mod base^(top-1)
            table = np.zeros(1)
            for level in term[:top - 1]:
                table = np.add.outer(level, table).ravel()
            low = base ** (top - 1)
            np.add(table[k % low], term[top - 1][k // low % base], out=v)
        for constant in term[top:, 0]:
            v += constant
    return out


def _draw(profile: Profile, n: int, spec: GridSpec) -> np.ndarray:
    """The interior points of ``profile`` under a checked ``spec``, shape ``(spec.points, n)``.

    Halton points come in blocks of ``max(2 points, 64)`` indices, at most
    64 blocks.  Dimension 0 places ``x = |z_0|^2`` for a whole block, and
    the points with ``F(x) <= a_margin F(0)`` are rejected; the other
    ``2n`` dimensions are evaluated and mapped only at the first
    ``spec.points`` indices that are kept.
    """
    delta = spec.a_margin * profile.deriv(0, 0.0)
    xmax = _x_max(profile, spec)
    # spline-backed profiles are unreliable at the edge of their data range
    xmin = 0.0 if profile.exact_derivatives else 1e-3 * xmax
    # dims: x, theta0, fiber budget, n-1 fiber weights, n-1 fiber phases
    terms = _halton_terms(2 * n + 1, spec.seed)
    rows = max(2 * spec.points, 64)
    kept, need = [], spec.points
    for start in range(0, 64 * rows, rows):
        k = np.arange(start, start + rows)
        x = xmin + _halton(terms[:1], k)[:, 0] * (xmax - xmin)
        f_here = profile.deriv(0, x)
        keep = np.flatnonzero(f_here > delta)[:need]
        kept.append((k[keep], x[keep], f_here[keep]))
        need -= keep.size
        if not need:
            break
    else:
        raise DomainError("could not draw enough interior points; margin too tight?")
    k, x, f_here = (np.concatenate(parts) for parts in zip(*kept))
    u = _halton(terms[1:], k)   # dims 1..2n: u[:, i] is dimension i + 1
    z0 = np.sqrt(x) * np.exp(2j * np.pi * u[:, 0])
    budget = u[:, 1] * (f_here - delta)
    # split the fiber budget with exponential spacings (simplex sample)
    w = -np.log(np.clip(u[:, 2:n + 1], 1e-12, 1.0))
    w /= np.sum(w, axis=1, keepdims=True)
    radii = np.sqrt(budget[:, None] * w)
    phases = np.exp(2j * np.pi * u[:, n + 1:2 * n])
    return np.concatenate([z0[:, None], radii * phases], axis=1)


def interior_points(profile: Profile, n: int, spec: GridSpec | None = None) -> np.ndarray:
    """Quasi-random interior points, shape ``(spec.points, n)`` complex, read-only.

    Every returned point satisfies ``A >= a_margin * F(0)``.  The Halton
    stream is scrambled with ``spec.seed``, so grids are reproducible.
    They are the points of ``interior_sample(profile, n, spec)``.
    """
    return interior_sample(profile, n, spec).points


@dataclass(frozen=True, eq=False)
class InteriorSample(_PointBatch):
    """One interior draw of ``profile`` under ``spec`` as a point-batch record.

    The batch (``x = |z_0|^2``, the table ``F = (F, ..., F^(5))`` of
    ``profile`` at ``x``, the ``points`` (``(m, n)`` complex) and the gap
    ``A``, all read-only) and the ``spec`` it was drawn under.  Its radial
    coefficients are built on the first use by any consumer and shared by
    the rest, so a sample exists for profiles whose ``B`` vanishes.  Every
    closed form of ``profile`` takes the sample in place of its points
    (``metric_closed_form(sample, profile)``) and gives the same bits.
    """

    spec: GridSpec


_last: InteriorSample | None = None   # the last sample drawn, see interior_sample


def interior_sample(profile: Profile, n: int, spec: GridSpec | None = None) -> InteriorSample:
    """Draw the interior grid once and evaluate its derivative table once.

    The last sample is kept: a call for the same profile object, the same
    ``n`` and an equal ``spec`` returns it again, so the callers that pass
    one ``GridSpec`` (``interior_points``, ``classify``,
    ``extremal_report``) share one draw.  The sample and its arrays are
    read-only, so sharing it is safe.
    """
    global _last
    spec = _checked(n, spec)
    last = _last
    if last is not None and last.profile is profile and last.n == n and last.spec == spec:
        return last
    b = _interior(_draw(profile, n, spec), profile, MAX_DERIV_ORDER)
    for array in (b.points, b.x, b.A) + b.F:
        array.flags.writeable = False
    _last = InteriorSample(x=b.x, F=b.F, points=b.points, A=b.A, profile=profile, spec=spec)
    return _last


def _resolved(profile: Profile, n: int,
              spec: GridSpec | InteriorSample | None) -> InteriorSample:
    """``spec`` itself if it is a sample of ``profile`` in dimension ``n``, else a draw."""
    if not isinstance(spec, InteriorSample):
        return interior_sample(profile, n, spec)
    if spec.profile is not profile or spec.n != n:
        raise ValueError(f"sample of {spec.profile.describe()} at n={spec.n} "
                         f"given for {profile.describe()} at n={n}")
    return spec


def _norm(v) -> np.ndarray:
    """Euclidean norm over the last axis, summing real and imaginary parts
    apart as ``np.linalg.norm`` does for one complex vector."""
    return np.sqrt(np.sum(np.square(v.real), axis=-1) + np.sum(np.square(v.imag), axis=-1))


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
