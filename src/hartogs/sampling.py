"""Deterministic point samples inside and on the boundary of a Hartogs domain.

Interior sweeps use an Owen-scrambled Halton sequence, computed in the
package and bit-identical to SciPy's ``Halton(scramble=True,
seed=spec.seed)`` sampler, mapped through polar coordinates: one dimension
drives ``|z_0|^2``, one its phase, one the total fiber radius, and the rest
split the fiber energy across coordinates and phases.  Points too close to
the boundary are rejected because the closed forms blow up like
``A^-(n+1)`` there; the margin is configurable.

An interior draw is evaluated once, into the point-batch record that
every closed form reads, and the last one is kept (:func:`_interior_sample`).
So callers that pass the same profile, ``n`` and ``GridSpec`` share one
draw, one derivative table, one set of radial coefficients and one metric:
:func:`interior_points` returns the kept sample's read-only points, and a
closed form called on them reads the sample.

Boundary samples for the Levi-form test are three block draws from a
seeded ``numpy`` generator (:func:`boundary_samples`).  Both samplers take
``(profile, n, spec)`` and reject ``n < 2`` alike.  A ``GridSpec`` is
checked once, when it is made (:class:`GridSpec`); every public function
that takes one reads it through :func:`_grid_spec`, which gates only its
type: ``None`` is the default grid, and anything but a ``GridSpec`` raises.

Neither sampler's seeded stream depends on the profile, so each is drawn
once for the runs that share it and kept in a one-entry memo
(``functools.lru_cache(maxsize=1)``): the Halton digit permutations of
:func:`_halton_terms`, keyed by dimension and seed; dimension 0 of an
interior block (:func:`_halton_x`, the same in every dimension), keyed by
seed and block; and the boundary draw of :func:`_boundary_draw` (the unit
uniforms for ``x``, the phases and the unit fiber and tangent rows),
keyed by count, ``n`` and seed.  The ``full-suite`` profiles at one ``n``
and grid share all three.  Each profile maps the unit uniforms onto its
own range, and the memoised arrays are read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import geometry
from .errors import DomainError
from .geometry import _interior
from .profiles import MAX_DERIV_ORDER, Profile, _bounded

__all__ = ["GridSpec", "interior_points", "x_grid", "boundary_samples"]


# The range of each bounded number the library takes: ``(text, test)`` on a value
# of its type.  The config keys ``grid.*`` and ``tolerances.*`` read this table.
_BOUNDS = {"points": ("in 1..100000", lambda v: 1 <= v <= 100_000),
           "seed": (">= 0", lambda v: v >= 0),
           "a_margin": ("in (0, 1)", lambda v: 0 < v < 1),
           "x_cap": ("positive", lambda v: v > 0), "tol": ("positive", lambda v: v > 0)}


@dataclass(frozen=True)
class GridSpec:
    """Sweep parameters: size, seed, boundary margin, cap for unbounded domains.

    Checked once, when made or copied by ``dataclasses.replace``: each field is an
    integer (``points``, ``seed``) or a finite number within its rule of :data:`_BOUNDS`,
    kept as a Python number, or a one-line ``ValueError`` names it.
    """

    points: int = 200
    seed: int = 0
    a_margin: float = 0.05   # keep A >= a_margin * F(0)
    x_cap: float = 5.0       # cap on |z_0|^2 when x0 = inf

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _bounded(f"GridSpec.{f.name}", getattr(self, f.name),
                                                      _BOUNDS[f.name], f.type == "int"))

    def describe(self) -> dict:
        return asdict(self)


def _x_max(profile: Profile, spec: GridSpec) -> float:
    return min(spec.x_cap, profile.x0 * (1.0 - 1e-2))


def _grid_spec(spec) -> GridSpec:
    """``spec`` itself, or ``GridSpec()`` for ``None``: how every public function reads its grid.
    A ``GridSpec`` is checked when made, so only the type is gated: else ``TypeError``."""
    if spec is None:
        return GridSpec()
    if not isinstance(spec, GridSpec):
        raise TypeError(f"spec must be a GridSpec or None, got {type(spec).__name__}")
    return spec


def _checked(n: int, spec) -> GridSpec:
    """The argument rule of both samplers: ``n`` not an integer raises ``ValueError``
    and ``n < 2`` ``DomainError``, then ``spec`` is read by :func:`_grid_spec`."""
    if _bounded("n", n, integer=True) < 2:
        raise DomainError(f"Hartogs domains need n >= 2 coordinates, got n={n}")
    return _grid_spec(spec)


def x_grid(profile: Profile, count: int, spec: GridSpec | None = None) -> np.ndarray:
    """``count`` (read as ``GridSpec.points``) uniform abscissae in ``(0, min(x0, x_cap))``."""
    hi = _x_max(profile, _grid_spec(spec))
    return np.linspace(1e-3 * hi, hi, _bounded("count", count, _BOUNDS["points"], integer=True))


def _primes(count: int) -> list:
    """The first ``count`` primes."""
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


@functools.lru_cache(maxsize=1)
def _halton_terms(d: int, seed: int) -> tuple:
    """Per dimension of the scrambled Halton sequence, ``terms[j, digit] = perm[j, digit] r_j``.

    The same scrambling as SciPy's ``Halton(d, scramble=True, seed=seed)``
    (Owen, "A randomized Halton algorithm in R", arXiv:1706.02808).
    Dimension ``i`` has base ``b``, the ``i``-th prime, and
    ``ceil(54 / log2 b) - 1`` digit permutations drawn row by row from
    ``default_rng(seed)``, base after base; ``r_0 = 1/b`` and
    ``r_(j+1) = r_j / b``.  Memoised (one entry), so the arrays are read-only.
    """
    rng = np.random.default_rng(seed)
    terms = []
    for base in _primes(d):
        count = math.ceil(54 / math.log2(base)) - 1
        perm = rng.permuted(np.tile(np.arange(base), (count, 1)), axis=1)
        r = np.divide.accumulate(np.full(count + 2, float(base)))[2:]   # b/b = 1, 1/b, ...
        terms.append(perm * r[:, None])
        terms[-1].flags.writeable = False
    return tuple(terms)


def _halton(terms: tuple, k: np.ndarray) -> np.ndarray:
    """Points ``k`` (any indices) of the sequence of ``terms``, shape ``(len(k), len(terms))``.

    Bit for bit SciPy's points ``k``: point ``k`` is
    ``0.0 + terms[0, k_0] + terms[1, k_1] + ...`` over its base-``b``
    digits ``k_j``, added in that order, whatever other indices are asked
    for.  The levels up to the top digit of the largest index go through a
    table of partial sums, and the levels above it, whose digit is 0 at
    every point, are added one at a time.  Each dimension is summed in its own
    contiguous row, and the result is their C-contiguous transpose, as the
    row sums of the fiber weights need for their bits.
    """
    out = np.zeros((len(terms), k.size))   # one contiguous row per dimension
    last = int(k.max(initial=0))
    for term, v in zip(terms, out):
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
    return np.ascontiguousarray(out.T)


@functools.lru_cache(maxsize=1)
def _halton_x(seed: int, start: int, rows: int) -> np.ndarray:
    """Dimension 0 of the points ``start .. start + rows - 1``, read-only: base 2 and the
    generator's first permutations whatever the dimension, so every profile and ``n`` share
    it; the unmemoised ``_halton_terms`` leaves that memo's one entry alone."""
    u = _halton(_halton_terms.__wrapped__(1, seed), np.arange(start, start + rows)).ravel()
    u.flags.writeable = False
    return u


def _draw(profile: Profile, n: int, spec: GridSpec) -> np.ndarray:
    """The interior points of ``profile`` under a checked ``spec``, shape ``(spec.points, n)``.

    Halton points come in blocks of ``max(2 points, 64)`` indices, at most
    64 blocks.  Dimension 0 places ``x = |z_0|^2`` for a whole block
    (:func:`_halton_x`, which every profile's draw shares), and
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
        x = xmin + _halton_x(spec.seed, start, rows) * (xmax - xmin)
        f_here = profile.deriv(0, x)
        keep = np.flatnonzero(f_here > delta)[:need]
        kept.append((start + keep, x[keep], f_here[keep]))
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
    They are the points of the kept sample (:func:`_interior_sample`), so
    a closed form given them with ``profile`` reads that sample.
    """
    return _interior_sample(profile, n, spec)[1].points


def _interior_sample(profile: Profile, n: int, spec: GridSpec | None) -> tuple:
    """``(spec, sample)``: ``spec`` checked, and its interior grid as a point batch.

    The grid is drawn once and its table evaluated once, to order five.
    The last pair is kept (``geometry._last``, the one slot): a call for
    the same profile object, the same ``n`` and an equal ``spec`` returns
    it again, so the callers that pass one ``GridSpec`` (``interior_points``,
    ``classify``, ``extremal_report``) share one draw, and a closed form
    given the sample's ``points`` array reads the sample.  The sample and
    its arrays are read-only, so sharing it is safe.
    """
    spec = _checked(n, spec)
    last = geometry._last
    if last is not None and last[1].profile is profile and last[1].n == n and last[0] == spec:
        return last
    b = _interior(_draw(profile, n, spec), profile, MAX_DERIV_ORDER)
    for array in (b.points, b.x, b.A) + b.F:
        array.flags.writeable = False
    geometry._last = (spec, b)
    return geometry._last


def _norm(v) -> np.ndarray:
    """Euclidean norm over the last axis, summing real and imaginary parts
    apart as ``np.linalg.norm`` does for one complex vector."""
    return np.sqrt(np.sum(np.square(v.real), axis=-1) + np.sum(np.square(v.imag), axis=-1))


def _unit_rows(re, im) -> np.ndarray:
    v = re + 1j * im
    return v / _norm(v)[..., None]


@functools.lru_cache(maxsize=1)
def _boundary_draw(m: int, n: int, seed: int) -> tuple:
    """The profile-free part of :func:`boundary_samples`, read-only.

    ``(u, phase, fiber, tangent)`` from the generator seeded with ``seed``,
    in its three block draws: ``u`` the ``m`` unit uniforms that place
    ``x``, ``phase = e^(2 pi i v)`` for the next ``m`` uniforms ``v``, and
    the unit rows of ``(m, 4, n-1)`` standard normals (real and imaginary
    parts of the fiber direction, then of the tangent direction).
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=m)
    phase = np.exp(2j * np.pi * rng.uniform(size=m))
    normals = rng.standard_normal((m, 4, n - 1))
    draw = (u, phase, _unit_rows(normals[:, 0], normals[:, 1]),
            _unit_rows(normals[:, 2], normals[:, 3]))
    for array in draw:
        array.flags.writeable = False
    return draw


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
    The draw does not depend on the profile (:func:`_boundary_draw`), so
    ``fiber`` and ``tangent`` are its read-only arrays, and ``x`` is
    ``eps + ((xmax - eps) - eps) * u``, the bits of
    ``rng.uniform(eps, xmax - eps)``.
    """
    spec = _checked(n, spec)
    u, phase, fiber, tangent = _boundary_draw(spec.points, n, spec.seed)
    xmax = min(profile.x0, spec.x_cap)
    eps = 1e-3 * xmax
    x = eps + ((xmax - eps) - eps) * u
    return x, np.sqrt(x) * phase, fiber, tangent
