"""Potential, metric matrix, determinant, inverse, and radial coefficients.

Everything here evaluates closed forms at points ``z`` of the domain

    D_F = { z in C^n : |z_0|^2 < x0,  |z_1|^2 + ... + |z_{n-1}|^2 < F(|z_0|^2) }

for a given profile ``F``.  The Kaehler potential is ``Phi = -log A`` with
``A = F(|z_0|^2) - sum_{k>=1} |z_k|^2``; the metric is its complex Hessian.
All functions broadcast over leading axes: ``z`` may be ``(n,)`` or
``(m, n)``, matrices come back as ``(..., n, n)``.

Every evaluator reads ``F`` and its derivatives at ``|z_0|^2`` from one
``Profile.derivs`` call per point batch, into the one record of the batch
(:func:`_interior`), which also takes that record (an ``InteriorSample``)
in place of the points.  The record is a :class:`RadialCoefficients`, the
one record of ``x`` and its table, whose coefficients ``T``, ``B``, ``L``,
``G``, ``L'`` and ``G'`` are built on first use and kept.  The closed-form matrices write conjugate
entries into mirror slots, so they are exactly Hermitian without a
symmetrizing pass.

The one finite-difference engine lives here too: the Wirtinger Hessian,
the independent oracle against which every closed form is tested, and a
first-derivative ``d/dz~`` mode on the axial rows of the same stencil.
Each evaluates the stencils of a whole point batch in one call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularCoefficientError, StepError
from .profiles import MAX_DERIV_ORDER, Profile

__all__ = [
    "hermitize",
    "potential",
    "metric_closed_form",
    "wirtinger_hessian",
    "det_closed_form",
    "principal_minor",
    "inverse_metric_closed_form",
    "RadialCoefficients",
    "radial_coefficients",
    "grid_csv_header",
    "grid_csv_rows",
]


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part ``(M + M^H)/2``.

    The symmetrization makes ``out[..., a, b] == conj(out[..., b, a])``
    exact in floating point (sums commute entrywise).  No evaluator needs
    it; the tests use it as the reference of exact Hermiticity.
    """
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def _interleave(v) -> np.ndarray:
    """Complex vectors as ``[re_0, im_0, re_1, im_1, ...]`` along the last axis.

    The one real spelling of a complex vector in reports and dumps.
    """
    v = np.asarray(v)
    return np.stack([v.real, v.imag], axis=-1).reshape(v.shape[:-1] + (2 * v.shape[-1],))


def _table(profile: Profile, x, upto: int) -> tuple:
    """``(F, ..., F^(upto))`` at ``x`` as arrays, from one ``derivs`` call."""
    return tuple(np.asarray(v) for v in profile.derivs(x, upto))


def _nonsingular(b):
    """``b`` unchanged; raises ``SingularCoefficientError`` where ``B == 0``.

    The one rule for every evaluator that divides by ``B``.  It is exact
    zero, not a cutoff on ``|B|``: ``B`` scales like ``F^2``, and the
    closed forms stay accurate for tiny nonzero ``B``.
    """
    if np.any(np.asarray(b) == 0.0):
        raise SingularCoefficientError("coefficient B vanishes; metric degenerate")
    return b


def _kept(a):
    """``a`` made read-only if it is an array: a record's coefficients are
    shared by every reader of the record."""
    if isinstance(a, np.ndarray):
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RadialCoefficients:
    """Coefficients of the geometry that depend on ``x = |z_0|^2`` alone.

    The fields are ``x`` and the table ``F = (F, F', ..., F^(k))`` at
    ``x``; from them, on first use, the record builds and keeps

    * ``T = F' + F'' x`` and ``B = F'^2 x - F T`` -- determinant numerator,
    * ``L = (x (log B)')'`` -- Ricci correction in the (0,0) slot,
    * ``G = -L F / B`` -- non-constant factor of the scalar curvature,
    * ``dL``, ``dG`` -- their x-derivatives ``L'`` and ``G'``.

    ``T`` and ``B`` need order two.  ``L``, ``G``, ``dL`` and ``dG`` are
    one block that needs order five and raises ``SingularCoefficientError``
    where ``B == 0``, so a record exists where ``B`` vanishes.  ``L`` and
    ``L'`` are expanded in ``B`` and its first three derivatives (the third
    involves ``F^(5)``, which is why profiles carry five orders), so
    built-in profiles evaluate them in closed form.  The kept arrays are
    read-only.
    """

    x: np.ndarray
    F: tuple

    @functools.cached_property
    def T(self):
        return _kept(self.F[1] + self.F[2] * self.x)

    @functools.cached_property
    def B(self):
        return _kept(np.square(self.F[1]) * self.x - self.F[0] * self.T)

    @functools.cached_property
    def _curvature_terms(self) -> tuple:
        """``(L, G, L', G')``, built together from the order-five table."""
        x, b = self.x, _nonsingular(self.B)
        f, f1, f2, f3, f4, f5 = self.F
        b1 = x * f1 * f2 - 2.0 * f * f2 - x * f * f3
        b2 = -f1 * f2 + x * np.square(f2) - 3.0 * f * f3 - x * f * f4
        b3 = -4.0 * f1 * f3 + 2.0 * x * f2 * f3 - 4.0 * f * f4 - x * f1 * f4 - x * f * f5
        r1 = b1 / b
        r2 = b2 / b - np.square(r1)
        ell = r1 + x * r2
        ell1 = 2.0 * r2 + x * (b3 / b - 3.0 * b1 * b2 / np.square(b) + 2.0 * np.power(r1, 3))
        g = -ell * f / b
        g1 = -(ell1 * f + ell * f1) / b + ell * f * b1 / np.square(b)
        return tuple(map(_kept, (ell, g, ell1, g1)))

    L = property(lambda self: self._curvature_terms[0])
    G = property(lambda self: self._curvature_terms[1])
    dL = property(lambda self: self._curvature_terms[2])
    dG = property(lambda self: self._curvature_terms[3])


def radial_coefficients(profile: Profile, x) -> RadialCoefficients:
    """Radial coefficients at abscissae ``x``, vectorized; ``B == 0`` raises here."""
    rad = RadialCoefficients(x, _table(profile, x, MAX_DERIV_ORDER))
    rad._curvature_terms   # built now, so a singular B raises SingularCoefficientError
    return rad


@dataclass(frozen=True, eq=False)
class _PointBatch(RadialCoefficients):
    """One point batch of ``profile`` as every closed form reads it (see :func:`_interior`).

    The radial record of ``x = |z_0|^2`` and the table ``F = (F, ...,
    F^(upto))`` of ``profile`` at ``x``, plus the ``points`` (``(..., n)``
    complex) and the gap ``A > 0``.  Its coefficients are built on first
    use and kept, so each batch builds ``B`` and the block of ``L`` and
    ``G`` once.
    """

    points: np.ndarray
    A: np.ndarray
    profile: Profile

    @property
    def n(self) -> int:
        return self.points.shape[-1]


def _interior(z, profile: Profile, upto: int = 2) -> _PointBatch:
    """The record of the points ``z``, with one derivative table to order ``upto``.

    A record ``z`` of ``profile`` whose table reaches ``upto`` is returned
    as it is; any other record raises ``ValueError``.  ``derivs`` enforces
    ``|z_0|^2 < x0``; a point with ``A <= 0`` raises ``DomainError``.
    """
    if isinstance(z, _PointBatch):
        if z.profile is not profile or len(z.F) <= upto:
            raise ValueError(f"a record of {z.profile.describe()} to order {len(z.F) - 1} "
                             f"given for {profile.describe()} to order {upto}")
        return z
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0 or z.shape[-1] < 2:
        raise DomainError(f"points need n >= 2 coordinates, got shape {z.shape}")
    x = np.square(np.abs(z[..., 0]))
    s = np.sum(np.square(np.abs(z[..., 1:])), axis=-1)
    d = _table(profile, x, upto)
    a = d[0] - s
    if np.any(a <= 0.0):
        raise DomainError("point on or outside the boundary (gap A <= 0)")
    return _PointBatch(x=x, F=d, points=z, A=a, profile=profile)


def potential(z, profile: Profile):
    """Kaehler potential ``-log A`` at interior points."""
    return -np.log(_interior(z, profile, 0).A)


def _c(p: _PointBatch):
    """``C = F'^2 x - T A``, the numerator of the (0,0) metric entry over ``A^2``."""
    return np.square(p.F[1]) * p.x - p.T * p.A


def metric_closed_form(z, profile: Profile) -> np.ndarray:
    """Metric matrix ``g_{a b~} = d^2 Phi / dz_a dz~_b`` in closed form.

    Shape ``(..., n, n)``, exactly Hermitian.  The matrix is positive
    definite precisely when ``kahler_indicator < 0`` at ``|z_0|^2``; for
    non-admissible profiles the (indefinite) matrix is still returned so
    that falsification sweeps can inspect it.
    """
    p = _interior(z, profile)
    z, a, n = p.points, p.A, p.n
    a2 = np.square(a)
    zf = z[..., 1:]
    h = np.empty(z.shape + (n,), dtype=complex)
    h[..., 0, 0] = _c(p) / a2
    top = -p.F[1][..., None] * np.conj(z[..., :1]) * zf / a2[..., None]
    h[..., 0, 1:] = top
    h[..., 1:, 0] = np.conj(top)
    block = np.einsum("...i,...j->...ij", np.conj(zf), zf)
    step = n  # write the diagonal of the fiber block in place
    block.reshape(block.shape[:-2] + (-1,))[..., :: step] += a[..., None]
    h[..., 1:, 1:] = block / a2[..., None, None]
    return h


def _stencil(m: int) -> np.ndarray:
    """Unit displacements of the central-difference stencil in ``m`` real coordinates.

    Rows: ``+e_k, -e_k`` for each ``k``, then ``e_p + e_q, e_p - e_q,
    -e_p + e_q, -e_p - e_q`` for each pair ``p < q`` in row-major order.
    Each row is formed from unit vectors by those same additions, so its
    signed zeros, scaled by the step, match a stencil built vector by vector.
    """
    e = np.eye(m)
    p, q = np.triu_indices(m, 1)
    ep, eq = e[p], e[q]
    return np.concatenate([
        np.stack([e, -e], axis=1).reshape(-1, m),
        np.stack([ep + eq, ep - eq, -ep + eq, -ep - eq], axis=1).reshape(-1, m),
    ])


def _complex_hessian_once(vals, f0, n, step):
    """Wirtinger Hessians ``(k, n, n)`` from one step's stencil values.

    ``vals`` has shape ``(k, 8 n^2)``, its columns in the row order of
    :func:`_stencil` over the ``m = 2n`` real coordinates; ``f0`` holds
    the ``k`` centre values.
    """
    m = 2 * n
    p, q = np.triu_indices(m, 1)
    pairs = vals[:, 2 * m:].reshape(len(vals), -1, 4)
    h = np.empty((len(vals), m, m))
    diag = np.arange(m)
    h[:, diag, diag] = (vals[:, 0:2 * m:2] - 2.0 * f0[:, None] + vals[:, 1:2 * m:2]) / step ** 2
    h[:, p, q] = h[:, q, p] = (
        pairs[..., 0] - pairs[..., 1] - pairs[..., 2] + pairs[..., 3]) / (4.0 * step ** 2)
    hxx = h[:, :n, :n]
    hyy = h[:, n:, n:]
    hxy = h[:, :n, n:]
    return 0.25 * ((hxx + hyy) + 1j * (hxy - np.swapaxes(hxy, -1, -2)))


def _central_differences(f, z, step, disp, assemble):
    """The one central-difference engine behind every FD oracle.

    ``f`` maps ``(k, n)`` points to ``(k, ...)`` values and is called once,
    on the centres ``z`` (``(n,)`` or ``(m, n)``) and their displacements by
    the rows of ``disp`` (unit steps in the ``2n`` real coordinates) at
    ``step`` and ``step / 2``.  ``assemble(vals, f0, n, s)`` turns one step's
    values and the centre values into the estimate for step ``s``; one
    Richardson step combines the two estimates.  A ``DomainError`` from
    ``f`` becomes ``StepError``.
    """
    if z.ndim not in (1, 2):
        raise ValueError(f"stencil centres must have shape (n,) or (m, n), got {z.shape}")
    if step <= 0:
        raise StepError(f"step must be positive, got {step}")
    n = z.shape[-1]
    pts = z.reshape(-1, n)
    offsets = np.concatenate([np.zeros((1, 2 * n)), disp * step, disp * (step / 2.0)])
    u = np.concatenate([pts.real, pts.imag], axis=-1)[:, None, :] + offsets
    try:
        vals = np.asarray(f((u[..., :n] + 1j * u[..., n:]).reshape(-1, n)))
    except DomainError as exc:
        raise StepError(f"stencil with step {step} leaves the domain") from exc
    vals = vals.reshape((len(pts), len(offsets)) + vals.shape[1:])
    f0, width = vals[:, 0], len(disp)
    d1 = assemble(vals[:, 1:1 + width], f0, n, step)
    d2 = assemble(vals[:, 1 + width:], f0, n, step / 2.0)
    return (4.0 * d2 - d1) / 3.0


def wirtinger_hessian(f, z, step: float = 1e-3) -> np.ndarray:
    """Complex Hessian ``d^2 f / dz_a dz~_b`` by central differences.

    Parameters
    ----------
    f : callable
        Maps a ``(k, n)`` complex array of points to ``(k,)`` real values;
        must be evaluable on a ``4 * step`` ball around each point of ``z``.
    z : array_like, shape (n,) or (m, n)
        Expansion point, or a batch of them; the result has shape
        ``(n, n)`` or ``(m, n, n)``.
    step : float
        Base step; the step-halved estimate is combined with it to cancel
        the leading error term (one Richardson step).

    The stencil covers the ``2n`` real coordinates (centre, ``4n`` axial
    and ``4n(2n - 1)`` diagonal displacements per step).  ``f`` is called
    once, on the stencils of every point and both steps (``1 + 16 n^2``
    points each, the centre shared), and each batch entry equals the
    Hessian of that point alone bit for bit.  The second
    derivatives are assembled into Wirtinger form
    ``(Hxx + Hyy + i(Hxy - Hxy^T)) / 4``, which is exactly Hermitian as it
    stands: ``Hxx`` and ``Hyy`` are symmetric and ``Hxy - Hxy^T`` is
    antisymmetric entry for entry.  If any stencil point of any batch entry
    leaves the domain of ``f`` (a ``DomainError``), the call raises ``StepError``.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    h = _central_differences(f, z, step, _stencil(2 * n), _complex_hessian_once)
    return h.reshape(z.shape + (n,))


def _dbar_once(vals, f0, n, step):
    """``d f / dz~_c`` on axis 1 from one step's axial stencil values ``(k, 4n, ...)``."""
    d = (vals[:, 0::2] - vals[:, 1::2]) / (2.0 * step)
    return 0.5 * (d[:, :n] + 1j * d[:, n:])


def _dbar(f, z, step: float = 1e-3) -> np.ndarray:
    """``d f / dz~_c`` by central differences on the ``4n`` axial stencil rows.

    The first-derivative mode of the engine under :func:`wirtinger_hessian`.
    ``f`` maps ``(k, n)`` points to ``(k, ...)`` values; points of shape
    ``(n,)`` or ``(m, n)`` give ``(...) + (n,)`` or ``(m, ...) + (n,)``.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    d = _central_differences(f, z, step, _stencil(2 * n)[:4 * n], _dbar_once)
    return np.moveaxis(d, 1, -1).reshape(z.shape[:-1] + d.shape[2:] + (n,))


def det_closed_form(z, profile: Profile):
    """Metric determinant in product form, ``B(x) / A^(n+1)``.

    Equivalently ``-(F^2/A^(n+1)) * (x F'/F)'``; positive exactly when the
    profile is Kaehler-admissible at ``x = |z_0|^2``.
    """
    p = _interior(z, profile)
    out = p.B / np.power(p.A, p.n + 1)
    return out if np.ndim(out) else float(out)


def principal_minor(z, profile: Profile, alpha: int):
    """Closed-form trailing minor of the fiber block of ``A^2 h``.

    For ``1 <= alpha <= n-1``, the determinant of the submatrix of
    ``A^2 h`` over rows and columns ``alpha..n-1`` equals
    ``A^(n-alpha) + A^(n-alpha-1) (|z_alpha|^2 + ... + |z_{n-1}|^2)``.
    """
    p = _interior(z, profile, 0)
    z, a, n = p.points, p.A, p.n
    if not 1 <= alpha <= n - 1:
        raise ValueError(f"alpha must be in 1..{n - 1}, got {alpha}")
    tail = np.sum(np.square(np.abs(z[..., alpha:])), axis=-1)
    out = np.power(a, n - alpha) + np.power(a, n - alpha - 1) * tail
    return out if np.ndim(out) else float(out)


def inverse_metric_closed_form(z, profile: Profile) -> np.ndarray:
    """Inverse metric ``g^{a b~}`` as a matrix with rows indexed by ``a``.

    Entries (with ``T = F' + F'' x`` and prefactor ``A/B``):
    ``g^{0 0~} = (A/B) F``, ``g^{i 0~} = (A/B) F' z_0 z~_i``,
    ``g^{i j~} = (A/B) T z_j z~_i`` off the fiber diagonal, and
    ``g^{i i~} = (A/B) (B + T |z_i|^2)``.  Satisfies ``Minv @ h = I``.
    """
    p = _interior(z, profile)
    z, a, n = p.points, p.A, p.n
    f, f1 = p.F[:2]
    b = _nonsingular(p.B)
    ab = a / b
    zf = z[..., 1:]
    minv = np.empty(z.shape + (n,), dtype=complex)
    minv[..., 0, 0] = ab * f
    col = ab[..., None] * f1[..., None] * z[..., :1] * np.conj(zf)
    minv[..., 1:, 0] = col
    minv[..., 0, 1:] = np.conj(col)
    # block[i-1, j-1] = conj(z_i) z_j = z_j z~_i, the off-diagonal pattern
    block = (ab * p.T)[..., None, None] * np.einsum("...i,...j->...ij", np.conj(zf), zf)
    step = n
    block.reshape(block.shape[:-2] + (-1,))[..., :: step] += (ab * b)[..., None]
    minv[..., 1:, 1:] = block
    return minv


def grid_csv_header(n: int) -> list[str]:
    """Column order of the grid dump (documented, fixed)."""
    cols = []
    for k in range(n):
        cols += [f"z{k}_re", f"z{k}_im"]
    return cols + ["A", "B", "C", "L", "G", "det", "min_eig"]


def grid_csv_rows(points: np.ndarray, profile: Profile) -> np.ndarray:
    """Grid dump matrix matching :func:`grid_csv_header`.

    One row per point: interleaved coordinates, the scalar coefficients,
    the closed-form determinant, and the smallest eigenvalue of the metric
    (a positive-definiteness indicator).
    """
    p = _interior(points, profile, MAX_DERIV_ORDER)
    a, ell = p.A, p.L
    min_eig = np.linalg.eigvalsh(metric_closed_form(p, profile))[..., 0]
    return np.column_stack([_interleave(p.points).reshape(-1, 2 * p.n), a, p.B + 0 * a,
                            _c(p), ell + 0 * a, p.G + 0 * a,
                            det_closed_form(p, profile), min_eig])
