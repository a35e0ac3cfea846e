"""Ricci curvature, scalar curvature, and the generalized curvature vector.

The Ricci matrix of these metrics has a rigid shape: every entry is
``-(n+1)`` times the metric except the (0,0) slot, which picks up the
extra scalar correction ``-L(|z_0|^2)``.  So a point and the one float
``L`` fix the whole matrix: a :class:`CurvatureRecord` carries ``L``, and
:func:`ricci_closed_form` is the one way to the matrix, a copy of the
point batch's kept metric scaled, with ``-L`` in the (0,0) slot.  The scalar
curvature, its trace against the inverse metric, has one formula,
``scal = G A - n(n+1)`` with ``G = -L F / B`` read from the radial record.
The generalized curvatures, the coefficients of the one-variable
polynomial ``det(g + t Ric)/det(g)``, are each a fixed affine image of
``scal``, computed from it, so ``rho_0`` is ``scal`` bit for bit.

Each quantity has two routes: the closed form and an independent numeric
route (finite differences of ``log det``, or the eigenvalues of
``g^{-1} Ric``, whose elementary symmetric functions are the coefficients
of the determinant ratio), so the two can be played against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import NumericError
from .geometry import (
    det_closed_form,
    wirtinger_hessian,
    _interior,
    _interleave,
)
from .profiles import MAX_DERIV_ORDER, Profile, _scalar

__all__ = [
    "ricci_closed_form",
    "ricci_numeric",
    "scalar_curvature",
    "generalized_scalars_closed",
    "generalized_scalars_poly",
    "curvature_polynomial_coefficients",
    "CurvatureRecord",
    "curvature_record",
]


def _ricci(h: np.ndarray, ell) -> np.ndarray:
    """Ricci matrices from the metric ``h`` and ``L`` at the same points.

    A new array: ``h`` may be a batch's kept metric, which no reader writes.
    """
    ric = -(h.shape[-1] + 1.0) * h
    # a real (0,0) entry: its imaginary part stays +0.0 where h_00 < 0 too
    ric[..., 0, 0] = ric[..., 0, 0].real - ell
    return ric


def ricci_closed_form(z, profile: Profile) -> np.ndarray:
    """Ricci matrix ``-(n+1) h`` with ``-L`` added in the (0,0) slot.

    ``log det h = log B - (n+1) log A`` and the complex Hessian of the
    radial term ``log B(|z_0|^2)`` only hits the (0,0) entry, with value
    ``L = (x (log B)')'``; the rest is ``-(n+1)`` times the potential's
    Hessian, i.e. the metric itself.
    """
    p = _interior(z, profile, MAX_DERIV_ORDER)
    return _ricci(p.metric, p.L)


def ricci_numeric(z, profile: Profile, step: float = 1e-3) -> np.ndarray:
    """Ricci via ``-dd~ log det(h)`` with finite differences (the oracle).

    Broadcasts like :func:`wirtinger_hessian`: ``z`` of shape ``(n,)``
    gives ``(n, n)``, a batch ``(m, n)`` gives ``(m, n, n)`` from one
    stencil evaluation, each entry equal to the single-point result.
    A stencil point whose determinant is not positive (the profile is not
    Kaehler-admissible there) raises ``NumericError``: ``log det`` is
    undefined, and a NaN must not stand in for the oracle.
    """

    def logdet(pts):
        det = det_closed_form(pts, profile)
        if not np.all(det > 0.0):
            raise NumericError("metric determinant <= 0 on the Ricci stencil "
                               "(profile not Kaehler-admissible there)")
        return np.log(det)

    return -wirtinger_hessian(logdet, np.asarray(z, dtype=complex), step)


def scalar_curvature(z, profile: Profile):
    """Scalar curvature ``G A - n(n+1)``, with ``G = -L F / B`` from the radial record."""
    return _scal(_interior(z, profile, MAX_DERIV_ORDER))


def _scal(p):
    """The scalar curvature of the batch ``p`` (see :func:`scalar_curvature`)."""
    return _scalar(p.G * p.A - p.n * (p.n + 1.0))


def _rho(scal, n: int) -> np.ndarray:
    """``rho_0 .. rho_{n-1}`` from the scalar curvature, on the last axis.

    ``rho_k = c_k ((n(n+1)/(k+1) - n(n+1)) - scal)`` with
    ``c_k = (n+1)^k (-1)^(k+1) C(n-1, k)``; for ``k = 0`` the bracket is
    ``0.0 - scal`` and ``c_0 = -1``, so ``rho_0`` is ``scal`` bit for bit.
    """
    ks = np.arange(n)
    c = (n + 1.0) ** ks * (-1.0) ** (ks + 1) * np.array([comb(n - 1, k) for k in range(n)])
    nn = n * (n + 1.0)
    return c * ((nn / (ks + 1.0) - nn) - np.asarray(scal)[..., None])


def generalized_scalars_closed(z, profile: Profile) -> np.ndarray:
    """Generalized curvatures ``rho_0 .. rho_{n-1}`` in closed form.

    Each is an affine image of the scalar curvature ``scal``:
    ``rho_k = (n+1)^k (-1)^(k+1) C(n-1, k) [ n(n+1)/(k+1) - n(n+1) - scal ]``,
    and ``rho_0`` is :func:`scalar_curvature` bit for bit.
    """
    p = _interior(z, profile, MAX_DERIV_ORDER)
    return _rho(_scal(p), p.n)


def curvature_polynomial_coefficients(metric: np.ndarray, ricci: np.ndarray) -> np.ndarray:
    """Coefficients of ``t^1..t^n`` in ``det(g + t Ric)/det(g)``.

    ``det(g + t Ric)/det(g) = det(I + t M)`` with ``M = g^{-1} Ric``, and
    ``det(I + t M) = prod_i (1 + t lambda_i) = sum_k e_k(lambda) t^k`` over
    the eigenvalues of ``M``, so the coefficients are the elementary
    symmetric functions ``e_1..e_n`` of ``eig(M)``.  The polynomial is real
    for Hermitian ``g`` and ``Ric``, so the real parts are returned.
    Broadcasts over leading axes: ``(..., n, n)`` inputs give ``(..., n)``.
    """
    metric = np.asarray(metric, dtype=complex)
    ricci = np.asarray(ricci, dtype=complex)
    lam = np.linalg.eigvals(np.linalg.solve(metric, ricci))
    n = lam.shape[-1]
    e = np.zeros(lam.shape[:-1] + (n + 1,), dtype=complex)
    e[..., 0] = 1.0
    for j in range(n):  # multiply in the factor (1 + t lambda_j)
        e[..., 1:] = e[..., 1:] + lam[..., j, None] * e[..., :-1]
    return e[..., 1:].real


def generalized_scalars_poly(z, profile: Profile) -> np.ndarray:
    """Generalized curvatures via the determinant-polynomial route (oracle).

    Broadcasts: ``(n,)`` points give ``(n,)``, ``(m, n)`` give ``(m, n)``.
    """
    p = _interior(z, profile, MAX_DERIV_ORDER)
    return curvature_polynomial_coefficients(p.metric, _ricci(p.metric, p.L))


@dataclass(frozen=True, eq=False)
class CurvatureRecord:
    """Curvature data of one point, JSON-serializable with fixed field names.

    ``L`` is the Ricci correction at ``|z_0|^2``: the Ricci matrix is
    ``-(n+1) g(point)`` with ``L`` subtracted from the real part of its
    (0,0) entry, bit for bit :func:`ricci_closed_form` of the point.  A
    batched record (see :func:`curvature_record`) holds the same fields
    with a leading point axis; :meth:`to_json` takes single records.
    """

    point: np.ndarray
    L: float
    scal: float
    rho: np.ndarray

    def to_json(self) -> dict:
        return {"point": _interleave(self.point).tolist(),
                "L": float(self.L),
                "scal": float(self.scal),
                "rho": [float(r) for r in self.rho]}


def curvature_record(z, profile: Profile) -> CurvatureRecord:
    """Assemble the full curvature record at one point.

    Broadcasts: points of shape ``(m, n)`` give one record whose fields
    carry the leading axis (``scal`` of shape ``(m,)`` and so on); record
    ``i`` of the batch equals the record of point ``i``.
    """
    p = _interior(z, profile, MAX_DERIV_ORDER)
    scal = _scal(p)
    return CurvatureRecord(point=p.points, L=_scalar(p.L), scal=scal, rho=_rho(scal, p.n))
