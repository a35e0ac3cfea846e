"""Extremality of the metric: Hamiltonian field and its antiholomorphic jacobian.

A Kaehler metric is extremal when the (1,0)-part of the Hamiltonian vector
field of its scalar curvature is holomorphic, i.e. when every
antiholomorphic derivative of ``X^a = sum_b g^{b a~} d(scal)/dz~_b``
vanishes.  For these domains the scalar curvature is
``-n(n+1) + G(x) A``, so the gradient has closed components and the full
residual matrix ``d X^a / dz~_c`` is obtained by Wirtinger central
differences of the closed-form field.

The inverse metric is a rank-one update of a diagonal, so the field needs
no matrix: with ``v`` the antiholomorphic gradient, ``w = sum_{i>=1} z~_i
v_i`` and ``T = F' + F'' x``,

    X^0 = (A/B) (F v_0 + F' z_0 w),
    X^j = (A/B) (F' z~_0 z_j v_0 + T z_j w + B v_j).

The gradient is itself radial times ``z``: ``v_0 = u z_0`` with
``u = G' A + G F'``, and ``v_i = -G z_i``, so ``w = -G s`` with
``s = sum_{i>=1} |z_i|^2 = F - A``.  The field is therefore
``X = (k0 z_0, k1 z_1, ..., k1 z_{n-1})`` with the real factors

    k0 = (A/B) (F u - F' G s),
    k1 = (A/B) (x F' u - T G s - B G),

which costs O(n) per point.  The difference stencil displaces ``z_0`` in
four directions only; the fiber displacements leave ``x = |z_0|^2``
unchanged.  One radial record, from one ``Profile.derivs`` call on the
base abscissa and its four axial neighbours (``5m`` abscissae for ``m``
points), therefore serves all ``4n`` stencil columns.

The proof-level shortcut is the pair of reduced radial conditions
``r1 = (G F)'`` and ``r2 = (G F' x)'``: extremality forces both to vanish,
and together they force ``G = 0``, i.e. constant scalar curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepError
from .geometry import RadialCoefficients, radial_coefficients, _interior_radial
from .profiles import Profile
from .sampling import GridSpec, interior_points, x_grid

__all__ = [
    "scal_conjugate_gradient",
    "hamiltonian_field",
    "ExtremalResidual",
    "extremal_residual",
    "reduced_conditions",
    "ExtremalReport",
    "extremal_report",
]


def _conjugate_gradient(z, a, rad) -> np.ndarray:
    out = np.empty_like(z)
    out[..., 0] = rad.dG * z[..., 0] * a + z[..., 0] * rad.G * rad.F[1]
    out[..., 1:] = -np.asarray(rad.G)[..., None] * z[..., 1:]
    return out


def scal_conjugate_gradient(z, profile: Profile) -> np.ndarray:
    """Antiholomorphic gradient ``(d scal/dz~_0, ..., d scal/dz~_{n-1})``.

    From ``scal = -n(n+1) + G(x) A``:  the leading component is
    ``G' z_0 A + z_0 G F'`` and the fiber components are ``-G z_i``.
    Requires five profile derivatives (``G'`` contains ``F^(5)``).
    """
    z, _, a, rad = _interior_radial(z, profile)
    return _conjugate_gradient(z, a, rad)


def _field(z, x, a, rad) -> np.ndarray:
    """Hamiltonian field ``(k0 z_0, k1 z_1, ..., k1 z_{n-1})`` from the pieces."""
    f, f1, f2 = rad.F[:3]
    u = rad.dG * a + rad.G * f1
    gs = rad.G * (f - a)
    ab = a / rad.B
    out = z * (ab * (x * f1 * u - (f1 + f2 * x) * gs - rad.B * rad.G))[..., None]
    out[..., 0] = z[..., 0] * (ab * (f * u - f1 * gs))
    return out


def hamiltonian_field(z, profile: Profile) -> np.ndarray:
    """(1,0)-part of the Hamiltonian field, ``X^a = sum_b g^{b a~} d scal/dz~_b``.

    Evaluated in O(n) per point without forming the inverse metric:
    ``X = (k0 z_0, k1 z_1, ..., k1 z_{n-1})`` with, for ``u = G' A + G F'``,
    ``s = F - A`` and ``T = F' + F'' x``,
    ``k0 = (A/B)(F u - F' G s)`` and ``k1 = (A/B)(x F' u - T G s - B G)``.
    This is ``X^0 = (A/B)(F v_0 + F' z_0 w)``,
    ``X^j = (A/B)(F' z~_0 z_j v_0 + T z_j w + B v_j)`` (``v`` the gradient,
    ``w = sum_{i>=1} z~_i v_i``) with the radial form of ``v`` inserted.
    """
    return _field(*_interior_radial(z, profile))


def _columns(rad: RadialCoefficients, cols) -> RadialCoefficients:
    """The ``(m, k)`` record ``rad`` gathered at columns ``cols``."""
    def take(v):
        return v[:, cols]
    return RadialCoefficients(F=tuple(map(take, rad.F)), B=take(rad.B), L=take(rad.L),
                              G=take(rad.G), dL=take(rad.dL), dG=take(rad.dG))


def _dbar_jacobian_once(z, profile, step):
    """``d X^a / dz~_c`` for a batch of points by 2-point central differences.

    Stencil column ``4c + k`` displaces coordinate ``c`` by
    ``(step, -step, i step, -i step)[k]``.  Only the four ``c = 0``
    columns move ``x``, so the radial record is built once on the ``(m, 5)``
    abscissae (base and axial neighbours) and gathered into the columns;
    membership is still checked at every stencil point.
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    m, n = z.shape
    shifts = np.array([step, -step, 1j * step, -1j * step])
    disp = np.zeros((4 * n, n), dtype=complex)
    for c in range(n):
        disp[4 * c:4 * c + 4, c] = shifts
    pts = z[:, None, :] + disp[None, :, :]
    x5 = np.abs(z[:, :1] + np.concatenate([[0.0], shifts])) ** 2
    cols = np.concatenate([np.arange(1, 5), np.zeros(4 * (n - 1), dtype=int)])
    rad = _columns(radial_coefficients(profile, x5), cols)
    a = rad.F[0] - np.sum(np.abs(pts[..., 1:]) ** 2, axis=-1)
    if np.any(a <= 0.0):
        raise DomainError("stencil point on or outside the boundary (gap A <= 0)")
    vals = _field(pts, x5[:, cols], a, rad)
    out = np.empty((m, n, n), dtype=complex)
    for c in range(n):
        dx = (vals[:, 4 * c] - vals[:, 4 * c + 1]) / (2.0 * step)
        dy = (vals[:, 4 * c + 2] - vals[:, 4 * c + 3]) / (2.0 * step)
        out[:, :, c] = 0.5 * (dx + 1j * dy)
    return out


def dbar_jacobian(z, profile: Profile, step: float = 1e-3, richardson: bool = True):
    """Residual matrices for a batch of points, shape ``(m, n, n)``."""
    if step <= 0:
        raise StepError(f"step must be positive, got {step}")
    try:
        j1 = _dbar_jacobian_once(z, profile, step)
        if richardson:
            j2 = _dbar_jacobian_once(z, profile, step / 2.0)
            j1 = (4.0 * j2 - j1) / 3.0
    except DomainError as exc:
        raise StepError(f"stencil with step {step} leaves the domain") from exc
    return j1


@dataclass(frozen=True)
class ExtremalResidual:
    """Pointwise extremality certificate: the matrix ``d X^a / dz~_c``."""

    residual: np.ndarray
    max_abs: float
    point: np.ndarray


def extremal_residual(z, profile: Profile, step: float = 1e-3,
                      richardson: bool = True) -> ExtremalResidual:
    """Residual of the extremality system at one point.

    ``max_abs`` equal to zero (within tolerance) certifies the system at
    the point; a clearly nonzero entry falsifies extremality.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise ValueError("extremal_residual expects a single point of shape (n,)")
    res = dbar_jacobian(z, profile, step, richardson)[0]
    return ExtremalResidual(residual=res, max_abs=float(np.max(np.abs(res))), point=z)


def reduced_conditions(profile: Profile, x: float) -> tuple[float, float]:
    """The two radial extremality conditions ``((G F)', (G F' x)')`` at ``x``.

    Both vanish identically iff the metric is extremal on an open set; the
    first alone forces ``G = c/F``, and the second then kills ``c``.  At
    ``x = 0`` built-ins evaluate by their smooth extension; table profiles
    are rejected there since spline derivatives are unreliable at the edge.
    """
    xa = np.asarray(x, dtype=float)
    if not profile.exact_derivatives and np.any(xa == 0.0):
        raise DomainError("reduced conditions at x = 0 need exact derivatives")
    rad = radial_coefficients(profile, xa)
    f, f1, f2 = rad.F[:3]
    r1 = rad.dG * f + rad.G * f1
    r2 = rad.dG * f1 * xa + rad.G * (f1 + f2 * xa)
    if np.ndim(xa):
        return r1, r2
    return float(r1), float(r2)


@dataclass(frozen=True)
class ExtremalReport:
    """Grid sweep summary for the extremality test."""

    profile: dict
    n: int
    grid: dict
    step: float
    tol: float
    offaxis_cut: float
    max_residual: float
    max_residual_offaxis: float
    argmax_point: np.ndarray
    x: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    verdict: str

    def to_json(self) -> dict:
        pt = []
        for c in self.argmax_point:
            pt += [float(c.real), float(c.imag)]
        return {
            "profile": self.profile, "n": self.n, "grid": self.grid,
            "step": self.step, "tol": self.tol, "offaxis_cut": self.offaxis_cut,
            "max_residual": self.max_residual,
            "max_residual_offaxis": self.max_residual_offaxis,
            "argmax_point": pt,
            "reduced_conditions": {
                "x": [float(v) for v in self.x],
                "r1": [float(v) for v in self.r1],
                "r2": [float(v) for v in self.r2],
            },
            "verdict": self.verdict,
        }


def extremal_report(profile: Profile, n: int, spec: GridSpec | None = None,
                    step: float = 1e-3, tol: float = 1e-5,
                    offaxis_cut: float = 0.05, x_points: int = 41) -> ExtremalReport:
    """Sweep the residual over an interior grid and issue a verdict.

    The verdict is decided on "off-axis" points where ``|z_0| |z_i|``
    stays above ``offaxis_cut`` for every fiber coordinate, mirroring the
    nondegeneracy assumption under which the residual is a faithful
    certificate; maxima over the full grid are reported as well.
    """
    spec = spec or GridSpec()
    pts = interior_points(profile, n, spec)
    res = dbar_jacobian(pts, profile, step)
    per_point = np.max(np.abs(res), axis=(1, 2))
    mags = np.abs(pts)
    eligible = (mags[:, 0:1] * mags[:, 1:]).min(axis=1) > offaxis_cut
    if not np.any(eligible):
        raise DomainError("no off-axis points in the grid; enlarge it")
    max_all = float(per_point.max())
    max_off = float(per_point[eligible].max())
    arg = int(np.argmax(np.where(eligible, per_point, -1.0)))
    xs = x_grid(profile, x_points, spec)
    r1, r2 = reduced_conditions(profile, xs)
    verdict = "EXTREMAL" if max_off <= tol else "NOT_EXTREMAL"
    return ExtremalReport(
        profile=profile.describe(), n=n, grid=spec.describe(), step=step, tol=tol,
        offaxis_cut=offaxis_cut, max_residual=max_all, max_residual_offaxis=max_off,
        argmax_point=pts[arg], x=xs, r1=np.asarray(r1), r2=np.asarray(r2),
        verdict=verdict,
    )
