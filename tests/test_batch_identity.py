"""Single-point calls of every public evaluator give the bits of their batch entry."""

import numpy as np
import pytest

from hartogs import (
    GridSpec,
    boundary_point,
    boundary_samples,
    curvature_record,
    det_closed_form,
    exp_profile,
    generalized_scalars_closed,
    hamiltonian_field,
    interior_points,
    inverse_metric_closed_form,
    kahler_indicator,
    levi_form,
    linear_profile,
    metric_closed_form,
    potential,
    power_profile,
    principal_minor,
    radial_coefficients,
    restricted_levi,
    ricci_closed_form,
    scal_conjugate_gradient,
    scalar_curvature,
    table_profile,
    tangent_vector,
)
from hartogs.config import MAX_N

_XS = np.linspace(0.0, 3.0, 200)
PROFILES = {
    "linear(2,0.5)": linear_profile(2.0, 0.5),
    "exp": exp_profile(1.0),
    "power(2)": power_profile(2.0),
    "power(3)": power_profile(3.0),
    "table": table_profile(_XS, np.exp(-_XS - 0.1 * _XS ** 2)),
}
POINTS = 40


def _fields(record, lead) -> np.ndarray:
    """The array fields of a record side by side, one row per leading index."""
    return np.concatenate([np.reshape(v, lead + (-1,)) for v in vars(record).values()
                           if not isinstance(v, tuple)], axis=-1)


# the evaluators on interior points: name -> f(z, profile)
AT_POINTS = {
    "metric_closed_form": metric_closed_form,
    "det_closed_form": det_closed_form,
    "inverse_metric_closed_form": inverse_metric_closed_form,
    "potential": potential,
    "principal_minor": lambda z, prof: principal_minor(z, prof, 1),
    "ricci_closed_form": ricci_closed_form,
    "scalar_curvature": scalar_curvature,
    "generalized_scalars_closed": generalized_scalars_closed,
    "curvature_record": lambda z, prof: _fields(curvature_record(z, prof), np.shape(z)[:-1]),
    "hamiltonian_field": hamiltonian_field,
    "scal_conjugate_gradient": scal_conjugate_gradient,
}

# the evaluators on abscissae x = |z_0|^2
AT_ABSCISSAE = {
    "Profile.derivs": lambda x, prof: np.stack(prof.derivs(x), axis=-1),
    "kahler_indicator": lambda x, prof: kahler_indicator(prof, x),
    "radial_coefficients": lambda x, prof: _fields(radial_coefficients(prof, x), np.shape(x)),
}


def _mismatches(batch, singles) -> list:
    """Indices whose single-point result differs from the batch entry in any bit."""
    batch = np.asarray(batch)
    return [k for k, one in enumerate(singles)
            if np.asarray(one, dtype=batch.dtype).tobytes() != batch[k].tobytes()]


@pytest.mark.parametrize("name", list(PROFILES))
@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_single_calls_equal_the_batch(name, n):
    prof = PROFILES[name]
    pts = interior_points(prof, n, GridSpec(points=POINTS, seed=n))
    xs = np.square(np.abs(pts[:, 0]))
    found = {}
    for label, f in AT_POINTS.items():
        found[label] = _mismatches(f(pts, prof), [f(z, prof) for z in pts])
    for label, f in AT_ABSCISSAE.items():
        found[label] = _mismatches(f(xs, prof), [f(float(x), prof) for x in xs])

    _, z0, fiber, tangent = boundary_samples(prof, n, GridSpec(points=POINTS, seed=n, x_cap=2.0))
    x_vecs = np.random.default_rng(n).standard_normal((POINTS, n)) * (1.0 + 0.5j)
    bpts = boundary_point(prof, z0, fiber)
    singles = [boundary_point(prof, z0[k], fiber[k]) for k in range(POINTS)]
    found["boundary_point"] = _mismatches(bpts.coords, [one.coords for one in singles])
    # each point carries the table (F, F', F'') of its profile at |z_0|^2
    xb = np.square(np.hypot(bpts.z0.real, bpts.z0.imag))
    table = np.stack(bpts.F, axis=-1)
    assert table.tobytes() == np.stack(prof.derivs(xb, 2), axis=-1).tobytes()
    assert all(one.F == prof.derivs(float(x), 2) for one, x in zip(singles, xb))
    found["BoundaryPoint.F"] = _mismatches(table, [one.F for one in singles])
    for label, f, arg in (("levi_form", levi_form, x_vecs),
                          ("restricted_levi", restricted_levi, tangent),
                          ("tangent_vector", tangent_vector, tangent)):
        found[label] = _mismatches(f(bpts, arg),
                                   [f(one, arg[k]) for k, one in enumerate(singles)])
    assert {label: idx for label, idx in found.items() if idx} == {}
