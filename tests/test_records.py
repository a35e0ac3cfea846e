"""The frozen records with array fields compare by identity and hash."""

import numpy as np
import pytest

from hartogs import (
    GridSpec,
    boundary_point,
    curvature_record,
    equivalence_check,
    exp_profile,
    extremal_report,
    radial_coefficients,
)

SPEC = GridSpec(points=10, seed=3)

RECORDS = {
    "RadialCoefficients": lambda prof: radial_coefficients(prof, np.linspace(0.1, 1.0, 3)),
    "BoundaryPoint": lambda prof: boundary_point(prof, 0.5, [1.0, 0.0]),
    "CurvatureRecord": lambda prof: curvature_record(np.array([0.3, 0.2 + 0.1j]), prof),
    "EquivalenceReport": lambda prof: equivalence_check(prof, 2, SPEC),
    "ExtremalReport": lambda prof: extremal_report(prof, 2, SPEC),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_equality_is_identity_and_hash_works(make):
    # two records of one call hold equal arrays; == on the arrays would raise
    prof = exp_profile()
    a, b = make(prof), make(prof)
    assert type(a).__name__ in RECORDS
    assert a == a and not (a == b) and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
