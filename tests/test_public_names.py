"""The package's public surface is pinned: adding, removing or renaming a public
name is a deliberate change to this list."""

import hartogs

PUBLIC = [
    "BoundaryPoint", "ClassificationReport", "ConfigError", "CurvatureRecord", "DomainError",
    "EquivalenceReport", "ExtremalReport", "GridSpec", "HartogsError", "HyperbolicMap",
    "MAX_DERIV_ORDER", "NumericError", "Profile", "ProfileError", "PullbackReport",
    "RadialCoefficients", "SingularCoefficientError", "StepError", "boundary_point",
    "boundary_samples", "classification", "classify", "curvature",
    "curvature_polynomial_coefficients", "curvature_record", "dbar_jacobian",
    "det_closed_form", "equivalence_check", "errors", "exp_profile",
    "extremal", "extremal_report", "generalized_scalars_closed", "generalized_scalars_poly",
    "geometry", "grid_csv_header", "grid_csv_rows", "hamiltonian_field",
    "hyperbolic_metric", "interior_points", "inverse_metric_closed_form", "jets",
    "kahler_indicator", "levi_form", "linear_profile", "metric_closed_form", "potential",
    "power_profile", "principal_minor", "profile_from_function", "profiles", "pseudoconvexity",
    "pullback_check", "radial_coefficients", "reduced_conditions", "restricted_levi",
    "ricci_closed_form", "ricci_numeric", "sampling", "scal_conjugate_gradient",
    "scalar_curvature", "table_profile", "tangent_vector", "wirtinger_hessian", "x_grid",
]


def test_public_names_are_pinned():
    assert sorted(hartogs.__all__) == PUBLIC

