"""Numerical Kaehler geometry of Hartogs domains.

Closed-form metric, curvature, pseudoconvexity and extremality evaluators
for domains ``|z_1|^2 + ... + |z_{n-1}|^2 < F(|z_0|^2)``, each paired with
an independent finite-difference or linear-algebra oracle.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    HartogsError,
    NumericError,
    ProfileError,
    SingularCoefficientError,
    StepError,
)
from .profiles import (
    MAX_DERIV_ORDER,
    Profile,
    derivative_consistency,
    exp_profile,
    kahler_indicator,
    linear_profile,
    power_profile,
    profile_from_function,
    table_profile,
)
from .sampling import (
    GridSpec,
    InteriorSample,
    boundary_samples,
    interior_points,
    interior_sample,
    x_grid,
)
from .geometry import (
    RadialCoefficients,
    det_closed_form,
    grid_csv_header,
    grid_csv_rows,
    hermitize,
    inverse_metric_closed_form,
    metric_closed_form,
    potential,
    principal_minor,
    radial_coefficients,
    wirtinger_hessian,
)
from .curvature import (
    CurvatureRecord,
    curvature_polynomial_coefficients,
    curvature_record,
    generalized_scalars_closed,
    generalized_scalars_poly,
    ricci_closed_form,
    ricci_numeric,
    scalar_curvature,
)
from .extremal import (
    ExtremalReport,
    dbar_jacobian,
    extremal_report,
    hamiltonian_field,
    reduced_conditions,
    scal_conjugate_gradient,
)
from .pseudoconvexity import (
    BoundaryPoint,
    EquivalenceReport,
    boundary_point,
    equivalence_check,
    levi_form,
    restricted_levi,
    tangent_vector,
)
from .classification import (
    ClassificationReport,
    HyperbolicMap,
    PullbackReport,
    classify,
    hyperbolic_metric,
    pullback_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
