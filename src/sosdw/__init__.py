"""Trigonometric height-model partition function with domain-wall boundaries.

Five independent evaluation routes (exhaustive face enumeration, algebraic
creation-operator product, factorized permutation sum, contour-integral
residue sum, and contour quadrature) plus randomized verification suites
for every identity connecting them.
"""

from .closed_form import (
    asymptotic_leading_coefficient,
    coeff_M,
    coeff_N,
    degree_residual,
    functional_equation_residual,
    leading_coefficient_interpolated,
    mu_symmetry_residual,
    ode_residual_L1,
    partition_L1,
    partition_permutation_sum,
    permutation_condition,
    special_zero_residual,
    symmetry_residual,
)
from .contour import (
    ContourSpec,
    auto_contour,
    partition_quadrature,
    partition_residue,
)
from .core import (
    DerivedVariables,
    ModelParams,
    NumericalError,
    ROUTES,
    ValidationError,
    validate,
)
from .face_model import (
    count_configurations,
    enumerate_height_grids,
    enumerate_partition,
    hexagon_residual,
)
from .rmatrix import (
    dybe_residual,
    ice_residual,
    r_matrix,
    unitarity_residual,
    weights,
)
from .verify import SUITE_NAMES, run_suite
from .yb_algebra import (
    cbb_residual,
    commutation_residuals,
    creation_string,
    monodromy_entry,
    nilpotency_norm,
    partition_algebraic,
)

__version__ = "0.1.0"

__all__ = [
    "ContourSpec",
    "DerivedVariables",
    "ModelParams",
    "NumericalError",
    "ROUTES",
    "SUITE_NAMES",
    "ValidationError",
    "asymptotic_leading_coefficient",
    "auto_contour",
    "cbb_residual",
    "coeff_M",
    "coeff_N",
    "commutation_residuals",
    "count_configurations",
    "creation_string",
    "degree_residual",
    "dybe_residual",
    "enumerate_height_grids",
    "enumerate_partition",
    "functional_equation_residual",
    "hexagon_residual",
    "ice_residual",
    "leading_coefficient_interpolated",
    "monodromy_entry",
    "mu_symmetry_residual",
    "nilpotency_norm",
    "ode_residual_L1",
    "partition_L1",
    "partition_algebraic",
    "partition_permutation_sum",
    "partition_quadrature",
    "partition_residue",
    "permutation_condition",
    "r_matrix",
    "run_suite",
    "special_zero_residual",
    "symmetry_residual",
    "unitarity_residual",
    "validate",
    "verify",
    "weights",
]
