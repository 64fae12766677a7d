"""Optimal constants for suprema of k-fold convolutions on discrete cubes."""

__version__ = "0.1.0"

from .constants import (
    DiagonalProfile,
    continuous_upper_bound_m1,
    diagonal_profile,
    extremal_function,
    optimal_constant,
    optimal_constant_d,
    verify_sharpness,
)
from .continuous import BoundTable, step_function_export, upper_bound_sequence
from .gridfn import (
    GridFn,
    convolve,
    convolve_many,
    format_gridfn,
    l1_norm,
    parse_gridfn,
    product_function,
    ratio,
    sup_norm,
)
from .minimax import (
    GridOracleResult,
    MinimaxResult,
    SolverConfig,
    diagonal_constant,
    general_constant,
    grid_oracle,
    intersection_restricted_solve,
)
from .pb import (
    PBDist,
    check_newton_differences,
    check_ultra_log_concave,
    differences,
    intersection_point,
    lagrange_residuals,
    likelihood_ratio,
    likelihood_ratios,
    mobius_ratio,
    partial_derivative,
    pb_mode,
    pb_pmf,
)
from .sidon import (
    CubeSet,
    SidonReport,
    enumerate_verify,
    max_size_g_sidon,
    representation_counts,
    verify_bound,
)
