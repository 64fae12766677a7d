"""Optimal constants for suprema of k-fold convolutions on discrete cubes.

The solver names, which need numpy and scipy, are loaded on first use, so
``import convmax`` and the exact modules start without the float stack.
"""

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
from .gridfn import (
    GridFn,
    convolve,
    convolve_many,
    l1_norm,
    product_function,
    ratio,
    sup_norm,
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

# name -> submodule for the solver names.  They are looked up on every access
# and never cached in this namespace, so a name patched on its module (tests,
# tracing) is what ``convmax.<name>`` returns.
_LAZY = {
    "BoundTable": "continuous",
    "step_function_export": "continuous",
    "upper_bound_sequence": "continuous",
    "GridOracleResult": "minimax",
    "MinimaxResult": "minimax",
    "SolverConfig": "minimax",
    "diagonal_constant": "minimax",
    "general_constant": "minimax",
    "grid_oracle": "minimax",
    "intersection_restricted_solve": "minimax",
}

__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
