"""Numerical laboratory for gradient and martingale-integrand estimation
under degenerate volatility.

The package simulates decoupled forward-backward diffusions whose
volatility may vanish on space-time regions, estimates the value
function's spatial gradient by pathwise and by weighted (integration by
parts) Monte Carlo, classifies where the degenerate weight exists, and
cross-validates everything against an explicit finite-difference solver
and closed-form oracles.
"""

from .degeneracy import (DEFAULT_EPS_SIGMA, CharacteristicPath,
                         DegeneracyReport, GammaEquivalenceReport,
                         characteristic, check_gamma_equivalence,
                         gamma_report, locate_tau, locate_tau_batch)
from .estimators import (Estimate, EstimationError, OutsideGamma0Error,
                         ProviderRequiredError, ValueProvider,
                         bachelier_provider, empirical_lambda_moment,
                         estimate_u, estimate_ux_pathwise,
                         estimate_ux_weighted, example1_provider,
                         grid_provider, reconstruct_Z)
from .model import (BUILTIN_MODELS, CoefficientModel, ModelInvariantError,
                    ProblemPoint, builtin_model, builtin_model_names,
                    check_model_invariants, fd_derivative,
                    transformed_drift)
from .oracles import (Example1Params, bachelier_digital, example1_sigma0,
                      example1_u, example1_ux_at_zero, example1_z_exponent,
                      gaussian_abs_moment)
from .pde_fd import (CflReport, PdeGrid, PdeSolution, cfl_check, make_grid,
                     solve_fd)
from .sde_sim import (BatchPaths, PathBundle, PathState, SimulationError,
                      TimeGrid, brownian_increments, path_stream,
                      simulate_batch, simulate_path,
                      simulate_path_with_increments)
from .weights import default_lambda_floor, degenerate_weight_values

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_MODELS",
    "BatchPaths",
    "CflReport",
    "CharacteristicPath",
    "CoefficientModel",
    "DEFAULT_EPS_SIGMA",
    "DegeneracyReport",
    "Estimate",
    "EstimationError",
    "Example1Params",
    "GammaEquivalenceReport",
    "ModelInvariantError",
    "OutsideGamma0Error",
    "PathBundle",
    "PathState",
    "PdeGrid",
    "PdeSolution",
    "ProblemPoint",
    "ProviderRequiredError",
    "SimulationError",
    "TimeGrid",
    "ValueProvider",
    "bachelier_digital",
    "bachelier_provider",
    "brownian_increments",
    "builtin_model",
    "builtin_model_names",
    "cfl_check",
    "characteristic",
    "check_gamma_equivalence",
    "check_model_invariants",
    "default_lambda_floor",
    "degenerate_weight_values",
    "empirical_lambda_moment",
    "estimate_u",
    "estimate_ux_pathwise",
    "estimate_ux_weighted",
    "example1_provider",
    "example1_sigma0",
    "example1_u",
    "example1_ux_at_zero",
    "example1_z_exponent",
    "fd_derivative",
    "gamma_report",
    "gaussian_abs_moment",
    "grid_provider",
    "locate_tau",
    "locate_tau_batch",
    "make_grid",
    "path_stream",
    "reconstruct_Z",
    "simulate_batch",
    "simulate_path",
    "simulate_path_with_increments",
    "solve_fd",
    "transformed_drift",
]
