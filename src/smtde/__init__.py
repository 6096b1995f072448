"""Numerics for Caputo stochastic multi-term differential equations with
non-permutable coefficient matrices: bivariate matrix Mittag-Leffler
functions, Volterra/mild-form path solvers, and separation/continuity
experiments.
"""

__version__ = "0.1.0"

from .errors import (DegenerateExperimentError, DomainError, EnsembleError,
                     NonConvergenceError, SmtdeError, TruncationBoundError,
                     ValidationError)
from .linalg import commutator, mat_norm, mat_pow
from .specfun import (SampledFunction, caputo_identity_residual, gamma_fn,
                      ml_scalar, ml_scalar_log, reciprocal_gamma, rl_integral,
                      rl_integral_all)
from .mlmatrix import (MLParams, QTable, ml_nonperm, ml_nonperm_grid,
                       ml_nonperm_info, ml_perm)
from .solvers import (BrownianDriver, InitialState, PathEnsemble, ProblemSpec,
                      constant_ensemble, coupled_pair, picard_apply,
                      simulate_em, simulate_mild)
from .analysis import (ContractionReport, ContinuityPoint, LemmaCheck,
                       SeparationReport, WeightedNormParams,
                       contraction_report, continuity_experiment,
                       init_term_sup_sq, convolution_bound_check, log_weighted_norm,
                       ml_sup_norm, ms_distance_series, ms_norm, ms_norm_series,
                       omega_threshold, separation_experiment, zeta_const)

__all__ = [
    "BrownianDriver", "ContractionReport", "ContinuityPoint",
    "DegenerateExperimentError", "DomainError", "EnsembleError",
    "InitialState", "LemmaCheck", "MLParams", "NonConvergenceError",
    "PathEnsemble", "ProblemSpec", "QTable", "SampledFunction",
    "SeparationReport", "SmtdeError", "TruncationBoundError",
    "ValidationError", "WeightedNormParams", "caputo_identity_residual",
    "commutator", "constant_ensemble", "contraction_report",
    "continuity_experiment", "coupled_pair", "gamma_fn", "init_term_sup_sq",
    "convolution_bound_check", "log_weighted_norm", "mat_norm", "mat_pow", "ml_nonperm", "ml_nonperm_grid",
    "ml_nonperm_info", "ml_perm", "ml_scalar", "ml_scalar_log", "ml_sup_norm",
    "ms_distance_series", "ms_norm", "ms_norm_series", "omega_threshold",
    "picard_apply", "reciprocal_gamma", "rl_integral", "rl_integral_all",
    "separation_experiment", "simulate_em", "simulate_mild", "zeta_const",
]
