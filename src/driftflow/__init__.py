"""Solvers for parabolic drift-diffusion problems with singular drift.

The pipeline: staggered-grid discretization with an exact divergence
gradient adjoint (`grid`), exact Lorentz-space diagnostics for the drift
coefficient (`lorentz`), problem data with truncation certificates
(`models`), monotone operators and resolvents (`operators`), implicit time
stepping with continuation and trajectory checks (`evolution`), stationary
states and exponential-decay experiments (`steady`), and a config-driven
experiment runner (`cli`).
"""

__version__ = "0.1.0"

from .grid import (
    BoxDomain,
    ConvergenceError,
    GridFunction,
    VectorField,
    divergence,
    gradient,
    inner,
    inner_vec,
    load_grid_function,
    norm_h1,
    norm_l2,
    poincare_constant,
    save_grid_function,
)
from .lorentz import (
    DistributionFunction,
    HolderReport,
    LorentzExponents,
    check_holder,
    dist_to_bounded,
    distribution,
    lorentz_norm,
    sobolev_constant,
)
from .models import (
    DiffusionFlux,
    DriftFlux,
    ProblemData,
    TruncationCertificate,
    TruncationPlan,
    builtin_models,
    certify_truncation,
    make_model,
    make_truncation_plan,
    verify_hypotheses,
)
from .operators import ResolventConfig, SolverDiagnostics, TruncatedOperator
from .evolution import (
    EvolutionConfig,
    EvolutionTrace,
    WeakResidual,
    continuation,
    evolve,
    step,
    uniqueness_harness,
)
from .steady import DecayReport, SteadyConfig, decay_experiment, solve_steady

__all__ = [
    "BoxDomain",
    "ConvergenceError",
    "DecayReport",
    "DiffusionFlux",
    "DistributionFunction",
    "DriftFlux",
    "EvolutionConfig",
    "EvolutionTrace",
    "GridFunction",
    "HolderReport",
    "LorentzExponents",
    "ProblemData",
    "ResolventConfig",
    "SolverDiagnostics",
    "SteadyConfig",
    "TruncatedOperator",
    "TruncationCertificate",
    "TruncationPlan",
    "VectorField",
    "WeakResidual",
    "builtin_models",
    "certify_truncation",
    "check_holder",
    "continuation",
    "decay_experiment",
    "dist_to_bounded",
    "distribution",
    "divergence",
    "evolve",
    "gradient",
    "inner",
    "inner_vec",
    "load_grid_function",
    "lorentz_norm",
    "make_model",
    "make_truncation_plan",
    "norm_h1",
    "norm_l2",
    "poincare_constant",
    "save_grid_function",
    "sobolev_constant",
    "solve_steady",
    "step",
    "uniqueness_harness",
    "verify_hypotheses",
]
