"""The public API: `driftflow.__all__` grows only by a deliberate edit here."""

import driftflow

PUBLIC = [
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


def test_all_is_pinned():
    assert driftflow.__all__ == PUBLIC
    assert all(hasattr(driftflow, name) for name in PUBLIC)
    # everything public at the top level is listed
    assert sorted(
        name for name in vars(driftflow)
        if not name.startswith("_") and not isinstance(getattr(driftflow, name), type(driftflow))
    ) == sorted(PUBLIC)
