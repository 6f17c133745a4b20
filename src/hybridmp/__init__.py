"""Simulation, filtering, adjoint analysis and control of diffusions
modulated by a hidden two-state Markov chain."""

import types

from .adjoint import (
    AdjointPath,
    CompactCoeffs,
    PolyBasis,
    gateaux_derivative,
    hamiltonian_direction_value,
    solve_adjoint_bsde,
    solve_variational,
    stationarity_report,
)
from .errors import (
    ConfigError,
    DomainError,
    HybridMPError,
    NonConvergence,
    NumericalError,
    RegressionError,
    WorkerError,
)
from .harness import ExperimentConfig, run_suite
from .lq import (
    LQSolution,
    PiecewisePolyPolicy,
    full_observation_baseline,
    riccati_backward,
    riccati_cost,
    solve_lq,
)
from .model import (
    FeedbackPolicy,
    GeneratorSpec,
    LQSpec,
    ProblemSpec,
    constant_policy,
    load_spec,
    validate_spec,
    zero_policy,
)
from .pathsim import (
    CostEstimate,
    PathBundle,
    TimeGrid,
    chain_marginal,
    cost_from_paths,
    estimate_cost,
    simulate_chain,
    simulate_state,
)
from .wonham import (
    CoupledPath,
    FilterPath,
    InnovationPath,
    coupled_forward,
    discrete_bayes_oracle,
    innovation_forward,
    run_normalized_filter,
    run_zakai_filter,
    transformed_cost,
    transformed_cost_paths,
)

__version__ = "0.1.0"

# Every name imported above; the submodules themselves are left out.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
