"""Tabular average-reward MDP laboratory.

Exact discounted and average-reward solvers, Markov-chain structure
analysis, a seeded generative model with an empirical-model learner,
lower-bound hard-instance generators, and a certification suite that checks
the supporting inequalities on concrete instances.
"""

from .chains import (
    ChainStructure,
    MdpParameters,
    aperiodicity_transform,
    chain_mixing_time,
    decompose_chain,
    diameter,
    is_communicating,
    is_weakly_communicating,
    min_expected_hitting_times,
    mixing_time,
    structural_parameters,
)
from .corpus import (
    random_mdp,
    standard_corpus,
    two_state_cycle,
    two_state_slow_chain,
)
from .generative import (
    EmpiricalModel,
    GenerativeModel,
    RngSeedSpec,
    build_empirical,
    derive_seed,
    perturb_rewards,
)
from .hard_instances import (
    HardInstanceSpec,
    closed_form_component_gain,
    component_mdp,
    hard_instance,
)
from .mdp import (
    DeterministicPolicy,
    EnumerationBudgetError,
    InducedChain,
    InfeasibleInstanceError,
    MdpFormatError,
    SolverConvergenceError,
    TabularMdp,
    induce_chain,
    read_mdp,
    read_policy,
    span,
    validate_mdp,
    write_mdp,
    write_policy,
)
from .reduction import (
    Certificate,
    ReductionParams,
    TrialRecord,
    algorithm1,
    certify_finite_horizon_identity,
    certify_gain_discount_gap,
    certify_instance,
    certify_reduction_bound,
    certify_span_bounds,
    empirical_error,
    failure_rate,
    gamma_for_accuracy,
    reduction_chain_certificates,
    reduction_params,
    write_certificates_csv,
    write_certificates_report,
)
from .solvers import (
    AmdpOptimum,
    GainBias,
    amdp_gain_bias,
    amdp_optimal,
    bellman_optimality_residual,
    dmdp_policy_iteration,
    dmdp_policy_value,
    dmdp_value_iteration,
    h_gamma_star,
    relative_value_iteration,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
