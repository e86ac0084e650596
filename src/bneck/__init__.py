"""Solver library for the discrete-time observable-queue bottleneck game G(n; w).

Computes symmetric equilibria in anonymous stationary strategies, optimal
symmetric entry profiles, closed-form cost bounds with checkers, and Monte
Carlo validation, plus a CLI (``bneck``).
"""

from .model import (
    CostRole,
    CostTable,
    DivergentCostError,
    EntryProfile,
    GameParams,
    InvalidParameterError,
    NonTerminatingProfileError,
    QueueState,
    binom_pmf,
    cost_enter,
    enumerate_states,
    total_cost_evaluate,
)
from .eqsolver import (
    EquilibriumSolution,
    InternalInconsistencyError,
    RootPolicy,
    eq_closed_form_2p,
    profile_cost_table,
    solve_equilibrium,
    solve_state,
    verify_equilibrium,
    verify_profile,
)
from .optsolver import (
    OptSolution,
    heuristic_profile_large_w,
    heuristic_profile_small_w,
    opt_closed_form_2p,
    opt_stage_cost,
    sc_unrestricted,
    solve_opt,
)
from .bounds import (
    BoundsReport,
    aux_lemma_validators,
    bounds_report,
    entry_prob_lower,
    eq_lower_large_w,
    eq_lower_simple,
    eq_upper_large_w,
    eq_upper_small_w,
    nice_function_check,
    opt_bounds_large_w,
    opt_recursive_upper,
    phi_harmonic,
    phi_sqrt,
    prob_vanishing_check,
    ratio_targets,
)
from .sim import SimReport, simulate, simulate_once

__version__ = "0.1.0"
