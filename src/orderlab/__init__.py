"""Classical laboratory for the order-finding measurement distribution.

Exact simulation of the frequency measurement for a known order,
the complete classical post-processing chain (continued fractions,
two-dimensional lattice reduction and enumeration, smooth-order
recovery), and the analytic success bounds the empirical rates are
checked against.
"""

from .bounds import (
    enumeration_budget,
    factoring_success_bound,
    lattice_success_bound,
    single_run_success_bound,
    smoothness_bound,
    success_bound_table,
    window_mass_lower_bound,
)
from .cf import solve_cf
from .distribution import (
    Sampler,
    approx_prob,
    envelope,
    full_distribution,
    prob,
    prob_bruteforce,
    prob_zero,
    window_mass,
)
from .lattice import enumerate_candidates, lagrange_reduce, solve_shortest
from .model import ModNGroup, Params, Peak, Rng, SimulatedGroup, derive, peak
from .pipeline import (
    FactorReport,
    MonteCarloReport,
    RunConfig,
    RunOutcome,
    factor_completely,
    monte_carlo,
    post_process,
    run_once,
    wilson_interval,
)
from .recovery import (
    ExponentMeter,
    SmoothnessContext,
    filter_candidates,
    recover_multiple,
    recover_order_stack,
    recover_order_tree,
    solve_candidate_set,
)

__version__ = "0.1.0"

__all__ = [
    "ExponentMeter",
    "FactorReport",
    "ModNGroup",
    "MonteCarloReport",
    "Params",
    "Peak",
    "Rng",
    "RunConfig",
    "RunOutcome",
    "Sampler",
    "SimulatedGroup",
    "SmoothnessContext",
    "approx_prob",
    "derive",
    "enumerate_candidates",
    "enumeration_budget",
    "envelope",
    "factor_completely",
    "factoring_success_bound",
    "filter_candidates",
    "full_distribution",
    "lagrange_reduce",
    "lattice_success_bound",
    "monte_carlo",
    "peak",
    "post_process",
    "prob",
    "prob_bruteforce",
    "prob_zero",
    "recover_multiple",
    "recover_order_stack",
    "recover_order_tree",
    "run_once",
    "single_run_success_bound",
    "smoothness_bound",
    "solve_candidate_set",
    "solve_cf",
    "solve_shortest",
    "success_bound_table",
    "wilson_interval",
    "window_mass",
    "window_mass_lower_bound",
]
