"""Online stochastic bipartite matching with known and unknown patience.

Star-graph probing solvers (exact dynamic program, hazard-rate index rule,
attempt-indexed LP with a 1/2-guaranteed randomized policy, brute force),
LP relaxations solved exactly or by column generation, online matchers for
adversarial / prophet / IID arrivals, negative-result instance families,
and a seeded simulation harness.
"""

from .instances import (
    ArrivalModel,
    CapabilityError,
    CapacityError,
    InstanceFormatError,
    LpNumericalError,
    MatchingInstance,
    PatienceModel,
    PatienceVariantError,
    Policy,
    PolicyMixture,
    StarInstance,
    StochmatchError,
    ValidationReport,
    load_instance,
    save_instance,
    validate,
)
from .lp import LpProblem, LpSolution, add_column, dumps_lp, solve, solution_residuals
from .matching import (
    AdvGreedyMatcher,
    MatcherState,
    PolicyLpMatcher,
    ProphetLpResult,
    SimpleGreedyMatcher,
    benchmark_lp_value,
    build_benchmark_lp,
    format_trace,
    iid_matcher,
    prophet_matcher,
    solve_prophet_lp,
    solve_prophet_lp_enumerated,
)
from .simulate import (
    SimConfig,
    SimReport,
    brute_force_offline_opt,
    simulate,
    trial_generator,
)
from .stars import (
    RandomizedStarPolicy,
    StarResult,
    StarSolver,
    auto_solver,
    brute_force_optimal,
    build_arbitrary_patience_lp,
    enumerate_policies,
    eval_policy_exact,
    eval_randomized_exact,
    policy_match_probabilities,
    randomized_match_probabilities,
    solve_arbitrary_patience,
    solve_constant_hazard,
    solve_deterministic_patience,
    solver_by_name,
)

__version__ = "0.1.0"
