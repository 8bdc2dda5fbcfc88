"""Stochastic optimal control under volatility ambiguity.

Worst-case expectation generators over a covariance box, scenario-indexed
simulation of ambiguous SDEs, monotone finite-difference HJB solvers, and
the robust Merton consumption-portfolio problem with its power-utility
closed forms.
"""

from .ambiguity import (
    AmbiguitySet,
    GValue,
    as_symmetric,
    contains,
    contains_stack,
    g_matrix,
    g_scalar,
    g_stack,
)
from .errors import ConfigError, ConsistencyError, GctrlError, NumericError
from .estimators import (
    ExpectationEstimate,
    MomentReport,
    candidate_schedules,
    moment_bound_check,
    terminal_expectation_mc,
    upper_expectation_mc,
)
from .hjb import (
    ControlComponent,
    Grid1D,
    HjbProblem,
    HjbSolution,
    dpp_composition_check,
    evaluate_policy_mc,
    max_stable_dt,
    solution_csv_text,
    solution_meta_text,
    solve,
    solve_stack,
    suggest_time_steps,
)
from .merton import (
    ClosedForm,
    CrraUtility,
    MarketModel,
    PolicyField,
    closed_form_value,
    eta,
    market_price_of_risk,
    merton_hjb_problem,
    optimal_policy,
    solve_A,
    solve_merton_pde,
    verify_hjb_residual,
    worst_case_lambda,
)
from .sde import (
    PathBundle,
    PathConfig,
    SdeSpec,
    VolSchedule,
    bundle_csv_text,
    integrate_gsde,
    sample_gbm,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguitySet",
    "ClosedForm",
    "ConfigError",
    "ConsistencyError",
    "ControlComponent",
    "CrraUtility",
    "ExpectationEstimate",
    "GValue",
    "GctrlError",
    "Grid1D",
    "HjbProblem",
    "HjbSolution",
    "MarketModel",
    "MomentReport",
    "NumericError",
    "PathBundle",
    "PathConfig",
    "PolicyField",
    "SdeSpec",
    "VolSchedule",
    "as_symmetric",
    "bundle_csv_text",
    "candidate_schedules",
    "closed_form_value",
    "contains",
    "contains_stack",
    "dpp_composition_check",
    "eta",
    "evaluate_policy_mc",
    "g_matrix",
    "g_scalar",
    "g_stack",
    "integrate_gsde",
    "market_price_of_risk",
    "max_stable_dt",
    "merton_hjb_problem",
    "moment_bound_check",
    "optimal_policy",
    "sample_gbm",
    "solution_csv_text",
    "solution_meta_text",
    "solve",
    "solve_A",
    "solve_merton_pde",
    "solve_stack",
    "suggest_time_steps",
    "terminal_expectation_mc",
    "upper_expectation_mc",
    "verify_hjb_residual",
    "worst_case_lambda",
]
