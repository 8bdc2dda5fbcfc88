"""Cross-check suite behind the ``verify`` subcommand.

Each check returns a CheckResult with the measured gap and the bound it was
held to; the CLI renders one PASS/FAIL line per check and exits nonzero if
any fail.  Tolerances mirror the package's own regression gates.

The checks form two groups that share no state: the Merton group solves the
configured portfolio problem and holds it against its closed form and its
Monte Carlo leg, then runs the two market-free checks with streams of their
own; the market-free group draws its problems from the seed.  The generator
suites draw their trials one by one and evaluate them in stacks, one per
dimension.  ``run_all_checks`` runs the market-free group in a forked worker
beside the Merton group when a second CPU is usable, and the report's bytes
do not depend on it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import AmbiguitySet, _dot, contains_stack, g_scalar, g_stack
from .config import RunConfig, merton_attitude
from .errors import ConfigError
from .hjb import (
    Grid1D,
    HjbProblem,
    HjbSolution,
    dpp_composition_check,
    evaluate_policy_mc,
    gheat_problem,
    max_stable_dt,
    solve,
    suggest_time_steps,
)
from .merton import (
    ClosedForm,
    CrraUtility,
    MarketModel,
    closed_form_value,
    control_grid,
    merton_hjb_problem,
    optimal_policy,
    solve_A,
    verify_hjb_residual,
    worst_case_lambda,
)
from .sde import PathConfig, VolSchedule, _run_jobs, bundle_csv_text, sample_gbm

TOL_EXACT = 1e-12
TOL_DPP = 1e-10
TOL_PDE_REL = 0.02
TOL_PI_ABS = 0.05
TOL_MC_REL = 0.05
TOL_RESIDUAL = 1e-6
RESIDUAL_FLOOR_PERTURBED = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: str


@dataclass(frozen=True)
class MertonRun:
    """The configured portfolio problem, solved in closed form and on the grid.

    ``rel_error`` is the grid value's relative gap to ``closed_row``, the closed
    form at t=0 on the nodes; ``interior`` leaves out a tenth of them at each
    edge.  The residual oracle checks ``checked_form``: A(t) times 1 + debug_perturb_a.
    """

    market: MarketModel
    utility: CrraUtility
    attitude: str
    closed_form: ClosedForm
    checked_form: ClosedForm
    pi_hat: float
    problem: HjbProblem
    solution: HjbSolution
    closed_row: np.ndarray = field(repr=False)
    rel_error: np.ndarray = field(repr=False)
    interior: slice
    interior_rel_error: float


def _merton_inputs(cfg: RunConfig) -> tuple[AmbiguitySet, MarketModel, CrraUtility]:
    """The configured set, market and utility; ConfigError unless d = 1, x_min, x0 > 0 and
    the market has d assets."""
    set_ = cfg.ambiguity_set_1d()
    market, util = cfg.market_model(), cfg.crra()
    if not cfg.solver.x_min > 0.0:
        raise ConfigError("the wealth grid must be truncated away from zero: solver.x_min > 0")
    if not cfg.simulation.x0 > 0.0:
        raise ConfigError("the initial wealth must be positive: simulation.x0 > 0")
    if market.dim != set_.dim:
        raise ConfigError(f"the market has {market.dim} assets; ambiguity.d is {set_.dim}")
    return set_, market, util


def merton_run(cfg: RunConfig) -> MertonRun:
    """Closed form and grid solve; ConfigError as ``_merton_inputs``, before either starts."""
    set_, market, util = _merton_inputs(cfg)
    s = cfg.solver
    attitude = merton_attitude(s.attitude)
    lam = worst_case_lambda(set_, "negative", attitude)
    cf = solve_A(market, util, lam, n_t=2000, horizon=s.horizon)
    checked = cf
    if s.debug_perturb_a > 0.0:
        checked = dataclasses.replace(cf, a_values=cf.a_values * (1.0 + s.debug_perturb_a))
    pi_hat = float(np.atleast_1d(optimal_policy(cf, market, util, set_).portfolio(0.0, 1.0))[0])

    problem = merton_hjb_problem(market, util, set_, s.horizon, attitude,
                                 control_grid(s.n_pi, s.n_rho))
    solution = solve(problem, cfg.grid(problem))
    closed = closed_form_value(cf, util, 0.0, solution.x)
    rel = np.abs(solution.values[0] - closed) / np.abs(closed)
    interior = slice(s.n_x // 10, s.n_x - s.n_x // 10)
    return MertonRun(market, util, attitude, cf, checked, pi_hat, problem, solution,
                     closed, rel, interior, float(np.max(rel[interior])))


def _result(name: str, measured: float, bound: float, larger_is_fail: bool = True) -> CheckResult:
    passed = measured <= bound if larger_is_fail else measured >= bound
    rel = "<=" if larger_is_fail else ">="
    return CheckResult(name=name, passed=passed, measured=measured, bound=f"{rel} {bound:g}")


def _dpp_result(name: str, problem: HjbProblem, grid: Grid1D) -> CheckResult:
    """``dpp_composition_check`` split at the grid's middle time level."""
    t_bar = float(np.linspace(0.0, problem.horizon, grid.n_t + 1)[grid.n_t // 2])
    return _result(name, dpp_composition_check(problem, grid, t_bar), TOL_DPP)


def _random_sym(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return 0.5 * (a + a.T)


def _random_bounds(rng: np.random.Generator) -> tuple[float, float]:
    """Variance bounds (lo, hi) of a random ambiguity set."""
    lo = rng.uniform(0.05, 1.0)
    return lo, lo + rng.uniform(0.0, 2.0)


def _trials(rng: np.random.Generator, trials: int, more=lambda rng, d: ()) -> list:
    """Per trial, random variance bounds for a dimension from 1 to 3, a symmetric
    matrix of that size and then ``more(rng, d)``'s draws, all in trial order.
    Returned as stacks, one tuple (lo, hi, a, *more) of arrays per dimension drawn."""
    rows = {1: [], 2: [], 3: []}
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        lo, hi = _random_bounds(rng)
        rows[d].append((lo, hi, _random_sym(rng, d), *more(rng, d)))
    return [tuple(map(np.array, zip(*r))) for r in rows.values() if r]


def check_subadditivity(rng: np.random.Generator, trials: int = 1000) -> CheckResult:
    worst = -np.inf
    for lo, hi, a, b in _trials(rng, trials, lambda rng, d: (_random_sym(rng, d),)):
        gap = g_stack(a + b, lo, hi).value - g_stack(a, lo, hi).value - g_stack(b, lo, hi).value
        worst = max(worst, float(np.max(gap)))
    return _result("g_subadditivity", worst, TOL_EXACT)


def check_homogeneity(rng: np.random.Generator, trials: int = 1000) -> CheckResult:
    worst = 0.0
    for lo, hi, a, lam in _trials(rng, trials, lambda rng, d: (rng.uniform(0.0, 10.0),)):
        gap = g_stack(lam[:, None, None] * a, lo, hi).value - lam * g_stack(a, lo, hi).value
        worst = max(worst, float(np.max(np.abs(gap))))
    return _result("g_positive_homogeneity", worst, TOL_EXACT)


def check_direction_order(rng: np.random.Generator, trials: int = 1000) -> CheckResult:
    worst = -np.inf
    for lo, hi, a in _trials(rng, trials):
        gap = g_stack(a, lo, hi, "lower").value - g_stack(a, lo, hi, "upper").value
        worst = max(worst, float(np.max(gap)))
    return _result("g_upper_ge_lower", worst, TOL_EXACT)


def check_maximizer_membership(rng: np.random.Generator, trials: int = 1000) -> CheckResult:
    failures = 0
    for lo, hi, a in _trials(rng, trials):
        for direction in ("upper", "lower"):
            gv = g_stack(a, lo, hi, direction)
            attained = 0.5 * _dot(a.reshape(len(a), -1), gv.maximizer.reshape(len(a), -1))
            ok = contains_stack(gv.maximizer, lo, hi) & (np.abs(attained - gv.value) <= 1e-12)
            failures += int(np.count_nonzero(~ok))
    return _result("g_maximizer_membership", float(failures), 0.0)


def _rotation_grid(n_angles: int = 96, n_levels: int = 17) -> np.ndarray:
    """Unit-box conjugated diagonals R diag(u) R^T, u on a [0,1]^2 grid; by angle, u1, u2."""
    th = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    c, s = np.cos(th), np.sin(th)
    r = np.stack([c, -s, s, c], axis=-1).reshape(n_angles, 1, 1, 2, 2)
    us = np.linspace(0.0, 1.0, n_levels)
    diag = np.zeros((n_levels, n_levels, 2, 2))
    diag[..., 0, 0], diag[..., 1, 1] = us[:, None], us[None, :]
    return (r @ diag @ r.swapaxes(-1, -2)).reshape(-1, 2, 2)


def check_bruteforce_agreement(rng: np.random.Generator, trials: int = 300) -> CheckResult:
    """Grid search over the box must match the eigenvalue formula, d <= 2.

    Every trial is drawn first, then the d = 2 trials are evaluated together.
    The first d = 2 trial, in draw order, whose grid value exceeds the
    formula's by more than 1e-9 fails the check, reported with that gap.
    """
    worst = 0.0
    planar = []
    for _ in range(trials):
        if rng.uniform() < 0.3:
            lo, hi = _random_bounds(rng)
            alpha = rng.normal(scale=2.0)
            levels = np.linspace(lo, hi, 41)
            brute = 0.5 * np.max(alpha * levels)
            exact = g_scalar(alpha, AmbiguitySet(dim=1, sigma_lo_sq=lo, sigma_hi_sq=hi))
            scale = 1.0 + abs(alpha) * (hi - lo)
            worst = max(worst, abs(exact - brute) / scale)
        else:
            planar.append((*_random_bounds(rng), _random_sym(rng, 2)))
    if not planar:
        return _result("g_bruteforce_agreement", worst, 5e-3)
    lo, hi, a = map(np.array, zip(*planar))
    # tr(A (lo I + (hi-lo) K)) over the unit grid K is nondecreasing in tr(A K), and so
    # is its rounding: its largest value is the one at the largest tr(A K).
    grid = _rotation_grid()
    edge = np.concatenate([np.einsum("kij,nij->nk", grid, a[i:i + 16]).max(axis=1)
                           for i in range(0, len(a), 16)])
    brute = 0.5 * (lo * np.trace(a, axis1=1, axis2=2) + (hi - lo) * edge)
    exact = g_stack(a, lo, hi).value
    over = np.flatnonzero(brute > exact + 1e-9)
    if over.size:
        i = over[0]
        return CheckResult("g_bruteforce_agreement", False, float(brute[i] - exact[i]), "<= 1e-9")
    scale = (1.0 + np.abs(np.linalg.eigvalsh(a)).sum(axis=1)) * (hi - lo + 1.0)
    return _result("g_bruteforce_agreement", max(worst, float(np.max((exact - brute) / scale))),
                   5e-3)


def check_pi_decreasing(rng: np.random.Generator, trials: int = 1000) -> CheckResult:
    """The pessimist's risky fraction theta / (kappa gamma lambda) must fall as the
    high variance grows; lambda is the attaining variance of the lower generator at -1."""
    draws = []
    for _ in range(trials):
        r = rng.uniform(0.0, 0.05)
        alpha = r + rng.uniform(0.01, 0.1)
        gam = rng.uniform(0.1, 0.5)
        kap = rng.uniform(0.2, 5.0)
        if abs(kap - 1.0) < 1e-3:
            kap += 0.01
        lo = rng.uniform(0.05, 0.5)
        hi1 = lo + rng.uniform(0.01, 1.0)
        hi2 = hi1 + rng.uniform(0.01, 1.0)
        draws.append((r, alpha, gam, kap, lo, hi1, hi2))
    r, alpha, gam, kap, lo, hi1, hi2 = np.array(draws).reshape(trials, 7).T
    lam = g_stack(np.full((2, trials, 1, 1), -1.0), lo, np.stack([hi1, hi2]),
                  "lower").maximizer[..., 0, 0]
    pis = (alpha - r) / gam / (kap * gam * lam)
    return _result("pi_decreasing_in_ambiguity", float(np.count_nonzero(~(pis[0] > pis[1]))), 0.0)


def _bump(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - (x / 1.5) ** 2) ** 3


def _random_ordered_problems(rng: np.random.Generator):
    """Two problems with pointwise-ordered data, compactly supported, and their grid.

    The grid has 12 steps at 0.9 times the CFL bound, so ``solve`` sweeps
    explicitly.  The support sits 14 nodes away from each edge, so in 12
    steps the explicit stencil never transports a nonzero gap into the
    one-sided edge closures, which are not monotone (see ``hjb.HjbProblem``),
    and the discrete comparison principle holds exactly on the whole grid.  On
    3 steps (3.6 times the bound) ``solve`` sweeps implicitly, which reaches
    the edges in one step; its edge closure is monotone, so the principle
    holds there too.
    """
    lo = rng.uniform(0.1, 0.8)
    hi = lo + rng.uniform(0.0, 0.8)
    set_ = AmbiguitySet(dim=1, sigma_lo_sq=lo, sigma_hi_sq=hi)
    controls = tuple(np.round(rng.uniform(-1.0, 1.0, size=3), 6))
    c0, c1 = rng.uniform(-0.7, 0.7, size=2)
    g0 = rng.uniform(0.3, 1.0)
    g1 = rng.uniform(-0.2, 0.2)
    a2, b2 = rng.uniform(-1.0, 1.0, size=2)
    a1, b1 = rng.uniform(-1.0, 1.0, size=2)
    s2, p2 = rng.uniform(0.2, 1.0), rng.uniform(0.0, 2 * np.pi)
    s1 = rng.uniform(0.2, 1.0)
    beta = rng.uniform(0.0, 0.5)
    direction = "maximize" if rng.uniform() < 0.5 else "minimize"
    attitude = "upper" if rng.uniform() < 0.5 else "lower"

    def drift(t, x, u):
        return (c0 + c1 * u) + 0.0 * x

    def diffusion(t, x, u):
        return (g0 + g1 * u) + 0.0 * x

    def terminal(x):
        return _bump(x) * (a2 * np.sin(3.0 * x) + b2 * np.cos(2.0 * x))

    def terminal_hi(x):
        return terminal(x) + _bump(x) * s2 * (1.1 + np.sin(2.0 * x + p2))

    def running(t, x, u):
        return _bump(x) * (a1 * np.sin(2.0 * x) + b1 * u)

    def running_hi(t, x, u):
        return running(t, x, u) + _bump(x) * s1

    common = dict(
        drift=drift, diffusion=diffusion, controls=controls, ambiguity=set_,
        discount=beta, opt_direction=direction, attitude=attitude, segment_starts=(0.0,),
    )
    base = HjbProblem(running_cost=running, terminal_cost=terminal, horizon=1.0, **common)
    n_t = 12
    grid_probe = Grid1D(-5.0, 5.0, 41, n_t)
    horizon = 0.9 * max_stable_dt(base, grid_probe) * n_t
    low = HjbProblem(running_cost=running, terminal_cost=terminal, horizon=horizon, **common)
    high = HjbProblem(running_cost=running_hi, terminal_cost=terminal_hi, horizon=horizon, **common)
    return low, high, Grid1D(-5.0, 5.0, 41, n_t)


def check_comparison_principle(name: str, problems) -> CheckResult:
    """Ordered data must give ordered solutions on ``_random_ordered_problems``."""
    worst = -np.inf
    for low, high, grid in problems:
        v_low = solve(low, grid).values
        v_high = solve(high, grid).values
        worst = max(worst, float(np.max(v_low - v_high)))
    return _result(name, worst, TOL_EXACT)


def run_all_checks(cfg: RunConfig) -> list[CheckResult]:
    """Run the full cross-check suite for one configuration; ConfigError unless d = 1.

    The checks fall in two groups that share no state, run side by side by
    ``sde._run_jobs``: the Merton checks and the two checks with streams of
    their own here, and the market-free checks in a forked worker, when a
    second CPU is usable.  The config is checked first, so a config error
    comes before the worker starts.  The report lists the worker's checks
    first.
    """
    _merton_inputs(cfg)
    merton, free = _run_jobs([lambda: [*_merton_checks(cfg), *_own_stream_checks(cfg)],
                              lambda: _market_free_checks(cfg)])
    return [*free, *merton]


def _merton_checks(cfg: RunConfig) -> list[CheckResult]:
    """The checks of the configured portfolio problem, the Monte Carlo leg's among them."""
    run = merton_run(cfg)
    market, util, cf, sol = run.market, run.utility, run.closed_form, run.solution
    set_1d, horizon, sim = run.problem.ambiguity, cfg.solver.horizon, cfg.simulation

    # The Monte Carlo leg runs first, so that its search allocates on a heap this group's
    # checks have not fragmented yet.  It draws from its own streams and keeps its report slot.
    path_cfg = PathConfig(n_steps=sim.n_steps, horizon=horizon,
                          n_paths=sim.n_paths, seed=sim.seed)

    def control_fn(t, x_flat):
        return run.pi_hat, 1.0 / float(cf.a_at(t))

    est = evaluate_policy_mc(run.problem, sol, set_1d, path_cfg, x0=sim.x0,
                             control_fn=control_fn,
                             n_segments=min(sim.n_segments, 2), n_grid=min(sim.n_grid, 3))

    # Portfolio problem at the configured parameters, on two levels at least to split at.
    count = suggest_time_steps(run.problem, 0.5, 2.0, 81)  # 782 on the desk market
    small_grid = Grid1D(0.5, 2.0, 81, max(2, count))
    results = [_dpp_result("dpp_composition_portfolio", run.problem, small_grid)]
    # The implicit sweep runs below the explicit count, on two levels at least.
    name, n_t = "dpp_composition_portfolio_implicit", min(20, count - 1)
    if n_t < 2:
        results.append(CheckResult(name, True, float(count), "n/a: no implicit grid of two levels"))
    else:
        results.append(_dpp_result(name, run.problem, dataclasses.replace(small_grid, n_t=n_t)))

    results.append(_result("pde_vs_closed_form", run.interior_rel_error, TOL_PDE_REL))

    pis = np.asarray([sol.controls[j][0] for j in sol.policy[0]])
    results.append(_result("pi_extraction",
                           float(np.max(np.abs(pis[run.interior] - run.pi_hat))), TOL_PI_ABS))

    v_target = closed_form_value(cf, util, 0.0, sim.x0)
    results.append(_result("mc_vs_closed_form",
                           abs(est.value - v_target) / abs(v_target), TOL_MC_REL))

    pts_rng = np.random.default_rng(sim.seed + 1)
    pts = list(zip(pts_rng.uniform(0.05 * horizon, 0.95 * horizon, 100),
                   pts_rng.uniform(0.5, 2.0, 100)))
    results.append(_result("hjb_residual",
                           verify_hjb_residual(run.checked_form, market, util, set_1d, pts),
                           TOL_RESIDUAL))
    cf_bad = dataclasses.replace(cf, a_values=cf.a_values * 1.01)
    results.append(_result("hjb_residual_sensitivity",
                           verify_hjb_residual(cf_bad, market, util, set_1d, pts),
                           RESIDUAL_FLOOR_PERTURBED, larger_is_fail=False))

    pol = optimal_policy(cf, market, util, set_1d)
    w_rng = np.random.default_rng(sim.seed + 2)
    worst_w = 0.0
    for _ in range(1000):
        t = w_rng.uniform(0.0, horizon)
        x = w_rng.uniform(0.1, 10.0)
        w1, w2, _f2 = pol.fund_weights(t, x)
        worst_w = max(worst_w, abs((w1 + w2) - 1.0))
    results.append(_result("fund_weights_sum", worst_w, 0.0))
    return results


def _market_free_checks(cfg: RunConfig) -> list[CheckResult]:
    """The checks that draw from the seed's stream and do not read the market:
    generator suites, comparison principle and heat DPP."""
    set_1d, horizon = cfg.ambiguity_set_1d(), cfg.solver.horizon
    rng = np.random.default_rng(cfg.simulation.seed)
    results = [
        check_subadditivity(rng),
        check_homogeneity(rng),
        check_direction_order(rng),
        check_maximizer_membership(rng),
        check_bruteforce_agreement(rng),
    ]
    ordered = [_random_ordered_problems(rng) for _ in range(100)]
    results.append(check_comparison_principle("comparison_principle", ordered))
    coarse = [(low, high, dataclasses.replace(grid, n_t=3)) for low, high, grid in ordered]
    results.append(check_comparison_principle("comparison_principle_implicit", coarse))

    # Composition of the dynamic-programming recursion, heat-type problem.
    heat = gheat_problem(set_1d, lambda x: x**2, horizon)
    n_t = max(2, suggest_time_steps(heat, -4.0, 4.0, 101))  # two levels at least to split at
    results.append(_dpp_result("dpp_composition_heat", heat, Grid1D(-4.0, 4.0, 101, n_t)))
    return results


def _own_stream_checks(cfg: RunConfig) -> list[CheckResult]:
    """The two market-free checks on streams of their own: the ambiguity order of the
    portfolio weight (seed + 3) and CSV byte stability (seed + 4)."""
    set_1d, seed = cfg.ambiguity_set_1d(), cfg.simulation.seed
    results = [check_pi_decreasing(np.random.default_rng(seed + 3))]
    csv_rng = np.random.default_rng(seed + 4)
    mismatches = 0
    for _ in range(100):
        path_seed = int(csv_rng.integers(0, 2**32))
        small = PathConfig(n_steps=4, horizon=1.0, n_paths=3, seed=path_seed)
        sched = VolSchedule.constant(set_1d.sigma_hi_sq)
        a = bundle_csv_text(sample_gbm(set_1d, sched, small))
        b = bundle_csv_text(sample_gbm(set_1d, sched, small))
        mismatches += 0 if a == b else 1
    results.append(_result("csv_byte_stability", float(mismatches), 0.0))
    return results
