"""Cross-check suite behind the ``verify`` subcommand.

Each check returns a CheckResult with the measured gap and the bound it was
held to; the CLI renders one PASS/FAIL line per check and exits nonzero if
any fail.  Tolerances mirror the package's own regression gates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import AmbiguitySet, contains, g_matrix, g_scalar
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
from .sde import PathConfig, VolSchedule, bundle_csv_text, sample_gbm

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


def merton_run(cfg: RunConfig) -> MertonRun:
    """Closed form and grid solve; ConfigError unless d = 1, x_min, x0 > 0 and d market assets."""
    set_ = cfg.ambiguity_set_1d()
    market, util, s = cfg.market_model(), cfg.crra(), cfg.solver
    if not s.x_min > 0.0:
        raise ConfigError("the wealth grid must be truncated away from zero: solver.x_min > 0")
    if not cfg.simulation.x0 > 0.0:
        raise ConfigError("the initial wealth must be positive: simulation.x0 > 0")
    if market.dim != set_.dim:
        raise ConfigError(f"the market has {market.dim} assets; ambiguity.d is {set_.dim}")
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
    closed = np.asarray([closed_form_value(cf, util, 0.0, xv) for xv in solution.x])
    rel = np.abs(solution.values[0] - closed) / np.abs(closed)
    interior = slice(s.n_x // 10, s.n_x - s.n_x // 10)
    return MertonRun(market, util, attitude, cf, checked, pi_hat, problem, solution,
                     closed, rel, interior, float(np.max(rel[interior])))


def _result(name: str, measured: float, bound: float, larger_is_fail: bool = True) -> CheckResult:
    passed = measured <= bound if larger_is_fail else measured >= bound
    rel = "<=" if larger_is_fail else ">="
    return CheckResult(name=name, passed=passed, measured=measured, bound=f"{rel} {bound:g}")


def _random_sym(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return 0.5 * (a + a.T)


def _random_set(rng: np.random.Generator, d: int) -> AmbiguitySet:
    lo = rng.uniform(0.05, 1.0)
    hi = lo + rng.uniform(0.0, 2.0)
    return AmbiguitySet(dim=d, sigma_lo_sq=lo, sigma_hi_sq=hi)


def check_subadditivity(rng: np.random.Generator, trials: int = 1000) -> CheckResult:
    worst = -np.inf
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        set_ = _random_set(rng, d)
        a, b = _random_sym(rng, d), _random_sym(rng, d)
        gap = g_matrix(a + b, set_).value - g_matrix(a, set_).value - g_matrix(b, set_).value
        worst = max(worst, gap)
    return _result("g_subadditivity", worst, TOL_EXACT)


def check_homogeneity(rng: np.random.Generator, trials: int = 1000) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        set_ = _random_set(rng, d)
        a = _random_sym(rng, d)
        lam = rng.uniform(0.0, 10.0)
        worst = max(worst, abs(g_matrix(lam * a, set_).value - lam * g_matrix(a, set_).value))
    return _result("g_positive_homogeneity", worst, TOL_EXACT)


def check_direction_order(rng: np.random.Generator, trials: int = 1000) -> CheckResult:
    worst = -np.inf
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        set_ = _random_set(rng, d)
        a = _random_sym(rng, d)
        worst = max(
            worst, g_matrix(a, set_, "lower").value - g_matrix(a, set_, "upper").value
        )
    return _result("g_upper_ge_lower", worst, TOL_EXACT)


def check_maximizer_membership(rng: np.random.Generator, trials: int = 1000) -> CheckResult:
    failures = 0
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        set_ = _random_set(rng, d)
        a = _random_sym(rng, d)
        for direction in ("upper", "lower"):
            gv = g_matrix(a, set_, direction)
            ok = contains(set_, gv.maximizer)
            ok = ok and abs(0.5 * float(np.tensordot(a, gv.maximizer)) - gv.value) <= 1e-12
            failures += 0 if ok else 1
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
    """Grid search over the box must match the eigenvalue formula, d <= 2."""
    grid = _rotation_grid()
    worst = 0.0
    for _ in range(trials):
        if rng.uniform() < 0.3:
            set_ = _random_set(rng, 1)
            alpha = rng.normal(scale=2.0)
            levels = np.linspace(set_.sigma_lo_sq, set_.sigma_hi_sq, 41)
            brute = 0.5 * np.max(alpha * levels)
            exact = g_scalar(alpha, set_)
            scale = 1.0 + abs(alpha) * (set_.sigma_hi_sq - set_.sigma_lo_sq)
            worst = max(worst, abs(exact - brute) / scale)
        else:
            set_ = _random_set(rng, 2)
            a = _random_sym(rng, 2)
            lo, hi = set_.sigma_lo_sq, set_.sigma_hi_sq
            # tr(A (lo I + (hi-lo) K)) over the precomputed unit grid K
            traces = lo * np.trace(a) + (hi - lo) * np.einsum("kij,ij->k", grid, a)
            brute = 0.5 * float(np.max(traces))
            exact = g_matrix(a, set_).value
            if brute > exact + 1e-9:
                return CheckResult("g_bruteforce_agreement", False, brute - exact, "<= 1e-9")
            scale = (1.0 + float(np.abs(np.linalg.eigvalsh(a)).sum())) * (hi - lo + 1.0)
            worst = max(worst, (exact - brute) / scale)
    return _result("g_bruteforce_agreement", worst, 5e-3)


def _bump(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - (x / 1.5) ** 2) ** 3


def _random_ordered_problems(rng: np.random.Generator):
    """Two problems with pointwise-ordered data, compactly supported, and their grid.

    The grid has 12 steps at 0.9 times the CFL bound, so ``solve`` sweeps
    explicitly.  The support sits 14 nodes away from each edge, so in 12
    steps the explicit stencil never transports a nonzero gap into the
    boundary closures, which are not monotone (see ``hjb.BoundaryRule``), and
    the discrete comparison principle holds exactly on the whole grid.  On 3 steps (3.6 times the bound) ``solve`` sweeps
    implicitly, which reaches the edges in one step; its edge closure is
    monotone, so the principle holds there too.
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
    """Run the full cross-check suite for one configuration; ConfigError unless d = 1."""
    run = merton_run(cfg)
    market, util, cf, sol = run.market, run.utility, run.closed_form, run.solution
    set_1d, horizon, sim = run.problem.ambiguity, cfg.solver.horizon, cfg.simulation

    # The Monte Carlo leg runs first, so that its search allocates on a heap the checks
    # have not fragmented yet.  It draws from its own streams and keeps its report slot.
    path_cfg = PathConfig(n_steps=sim.n_steps, horizon=horizon,
                          n_paths=sim.n_paths, seed=sim.seed)

    def control_fn(t, x_flat):
        return run.pi_hat, 1.0 / float(cf.a_at(t))

    est = evaluate_policy_mc(run.problem, sol, set_1d, path_cfg, x0=sim.x0,
                             control_fn=control_fn,
                             n_segments=min(sim.n_segments, 2), n_grid=min(sim.n_grid, 3))

    rng = np.random.default_rng(sim.seed)
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
    n_t = suggest_time_steps(heat, -4.0, 4.0, 101)
    heat_grid = Grid1D(-4.0, 4.0, 101, n_t)
    t_bar = float(np.linspace(0.0, horizon, n_t + 1)[n_t // 2])
    results.append(_result("dpp_composition_heat",
                           dpp_composition_check(heat, heat_grid, t_bar), TOL_DPP))

    # Portfolio problem at the configured parameters.
    small_nt = suggest_time_steps(run.problem, 0.5, 2.0, 81)
    small_grid = Grid1D(0.5, 2.0, 81, small_nt)
    t_bar = float(np.linspace(0.0, horizon, small_nt + 1)[small_nt // 2])
    results.append(_result("dpp_composition_portfolio",
                           dpp_composition_check(run.problem, small_grid, t_bar), TOL_DPP))
    # 20 steps are far below this grid's explicit count (774 on the desk market): implicit.
    implicit_grid = Grid1D(0.5, 2.0, 81, 20)
    t_bar = float(np.linspace(0.0, horizon, 21)[10])
    results.append(_result("dpp_composition_portfolio_implicit",
                           dpp_composition_check(run.problem, implicit_grid, t_bar), TOL_DPP))

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

    mono_rng = np.random.default_rng(sim.seed + 3)
    violations = 0
    for _ in range(1000):
        r = mono_rng.uniform(0.0, 0.05)
        alpha = r + mono_rng.uniform(0.01, 0.1)
        gam = mono_rng.uniform(0.1, 0.5)
        kap = mono_rng.uniform(0.2, 5.0)
        if abs(kap - 1.0) < 1e-3:
            kap += 0.01
        lo_v = mono_rng.uniform(0.05, 0.5)
        hi1 = lo_v + mono_rng.uniform(0.01, 1.0)
        hi2 = hi1 + mono_rng.uniform(0.01, 1.0)
        pis_ = []
        for hi_v in (hi1, hi2):
            sset = AmbiguitySet(dim=1, sigma_lo_sq=lo_v, sigma_hi_sq=hi_v)
            lam_ = worst_case_lambda(sset, "negative", "pessimist")
            theta = (alpha - r) / gam
            pis_.append(float(theta / (kap * gam * lam_[0, 0])))
        violations += 0 if pis_[0] > pis_[1] else 1
    results.append(_result("pi_decreasing_in_ambiguity", float(violations), 0.0))

    csv_rng = np.random.default_rng(sim.seed + 4)
    mismatches = 0
    for _ in range(100):
        seed = int(csv_rng.integers(0, 2**32))
        small = PathConfig(n_steps=4, horizon=1.0, n_paths=3, seed=seed)
        sched = VolSchedule.constant(set_1d.sigma_hi_sq)
        a = bundle_csv_text(sample_gbm(set_1d, sched, small))
        b = bundle_csv_text(sample_gbm(set_1d, sched, small))
        mismatches += 0 if a == b else 1
    results.append(_result("csv_byte_stability", float(mismatches), 0.0))

    return results
