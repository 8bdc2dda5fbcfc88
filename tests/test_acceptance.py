"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline).
Expensive artifacts (desk closed form, desk PDE solve) are shared through
module fixtures; the stated runtime budgets are asserted where given.
"""

import dataclasses
import time

import numpy as np
import pytest

from gctrl import (
    AmbiguitySet,
    CrraUtility,
    Grid1D,
    HjbProblem,
    MarketModel,
    PathConfig,
    VolSchedule,
    SdeSpec,
    bundle_csv_text,
    closed_form_value,
    contains,
    dpp_composition_check,
    evaluate_policy_mc,
    g_matrix,
    g_scalar,
    merton_hjb_problem,
    moment_bound_check,
    optimal_policy,
    sample_gbm,
    solve,
    solve_A,
    solve_merton_pde,
    suggest_time_steps,
    verify_hjb_residual,
    worst_case_lambda,
)
from gctrl.merton import default_pi_levels, default_rho_levels

DESK_SET = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
DESK_MARKET = MarketModel.constant(r=0.02, alpha=0.06, gamma=0.2)
DESK_UTILITY = CrraUtility(kappa=2.0, beta=0.1)
PI_ANALYTIC = 0.5  # (alpha - r) / (kappa gamma^2 sigma_hi_sq) after branch resolution


def _line(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _gheat(terminal):
    return HjbProblem(
        drift=lambda t, x, u: 0.0 * x,
        diffusion=lambda t, x, u: 1.0 + 0.0 * x,
        running_cost=lambda t, x, u: 0.0 * x,
        terminal_cost=terminal,
        horizon=1.0,
        controls=(0.0,),
        ambiguity=DESK_SET,
        attitude="upper",
        segment_starts=(0.0,),
    )


@pytest.fixture(scope="module")
def desk_closed_form():
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    return solve_A(DESK_MARKET, DESK_UTILITY, lam, n_t=2000, horizon=1.0)


def _desk_controls(n_pi=21, n_rho=33):
    return [(float(p), float(r))
            for p in default_pi_levels(n_pi) for r in default_rho_levels(n_rho)]


@pytest.fixture(scope="module")
def desk_pde():
    """Pessimist wealth PDE at desk parameters, timed for criterion 3."""
    controls = _desk_controls()
    t0 = time.monotonic()
    problem = merton_hjb_problem(DESK_MARKET, DESK_UTILITY, DESK_SET, 1.0,
                                 "pessimist", controls)
    n_t = suggest_time_steps(problem, 0.4, 2.4, 201)
    grid = Grid1D(0.4, 2.4, 201, n_t)
    solution = solve_merton_pde(DESK_MARKET, DESK_UTILITY, DESK_SET, grid,
                                "pessimist", horizon=1.0, controls=controls)
    return problem, solution, time.monotonic() - t0


def test_criterion_1_moment_identity_upper():
    t0 = time.monotonic()
    problem = _gheat(lambda x: x**2)
    n_t = suggest_time_steps(problem, -4.0, 4.0, 401)
    sol = solve(problem, Grid1D(-4.0, 4.0, 401, n_t))
    elapsed = time.monotonic() - t0
    v00 = sol.value_at(0.0, 0.0)
    ok = abs(v00 - 1.0) <= 1e-2 and elapsed < 10.0
    assert _line(1, "moment identity, upper", ok,
                 f"V(0,0)={v00:.6f} target 1.00 +- 0.01, runtime {elapsed:.2f}s < 10s")


def test_criterion_2_moment_identity_lower():
    problem = _gheat(lambda x: -(x**2))
    n_t = suggest_time_steps(problem, -4.0, 4.0, 401)
    sol = solve(problem, Grid1D(-4.0, 4.0, 401, n_t))
    v00 = sol.value_at(0.0, 0.0)
    ok = abs(v00 - (-0.25)) <= 1e-2
    assert _line(2, "moment identity, lower", ok, f"V(0,0)={v00:.6f} target -0.25 +- 0.01")


def test_criterion_3_merton_three_way(desk_closed_form, desk_pde):
    cf = desk_closed_form
    problem, sol, solve_seconds = desk_pde
    t0 = time.monotonic()

    lo_i, hi_i = 201 // 10, 201 - 201 // 10
    closed = np.asarray([closed_form_value(cf, DESK_UTILITY, 0.0, xv) for xv in sol.x])
    rel = np.abs(sol.values[0] - closed) / np.abs(closed)
    max_rel = float(np.max(rel[lo_i:hi_i]))
    ok_a = max_rel <= 0.02

    pis = np.asarray([sol.controls[j][0] for j in sol.policy[0]])
    pi_err = float(np.max(np.abs(pis[lo_i:hi_i] - PI_ANALYTIC)))
    ok_b = pi_err <= 0.05

    pol = optimal_policy(cf, DESK_MARKET, DESK_UTILITY, DESK_SET)
    pi_hat = float(pol.portfolio(0.0, 1.0)[0])

    def control_fn(t, x_flat):
        return pi_hat, 1.0 / float(cf.a_at(t))

    cfg = PathConfig(n_steps=400, horizon=1.0, n_paths=4000, seed=90210)
    est = evaluate_policy_mc(problem, sol, DESK_SET, cfg, x0=1.0,
                             control_fn=control_fn, n_segments=2, n_grid=3)
    v_closed = closed_form_value(cf, DESK_UTILITY, 0.0, 1.0)
    mc_rel = abs(est.value - v_closed) / abs(v_closed)
    ok_c = mc_rel <= 0.05

    elapsed = solve_seconds + (time.monotonic() - t0)
    ok = ok_a and ok_b and ok_c and elapsed < 60.0
    assert _line(
        3, "portfolio three-way agreement", ok,
        f"pde-vs-closed {max_rel:.4f}<=0.02, pi gap {pi_err:.4f}<=0.05, "
        f"mc-vs-closed {mc_rel:.4f}<=0.05, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_4_residual_oracle(desk_closed_form):
    cf = desk_closed_form
    rng = np.random.default_rng(404)
    pts = list(zip(rng.uniform(0.01, 0.99, 100), rng.uniform(0.3, 3.0, 100)))
    resid = verify_hjb_residual(cf, DESK_MARKET, DESK_UTILITY, DESK_SET, pts)
    bad = dataclasses.replace(cf, a_values=cf.a_values * 1.01)
    resid_bad = verify_hjb_residual(bad, DESK_MARKET, DESK_UTILITY, DESK_SET, pts)
    ok = resid <= 1e-6 and resid_bad > 1e-3
    assert _line(4, "residual oracle", ok,
                 f"resolved branch {cf.resolved_branch}: residual {resid:.2e}<=1e-6, "
                 f"perturbed {resid_bad:.2e}>1e-3")


def test_criterion_5_degenerate_ambiguity_regression():
    set_ = AmbiguitySet(dim=1, sigma_lo_sq=1.0, sigma_hi_sq=1.0)
    controls = _desk_controls(n_pi=21, n_rho=25)
    problem = merton_hjb_problem(DESK_MARKET, DESK_UTILITY, set_, 1.0, "pessimist", controls)
    n_t = suggest_time_steps(problem, 0.4, 2.4, 201)
    grid = Grid1D(0.4, 2.4, 201, n_t)
    pess = solve_merton_pde(DESK_MARKET, DESK_UTILITY, set_, grid, "pessimist",
                            horizon=1.0, controls=controls)
    opt = solve_merton_pde(DESK_MARKET, DESK_UTILITY, set_, grid, "optimist",
                           horizon=1.0, controls=controls)
    gap = float(np.max(np.abs(pess.values - opt.values)))

    # classical closed form with effective volatility gamma * sigma
    theta_c = (0.06 - 0.02) / (0.2 * 1.0)
    eta_c = 0.1 - (1 - 2.0) * 0.02 - (1 - 2.0) / (2 * 2.0) * theta_c**2
    a0 = 2.0 / eta_c + (1 - 2.0 / eta_c) * np.exp(-(eta_c / 2.0) * 1.0)
    lo_i, hi_i = 201 // 10, 201 - 201 // 10
    x_win = pess.x[lo_i:hi_i]
    v_classical = a0**2 * x_win ** (-1.0) / (-1.0)
    rel = float(np.max(np.abs(pess.values[0][lo_i:hi_i] - v_classical) / np.abs(v_classical)))

    ok = gap <= 1e-10 and rel <= 0.02
    assert _line(5, "degenerate-ambiguity regression", ok,
                 f"pessimist-optimist gap {gap:.2e}<=1e-10, classical rel err {rel:.4f}<=0.02")


def test_criterion_6_dpp_composition():
    heat = _gheat(lambda x: x**2)
    n_t = suggest_time_steps(heat, -4.0, 4.0, 101)
    heat_grid = Grid1D(-4.0, 4.0, 101, n_t)
    t_bar = float(np.linspace(0.0, 1.0, n_t + 1)[n_t // 2])
    gap_heat = dpp_composition_check(heat, heat_grid, t_bar)

    controls = _desk_controls(n_pi=11, n_rho=15)
    merton_prob = merton_hjb_problem(DESK_MARKET, DESK_UTILITY, DESK_SET, 1.0,
                                     "pessimist", controls)
    n_t_m = suggest_time_steps(merton_prob, 0.5, 2.0, 81)
    merton_grid = Grid1D(0.5, 2.0, 81, n_t_m)
    t_bar_m = float(np.linspace(0.0, 1.0, n_t_m + 1)[n_t_m // 2])
    gap_merton = dpp_composition_check(merton_prob, merton_grid, t_bar_m)

    ok = gap_heat <= 1e-10 and gap_merton <= 1e-10
    assert _line(6, "dynamic-programming composition", ok,
                 f"heat gap {gap_heat:.2e}, portfolio gap {gap_merton:.2e}, both <= 1e-10")


def _random_sym(rng, d):
    a = rng.normal(size=(d, d))
    return 0.5 * (a + a.T)


def _rotated_stack(n_angles=128, n_levels=17):
    angles = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    levels = np.linspace(0.0, 1.0, n_levels)
    c, s = np.cos(angles), np.sin(angles)
    rots = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    v1, v2 = np.meshgrid(levels, levels, indexing="ij")
    diags = np.zeros((n_levels * n_levels, 2, 2))
    diags[:, 0, 0] = v1.ravel()
    diags[:, 1, 1] = v2.ravel()
    return np.einsum("aij,djk,alk->adil", rots, diags, rots).reshape(-1, 2, 2)


def _ordered_problem_pair(rng):
    """Compactly supported ordered data: the comparison principle is exact."""
    lo = rng.uniform(0.1, 0.8)
    hi = lo + rng.uniform(0.0, 0.8)
    set_ = AmbiguitySet(dim=1, sigma_lo_sq=lo, sigma_hi_sq=hi)
    controls = tuple(rng.uniform(-1.0, 1.0, size=3))
    c0, c1 = rng.uniform(-0.7, 0.7, size=2)
    g0, g1 = rng.uniform(0.3, 1.0), rng.uniform(-0.2, 0.2)
    a1, b1, s1 = rng.uniform(-1.0, 1.0, size=3)
    a2, b2 = rng.uniform(-1.0, 1.0, size=2)
    s2, p2 = rng.uniform(0.2, 1.0), rng.uniform(0.0, 2 * np.pi)
    beta = rng.uniform(0.0, 0.5)
    direction = "maximize" if rng.uniform() < 0.5 else "minimize"
    attitude = "upper" if rng.uniform() < 0.5 else "lower"

    def bump(x):
        return np.maximum(0.0, 1.0 - (x / 1.5) ** 2) ** 3

    common = dict(
        drift=lambda t, x, u: (c0 + c1 * u) + 0.0 * x,
        diffusion=lambda t, x, u: (g0 + g1 * u) + 0.0 * x,
        controls=controls,
        ambiguity=set_,
        discount=beta,
        opt_direction=direction,
        attitude=attitude,
        segment_starts=(0.0,),
    )
    grid = Grid1D(-5.0, 5.0, 41, 12)
    probe = HjbProblem(
        running_cost=lambda t, x, u: 0.0 * x, terminal_cost=lambda x: 0.0 * x,
        horizon=1.0, **common,
    )
    from gctrl import max_stable_dt

    horizon = 0.9 * max_stable_dt(probe, grid) * 12

    low = HjbProblem(
        running_cost=lambda t, x, u: bump(x) * (a1 * np.sin(2 * x) + b1 * u),
        terminal_cost=lambda x: bump(x) * (a2 * np.sin(3 * x) + b2 * np.cos(2 * x)),
        horizon=horizon, **common,
    )
    high = HjbProblem(
        running_cost=lambda t, x, u: bump(x) * (a1 * np.sin(2 * x) + b1 * u + abs(s1)),
        terminal_cost=lambda x: bump(x) * (a2 * np.sin(3 * x) + b2 * np.cos(2 * x)
                                           + s2 * (1.1 + np.sin(2 * x + p2))),
        horizon=horizon, **common,
    )
    return low, high, grid


def test_criterion_7_property_suites(desk_closed_form):
    trials = 1000
    failures = {}

    rng = np.random.default_rng(777)
    worst_sub, worst_hom, worst_ord, member_bad = -np.inf, 0.0, -np.inf, 0
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        set_ = AmbiguitySet(dim=d, sigma_lo_sq=rng.uniform(0.05, 1.0),
                            sigma_hi_sq=1.0 + rng.uniform(0.0, 2.0))
        a, b = _random_sym(rng, d), _random_sym(rng, d)
        worst_sub = max(worst_sub, g_matrix(a + b, set_).value
                        - g_matrix(a, set_).value - g_matrix(b, set_).value)
        lam = rng.uniform(0.0, 10.0)
        worst_hom = max(worst_hom, abs(g_matrix(lam * a, set_).value
                                       - lam * g_matrix(a, set_).value))
        worst_ord = max(worst_ord, g_matrix(a, set_, "lower").value
                        - g_matrix(a, set_, "upper").value)
        for direction in ("upper", "lower"):
            gv = g_matrix(a, set_, direction)
            achieved = 0.5 * float(np.sum(a * gv.maximizer))
            if not (contains(set_, gv.maximizer) and abs(achieved - gv.value) <= 1e-12):
                member_bad += 1
    failures["sub-additivity"] = int(worst_sub > 1e-12)
    failures["positive homogeneity"] = int(worst_hom > 1e-12)
    failures["upper >= lower"] = int(worst_ord > 1e-12)
    failures["maximizer membership"] = member_bad

    stack = _rotated_stack()
    brute_bad = 0
    for _ in range(trials):
        if rng.uniform() < 0.3:
            set_ = AmbiguitySet(dim=1, sigma_lo_sq=rng.uniform(0.1, 0.9),
                                sigma_hi_sq=1.0 + rng.uniform(0.0, 1.0))
            alpha = rng.normal(scale=2.0)
            levels = np.linspace(set_.sigma_lo_sq, set_.sigma_hi_sq, 41)
            brute = 0.5 * float(np.max(alpha * levels))
            if abs(g_scalar(alpha, set_) - brute) > 1e-12:
                brute_bad += 1
        else:
            set_ = AmbiguitySet(dim=2, sigma_lo_sq=rng.uniform(0.1, 0.9),
                                sigma_hi_sq=1.0 + rng.uniform(0.0, 1.0))
            a = _random_sym(rng, 2)
            lo, hi = set_.sigma_lo_sq, set_.sigma_hi_sq
            traces = lo * np.trace(a) + (hi - lo) * np.einsum("kij,ij->k", stack, a)
            brute = 0.5 * float(np.max(traces))
            exact = g_matrix(a, set_).value
            scale = (1.0 + float(np.abs(np.linalg.eigvalsh(a)).sum())) * (hi - lo + 1.0)
            if brute > exact + 1e-9 or (exact - brute) > 5e-3 * scale:
                brute_bad += 1
    failures["brute-force agreement d<=2"] = brute_bad

    comp_bad = 0
    comp_rng = np.random.default_rng(778)
    for _ in range(trials):
        low, high, grid = _ordered_problem_pair(comp_rng)
        v_low = solve(low, grid).values
        v_high = solve(high, grid).values
        if np.max(v_low - v_high) > 1e-12:
            comp_bad += 1
    failures["comparison principle"] = comp_bad

    pol = optimal_policy(desk_closed_form, DESK_MARKET, DESK_UTILITY, DESK_SET)
    w_rng = np.random.default_rng(779)
    weight_bad = 0
    for _ in range(trials):
        w1, w2, _ = pol.fund_weights(w_rng.uniform(0.0, 1.0), w_rng.uniform(0.1, 10.0))
        if w1 + w2 != 1.0:
            weight_bad += 1
    failures["fund weights sum to one"] = weight_bad

    mono_rng = np.random.default_rng(780)
    mono_bad = 0
    for _ in range(trials):
        r = mono_rng.uniform(0.0, 0.05)
        alpha = r + mono_rng.uniform(0.01, 0.1)
        gam = mono_rng.uniform(0.1, 0.5)
        kap = mono_rng.uniform(0.2, 5.0)
        kap = kap + 0.02 if abs(kap - 1.0) < 1e-2 else kap
        lo_v = mono_rng.uniform(0.05, 0.5)
        hi1 = lo_v + mono_rng.uniform(0.01, 1.0)
        hi2 = hi1 + mono_rng.uniform(0.01, 1.0)
        pi1 = (alpha - r) / (kap * gam**2 * hi1)
        pi2 = (alpha - r) / (kap * gam**2 * hi2)
        mono_bad += 0 if pi1 > pi2 else 1
    failures["portfolio decreasing in ambiguity"] = mono_bad

    csv_rng = np.random.default_rng(781)
    csv_bad = 0
    for _ in range(trials):
        seed = int(csv_rng.integers(0, 2**63))
        cfg = PathConfig(n_steps=3, horizon=1.0, n_paths=2, seed=seed)
        sched = VolSchedule.constant(DESK_SET.sigma_hi_sq)
        a = bundle_csv_text(sample_gbm(DESK_SET, sched, cfg))
        b = bundle_csv_text(sample_gbm(DESK_SET, sched, cfg))
        csv_bad += 0 if a == b else 1
    failures["csv byte stability"] = csv_bad

    total = sum(failures.values())
    ok = total == 0
    detail = ", ".join(f"{k}: {v}" for k, v in failures.items())
    assert _line(7, f"property suites ({trials} trials each)", ok,
                 f"failures {{{detail}}}")


def test_criterion_8_moment_scaling():
    spec = SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: -x,
        diffusion=lambda t, x, u: 1.0,
        initial_state=[1.0],
    )
    cfg = PathConfig(n_steps=256, horizon=1.0, n_paths=4000, seed=808)
    slopes = []
    report = moment_bound_check(spec, DESK_SET, cfg, ell=2)
    slopes.append(report.holder_slope)
    for level in (DESK_SET.sigma_lo_sq, DESK_SET.sigma_hi_sq):
        single = AmbiguitySet(dim=1, sigma_lo_sq=level, sigma_hi_sq=level)
        slopes.append(moment_bound_check(spec, single, cfg, ell=2).holder_slope)
    k_fit = report.sup_moment / (1.0 + 1.0**2)
    ok = all(0.9 <= s <= 1.1 for s in slopes) and np.isfinite(k_fit) and k_fit < 10.0
    assert _line(8, "pathwise moment scaling", ok,
                 f"slopes {[f'{s:.3f}' for s in slopes]} in [0.9,1.1], K={k_fit:.3f} finite")
