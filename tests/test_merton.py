"""Robust consumption-portfolio: closed forms, residual oracle, PDE agreement."""

import dataclasses
import math

import numpy as np
import pytest

from gctrl import (
    AmbiguitySet,
    CrraUtility,
    Grid1D,
    MarketModel,
    VolSchedule,
    closed_form_value,
    eta,
    market_price_of_risk,
    merton_hjb_problem,
    optimal_policy,
    max_stable_dt,
    solve,
    solve_A,
    solve_merton_pde,
    suggest_time_steps,
    verify_hjb_residual,
    worst_case_lambda,
)
from gctrl.merton import control_grid

DESK_MARKET = MarketModel.constant(r=0.02, alpha=0.06, gamma=0.2)
DESK_UTILITY = CrraUtility(kappa=2.0, beta=0.1)
DESK_SET = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=1.0)

# frozen from the affine-exponential solution with kappa=2, eta=0.13, T=1
DESK_A0 = 1.9052603344942742
DESK_V01 = -3.630016942197234


def desk_closed_form(n_t=2000):
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    return solve_A(DESK_MARKET, DESK_UTILITY, lam, n_t=n_t, horizon=1.0)


def piecewise_a(market, lam, t, horizon=1.0):
    """A(t) in plain floats: A_end e^(-e tau) - expm1(-e tau) / e per segment, from A(T) = 1."""
    starts = tuple(s for s in market.segment_starts if s < horizon)
    a = 1.0
    for s, end in reversed(list(zip(starts, starts[1:] + (horizon,)))):
        e = eta(market, DESK_UTILITY, lam, s) / DESK_UTILITY.kappa
        tau = end - max(s, t)
        a = a * math.exp(-e * tau) - math.expm1(-e * tau) / e
        if s <= t:
            return a


def test_market_price_of_risk_scalar():
    assert market_price_of_risk(DESK_MARKET, 0.0) == pytest.approx([0.2], abs=1e-15)


def test_market_price_of_risk_no_excess_return():
    m = MarketModel.constant(r=0.03, alpha=0.03, gamma=0.5)
    assert market_price_of_risk(m, 0.0) == pytest.approx([0.0], abs=0.0)


def test_market_price_of_risk_identity_loading():
    m = MarketModel.constant(r=0.0, alpha=[0.1, -0.1], gamma=np.eye(2))
    assert market_price_of_risk(m, 0.5) == pytest.approx([0.1, -0.1], abs=0.0)


def test_worst_case_matrix_against_grid_oracle():
    # brute force: extremize 0.5 * vxx * tr(L M) with M = pi pi' PSD, vxx = -1
    rng = np.random.default_rng(3)
    set2 = AmbiguitySet(dim=2, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
    levels = np.linspace(0.25, 1.0, 9)
    for _ in range(20):
        pi = rng.normal(size=2)
        m = np.outer(pi, pi)
        vals = {}
        for v1 in levels:
            for v2 in levels:
                lam = np.diag([v1, v2])
                vals[(v1, v2)] = 0.5 * -1.0 * np.trace(lam @ m)
        inf_attained = min(vals.values())
        sup_attained = max(vals.values())
        lam_p = worst_case_lambda(set2, "negative", "pessimist")
        lam_o = worst_case_lambda(set2, "negative", "optimist")
        assert 0.5 * -1.0 * np.trace(lam_p @ m) == pytest.approx(inf_attained, abs=1e-12)
        assert 0.5 * -1.0 * np.trace(lam_o @ m) == pytest.approx(sup_attained, abs=1e-12)


def test_worst_case_matrix_levels():
    assert np.allclose(worst_case_lambda(DESK_SET, "negative", "pessimist"), [[1.0]])
    assert np.allclose(worst_case_lambda(DESK_SET, "negative", "optimist"), [[0.25]])
    assert np.allclose(worst_case_lambda(DESK_SET, "positive", "pessimist"), [[0.25]])
    assert np.allclose(worst_case_lambda(DESK_SET, "positive", "optimist"), [[1.0]])
    degenerate = AmbiguitySet(dim=1, sigma_lo_sq=0.49, sigma_hi_sq=0.49)
    assert np.array_equal(
        worst_case_lambda(degenerate, "negative", "pessimist"),
        worst_case_lambda(degenerate, "negative", "optimist"),
    )


def test_eta_desk_value():
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    # beta + (kappa-1) r + ((kappa-1)/(2 kappa)) theta^2 / lambda = 0.1+0.02+0.01
    assert eta(DESK_MARKET, DESK_UTILITY, lam, 0.0) == pytest.approx(0.13, abs=1e-15)


def test_eta_all_terms_vanish():
    m = MarketModel.constant(r=0.0, alpha=0.0, gamma=0.3)
    u = CrraUtility(kappa=3.0, beta=0.0)
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    assert eta(m, u, lam, 0.0) == 0.0


def test_eta_kappa_below_one_flips_signs():
    u = CrraUtility(kappa=0.5, beta=0.1)
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    expected = 0.1 - 0.5 * 0.02 - 0.5 * (0.2**2 / 1.0)
    assert eta(DESK_MARKET, u, lam, 0.0) == pytest.approx(expected, abs=1e-15)


def test_solve_a_terminal_value_exact():
    cf = desk_closed_form()
    assert cf.a_values[-1] == 1.0


def test_solve_a_fixed_point_when_eta_equals_kappa():
    # eta == kappa turns the backward flow into A' = A - 1 with A(T) = 1
    m = MarketModel.constant(r=0.0, alpha=0.0, gamma=0.2)
    u = CrraUtility(kappa=2.0, beta=2.0)
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    assert eta(m, u, lam, 0.0) == 2.0
    cf = solve_A(m, u, lam, n_t=64, horizon=1.0)
    assert np.max(np.abs(cf.a_values - 1.0)) <= 1e-12


def test_solve_a_desk_value_and_richardson():
    cf = desk_closed_form(n_t=2000)
    fine = desk_closed_form(n_t=4000)
    assert cf.a_values[0] == pytest.approx(fine.a_values[0], abs=1e-8)
    assert cf.a_values[0] == pytest.approx(DESK_A0, abs=1e-10)
    assert cf.resolved_branch == "affine-exp"


def test_solve_a_branch_matches_integration_uniformly():
    cf = desk_closed_form()
    kappa, eta_c, T = 2.0, 0.13, 1.0
    ratio = kappa / eta_c
    analytic = ratio + (1.0 - ratio) * np.exp(-(eta_c / kappa) * (T - cf.times))
    assert np.max(np.abs(cf.a_values / analytic - 1.0)) <= 1e-13


@pytest.mark.parametrize("start, n_t", [(0.5, 400), (5 / 6, 2000)])
def test_solve_a_meets_the_piecewise_formula_across_a_segment_start(start, n_t):
    # The start lies on a step at (0.5, 400) and inside one at (5/6, 2000).
    market = MarketModel((0.0, start), (0.02, 0.02), (0.06, 0.10), (0.2, 0.3))
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    cf = solve_A(market, DESK_UTILITY, lam, n_t=n_t, horizon=1.0)
    assert cf.resolved_branch == "ode-only"
    ref = np.array([piecewise_a(market, lam, float(t)) for t in cf.times])
    assert np.max(np.abs(cf.a_values / ref - 1.0)) <= 1e-13


def test_solve_a_eta_zero_limit():
    m = MarketModel.constant(r=0.0, alpha=0.0, gamma=0.2)
    u = CrraUtility(kappa=2.0, beta=0.0)
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    cf = solve_A(m, u, lam, n_t=100, horizon=1.0)
    assert cf.resolved_branch == "linear-limit"
    assert np.max(np.abs(cf.a_values - (1.0 - cf.times + 1.0))) <= 1e-10


def test_solve_a_tiny_eta_still_resolves():
    # kappa/eta ~ 2e7 stresses the candidate evaluation with cancellation
    m = MarketModel.constant(r=0.0, alpha=0.0, gamma=0.2)
    u = CrraUtility(kappa=2.0, beta=1e-7)
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    cf = solve_A(m, u, lam, n_t=200, horizon=1.0)
    assert cf.resolved_branch == "affine-exp"
    assert np.max(np.abs(cf.a_values - (2.0 - cf.times))) <= 1e-6


def test_attitude_ordering_pessimist_below_optimist():
    pess = _desk_pde("pessimist", n_pi=11, n_rho=11, n_x=81)
    opt = _desk_pde("optimist", n_pi=11, n_rho=11, n_x=81)
    assert np.max(pess.values - opt.values) <= 1e-12


def test_closed_form_value_examples():
    cf = desk_closed_form()
    x = 1.7
    assert closed_form_value(cf, DESK_UTILITY, 1.0, x) == pytest.approx(
        DESK_UTILITY.utility(x), abs=1e-12
    )
    assert closed_form_value(cf, DESK_UTILITY, 0.0, 1.0) == pytest.approx(DESK_V01, abs=1e-9)
    # homothety: value(t, s x) = s^(1-kappa) value(t, x)
    for s in (0.5, 2.0, 3.7):
        assert closed_form_value(cf, DESK_UTILITY, 0.3, s * 1.1) == pytest.approx(
            s ** (1.0 - 2.0) * closed_form_value(cf, DESK_UTILITY, 0.3, 1.1), rel=1e-12
        )
    with pytest.raises(ValueError):
        closed_form_value(cf, DESK_UTILITY, 0.5, -1.0)


def test_crra_utility_inverse_marginal_identity():
    for kappa in (0.5, 2.0, 3.5):
        u = CrraUtility(kappa=kappa, beta=0.0)
        for y in np.logspace(-2, 2, 9):
            assert u.marginal(u.inverse_marginal(y)) == pytest.approx(y, rel=1e-12)
    with pytest.raises(ValueError):
        CrraUtility(kappa=1.0, beta=0.0)
    with pytest.raises(ValueError):
        CrraUtility(kappa=-0.5, beta=0.0)


def test_utility_growth_bound_sampled():
    for kappa in (0.5, 0.9, 2.0, 4.0):
        u = CrraUtility(kappa=kappa, beta=0.0)
        k_bound = max(1.0, abs(float(u.utility(1.0))))
        y = np.linspace(1e-6, 100.0, 10_000)
        assert np.all(u.utility(y) <= k_bound * (1.0 + y) + 1e-12)


def test_optimal_policy_desk_values():
    cf = desk_closed_form()
    pol = optimal_policy(cf, DESK_MARKET, DESK_UTILITY, DESK_SET)
    # (alpha - r) / (kappa gamma^2 sigma_hi_sq) = 0.04 / (2*0.04*1)
    assert pol.portfolio(0.0, 1.0) == pytest.approx([0.5], abs=1e-12)
    w1, w2, fund = pol.fund_weights(0.3, 2.0)
    assert w2 == pytest.approx(0.5, abs=0.0)
    assert w1 + w2 == 1.0
    assert fund == pytest.approx([1.0], abs=1e-12)
    # portfolio = risky weight times the risky fund
    assert pol.portfolio(0.3, 2.0) == pytest.approx(w2 * fund, abs=1e-15)


def test_risky_fund_is_solved_once_per_segment_with_the_per_call_bits(monkeypatch):
    # Two segments of a two-asset market; the times alternate between them.
    from gctrl import merton

    set_ = AmbiguitySet(dim=2, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
    market = MarketModel((0.0, 0.5), (0.02, 0.03), ([0.06, 0.05], [0.09, 0.02]),
                         ([[0.2, 0.05], [0.0, 0.3]], [[0.3, 0.0], [0.1, 0.25]]))
    lam = worst_case_lambda(set_, "negative", "pessimist")
    cf = solve_A(market, DESK_UTILITY, lam, n_t=40, horizon=1.0)
    calls = []
    monkeypatch.setattr(merton, "market_price_of_risk",
                        lambda m, t: calls.append(t) or market_price_of_risk(m, t))
    pol = optimal_policy(cf, market, DESK_UTILITY, set_)
    for t in (0.7, 0.1, 0.5, 0.0, 0.99, 0.3, 0.5):
        w1, w2, fund = pol.fund_weights(t, 1.0)
        per_call = np.linalg.solve(market.at(t)[2].T,
                                   np.linalg.solve(lam, market_price_of_risk(market, t)))
        assert fund.tobytes() == per_call.tobytes() and not fund.flags.writeable
        assert pol.portfolio(t, 2.0).tobytes() == (w2 * per_call).tobytes()
    assert calls == [0.7, 0.1]


def test_consumption_ratio_independent_of_wealth():
    cf = desk_closed_form()
    pol = optimal_policy(cf, DESK_MARKET, DESK_UTILITY, DESK_SET)
    for t in (0.0, 0.4, 0.9):
        ratios = [pol.consumption(t, x) / x for x in (0.5, 1.0, 2.0)]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-14)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-14)
        assert ratios[1] == pytest.approx(1.0 / float(cf.a_at(t)), rel=1e-14)


def test_portfolio_decreasing_in_upper_variance():
    pis = []
    for hi in (1.0, 2.0):
        set_ = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=hi)
        lam = worst_case_lambda(set_, "negative", "pessimist")
        cf = solve_A(DESK_MARKET, DESK_UTILITY, lam, n_t=8, horizon=1.0)
        pol = optimal_policy(cf, DESK_MARKET, DESK_UTILITY, set_)
        pis.append(float(pol.portfolio(0.0, 1.0)[0]))
    assert pis[0] > pis[1]


def test_residual_small_on_resolved_branch():
    cf = desk_closed_form()
    rng = np.random.default_rng(7)
    pts = list(zip(rng.uniform(0.01, 0.99, 100), rng.uniform(0.3, 3.0, 100)))
    assert verify_hjb_residual(cf, DESK_MARKET, DESK_UTILITY, DESK_SET, pts) <= 1e-6


def test_residual_detects_perturbed_curve():
    cf = desk_closed_form()
    rng = np.random.default_rng(8)
    pts = list(zip(rng.uniform(0.01, 0.99, 100), rng.uniform(0.3, 3.0, 100)))
    bad = dataclasses.replace(cf, a_values=cf.a_values * 1.01)
    assert verify_hjb_residual(bad, DESK_MARKET, DESK_UTILITY, DESK_SET, pts) > 1e-3


def test_a_prime_at_differentiates_the_stored_samples():
    desk = desk_closed_form()
    for scale in (1.0, 1.01):
        cf = dataclasses.replace(desk, a_values=desk.a_values * scale)
        a, t = cf.a_values, cf.times
        dt = t[1] - t[0]
        # central differences at every interior sample time, bit for bit
        assert np.array_equal(cf.a_prime_at(t[1:-1]), (a[2:] - a[:-2]) / (2.0 * dt))
        # one-sided second-order differences at t = 0 and t = T
        ends = [(-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * dt),
                (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * dt)]
        assert cf.a_prime_at(np.array([0.0, cf.horizon])) == pytest.approx(ends, rel=1e-11,
                                                                           abs=0.0)
        bumped = a.copy()
        bumped[1000] += 1e-6
        moved = dataclasses.replace(cf, a_values=bumped).a_prime_at(t[[999, 1001]])
        assert np.all(moved != cf.a_prime_at(t[[999, 1001]]))


def test_residual_rejects_non_inverted_quadratic_form():
    # with sigma_hi_sq = 4 the two quadratic-form variants differ by a factor 16
    market = MarketModel.constant(r=0.02, alpha=0.06, gamma=0.2)
    set_ = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=4.0)
    lam = worst_case_lambda(set_, "negative", "pessimist")
    cf = solve_A(market, DESK_UTILITY, lam, n_t=2000, horizon=1.0)
    rng = np.random.default_rng(9)
    pts = list(zip(rng.uniform(0.01, 0.99, 100), rng.uniform(0.3, 3.0, 100)))
    assert verify_hjb_residual(cf, market, DESK_UTILITY, set_, pts) <= 1e-6

    # In d = 1 the non-inverted eta at lam is the inverted eta at 1 / lam.
    wrong = solve_A(market, DESK_UTILITY, 1.0 / lam, n_t=2000, horizon=1.0)
    bad = dataclasses.replace(cf, a_values=wrong.a_values, eta=wrong.eta)
    assert verify_hjb_residual(bad, market, DESK_UTILITY, set_, pts) > 1e-3


def test_residual_theta_zero_linear_curve():
    m = MarketModel.constant(r=0.0, alpha=0.0, gamma=0.2)
    u = CrraUtility(kappa=2.0, beta=0.0)
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    cf = solve_A(m, u, lam, n_t=400, horizon=1.0)
    rng = np.random.default_rng(10)
    pts = list(zip(rng.uniform(0.01, 0.99, 100), rng.uniform(0.3, 3.0, 100)))
    assert verify_hjb_residual(cf, m, u, DESK_SET, pts) <= 1e-8


def test_residual_rejects_points_outside_domain():
    cf = desk_closed_form()
    with pytest.raises(ValueError):
        verify_hjb_residual(cf, DESK_MARKET, DESK_UTILITY, DESK_SET, [(1.5, 1.0)])
    with pytest.raises(ValueError):
        verify_hjb_residual(cf, DESK_MARKET, DESK_UTILITY, DESK_SET, [(0.5, -1.0)])


def _desk_pde(attitude="pessimist", set_=DESK_SET, n_pi=21, n_rho=33, n_x=201):
    controls = control_grid(n_pi, n_rho)
    problem = merton_hjb_problem(DESK_MARKET, DESK_UTILITY, set_, 1.0, attitude, controls)
    return solve(problem, Grid1D(0.4, 2.4, n_x, 200))


def test_degenerate_set_pessimist_equals_optimist_and_classical():
    set_ = AmbiguitySet(dim=1, sigma_lo_sq=1.0, sigma_hi_sq=1.0)
    pess = _desk_pde("pessimist", set_=set_, n_pi=21, n_rho=25)
    opt = _desk_pde("optimist", set_=set_, n_pi=21, n_rho=25)
    assert np.max(np.abs(pess.values - opt.values)) <= 1e-10

    # classical frictionless solution with effective volatility gamma * sigma
    sigma_eff = 0.2 * 1.0
    theta_c = (0.06 - 0.02) / sigma_eff
    eta_c = 0.1 - (1 - 2.0) * 0.02 - (1 - 2.0) / (2 * 2.0) * theta_c**2
    a0_classical = 2.0 / eta_c + (1 - 2.0 / eta_c) * np.exp(-(eta_c / 2.0) * 1.0)
    n_x = len(pess.x)
    lo_i, hi_i = n_x // 10, n_x - n_x // 10
    x_win = pess.x[lo_i:hi_i]
    v_classical = a0_classical**2 * x_win ** (1 - 2.0) / (1 - 2.0)
    rel = np.abs(pess.values[0][lo_i:hi_i] - v_classical) / np.abs(v_classical)
    assert np.max(rel) <= 0.02


def test_wealth_grid_must_avoid_zero():
    with pytest.raises(ValueError, match="x_min"):
        solve_merton_pde(DESK_MARKET, DESK_UTILITY, DESK_SET,
                         Grid1D(-0.5, 2.0, 51, 100), "pessimist", horizon=1.0)


def test_default_control_grid_requires_scalar_market():
    m2 = MarketModel.constant(r=0.02, alpha=[0.06, 0.05], gamma=np.eye(2) * 0.2)
    with pytest.raises(ValueError, match="controls"):
        merton_hjb_problem(m2, DESK_UTILITY, DESK_SET, 1.0, "pessimist")


def test_piecewise_market_lookup():
    m = MarketModel(
        segment_starts=(0.0, 0.5),
        r=(0.01, 0.03),
        alpha=((0.05,), (0.07,)),
        gamma=(((0.2,),), ((0.3,),)),
    )
    assert m.at(0.25)[0] == 0.01 and m.at(0.75)[0] == 0.03
    assert m.at(0.6)[1][0] == 0.07
    assert m.at(0.1)[2][0, 0] == 0.2
    assert m.segment_starts == (0.0, 0.5)


def _segmented(gammas, starts=(0.0, 0.51, 0.52)):
    n = len(starts)
    return MarketModel(starts, (0.02,) * n, ((0.06,),) * n,
                       tuple(((g,),) for g in gammas))


def test_cfl_bound_exact_for_piecewise_market():
    # The 0.6 segment is 0.01 long: no level of a coarse probe or of a
    # 33-point sample of [0, 1] falls in it.
    gammas = (0.2, 0.6, 0.2)
    controls = control_grid(3, 3)
    problem = merton_hjb_problem(_segmented(gammas), DESK_UTILITY, DESK_SET, 1.0,
                                 "pessimist", controls)
    probe = Grid1D(0.4, 2.4, 51, 1)
    per_segment = [
        max_stable_dt(merton_hjb_problem(MarketModel.constant(0.02, 0.06, g), DESK_UTILITY,
                                         DESK_SET, 1.0, "pessimist", controls), probe)
        for g in gammas
    ]
    assert max_stable_dt(problem, probe) == min(per_segment)
    n_t = suggest_time_steps(problem, 0.4, 2.4, 51)
    solve(problem, Grid1D(0.4, 2.4, 51, n_t))


def test_identical_segments_match_constant_market(monkeypatch):
    from gctrl import hjb

    controls = control_grid(5, 5)
    const, twin = (merton_hjb_problem(m, DESK_UTILITY, DESK_SET, 1.0, "pessimist", controls)
                   for m in (DESK_MARKET, _segmented((0.2, 0.2), starts=(0.0, 0.5))))
    grid = Grid1D(0.4, 2.4, 51, suggest_time_steps(const, 0.4, 2.4, 51))
    calls = []
    tables = hjb._tables

    def counted(problem, x, t):
        calls.append(t)
        return tables(problem, x, t)

    monkeypatch.setattr(hjb, "_tables", counted)
    a = solve(const, grid)
    assert calls == [0.0]
    b = solve(twin, grid)
    assert calls == [0.0, 0.0, 0.5]
    assert a.values.tobytes() == b.values.tobytes()
    assert a.policy.tobytes() == b.policy.tobytes()


def test_singular_gamma_raises():
    with pytest.raises(ValueError, match="positive definite"):
        MarketModel.constant(0.0, [0.05, 0.05], [[1.0, 1.0], [1.0, 1.0]])


def test_market_keeps_its_own_copy_of_the_coefficients():
    gamma = np.array([[0.2]])
    m = MarketModel.constant(0.02, 0.06, gamma)
    gamma[0, 0] = 0.0
    assert m.at(0.0)[2][0, 0] == 0.2


def test_market_model_checks_segment_starts():
    for starts in (None, (0.5,), (0.0, 0.5, 0.25)):
        with pytest.raises(ValueError, match="segment_starts"):
            MarketModel(r=(0.02,), alpha=((0.06,),), gamma=(((0.2,),),), segment_starts=starts)


def test_policy_simulation_keeps_wealth_positive():
    from gctrl import PathConfig, SdeSpec, VolSchedule, integrate_gsde

    cf = desk_closed_form()
    pol = optimal_policy(cf, DESK_MARKET, DESK_UTILITY, DESK_SET)
    pi_hat = float(pol.portfolio(0.0, 1.0)[0])

    def drift(t, x, u):
        return x * (pi_hat * 0.2 * 0.2 + 0.02 - 1.0 / float(cf.a_at(t)))

    def diffusion(t, x, u):
        return x * pi_hat * 0.2

    spec = SdeSpec(dim_state=1, dim_noise=1, drift=drift, diffusion=diffusion,
                   initial_state=[1.0])
    cfg = PathConfig(n_steps=250, horizon=1.0, n_paths=2000, seed=77)
    for level in (0.25, 0.5, 1.0):
        bundle = integrate_gsde(spec, DESK_SET, VolSchedule.constant(level), cfg)
        assert np.min(bundle.states) > 0.0


def test_implicit_desk_matches_closed_form(solves_per_level):
    problem = merton_hjb_problem(DESK_MARKET, DESK_UTILITY, DESK_SET, 1.0, "pessimist",
                                 control_grid(21, 33))
    sol = solve(problem, Grid1D(0.4, 2.4, 201, 200))
    cf = desk_closed_form()
    lo_i, hi_i = 201 // 10, 201 - 201 // 10
    closed = np.asarray([closed_form_value(cf, DESK_UTILITY, 0.0, xv) for xv in sol.x])
    rel = np.abs(sol.values[0] - closed) / np.abs(closed)
    assert np.max(rel[lo_i:hi_i]) <= 0.02
    pis = np.asarray([sol.controls[j][0] for j in sol.policy[0]])
    assert np.max(np.abs(pis[lo_i:hi_i] - 0.5)) <= 0.05
    assert 1 <= max(solves_per_level) <= 10
    assert len(solves_per_level) >= 200


def _three_segment_market():
    return MarketModel((0.0, 0.3, 0.6), (0.02, 0.03, 0.01),
                       ((0.06,), (0.08,), (0.05,)),
                       (((0.2,),), ((0.3,),), ((0.25,),)))


def test_segment_lookups_agree_at_the_starts():
    market = _three_segment_market()
    starts = market.segment_starts
    schedule = VolSchedule(breakpoints=starts, values=(0.3, 0.5, 0.7))
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    cf = solve_A(market, DESK_UTILITY, lam, n_t=400, horizon=1.0)
    etas = [eta(market, DESK_UTILITY, lam, s) for s in starts]
    assert len(set(etas)) == len(starts)
    probes = [(s, i) for i, s in enumerate(starts)]  # starts[0] is t = 0
    probes += [(float(np.nextafter(s, -np.inf)), i - 1) for i, s in enumerate(starts) if i > 0]
    for t, i in probes:
        assert market.r.index(market.at(t)[0]) == i
        assert (0.3, 0.5, 0.7).index(float(schedule.value_at(t)[0, 0])) == i
        assert etas.index(cf.eta(t)) == i


def test_solve_a_evaluates_eta_once_per_segment(monkeypatch):
    from gctrl import merton

    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    calls = []

    def counted(m, u, lambda_bar, t):
        calls.append(t)
        return eta(m, u, lambda_bar, t)

    monkeypatch.setattr(merton, "eta", counted)
    for market, n_segments, branch in ((DESK_MARKET, 1, "affine-exp"),
                                       (_three_segment_market(), 3, "ode-only")):
        calls.clear()
        cf = solve_A(market, DESK_UTILITY, lam, n_t=400, horizon=1.0)
        assert len(calls) == n_segments
        assert cf.resolved_branch == branch
        ref = np.array([piecewise_a(market, lam, float(t)) for t in cf.times])
        assert np.max(np.abs(cf.a_values / ref - 1.0)) <= 1e-13
        for t in np.linspace(0.0, 1.0, 41):
            assert cf.eta(t).hex() == eta(market, DESK_UTILITY, lam, t).hex()


def test_segment_starting_at_the_horizon_does_not_reach_solve_a():
    # No time of [0, T) lies in the second segment, so the grid solves this
    # market exactly as the constant one; solve_A must as well.
    market = MarketModel((0.0, 1.0), (0.02, 0.02), (0.06, 0.5), (0.2, 0.2))
    lam = worst_case_lambda(DESK_SET, "negative", "pessimist")
    cf = solve_A(market, DESK_UTILITY, lam, n_t=2000, horizon=1.0)
    const = desk_closed_form()
    assert cf.resolved_branch == const.resolved_branch == "affine-exp"
    assert cf.a_values.tobytes() == const.a_values.tobytes()
    controls = control_grid(5, 5)
    problems = [merton_hjb_problem(m, DESK_UTILITY, DESK_SET, 1.0, "pessimist", controls)
                for m in (market, DESK_MARKET)]
    grid = Grid1D(0.4, 2.4, 51, suggest_time_steps(problems[1], 0.4, 2.4, 51))
    edge, flat = (solve(p, grid) for p in problems)
    assert edge.values.tobytes() == flat.values.tobytes()
    assert edge.policy.tobytes() == flat.policy.tobytes()


def test_merton_problem_needs_one_asset_per_ambiguity_dimension():
    m2 = MarketModel.constant(r=0.02, alpha=[0.06, 0.05], gamma=np.eye(2) * 0.2)
    with pytest.raises(ValueError, match="the market has 2 assets; the ambiguity set has dim 1"):
        merton_hjb_problem(m2, DESK_UTILITY, DESK_SET, 1.0, "pessimist", [(0.5, 0.1)])
    set_2d = AmbiguitySet(dim=2, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
    with pytest.raises(ValueError, match="the market has 1 assets; the ambiguity set has dim 2"):
        merton_hjb_problem(DESK_MARKET, DESK_UTILITY, set_2d, 1.0)
    with pytest.raises(ValueError, match="scalar generator"):
        merton_hjb_problem(m2, DESK_UTILITY, set_2d, 1.0, "pessimist", [(0.5, 0.1)])


def test_market_and_schedule_entries_are_read_only():
    market = MarketModel.constant(0.02, 0.06, 0.2)
    with pytest.raises(ValueError, match="read-only"):
        market.at(0.0)[2][0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        market.at(0.0)[1][0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        VolSchedule.constant(0.5).value_at(0.0)[0, 0] = 9.0
    assert market_price_of_risk(market, 0.0)[0] == pytest.approx(0.2)

