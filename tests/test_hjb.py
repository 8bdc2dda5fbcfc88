"""Monotone HJB solver: moment identities, DPP exactness, scheme properties."""

import dataclasses
import hashlib
import inspect
import itertools
import math

import numpy as np
import pytest

from gctrl import (
    AmbiguitySet,
    CrraUtility,
    Grid1D,
    HjbProblem,
    HjbSolution,
    MarketModel,
    NumericError,
    PathConfig,
    dpp_composition_check,
    evaluate_policy_mc,
    max_stable_dt,
    merton_hjb_problem,
    solution_csv_text,
    solution_meta_text,
    solve,
    solve_stack,
    suggest_time_steps,
)
from gctrl.hjb import ControlComponent, gheat_problem
from gctrl.merton import control_grid

SET = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
SIGMA_LO, SIGMA_HI = math.sqrt(SET.sigma_lo_sq), math.sqrt(SET.sigma_hi_sq)


def heat_problem(terminal, set_=SET, attitude="upper"):
    return gheat_problem(set_, terminal, 1.0, attitude=attitude)


def auto_grid(problem, x_min, x_max, n_x):
    return Grid1D(x_min, x_max, n_x, suggest_time_steps(problem, x_min, x_max, n_x))


def test_quadratic_terminal_upper_moment():
    problem = heat_problem(lambda x: x**2)
    sol = solve(problem, auto_grid(problem, -4.0, 4.0, 201))
    # worst-case variance accumulates linearly in time
    assert sol.value_at(0.0, 0.0) == pytest.approx(1.0, abs=1e-2)


def test_negative_quadratic_terminal_lower_moment():
    problem = heat_problem(lambda x: -(x**2))
    sol = solve(problem, auto_grid(problem, -4.0, 4.0, 201))
    assert sol.value_at(0.0, 0.0) == pytest.approx(-0.25, abs=1e-2)



def test_value_at_is_an_error_off_the_grid():
    problem = heat_problem(lambda x: x**2)
    sol = solve(problem, auto_grid(problem, -4.0, 4.0, 81))
    assert sol.value_at(1.0, 4.0) == 16.0  # the terminal row at the grid's corner
    for t, x in ((0.0, 10.0), (0.0, -4.5), (-0.1, 0.0), (1.5, 0.0)):
        with pytest.raises(ValueError, match="lies outside the grid"):
            sol.value_at(t, x)

def test_constant_terminal_preserved_exactly():
    problem = heat_problem(lambda x: 5.5 + 0.0 * x)
    sol = solve(problem, auto_grid(problem, -2.0, 2.0, 51))
    assert np.max(np.abs(sol.values - 5.5)) <= 1e-12


def test_terminal_row_is_bit_exact():
    problem = heat_problem(lambda x: np.sin(3.0 * x) + x**2)
    grid = auto_grid(problem, -2.0, 2.0, 101)
    sol = solve(problem, grid)
    x = grid.nodes()
    assert np.array_equal(sol.values[-1], np.sin(3.0 * x) + x**2)


def test_grid_picks_explicit_at_the_cfl_count_and_implicit_below(solves_per_level):
    problem = heat_problem(lambda x: x**2)
    n_t = suggest_time_steps(problem, -4.0, 4.0, 41)
    solve(problem, Grid1D(-4.0, 4.0, 41, n_t))
    assert solves_per_level == []
    coarse = Grid1D(-4.0, 4.0, 41, n_t - 1)
    solve(problem, coarse)
    assert solves_per_level.count(1) == n_t - 1  # each level's first linear solve
    t_bar = float(np.linspace(0.0, 1.0, n_t)[(n_t - 1) // 2])
    assert dpp_composition_check(problem, coarse, t_bar) == 0.0


def test_segment_starts_must_begin_at_zero_and_increase():
    for starts in ((0.5,), (0.0, 0.5, 0.5), (0.0, 0.5, 0.25), (), None):
        with pytest.raises(ValueError, match="segment_starts"):
            dataclasses.replace(heat_problem(lambda x: x), segment_starts=starts)


@pytest.mark.parametrize("diffusion", [0.0, 100.0], ids=["explicit", "implicit"])
def test_grid_levels_take_the_euler_steps_segments(diffusion):
    # The cases of test_sde.py::test_equal_segments_get_equal_steps.  The running cost is
    # j on segment j, so V(0, x) = dt * sum_k (k * n_segments // n_t) exactly.  At horizon 1
    # and n_t = 6, level 5 starts at 0.8333333333333333, one ulp below the start 5/6 of
    # segment 5, and must still take it, as the Euler step there does.
    wrong = []
    for horizon in (0.1, 0.25, 0.3, 0.7, 1.0, 2.5, 3.0):
        for n_segments in range(1, 13):
            starts = tuple(horizon * j / n_segments for j in range(n_segments))
            index = {s: j for j, s in enumerate(starts)}
            problem = HjbProblem(
                drift=lambda t, x, u: 0.0 * x, diffusion=lambda t, x, u: diffusion + 0.0 * x,
                running_cost=lambda t, x, u, index=index: index[t] + 0.0 * x,
                terminal_cost=lambda x: 0.0 * x, horizon=horizon, controls=(0.0,),
                ambiguity=SET, segment_starts=starts)
            for multiple in range(1, 7):
                n_t = multiple * n_segments
                # Zero diffusion has no CFL bound; 100 puts every n_t here below it.
                assert (suggest_time_steps(problem, -1.0, 1.0, 5) > n_t) == (diffusion > 0.0)
                value = solve(problem, Grid1D(-1.0, 1.0, 5, n_t)).values[0]
                exact = horizon / n_t * sum(k * n_segments // n_t for k in range(n_t))
                if not np.allclose(value, exact, rtol=1e-12, atol=1e-15):
                    wrong.append((horizon, n_segments, multiple))
    assert wrong == []


def test_cfl_bound_formula():
    problem = heat_problem(lambda x: x**2)
    grid = Grid1D(-4.0, 4.0, 201, 100)
    dx = grid.dx
    # f == 0, g == 1, beta == 0: bound reduces to dx^2 / sigma_hi_sq
    assert max_stable_dt(problem, grid) == pytest.approx(dx * dx / SET.sigma_hi_sq, rel=1e-12)


def test_dpp_composition_exact_on_shared_grid():
    problem = heat_problem(lambda x: x**2)
    grid = auto_grid(problem, -3.0, 3.0, 101)
    times = np.linspace(0.0, 1.0, grid.n_t + 1)
    gap = dpp_composition_check(problem, grid, float(times[grid.n_t // 2]))
    assert gap <= 1e-12


def test_dpp_composition_refined_second_stage():
    # refined tail + interpolated handoff only adds discretization-level error;
    # the Richardson gap between two direct resolutions calibrates the bound
    problem = heat_problem(lambda x: x**2 + np.sin(x))
    grid = auto_grid(problem, -3.0, 3.0, 81)
    fine_grid = auto_grid(problem, -3.0, 3.0, 161)
    direct = solve(problem, grid)
    fine = solve(problem, fine_grid)
    t_bar = 0.5

    tail_problem = dataclasses.replace(problem, horizon=problem.horizon - t_bar)
    tail = solve(tail_problem, auto_grid(tail_problem, -3.0, 3.0, 161))
    slice_vals = tail.values[0]
    tail_x = tail.x

    head_problem = dataclasses.replace(
        problem,
        horizon=t_bar,
        terminal_cost=lambda x: np.interp(x, tail_x, slice_vals),
    )
    head = solve(head_problem, auto_grid(head_problem, -3.0, 3.0, 81))

    composed_gap = np.max(np.abs(head.values[0] - direct.values[0]))
    scheme_scale = np.max(np.abs(direct.values[0] - np.interp(direct.x, fine.x, fine.values[0])))
    assert composed_gap <= 3.0 * max(scheme_scale, 1e-6) + 1e-8


def test_dpp_rejects_off_grid_split_time():
    problem = heat_problem(lambda x: x**2)
    grid = auto_grid(problem, -3.0, 3.0, 51)
    with pytest.raises(ValueError, match="grid time"):
        dpp_composition_check(problem, grid, t_bar=0.5 + 0.31 / grid.n_t)
    with pytest.raises(ValueError, match="strictly between"):
        dpp_composition_check(problem, grid, t_bar=0.0)


@pytest.mark.parametrize("implicit", [False, True])
def test_dpp_composition_check_sees_a_sweep_that_depends_on_its_start(monkeypatch, implicit):
    # A planted defect: every sweep scales the terminal row it is handed by 1 + 1e-9, so
    # that a sweep no longer composes with itself and the check must read above TOL_DPP.
    from gctrl import hjb
    from gctrl.verify import TOL_DPP

    problem, grid = _implicit_case("desk-n_t-20")
    if not implicit:
        grid = auto_grid(problem, grid.x_min, grid.x_max, grid.n_x)
    assert (grid.n_t < suggest_time_steps(problem, grid.x_min, grid.x_max, grid.n_x)) == implicit
    t_bar = float(np.linspace(0.0, problem.horizon, grid.n_t + 1)[grid.n_t // 2])
    assert dpp_composition_check(problem, grid, t_bar) <= TOL_DPP
    sweep = hjb._sweep
    monkeypatch.setattr(hjb, "_sweep", lambda problem, grid, times, terminal, segments:
                        sweep(problem, grid, times, terminal * (1.0 + 1e-9), segments))
    assert dpp_composition_check(problem, grid, t_bar) > TOL_DPP


def test_control_ties_break_toward_the_lowest_index():
    # Control 2 duplicates control 0, so wherever control 0 is optimal the two tie bit for
    # bit; both sweeps must pick index 0 there and solve as if the duplicate were absent.
    def problem(controls):
        return HjbProblem(
            drift=lambda t, x, u: u + 0.0 * x,
            diffusion=lambda t, x, u: 1.0 + 0.0 * x,
            running_cost=lambda t, x, u: 0.0 * x,
            terminal_cost=np.sin,
            horizon=0.5,
            controls=controls,
            ambiguity=SET,
            segment_starts=(0.0,),
        )

    duplicated, plain = problem((-0.5, 0.5, -0.5)), problem((-0.5, 0.5))
    count = suggest_time_steps(duplicated, -3.0, 3.0, 61)
    for n_t in (count, count // 5):  # explicit, then implicit
        grid = Grid1D(-3.0, 3.0, 61, n_t)
        sol, ref = solve(duplicated, grid), solve(plain, grid)
        assert np.any(sol.policy == 0) and not np.any(sol.policy == 2)
        assert np.array_equal(sol.policy, ref.policy) and np.array_equal(sol.values, ref.values)


def _desk_problem(controls):
    return merton_hjb_problem(MarketModel.constant(r=0.02, alpha=0.06, gamma=0.2),
                              CrraUtility(kappa=2.0, beta=0.1), SET, 1.0, "pessimist", controls)


@pytest.mark.parametrize("n_x, implicit", [(201, True), (81, False)])
def test_component_picks_match_the_exhaustive_product_search(monkeypatch, n_x, implicit):
    # At every fill of either sweep on a desk grid, the product table of the term-wise
    # Hamiltonian, H_pi[p] + H_rho[q] in pi-major order, searched exhaustively, takes its
    # optimum at the components' picks, bit for bit.  Its lowest optimal index is the
    # picks' own, except where two sums round to one value; there the picks are strictly
    # better on one component's own table.  The pi level 0.5 and the fourth rho level are
    # duplicated: their ties go to the first copy, which is the lowest product index, and
    # the solve is the one without the copies.
    from gctrl import hjb

    plain = _desk_problem(control_grid(21, 33))
    pis, rhos = (c.levels for c in plain.components)
    copied = (pis[:11] + pis[10:], rhos[:4] + rhos[3:])
    dup = dataclasses.replace(
        plain, controls=tuple(itertools.product(*copied)),
        components=tuple(dataclasses.replace(c, levels=levels)
                         for c, levels in zip(plain.components, copied)))
    count = suggest_time_steps(dup, 0.4, 2.4, n_x)
    grid = Grid1D(0.4, 2.4, n_x, 200 if implicit else count)
    assert (grid.n_t < count) == implicit
    fills = []
    require_finite = hjb._require_finite

    def spy(row, k):  # every level of either sweep and every Howard solve passes here
        caller = inspect.currentframe().f_back.f_locals
        fills.append(([h.copy() for h in caller["work"]], [j.copy() for j in caller["best"]]))
        require_finite(row, k)

    monkeypatch.setattr(hjb, "_require_finite", spy)
    sol = solve(dup, grid)
    n_rho = len(copied[1])
    rows = np.arange(n_x - 2)
    for (h_pi, h_rho), (p, q) in fills:
        product = (h_pi[:, :, None] + h_rho[:, None, :]).reshape(n_x - 2, -1)
        exhaustive = product.argmax(axis=1)
        assert product[rows, exhaustive].tobytes() == (h_pi[rows, p] + h_rho[rows, q]).tobytes()
        tie = exhaustive != p * n_rho + q
        e_p, e_q = np.divmod(exhaustive[tie], n_rho)
        assert np.all(exhaustive[tie] < (p * n_rho + q)[tie])
        assert np.all((h_pi[tie, p[tie]] > h_pi[tie, e_p])
                      | (h_rho[tie, q[tie]] > h_rho[tie, e_q]))
    assert len(fills) >= grid.n_t
    assert not np.any(sol.policy // n_rho == 11) and not np.any(sol.policy % n_rho == 4)

    ref = solve(plain, grid)
    p, q = np.divmod(ref.policy, len(rhos))
    assert sol.values.tobytes() == ref.values.tobytes()
    assert np.array_equal(sol.policy, (p + (p > 10)) * n_rho + q + (q > 3))


def _two_component_pair(rng, edge_power):
    """Two problems whose controls are a product of two components and whose terminal and
    running data are ordered, supported where |x - mid| < 1.5; and their 41-node grid.

    One component steers the drift either way and scales the diffusion; the other
    drifts backward and carries a running cost, as consumption does in the wealth
    problem.  With one-sided edges the grid is [-5, 5], so that the support stays
    14 nodes from each edge as in ``verify._random_ordered_problems``; with power
    edges it is [0.5, 3.5].  The grid has 12 steps at 0.9 times the CFL bound.
    """
    lo = rng.uniform(0.1, 0.8)
    set_ = AmbiguitySet(dim=1, sigma_lo_sq=lo, sigma_hi_sq=lo + rng.uniform(0.0, 0.8))
    c0, c1 = rng.uniform(-0.7, 0.7, size=2)
    g0, g1 = rng.uniform(0.3, 1.0), rng.uniform(-0.2, 0.2)
    a, b, s = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.0)
    common = dict(discount=rng.uniform(0.0, 0.5), segment_starts=(0.0,), edge_power=edge_power,
                  opt_direction="maximize" if rng.uniform() < 0.5 else "minimize",
                  attitude="upper" if rng.uniform() < 0.5 else "lower")
    x_min, x_max = (-5.0, 5.0) if edge_power is None else (0.5, 3.5)
    mid = 0.5 * (x_min + x_max)

    def bump(x):
        return np.maximum(0.0, 1.0 - ((x - mid) / 1.5) ** 2) ** 3

    steer = ControlComponent(tuple(rng.uniform(-1.0, 1.0, size=3)),
                             drift=lambda t, x, u: (c0 + c1 * u) + 0.0 * x,
                             diffusion=lambda t, x, u: (g0 + g1 * u) + 0.0 * x,
                             running_cost=lambda t, x, u: 0.1 * u * bump(x))
    brakes = tuple(rng.uniform(0.0, 1.0, size=3))

    def problem(shift, horizon=1.0):  # the brake's running cost carries the shift
        brake = ControlComponent(brakes, drift=lambda t, x, r: -r + 0.0 * x,
                                 diffusion=lambda t, x, r: 0.0 * x,
                                 running_cost=lambda t, x, r: (shift - 0.3 * r * r) * bump(x))
        return HjbProblem(
            terminal_cost=lambda x: bump(x) * (a * np.sin(3.0 * x) + b * np.cos(2.0 * x)
                                               + shift * (1.1 + np.sin(2.0 * x))),
            horizon=horizon, controls=tuple(itertools.product(steer.levels, brakes)),
            ambiguity=set_, components=(steer, brake), **common)

    grid = Grid1D(x_min, x_max, 41, 12)
    horizon = 0.9 * max_stable_dt(problem(0.0), grid) * 12
    return problem(0.0, horizon), problem(s, horizon), grid


@pytest.mark.parametrize("edge_power", [None, -1.0])
def test_two_component_problems_keep_ordered_data_ordered(edge_power):
    rng = np.random.default_rng(23)
    worst = -np.inf
    for _ in range(20):
        low, high, grid = _two_component_pair(rng, edge_power)
        for n_t in (12, 3):  # explicit, then implicit at 3.6 times the bound
            sweep = dataclasses.replace(grid, n_t=n_t)
            assert (n_t < suggest_time_steps(low, grid.x_min, grid.x_max, grid.n_x)) == (n_t == 3)
            worst = max(worst, float(np.max(solve(low, sweep).values - solve(high, sweep).values)))
    assert worst <= 1e-12


# sha256 of ``solution_csv_text`` for the first pair of ``_two_component_pair`` with
# one-sided edges, seed 23, each solved explicitly (12 steps) and implicitly (3 steps).
# The pair's data stays 0 near the edges, so its low problem also runs with a terminal
# cos(1.3 x) + 0.05 x^2 that reaches them.  Recorded like ``IMPLICIT_CSV_SHA256`` below.
TWO_COMPONENT_CSV_SHA256 = {
    ("low", 12): "4614c30dd5b1ae236076eddd13a38796f81dc10ead80b545588d13304534ec18",
    ("high", 12): "8dc1b8aa0ba38cd2b7957daa9c395a5c24d6af2a66c9454343883a49d5ece923",
    ("reaching", 12): "a9fc9c4d8b06d186388d0eef0cbb0b48e73c325097c540b8647315e243b761e1",
    ("low", 3): "35f07985a2f9e5e1882035f971e1cdd7db5fc2a1e26113ed565901dd2530c04d",
    ("high", 3): "5bc19ee1a3016930536f4ff189d4d1de516806d1392b9e4bfaed829cbbc02d00",
    ("reaching", 3): "33b29aca4c793f9720f9fe4bc2f87abbc4ade1ec4afc07630273fcd03287886d",
}




def _three_component_problem(edge_power):
    """A problem of three components of 3, 4 and 2 levels, one part each: the first
    diffuses, the second drifts either way and the third carries a running cost, the other
    parts None.  Its data reaches the edges.  With one-sided edges the grid is [-3, 3], with
    power edges [0.5, 3.5]; 31 nodes and 12 steps at 0.9 times the CFL bound."""
    vol = ControlComponent((0.4, 0.9, 0.6), drift=None, running_cost=None,
                           diffusion=lambda t, x, u: u * (1.0 + 0.1 * np.sin(x)))
    push = ControlComponent((-0.5, 0.3, 0.8, -0.1), diffusion=None, running_cost=None,
                            drift=lambda t, x, u: u * (1.0 + 0.2 * np.cos(x)))
    pay = ControlComponent((0.0, 1.0), drift=None, diffusion=None,
                           running_cost=lambda t, x, u: u * np.cos(2.0 * x) - 0.3 * u * u)
    x_min, x_max = (-3.0, 3.0) if edge_power is None else (0.5, 3.5)

    def problem(horizon):
        return HjbProblem(
            terminal_cost=lambda x: np.cos(1.3 * x) + 0.05 * x * x, horizon=horizon,
            controls=tuple(itertools.product(vol.levels, push.levels, pay.levels)),
            ambiguity=SET, components=(vol, push, pay), discount=0.1, segment_starts=(0.0,),
            edge_power=edge_power, opt_direction="maximize", attitude="lower")

    grid = Grid1D(x_min, x_max, 31, 12)
    return problem(0.9 * max_stable_dt(problem(1.0), grid) * 12), grid


# sha256 of ``solution_csv_text`` for ``_three_component_problem``, one-sided and with
# power edges (p = 0.5), each solved explicitly (12 steps) and implicitly (3 steps).
THREE_COMPONENT_CSV_SHA256 = {
    ("three", 12): "5b7dad27abd49ab5651331030386b593a1ef8d153fa94728577adae1648736c0",
    ("three", 3): "d9c2f53137f9a609b3cc5139fcadf32f6a40338fce3fe63a8fe840caca3dba8a",
    ("three-power", 12): "f857e9f36b25bb1da443b5c713149f1777bc6227a95b5bd705de16170cbfaa17",
    ("three-power", 3): "b1b40af2f1afceff9b0c7c0d60a69e80b8983f4998657be2fb7efaa0e1108daf",
}


@pytest.mark.parametrize("which, n_t", list(TWO_COMPONENT_CSV_SHA256)
                         + list(THREE_COMPONENT_CSV_SHA256))
def test_two_component_one_sided_bytes_are_pinned(which, n_t):
    # The three-component cases pin a sum of three terms, a component without columns in a
    # part, and the power edges too.
    if which.startswith("three"):
        problem, grid = _three_component_problem(0.5 if which == "three-power" else None)
        pinned = THREE_COMPONENT_CSV_SHA256[which, n_t]
    else:
        low, high, grid = _two_component_pair(np.random.default_rng(23), None)
        problem = {"low": low, "high": high,
                   "reaching": dataclasses.replace(low, terminal_cost=lambda x: np.cos(1.3 * x)
                                                   + 0.05 * x * x)}[which]
        pinned = TWO_COMPONENT_CSV_SHA256[which, n_t]
    assert (n_t < suggest_time_steps(problem, grid.x_min, grid.x_max, grid.n_x)) == (n_t == 3)
    text = solution_csv_text(solve(problem, dataclasses.replace(grid, n_t=n_t)))
    assert hashlib.sha256(text.encode()).hexdigest() == pinned


def test_components_state_the_coefficients_once():
    from gctrl import hjb

    low, _, grid = _two_component_pair(np.random.default_rng(23), None)
    steer, brake = low.components
    summed = dataclasses.replace(  # the same problem undeclared, its parts added by hand
        low, components=None,
        drift=lambda t, x, u: steer.drift(t, x, u[0]) + brake.drift(t, x, u[1]),
        diffusion=lambda t, x, u: steer.diffusion(t, x, u[0]) + brake.diffusion(t, x, u[1]),
        running_cost=lambda t, x, u: (steer.running_cost(t, x, u[0])
                                      + brake.running_cost(t, x, u[1])))
    for both_or_neither in (dict(components=low.components), dict(drift=None)):
        with pytest.raises(ValueError, match="either in the components or"):
            dataclasses.replace(summed, **both_or_neither)
    sol, cfg = solve(low, grid), PathConfig(n_steps=24, horizon=low.horizon, n_paths=300, seed=3)
    a, b = (evaluate_policy_mc(p, sol, low.ambiguity, cfg, x0=0.4, n_segments=2, n_grid=2)
            for p in (low, summed))
    assert (a.value, a.std_error) == (b.value, b.std_error) and a.value != 0.0
    assert a.best_paths.states.tobytes() == b.best_paths.states.tobytes()
    # A part declared absent reads as zeros on the grid and is skipped by the Monte Carlo.
    absent = dataclasses.replace(low, components=(steer,
                                                  dataclasses.replace(brake, diffusion=None)))
    sol_absent = solve(absent, grid)
    assert sol_absent.values.tobytes() == sol.values.tobytes()
    assert np.array_equal(sol_absent.policy, sol.policy)
    c = evaluate_policy_mc(absent, sol, low.ambiguity, cfg, x0=0.4, n_segments=2, n_grid=2)
    assert (c.value, c.std_error) == (a.value, a.std_error)
    assert c.best_paths.states.tobytes() == a.best_paths.states.tobytes()
    costless = dataclasses.replace(low, components=tuple(
        dataclasses.replace(part, running_cost=None) for part in low.components))
    x = np.linspace(-1.0, 1.0, 5)
    assert np.array_equal(hjb._summed(costless, "running_cost")(0.0, x, (0.1, 0.2)), np.zeros(5))
    # With one noise the grid's sum of squares would drop the cross term 2 g1 g2.
    diffusing = dataclasses.replace(brake, diffusion=lambda t, x, r: r + 0.0 * x)
    with pytest.raises(ValueError, match="more than one control component diffuses"):
        solve(dataclasses.replace(low, components=(steer, diffusing)), grid)


def test_merton_controls_must_be_a_pi_major_product():
    pairs = control_grid(3, 2)
    rho_major = sorted(pairs, key=lambda u: (u[1], u[0]))
    for controls in (rho_major, pairs[:-1], pairs[:2] + pairs[3:4], pairs + pairs[:2]):
        with pytest.raises(ValueError, match="component-major product"):
            _desk_problem(controls)
    assert _desk_problem(pairs).controls == tuple(pairs)


def test_controlled_problem_picks_better_drift():
    # maximize terminal x: the control with positive drift must win everywhere
    problem = HjbProblem(
        drift=lambda t, x, u: u + 0.0 * x,
        diffusion=lambda t, x, u: 0.5 + 0.0 * x,
        running_cost=lambda t, x, u: 0.0 * x,
        terminal_cost=lambda x: x,
        horizon=0.5,
        controls=(-1.0, 0.0, 1.0),
        ambiguity=SET,
        opt_direction="maximize",
        segment_starts=(0.0,),
    )
    grid = auto_grid(problem, -4.0, 4.0, 81)
    sol = solve(problem, grid)
    assert np.all(sol.policy[:, 5:-5] == 2)
    # V(0, x) ~ x + u* T for the linear terminal away from the boundary
    assert sol.value_at(0.0, 0.0) == pytest.approx(0.5, abs=2e-2)


def test_attitude_ordering_pointwise():
    rng = np.random.default_rng(11)
    for _ in range(20):
        terminal_coeff = rng.uniform(-1.0, 1.0, size=2)

        def terminal(x, c=terminal_coeff):
            return np.maximum(0.0, 1.0 - (x / 1.5) ** 2) ** 3 * (
                c[0] * np.sin(3 * x) + c[1] * x
            )

        for direction in ("minimize", "maximize"):
            kw = dict(
                drift=lambda t, x, u: 0.2 + 0.0 * x,
                diffusion=lambda t, x, u: 0.8 + 0.0 * x,
                running_cost=lambda t, x, u: 0.0 * x,
                terminal_cost=terminal,
                horizon=0.05,
                controls=(0.0,),
                ambiguity=SET,
                opt_direction=direction,
                segment_starts=(0.0,),
            )
            grid = Grid1D(-5, 5, 41, 12)
            up = solve(HjbProblem(attitude="upper", **kw), grid)
            lo = solve(HjbProblem(attitude="lower", **kw), grid)
            assert np.min(up.values - lo.values) >= -1e-12


def test_degenerate_ambiguity_attitudes_coincide():
    set_ = AmbiguitySet(dim=1, sigma_lo_sq=0.5, sigma_hi_sq=0.5)
    pu = heat_problem(lambda x: np.sin(2 * x) * x, set_=set_, attitude="upper")
    pl = heat_problem(lambda x: np.sin(2 * x) * x, set_=set_, attitude="lower")
    grid = auto_grid(pu, -3.0, 3.0, 101)
    assert np.max(np.abs(solve(pu, grid).values - solve(pl, grid).values)) <= 1e-12


def test_comparison_principle_constant_shift():
    problem = heat_problem(lambda x: np.sin(2.0 * x))
    shifted = heat_problem(lambda x: np.sin(2.0 * x) + 0.75)
    grid = auto_grid(problem, -3.0, 3.0, 81)
    v = solve(problem, grid).values
    w = solve(shifted, grid).values
    assert np.max(v - w) <= 1e-12
    assert np.min(w - v) >= 0.75 - 1e-12  # undiscounted shift survives intact


def test_lipschitz_slope_bounded_under_refinement():
    slopes = []
    for n_x in (101, 201):
        problem = heat_problem(lambda x: x**2)
        sol = solve(problem, auto_grid(problem, -3.0, 3.0, n_x))
        dx = sol.x[1] - sol.x[0]
        slopes.append(np.max(np.abs(np.diff(sol.values, axis=1)) / dx))
    # bounded independently of resolution (value stays quadratic: slope ~ 2 x_max)
    assert slopes[1] <= slopes[0] * 1.2 + 1e-9
    assert slopes[1] <= 2.0 * 3.0 * 1.1


def test_nan_in_sweep_raises_with_location():
    problem = heat_problem(lambda x: np.where(np.abs(x) < 0.05, 1e308, 0.0))
    grid = Grid1D(-2.0, 2.0, 41, suggest_time_steps(heat_problem(lambda x: x), -2, 2, 41))
    with pytest.raises(NumericError, match="time level"):
        solve(problem, grid)


def test_policy_mc_matches_pde_value():
    problem = heat_problem(lambda x: x**2)
    sol = solve(problem, auto_grid(problem, -4.0, 4.0, 201))
    cfg = PathConfig(n_steps=200, horizon=1.0, n_paths=3000, seed=2024)
    est = evaluate_policy_mc(problem, sol, SET, cfg, x0=0.0, n_segments=2, n_grid=3)
    assert abs(est.value - sol.value_at(0.0, 0.0)) <= 3 * est.std_error + 1e-2


def test_policy_mc_constant_terminal_exact():
    problem = heat_problem(lambda x: 3.0 + 0.0 * x)
    sol = solve(problem, auto_grid(problem, -2.0, 2.0, 51))
    cfg = PathConfig(n_steps=20, horizon=1.0, n_paths=100, seed=5)
    est = evaluate_policy_mc(problem, sol, SET, cfg, x0=0.0, n_segments=1, n_grid=2)
    assert est.value == pytest.approx(3.0, abs=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)


def test_policy_mc_default_lookup_of_tuple_controls_is_nearest_node():
    problem = _desk_problem(control_grid(11, 9))
    sol = solve(problem, Grid1D(0.4, 2.4, 41, 40))
    controls = np.array(problem.controls)

    def by_hand(t, x):
        k = int(np.searchsorted(sol.times[:-1], t, side="right")) - 1
        j = sol.policy[k, np.abs(x[:, None] - sol.x).argmin(axis=1)]
        return controls[j, 0], controls[j, 1]

    cfg = PathConfig(n_steps=40, horizon=1.0, n_paths=500, seed=31)
    default, manual = (evaluate_policy_mc(problem, sol, SET, cfg, x0=1.0, control_fn=fn,
                                          n_segments=2, n_grid=2)
                       for fn in (None, by_hand))
    assert default.value == manual.value and default.std_error == manual.std_error
    assert np.array_equal(default.best_paths.states, manual.best_paths.states)


def test_policy_mc_default_lookup_takes_the_euler_steps_levels():
    # Level k picks control k % 2, the drift is the control and nothing diffuses, so
    # X_T = x0 + dt * sum_k u(k * n_t // n_steps) on every path.  Step 9's time 0.6 lies
    # one ulp below level 3's start 0.6000000000000001 and must still take level 3.
    n_t, n_steps, x0 = 5, 15, 0.25
    problem = HjbProblem(
        drift=lambda t, x, u: u + 0.0 * x, diffusion=lambda t, x, u: 0.0 * x,
        running_cost=lambda t, x, u: 0.0 * x, terminal_cost=lambda x: x, horizon=1.0,
        controls=(0.0, 1.0), ambiguity=SET, segment_starts=(0.0,))
    grid = Grid1D(-2.0, 2.0, 5, n_t)
    policy = np.repeat(np.arange(n_t) % 2, grid.n_x).reshape(n_t, grid.n_x)
    sol = HjbSolution(grid=grid, x=grid.nodes(), times=np.linspace(0.0, 1.0, n_t + 1),
                      values=np.zeros((n_t + 1, grid.n_x)), policy=policy,
                      controls=problem.controls)
    cfg = PathConfig(n_steps=n_steps, horizon=1.0, n_paths=4, seed=3)
    est = evaluate_policy_mc(problem, sol, SET, cfg, x0=x0, n_segments=1, n_grid=2)
    exact = x0 + sum((k * n_t // n_steps) % 2 for k in range(n_steps)) / n_steps
    assert np.allclose(est.best_paths.states[:, -1, 0], exact, rtol=1e-14)
    assert est.value == pytest.approx(exact, rel=1e-14)


def test_csv_export_shape_and_meta():
    problem = heat_problem(lambda x: x**2)
    grid = Grid1D(-1.0, 1.0, 5, 4)
    sol = solve(problem, grid)
    text = solution_csv_text(sol)
    lines = text.splitlines()
    assert lines[0] == "t,x,value,control_index,control_value"
    assert len(lines) == 1 + 5 * 5
    assert lines[-1].endswith(",-1,")  # terminal rows carry no decision
    meta = solution_meta_text(problem, grid)
    assert "sigma_hi_sq=1.0" in meta
    assert "boundary=one_sided" in meta


def test_power_dirichlet_boundary_preserves_power_shape():
    # pure power terminal with no dynamics: boundary rows keep the exponent
    problem = dataclasses.replace(
        heat_problem(lambda x: x**-1.0 / -1.0, attitude="lower"), horizon=0.1,
        diffusion=lambda t, x, u: 0.0 * x, opt_direction="maximize", edge_power=-1.0)
    sol = solve(problem, Grid1D(0.5, 2.0, 31, 10))
    assert np.max(np.abs(sol.values - sol.values[-1])) <= 1e-12


def _ordered_pair(terminal_shift, running_shift):
    """Controlled problems whose data differ by nonnegative shifts."""
    def make(shift_t, shift_r):
        return HjbProblem(
            drift=lambda t, x, u: u + 0.3 * np.sin(x),
            diffusion=lambda t, x, u: 0.6 + 0.2 * u + 0.0 * x,
            running_cost=lambda t, x, u: np.cos(x) * u + shift_r(x),
            terminal_cost=lambda x: np.sin(2.0 * x) * np.exp(-0.1 * x**2) + shift_t(x),
            horizon=1.0,
            controls=(-1.0, -0.25, 0.5, 1.0),
            ambiguity=SET,
            discount=0.2,
            opt_direction="maximize",
            attitude="lower",
            segment_starts=(0.0,),
        )
    return make(lambda x: 0.0 * x, lambda x: 0.0 * x), make(terminal_shift, running_shift)


def test_implicit_at_twenty_times_the_cfl_bound():
    low, high = _ordered_pair(lambda x: 0.5 + 0.4 * np.cos(3.0 * x), lambda x: 0.1 * x**2)
    probe = Grid1D(-3.0, 3.0, 61, 1)
    n_t = max(2, round(low.horizon / (20.0 * max_stable_dt(low, probe))))
    grid = Grid1D(-3.0, 3.0, 61, n_t)
    assert low.horizon / n_t >= 19.0 * max_stable_dt(low, grid)
    v_low = solve(low, grid).values
    v_high = solve(high, grid).values
    assert np.all(v_low <= v_high)
    times = np.linspace(0.0, 1.0, n_t + 1)
    assert dpp_composition_check(low, grid, float(times[n_t // 2])) == 0.0


def test_implicit_quadratic_moments_far_above_the_cfl_bound():
    for terminal, target in ((lambda x: x**2, 1.0), (lambda x: -(x**2), -0.25)):
        problem = heat_problem(terminal)
        grid = Grid1D(-4.0, 4.0, 201, 10)  # dt is about 60x the explicit bound
        sol = solve(problem, grid)
        assert sol.value_at(0.0, 0.0) == pytest.approx(target, abs=1e-3)


def test_implicit_howard_solves_per_level_on_ordered_problems(solves_per_level):
    from gctrl import hjb
    from gctrl.verify import _random_ordered_problems

    rng = np.random.default_rng(5)
    for _ in range(30):
        low, high, grid = _random_ordered_problems(rng)
        grid = Grid1D(grid.x_min, grid.x_max, grid.n_x, 3)  # 3.6x the CFL bound: implicit
        v_low = solve(low, grid).values
        v_high = solve(high, grid).values
        assert np.max(v_low - v_high) <= 1e-12
    assert 1 <= max(solves_per_level) <= 10
    assert hjb._HOWARD_MAX_SOLVES >= 10


def test_howard_cap_raises_with_the_level(monkeypatch):
    from gctrl import hjb

    monkeypatch.setattr(hjb, "_HOWARD_MAX_SOLVES", 0)
    problem = heat_problem(lambda x: x**2)
    with pytest.raises(NumericError, match="time level 4"):
        solve(problem, Grid1D(-2.0, 2.0, 21, 5))


def _normal_cdf(z):
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z.tolist()])


def _kinked_error(terminal, exact, attitude, n_x, n_t):
    """Max error on |x| <= 3 of the implicit G-heat value at time 0 on [-6, 6], horizon 1."""
    problem = gheat_problem(SET, terminal, 1.0, attitude=attitude)
    assert n_t < suggest_time_steps(problem, -6.0, 6.0, n_x)
    sol = solve(problem, Grid1D(-6.0, 6.0, n_x, n_t))
    inner = np.abs(sol.x) <= 3.0
    return float(np.max(np.abs(sol.values[0, inner] - exact(sol.x[inner]))))


@pytest.mark.parametrize("attitude", ["upper", "lower"])
def test_implicit_call_matches_the_bachelier_price(attitude):
    """max(x, 0) is convex, so the upper value is the Bachelier price at sigma_hi
    and the lower one at sigma_lo.  Its curvature is zero off the kink."""
    sigma = SIGMA_HI if attitude == "upper" else SIGMA_LO

    def bachelier(x):
        z = x / sigma
        return x * _normal_cdf(z) + sigma * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    assert _kinked_error(lambda x: np.maximum(x, 0.0), bachelier, attitude, 401, 100) <= 1e-3


def _digital_upper(x):
    """The upper G-heat value of 1{x >= 0} after unit time: convex left of 0 at
    sigma_hi, concave right of it at sigma_lo, C^1 at 0."""
    a, b = (2.0 * s / (SIGMA_HI + SIGMA_LO) for s in (SIGMA_HI, SIGMA_LO))
    return np.where(x < 0.0, a * _normal_cdf(x / SIGMA_HI), 1.0 - b * _normal_cdf(-x / SIGMA_LO))


@pytest.mark.parametrize("attitude", ["upper", "lower"])
def test_implicit_digital_matches_the_g_normal_closed_form_to_first_order(attitude):
    """1{x >= 0} is flat off its jump, where rounding flips the curvature sign."""
    exact = _digital_upper if attitude == "upper" else (lambda x: 1.0 - _digital_upper(-x))

    def digital(x):
        return np.where(x >= 0.0, 1.0, 0.0)

    fine = _kinked_error(digital, exact, attitude, 801, 200)
    coarse = _kinked_error(digital, exact, attitude, 401, 100)
    assert fine <= 5e-3
    assert 1.8 <= coarse / fine <= 2.2


def test_tridiagonal_solver_matches_dense_solve():
    from gctrl.hjb import _solve_tridiagonal

    rng = np.random.default_rng(3)
    n = 40
    lower, upper = -rng.uniform(0.0, 1.0, n), -rng.uniform(0.0, 1.0, n)
    diag = 1.0 + rng.uniform(0.0, 1.0, n) - lower - upper
    rhs = rng.normal(size=n)
    dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    assert np.allclose(_solve_tridiagonal(lower, diag, upper, rhs),
                       np.linalg.solve(dense, rhs), rtol=1e-13, atol=1e-13)


def _edge_reaching_pair(rng):
    """Two problems on the whole of [-5, 5] whose terminal data are ordered everywhere.

    Unlike ``verify._random_ordered_problems``, the data do not vanish near
    the edges, so the gap reaches the boundary rows from the first step.
    """
    lo = rng.uniform(0.1, 0.8)
    set_ = AmbiguitySet(dim=1, sigma_lo_sq=lo, sigma_hi_sq=lo + rng.uniform(0.0, 0.8))
    controls = tuple(rng.uniform(-1.0, 1.0, size=3))
    c0, c1 = rng.uniform(-0.7, 0.7, size=2)
    g0, g1 = rng.uniform(0.3, 1.0), rng.uniform(-0.2, 0.2)
    a, b = rng.uniform(-1.0, 1.0, size=2)
    s, p = rng.uniform(0.2, 1.0), rng.uniform(0.0, 2 * np.pi)
    common = dict(
        drift=lambda t, x, u: (c0 + c1 * u) + 0.0 * x,
        diffusion=lambda t, x, u: (g0 + g1 * u) + 0.0 * x,
        running_cost=lambda t, x, u: 0.1 * u + 0.0 * x,
        horizon=1.0, controls=controls, ambiguity=set_, segment_starts=(0.0,),
        opt_direction="maximize" if rng.uniform() < 0.5 else "minimize",
        attitude="upper" if rng.uniform() < 0.5 else "lower",
    )

    def terminal(x):
        return a * np.sin(3.0 * x) + b * np.cos(2.0 * x)

    def terminal_hi(x):
        return terminal(x) + s * (1.1 + np.sin(5.0 * x + p))

    return HjbProblem(terminal_cost=terminal, **common), HjbProblem(terminal_cost=terminal_hi,
                                                                    **common)


def test_implicit_edge_rows_keep_ordered_data_ordered():
    rng = np.random.default_rng(17)
    worst = -np.inf
    for _ in range(40):
        low, high = _edge_reaching_pair(rng)
        count = suggest_time_steps(low, -5.0, 5.0, 41)
        grid = Grid1D(-5.0, 5.0, 41, max(1, count // 4))
        assert grid.n_t < count  # below the CFL count: the implicit sweep
        worst = max(worst, float(np.max(solve(low, grid).values - solve(high, grid).values)))
    assert worst <= 1e-12


# sha256 of ``solution_csv_text`` for implicit sweeps, which the golden CLI
# configs (run at the CFL count, so explicit) do not reach.  Recorded with
# Python 3.11 and numpy 2.4 on x86-64; another numpy or libm can move the
# last bit of a computed value and so a hash.
IMPLICIT_CSV_SHA256 = {
    "heat-count-1": "b05afad999a06d47f67c203b5feda65b2e6e7c587484145873fd23bc096ee9ad",
    "heat-count/4": "f9e1d6d76f960580a2148a70e1839da26e6fda9ae1b5b3625d1973dc96d981db",
    "desk-n_t-20": "3419e4a006f26d8b91f2b97ff585899e6f432be8c96537c7d6a27bd0cf6f0ca2",
    "ordered-count/5": "8cd99235d00cff8b760325da2084ee1e81df5adab7d3c9cbb88ea4486512d62f",
    "desk-3-segments-n_t-20": "f3323b45c4a1b2810b546500304d712309071628258ec811526c21da47960561",
}


def _implicit_case(name):
    if name.startswith("heat"):
        problem = heat_problem(lambda x: x**2)
        count = suggest_time_steps(problem, -2.0, 2.0, 41)
        assert count == 100
        return problem, Grid1D(-2.0, 2.0, 41, count - 1 if name == "heat-count-1" else count // 4)
    if name.startswith("ordered"):
        problem, _ = _ordered_pair(lambda x: 0.0 * x, lambda x: 0.0 * x)
        return problem, Grid1D(-3.0, 3.0, 61, suggest_time_steps(problem, -3.0, 3.0, 61) // 5)
    market = MarketModel.constant(r=0.02, alpha=0.06, gamma=0.2)
    if name.startswith("desk-3-segments"):
        # Levels 6 and 14 of 20 start a new market segment.
        market = MarketModel((0.0, 0.3, 0.7), (0.02, 0.03, 0.01), (0.06, 0.09, 0.04),
                             (0.2, 0.3, 0.15))
    problem = merton_hjb_problem(market, CrraUtility(kappa=2.0, beta=0.1), SET, 1.0,
                                 "pessimist", control_grid(5, 5))
    return problem, Grid1D(0.4, 2.4, 21, 20)


@pytest.mark.parametrize("name", list(IMPLICIT_CSV_SHA256))
def test_implicit_sweep_bytes_are_pinned(name):
    """One-sided rows without drift (heat) and with it (ordered), and power-Dirichlet
    rows (desk, with one market segment and with three), each below its CFL count."""
    problem, grid = _implicit_case(name)
    assert grid.n_t < suggest_time_steps(problem, grid.x_min, grid.x_max, grid.n_x)
    text = solution_csv_text(solve(problem, grid))
    assert hashlib.sha256(text.encode()).hexdigest() == IMPLICIT_CSV_SHA256[name]


def test_howard_cap_of_one_solve_raises_where_the_picks_move(monkeypatch):
    """One solve settles a level whose picks it leaves in place, and only such a level."""
    from gctrl import hjb

    monkeypatch.setattr(hjb, "_HOWARD_MAX_SOLVES", 1)
    # Every level of the one-segment desk keeps its picks after its first solve.
    problem, grid = _implicit_case("desk-n_t-20")
    text = solution_csv_text(solve(problem, grid))
    assert hashlib.sha256(text.encode()).hexdigest() == IMPLICIT_CSV_SHA256["desk-n_t-20"]
    # The three-segment desk's first level moves its picks after its first solve.
    problem, grid = _implicit_case("desk-3-segments-n_t-20")
    with pytest.raises(NumericError, match="value not settled .* time level 19$"):
        solve(problem, grid)


def _diffusion_scaled_problem(trial: int, direction: str, attitude: str) -> HjbProblem:
    """Problem ``trial`` of a family whose controls scale the diffusion: drift a u,
    diffusion u, running cost c u^2, terminal sin(3 b x) + b x^2, discount |beta|."""
    rng = np.random.default_rng(7)
    for _ in range(trial + 1):
        lo = rng.uniform(0.1, 0.8)
        hi = lo + rng.uniform(0.0, 0.8)
        a, b, c, beta = rng.uniform(-1.0, 1.0, size=4)
    return HjbProblem(
        drift=lambda t, x, u: a * u + 0.0 * x,
        diffusion=lambda t, x, u: u + 0.0 * x,
        running_cost=lambda t, x, u: c * u * u + 0.0 * x,
        terminal_cost=lambda x: np.sin(3.0 * b * x) + b * x * x,
        horizon=0.5,
        controls=(0.0, 0.5, -0.5),
        ambiguity=AmbiguitySet(dim=1, sigma_lo_sq=lo, sigma_hi_sq=hi),
        discount=abs(beta),
        opt_direction=direction,
        attitude=attitude,
        segment_starts=(0.0,),
    )


def test_howard_two_cycle_raises_at_once(solves_per_level):
    # The control minimum over a generator that maximizes over the curvature sign is a
    # min-max, where policy iteration need not converge: level 1's iterates alternate.
    problem = _diffusion_scaled_problem(10, "minimize", "upper")
    with pytest.raises(NumericError, match="cycles between two iterates at time level 1$"):
        solve(problem, Grid1D(-2.0, 2.0, 41, 3))
    assert max(solves_per_level) <= 4


def _assert_stack_matches_solve(problems, grid):
    """Every member of ``solve_stack`` has the values and policy ``solve`` gives it alone."""
    for problem, got in zip(problems, solve_stack(problems, grid), strict=True):
        want = solve(problem, grid)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.policy.tobytes() == want.policy.tobytes()
        assert got.times.tobytes() == want.times.tobytes() and got.controls == want.controls


@pytest.mark.parametrize("n_t", [12, 3])
def test_solve_stack_matches_solve_on_the_ordered_pairs(n_t):
    # verify's 100 pairs, explicit at 12 steps and implicit at 3, as verify stacks them.
    from gctrl.verify import _random_ordered_problems

    rng = np.random.default_rng(20240901)
    pairs = [_random_ordered_problems(rng) for _ in range(100)]
    grid = dataclasses.replace(pairs[0][2], n_t=n_t)
    assert all(dataclasses.replace(g, n_t=n_t) == grid for *_, g in pairs)
    _assert_stack_matches_solve([p for low, high, _ in pairs for p in (low, high)], grid)


def test_solve_stack_mixes_attitudes_directions_discounts_and_horizons():
    rng = np.random.default_rng(17)
    problems = []
    for trial in range(4):
        low, high = _edge_reaching_pair(rng)
        problems += [dataclasses.replace(low, horizon=0.5 + 0.25 * trial, discount=0.1 * trial),
                     high]
    assert {(p.opt_direction, p.attitude) for p in problems} == set(
        itertools.product(("minimize", "maximize"), ("upper", "lower")))
    assert len({p.horizon for p in problems}) > 1 and len({p.discount for p in problems}) > 1
    counts = [suggest_time_steps(p, -5.0, 5.0, 41) for p in problems]
    for n_t in (max(counts), min(counts) - 1):  # explicit for every member, then implicit
        _assert_stack_matches_solve(problems, Grid1D(-5.0, 5.0, 41, n_t))


@pytest.mark.parametrize("name", ["desk-n_t-20", "desk-3-segments-n_t-20"])
def test_solve_stack_matches_solve_on_the_desk_under_both_attitudes(name):
    # Two components and power edges, implicit; the second market has three segments.
    pessimist, grid = _implicit_case(name)  # merton_hjb_problem's "pessimist"
    problems = [pessimist, dataclasses.replace(pessimist, attitude="upper")]  # its "optimist"
    assert grid.n_t < min(suggest_time_steps(p, grid.x_min, grid.x_max, grid.n_x)
                          for p in problems)
    _assert_stack_matches_solve(problems, grid)
    _assert_stack_matches_solve(problems[::-1], grid)


def test_solve_stack_of_none_is_empty():
    assert solve_stack([], Grid1D(-1.0, 1.0, 5, 2)) == []


@pytest.mark.parametrize("what", ["scheme", "edge rule", "level count of each component",
                                  "segment of each level"])
def test_solve_stack_members_must_share_the_sweep(what):
    problem = heat_problem(lambda x: x**2)
    grid = auto_grid(problem, -2.0, 2.0, 41)
    other = {
        "scheme": dataclasses.replace(problem, horizon=2.0),  # over the CFL bound: implicit
        "edge rule": dataclasses.replace(problem, edge_power=2.0),
        "level count of each component": dataclasses.replace(problem, controls=(0.0, 1.0)),
        "segment of each level": dataclasses.replace(problem, segment_starts=(0.0, 0.5)),
    }[what]
    with pytest.raises(ValueError, match=f"must share the {what}$"):
        solve_stack([problem, other], grid)


def _cycling_stack():
    """Level 1 of the first problem cycles (see the two-cycle test above); the second
    problem shares its sweep and settles."""
    return ([_diffusion_scaled_problem(11, "maximize", "upper"),
             _diffusion_scaled_problem(10, "minimize", "upper")], Grid1D(-2.0, 2.0, 41, 3))


def _overflowing_stack():
    """The second problem's terminal spike overflows the explicit sweep (see
    ``test_nan_in_sweep_raises_with_location``); the first is finite throughout."""
    grid = Grid1D(-2.0, 2.0, 41, suggest_time_steps(heat_problem(lambda x: x), -2, 2, 41))
    return ([heat_problem(lambda x: x**2),
             heat_problem(lambda x: np.where(np.abs(x) < 0.05, 1e308, 0.0))], grid)


@pytest.mark.parametrize("stack", [_cycling_stack, _overflowing_stack])
def test_a_diverging_member_raises_its_own_solve_error(stack):
    problems, grid = stack()
    solve(problems[0], grid)
    with pytest.raises(NumericError) as alone:
        solve(problems[1], grid)
    for order in (problems, problems[::-1]):
        with pytest.raises(NumericError) as stacked:
            solve_stack(order, grid)
        assert str(stacked.value) == str(alone.value)
