"""Scenario-optimized expectation estimator and the moment-scaling check."""

import re

import numpy as np
import pytest

from gctrl import (
    AmbiguitySet,
    ConfigError,
    NumericError,
    PathConfig,
    SdeSpec,
    VolSchedule,
    candidate_schedules,
    integrate_gsde,
    moment_bound_check,
    sample_gbm,
    terminal_expectation_mc,
    upper_expectation_mc,
)
from gctrl import estimators
from gctrl.config import PAYOFFS
from gctrl.sde import path_normals

SET = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=1.0)


def _gbm_spec():
    return SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: 0.0,
        diffusion=lambda t, x, u: 1.0,
        initial_state=[0.0],
    )


def _cfg(**kw):
    base = dict(n_steps=100, horizon=1.0, n_paths=3000, seed=99)
    base.update(kw)
    return PathConfig(**base)


def terminal_square(bundle):
    return bundle.states[:, -1, 0] ** 2


def test_constant_functional_is_exact():
    cfg = _cfg(n_paths=50, n_steps=8)
    # every mean ties, so both directions pick the first candidate
    first = candidate_schedules(SET, cfg.horizon, 2, 3)[0]
    for direction in ("upper", "lower"):
        est = upper_expectation_mc(
            _gbm_spec(), SET, lambda b: np.full(b.n_paths, 7.0), cfg,
            n_segments=2, n_grid=3, direction=direction,
        )
        assert est.value == 7.0
        assert est.std_error == 0.0
        assert all(np.array_equal(got, want)
                   for got, want in zip(est.best_schedule.values, first.values))


def test_convex_payoff_worst_case_is_high_variance():
    est = upper_expectation_mc(_gbm_spec(), SET, terminal_square, _cfg(),
                               n_segments=2, n_grid=3)
    assert abs(est.value - 1.0) <= 3 * est.std_error
    for v in est.best_schedule.values:
        assert v[0, 0] == SET.sigma_hi_sq


def test_concave_payoff_upper_picks_low_variance():
    est = upper_expectation_mc(_gbm_spec(), SET, lambda b: -terminal_square(b), _cfg(),
                               n_segments=2, n_grid=3)
    assert abs(est.value - (-0.25)) <= 3 * est.std_error
    for v in est.best_schedule.values:
        assert v[0, 0] == SET.sigma_lo_sq


def test_exhaustive_single_segment_oracle():
    # with one segment the search must equal a hand-rolled loop over levels
    cfg = _cfg(n_paths=500, n_steps=50)
    est = upper_expectation_mc(_gbm_spec(), SET, terminal_square, cfg,
                               n_segments=1, n_grid=5)
    means = []
    for v in np.linspace(SET.sigma_lo_sq, SET.sigma_hi_sq, 5):
        bundle = sample_gbm(SET, VolSchedule.constant(v), cfg)
        means.append(float(np.mean(terminal_square(bundle))))
    assert est.value == max(means)
    assert est.n_schedules_searched == 5


def test_direction_ordering_holds_per_functional():
    cfg = _cfg(n_paths=400, n_steps=40)
    for functional in (terminal_square,
                       lambda b: np.sin(b.states[:, -1, 0]),
                       lambda b: np.abs(b.states[:, -1, 0])):
        up = upper_expectation_mc(_gbm_spec(), SET, functional, cfg,
                                  n_segments=2, n_grid=3, direction="upper")
        lo = upper_expectation_mc(_gbm_spec(), SET, functional, cfg,
                                  n_segments=2, n_grid=3, direction="lower")
        assert up.value >= lo.value


def test_subadditivity_on_shared_paths():
    cfg = _cfg(n_paths=400, n_steps=40)

    def f(b):
        return b.states[:, -1, 0] ** 2

    def g(b):
        return np.sin(3.0 * b.states[:, -1, 0])

    def fg(b):
        return f(b) + g(b)

    kw = dict(n_segments=2, n_grid=3)
    up_fg = upper_expectation_mc(_gbm_spec(), SET, fg, cfg, **kw)
    up_f = upper_expectation_mc(_gbm_spec(), SET, f, cfg, **kw)
    up_g = upper_expectation_mc(_gbm_spec(), SET, g, cfg, **kw)
    assert up_fg.value <= up_f.value + up_g.value + 1e-12


def test_common_random_numbers_monotone_pathwise():
    cfg = _cfg(n_paths=200, n_steps=32)
    prev = None
    for v in (0.25, 0.5, 0.75, 1.0):
        b_t2 = sample_gbm(SET, VolSchedule.constant(v), cfg).states[:, -1, 0] ** 2
        if prev is not None:
            assert np.all(b_t2 >= prev - 1e-15)
        prev = b_t2


def test_best_schedule_stays_inside_set():
    est = upper_expectation_mc(_gbm_spec(), SET, terminal_square,
                               _cfg(n_paths=200, n_steps=20), n_segments=3, n_grid=3)
    from gctrl import contains

    for v in est.best_schedule.values:
        assert contains(SET, v)
    assert est.n_schedules_searched == 27


def test_candidate_schedule_counts():
    scheds = candidate_schedules(SET, 1.0, n_segments=2, n_grid=4)
    assert len(scheds) == 16
    set2 = AmbiguitySet(dim=2, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
    scheds2 = candidate_schedules(set2, 1.0, n_segments=2, n_grid=2)
    assert len(scheds2) == 16  # (2^2 diagonal combos)^2 segments


def test_candidate_explosion_guarded(monkeypatch):
    def not_before_the_guard(*args):
        raise AssertionError("covariances built or normals drawn before the candidate guard")

    # the count comes from the levels alone, so a high dimension is rejected at no cost
    monkeypatch.setattr(estimators.np, "diag", not_before_the_guard)
    monkeypatch.setattr(estimators, "path_normals", not_before_the_guard)
    with pytest.raises(ConfigError, match="candidates"):
        candidate_schedules(SET, 1.0, n_segments=10, n_grid=10)
    with pytest.raises(ConfigError, match="candidates"):
        upper_expectation_mc(_gbm_spec(), SET, terminal_square, _cfg(), n_segments=10, n_grid=10)


def test_a_segment_without_euler_steps_is_a_config_error(monkeypatch):
    # Two steps over four segments fall in segments 0 and 2 only, so the levels of
    # segments 1 and 3 would be searched and reported without acting on any path.
    def not_before_the_guard(*args):
        raise AssertionError("normals drawn before the step guard")

    monkeypatch.setattr(estimators, "path_normals", not_before_the_guard)
    spec, kw = SdeSpec.brownian(1), dict(n_segments=4, n_grid=2)
    with pytest.raises(ConfigError, match=r"n_segments = 4 .* n_steps = 2 "):
        upper_expectation_mc(spec, SET, terminal_square, _cfg(n_steps=2, n_paths=50), **kw)
    monkeypatch.undo()
    est = upper_expectation_mc(spec, SET, terminal_square, _cfg(n_steps=4, n_paths=50), **kw)
    assert est.n_schedules_searched == 16


def test_moment_check_validates_inputs():
    with pytest.raises(ValueError, match="ell"):
        moment_bound_check(_gbm_spec(), SET, _cfg(n_paths=4, n_steps=32), ell=0)
    with pytest.raises(ValueError, match="steps"):
        moment_bound_check(_gbm_spec(), SET, _cfg(n_paths=4, n_steps=4), ell=2)


def test_moment_scaling_pure_diffusion():
    # E|B_t - B_s|^2 = v |t-s| under any constant scenario: slope one
    report = moment_bound_check(_gbm_spec(), SET, _cfg(n_paths=2000, n_steps=256), ell=2)
    assert 0.9 <= report.holder_slope <= 1.1


def test_moment_scaling_smooth_drift():
    # deterministic Lipschitz paths: increments scale with the square of the lag
    spec = SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: 1.0 + 0.0 * x,
        diffusion=lambda t, x, u: 0.0,
        initial_state=[0.0],
    )
    report = moment_bound_check(spec, SET, _cfg(n_paths=10, n_steps=256), ell=2)
    assert abs(report.holder_slope - 2.0) < 1e-6


def _feedback_spec():
    # two state components on one noise, state-dependent drift and diffusion
    return SdeSpec(
        dim_state=2,
        dim_noise=1,
        drift=lambda t, x, u: -0.5 * x + u + np.sin(2.0 * t),
        diffusion=lambda t, x, u: 1.0 + 0.1 * np.cos(x),
        initial_state=[0.3, -0.2],
        control=lambda t, x: 0.2 * np.tanh(x[:, ::-1]),
    )


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("case", ["d1", "d2", "feedback"])
def test_batch_size_does_not_change_results(case, direction):
    set2 = AmbiguitySet(dim=2, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
    spec, set_, n_segments = {
        "d1": (_gbm_spec(), SET, 2),
        "d2": (SdeSpec(dim_state=2, dim_noise=2, drift=lambda t, x, u: 0.0,
                       diffusion=lambda t, x, u: np.eye(2), initial_state=[0.0, 0.0]), set2, 1),
        "feedback": (_feedback_spec(), SET, 2),
    }[case]
    cfg = _cfg(n_paths=60, n_steps=12)

    def functional(bundle):
        return np.sum(np.cos(bundle.states[:, -1, :]) + bundle.states[:, 5, :] ** 2, axis=1)

    # reference: one integrate_gsde call per candidate, in order
    schedules = candidate_schedules(set_, cfg.horizon, n_segments, 3)
    assert len(schedules) == 9
    ref_vals = [functional(integrate_gsde(spec, set_, s, cfg)) for s in schedules]
    ref_means = [float(v.mean()) for v in ref_vals]
    best = int(np.argmax(ref_means) if direction == "upper" else np.argmin(ref_means))
    ref_se = float(ref_vals[best].std(ddof=1) / np.sqrt(cfg.n_paths))
    best_states = integrate_gsde(spec, set_, schedules[best], cfg).states

    means = []

    def recording(bundle):
        vals = functional(bundle)
        means.append(float(vals.mean()))
        return vals

    est = upper_expectation_mc(spec, set_, recording, cfg, n_segments=n_segments,
                               n_grid=3, direction=direction)
    assert means == ref_means
    assert est.value == ref_means[best]
    assert est.std_error == ref_se
    for got, want in zip(est.best_schedule.values, schedules[best].values):
        assert np.array_equal(got, want)
    assert np.array_equal(est.best_paths.states, best_states)


def test_functional_may_return_a_view_of_its_bundle():
    # the search reuses one path buffer, so it must copy the winner's values
    cfg = _cfg(n_paths=50, n_steps=8)
    schedules = candidate_schedules(SET, cfg.horizon, 2, 3)
    ref = [integrate_gsde(_gbm_spec(), SET, s, cfg).states[:, -1, 0] for s in schedules]
    best = int(np.argmax([v.mean() for v in ref]))
    assert best < len(schedules) - 1
    est = upper_expectation_mc(_gbm_spec(), SET, lambda b: b.states[:, -1, 0], cfg,
                               n_segments=2, n_grid=3)
    assert est.value == ref[best].mean()
    assert est.std_error == float(ref[best].std(ddof=1) / np.sqrt(cfg.n_paths))


def test_nonfinite_in_batch_names_candidate_and_path():
    # drift turns NaN once |x| passes a threshold that, with these normals,
    # only the two highest constant variance levels reach before the last step
    cfg = _cfg(n_paths=40, n_steps=20)
    walk = np.cumsum(np.sqrt(cfg.dt) * path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, 1), axis=1)
    threshold = np.sqrt(0.7) * np.max(np.abs(walk[:, :-1]))
    spec = SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: np.where(np.abs(x) > threshold, np.nan, 0.0),
        diffusion=lambda t, x, u: 1.0,
        initial_state=[0.0],
    )
    schedules = candidate_schedules(SET, cfg.horizon, 1, 5)
    with pytest.raises(NumericError) as info:
        upper_expectation_mc(spec, SET, terminal_square, cfg, n_segments=1, n_grid=5)
    found = re.search(r"non-finite state on path (\d+) at step (\d+) "
                      r".* under candidate schedule (\d+);", str(info.value))
    assert found is not None, str(info.value)
    path, step, candidate = (int(g) for g in found.groups())
    assert candidate == 3  # the first of the diverging pair in product order
    with pytest.raises(NumericError, match=f"on path {path} at step {step} "):
        integrate_gsde(spec, SET, schedules[candidate], cfg)


@pytest.mark.parametrize("case", ["d2", "feedback", "uneven_steps"])
def test_the_walk_matches_one_integration_per_candidate(monkeypatch, case):
    set2 = AmbiguitySet(dim=2, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
    d2 = SdeSpec(dim_state=2, dim_noise=2, drift=lambda t, x, u: 0.0,
                 diffusion=lambda t, x, u: np.eye(2), initial_state=[0.0, 0.0])
    # (spec, set, n_segments, n_grid, n_steps)
    spec, set_, n_segments, n_grid, n_steps = {
        "d2": (d2, set2, 2, 2, 12),  # 4 covariances, 16 candidates
        "feedback": (_feedback_spec(), SET, 3, 3, 12),
        # breakpoints 1/3 and 2/3 fall inside steps 4 and 8
        "uneven_steps": (_gbm_spec(), SET, 3, 3, 13),
    }[case]
    cfg = _cfg(n_paths=60, n_steps=n_steps)

    def functional(bundle):
        return np.sum(np.cos(bundle.states[:, -1, :]) + bundle.states[:, 5, :] ** 2, axis=1)

    schedules = candidate_schedules(set_, cfg.horizon, n_segments, n_grid)
    ref_bundles = [integrate_gsde(spec, set_, s, cfg) for s in schedules]
    ref_vals = [functional(bundle) for bundle in ref_bundles]
    ref_means = [float(v.mean()) for v in ref_vals]

    calls = []
    steps = estimators._euler_steps

    def recording_steps(spec, states, roots_t, cuts, normals, dt, candidate):
        calls.append((cuts[-1] - cuts[0], candidate))
        return steps(spec, states, roots_t, cuts, normals, dt, candidate)

    monkeypatch.setattr(estimators, "_euler_steps", recording_steps)
    for direction in ("upper", "lower"):
        calls.clear()
        means = []

        def recording(bundle):
            vals = functional(bundle)
            means.append(float(vals.mean()))
            return vals

        est = upper_expectation_mc(spec, set_, recording, cfg, n_segments=n_segments,
                                   n_grid=n_grid, direction=direction)
        best = int(np.argmax(ref_means) if direction == "upper" else np.argmin(ref_means))
        assert means == ref_means
        assert est.value == ref_means[best]
        assert est.std_error == float(ref_vals[best].std(ddof=1) / np.sqrt(cfg.n_paths))
        assert est.best_schedule.breakpoints == schedules[best].breakpoints
        for got, want in zip(est.best_schedule.values, schedules[best].values, strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(est.best_paths.states, ref_bundles[best].states)
        # One whole-horizon call per candidate, in order; the best one is integrated
        # again when a later candidate has overwritten the path buffer.
        walked = [*range(len(schedules)), *([best] if best < len(schedules) - 1 else [])]
        assert calls == [(cfg.n_steps, c) for c in walked]


def test_the_functional_reads_the_path_buffer_read_only():
    # The buffer holds x0 once for every candidate, so a functional may not write it.
    def writing(bundle):
        bundle.states[:, 0, :] = 5.0
        return bundle.states[:, -1, 0]

    with pytest.raises(ValueError, match="read-only"):
        upper_expectation_mc(_gbm_spec(), SET, writing, _cfg(n_paths=5, n_steps=4),
                             n_segments=1, n_grid=2)


def test_nonfinite_in_prefix_tree_names_first_diverging_candidate():
    # The drift turns NaN in the second segment only, once |x| passes a threshold
    # that only high variance levels reach.  Under first level 2 the top second
    # level diverges steps before level 3 does, so naming the candidate that
    # diverges first in time would name a later one than product order.
    cfg = _cfg(n_paths=40, n_steps=20, seed=7)
    walk = np.cumsum(np.sqrt(cfg.dt) * path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, 1), axis=1)
    threshold = np.sqrt(0.7) * np.max(np.abs(walk[:, 10:-1]))
    spec = SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: np.where((t >= 0.5) & (np.abs(x) > threshold), np.nan, 0.0),
        diffusion=lambda t, x, u: 1.0,
        initial_state=[0.0],
    )
    schedules = candidate_schedules(SET, cfg.horizon, 2, 5)
    stops = {}
    for candidate, schedule in enumerate(schedules):
        try:
            integrate_gsde(spec, SET, schedule, cfg)
        except NumericError as exc:
            found = re.search(r"on path (\d+) at step (\d+) ", str(exc))
            stops[candidate] = tuple(int(g) for g in found.groups())
    first = min(stops)
    assert all(step > cfg.n_steps // 2 for _, step in stops.values())
    assert any(c // 5 == first // 5 and stops[c][1] < stops[first][1] for c in stops)

    with pytest.raises(NumericError) as info:
        upper_expectation_mc(spec, SET, terminal_square, cfg, n_segments=2, n_grid=5)
    found = re.search(r"non-finite state on path (\d+) at step (\d+) "
                      r".* under candidate schedule (\d+);", str(info.value))
    assert found is not None, str(info.value)
    path, step, candidate = (int(g) for g in found.groups())
    assert candidate == first
    assert (path, step) == stops[first]


def test_moment_bound_contracting_sde_finite_k():
    # mean reversion with unit noise: the envelope moment stays bounded
    spec = SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: -x,
        diffusion=lambda t, x, u: 1.0,
        initial_state=[1.0],
    )
    report = moment_bound_check(spec, SET, _cfg(n_paths=2000, n_steps=256), ell=2)
    # K = sup_moment / (1 + |x0|^2); OU keeps E max |x|^2 near its start level
    k = report.sup_moment / 2.0
    assert np.isfinite(k)
    assert k < 4.0
    assert 0.9 <= report.holder_slope <= 1.1


SET2 = AmbiguitySet(dim=2, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
DEGENERATE = AmbiguitySet(dim=1, sigma_lo_sq=0.5, sigma_hi_sq=0.5)


@pytest.mark.parametrize("n_paths", [1, 40])
@pytest.mark.parametrize("set_", [SET, SET2, DEGENERATE], ids=["d1", "d2", "degenerate"])
@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("name", ["x_squared", "minus_x_squared", "constant", "indicator"])
def test_terminal_search_equals_the_euler_search(monkeypatch, name, direction, set_, n_paths):
    cfg = _cfg(n_paths=n_paths, n_steps=12)
    # Per row: 1 where the first coordinate ends above -1.3.  On d1 the one path of seed 99
    # does so under candidates 0, 1 and 3 alone, so the ties the screen confirms, at 1.0
    # upward and at 0.0 downward, are not adjacent in product order.
    payoff = {**PAYOFFS, "indicator": lambda x, c: (x[:, 0] > -1.3).astype(float)}[name]
    kw = dict(n_segments=2, direction=direction, n_grid=3)
    walked = []
    steps = estimators._euler_steps

    def recording(*args):
        walked.append(args[-1])
        return steps(*args)

    monkeypatch.setattr(estimators, "_euler_steps", recording)
    got = terminal_expectation_mc(set_, lambda x: payoff(x, 0.5), cfg, **kw)
    monkeypatch.undo()
    want = upper_expectation_mc(SdeSpec.brownian(set_.dim), set_,
                                lambda b: payoff(b.states[:, -1, :], 0.5), cfg, **kw)
    assert got.value == want.value
    assert got.std_error == want.std_error
    assert got.n_schedules_searched == want.n_schedules_searched
    assert got.best_schedule.breakpoints == want.best_schedule.breakpoints
    for a, b in zip(got.best_schedule.values, want.best_schedule.values, strict=True):
        assert np.array_equal(a, b)
    assert np.array_equal(got.best_paths.times, want.best_paths.times)
    assert np.array_equal(got.best_paths.states, want.best_paths.states)
    if name == "constant":  # every candidate ties, and the earliest wins
        first = candidate_schedules(set_, cfg.horizon, 2, 3)[0]
        for a, b in zip(got.best_schedule.values, first.values, strict=True):
            assert np.array_equal(a, b)
    if name == "indicator" and set_ is SET and n_paths == 1:
        assert np.any(np.diff(sorted(set(walked))) > 1), walked


def test_terminal_search_keeps_the_errors(monkeypatch):
    def not_before_the_guard(*args):
        raise AssertionError("normals drawn before the guard")

    def square(x):
        return PAYOFFS["x_squared"](x, 0.0)

    monkeypatch.setattr(estimators, "path_normals", not_before_the_guard)
    with pytest.raises(ConfigError, match="candidates"):
        terminal_expectation_mc(SET, square, _cfg(), n_segments=10, n_grid=10)
    with pytest.raises(ConfigError) as info:
        terminal_expectation_mc(SET, square, _cfg(n_steps=2, n_paths=50), n_segments=4, n_grid=2)
    assert str(info.value) == ("n_segments = 4 leaves a segment that none of the "
                               "n_steps = 2 Euler steps falls in")
    monkeypatch.undo()
    cfg = _cfg(n_steps=4, n_paths=50)
    with pytest.raises(ValueError, match="one value per path"):
        terminal_expectation_mc(SET, lambda x: np.concatenate([x[:, 0], x[:, 0]]), cfg)
    with pytest.raises(NumericError, match="non-finite"):
        terminal_expectation_mc(SET, lambda x: np.where(x[:, 0] > 1.0, np.inf, 0.0), cfg)


def test_a_search_walks_the_steps_its_screen_sums(monkeypatch):
    # 13 steps on 3 segments: the starts 1/3 and 2/3 fall inside steps 4 and 8, so the
    # segments hold 5, 4 and 4 steps.  Seed 1's segment sums are +, -, +, so the upward
    # search on X_T picks high, low, high, and a step walked in the wrong segment shows.
    cfg = _cfg(n_paths=1, n_steps=13, seed=1)
    screened = []
    screen = estimators._screen

    def recording(payoff, normals, roots_t, cuts, dt):
        screened.append(list(cuts))
        return screen(payoff, normals, roots_t, cuts, dt)

    monkeypatch.setattr(estimators, "_screen", recording)
    est = terminal_expectation_mc(SET, lambda x: x[:, 0], cfg, n_segments=3, n_grid=2)
    assert screened == [[0, 5, 9, 13]]
    levels = [float(v[0, 0]) for v in est.best_schedule.values]
    assert levels == [1.0, 0.25, 1.0]
    held = np.repeat(levels, np.diff(screened[0]))
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, 1)[0, :, 0]
    assert np.allclose(np.diff(est.best_paths.states[0, :, 0]),
                       np.sqrt(cfg.dt) * normals * np.sqrt(held), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("terminal", [False, True], ids=["euler-search", "terminal-search"])
def test_a_search_builds_its_segment_step_table_once(monkeypatch, terminal):
    from gctrl import sde

    calls = []
    step_intervals = sde._step_intervals

    def counting(*args):
        calls.append(args)
        return step_intervals(*args)

    monkeypatch.setattr(sde, "_step_intervals", counting)
    cfg = _cfg(n_paths=20, n_steps=13)
    kw = dict(n_segments=3, n_grid=3)
    if terminal:
        terminal_expectation_mc(SET, lambda x: x[:, 0] ** 2, cfg, **kw)
    else:
        upper_expectation_mc(_gbm_spec(), SET, terminal_square, cfg, **kw)
    assert len(calls) == 1


def test_the_screen_holds_less_than_the_walks_buffers():
    import tracemalloc

    # The searches of bench/scenario.cfg (625 candidates of 1,000 paths) and of
    # configs/heat.cfg (9 candidates of 4,000 paths), each against one path buffer.
    spec = SdeSpec.brownian(1)
    for n_paths, n_steps, n_segments, n_grid in [(1000, 200, 4, 5), (4000, 250, 2, 3)]:
        cfg = PathConfig(n_steps=n_steps, horizon=1.0, n_paths=n_paths, seed=3)
        _, _, roots_t, _, cuts = estimators._checked_search(spec, SET, cfg, n_segments,
                                                            "upper", n_grid)
        normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, 1)
        tracemalloc.start()
        try:
            estimators._screen(lambda x: PAYOFFS["x_squared"](x, 0.0), normals, roots_t, cuts,
                               cfg.dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.n_paths * (cfg.n_steps + 1) * 8, (n_paths, peak)


def _running_cost(bundle):
    """A running cost summed step by step, as the policy Monte Carlo's functional is."""
    total = np.zeros(bundle.n_paths)
    for k in range(bundle.times.size - 1):
        total += np.abs(bundle.states[:, k, 0]) ** 0.5
    return total + bundle.states[:, -1, 0]


@pytest.mark.parametrize("search", ["policy_mc", "terminal"])
def test_a_search_holds_the_normals_and_one_path_buffer(search):
    import tracemalloc

    # verify's policy Monte Carlo on configs/desk.cfg and simulate on configs/heat.cfg
    if search == "policy_mc":
        cfg = PathConfig(n_steps=200, horizon=1.0, n_paths=2000, seed=5)
        spec = SdeSpec(dim_state=1, dim_noise=1, drift=lambda t, x, u: 0.02 * x,
                       diffusion=lambda t, x, u: 0.5 * x, initial_state=[1.0])

        def run():
            return upper_expectation_mc(spec, SET, _running_cost, cfg, n_segments=2, n_grid=3)
    else:
        cfg = PathConfig(n_steps=250, horizon=1.0, n_paths=4000, seed=7)

        def run():
            return terminal_expectation_mc(SET, lambda x: PAYOFFS["x_squared"](x, 0.0), cfg,
                                           n_segments=2, n_grid=3)
    path_buffer = cfg.n_paths * (cfg.n_steps + 1) * 8
    tracemalloc.start()
    try:
        est = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_schedules_searched == 9
    assert peak < 2.5 * path_buffer, peak / path_buffer
