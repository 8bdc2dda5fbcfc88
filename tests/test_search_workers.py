"""The scenario search at one and two usable CPUs: it walks every candidate in the
calling process, so the estimate, a tie, a divergence and the bytes written are
the same at either count, and no worker is forked.

The names of some cases tell where they fell in the contiguous per-CPU ranges
of candidates into which the search was once split: the first range [0, 2) and
a worker's range [2, 5) of a five-candidate search.
"""

import hashlib
import os

import numpy as np
import pytest
from test_estimators import _feedback_spec
from test_golden_artifacts import GOLDEN
from test_verify_workers import TEST_PID, _assert_no_child_left

from gctrl import estimators
from gctrl.ambiguity import AmbiguitySet
from gctrl.cli import main
from gctrl.errors import NumericError
from gctrl.estimators import upper_expectation_mc
from gctrl.sde import PathConfig, SdeSpec, path_normals

SET = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
SET2 = AmbiguitySet(dim=2, sigma_lo_sq=0.25, sigma_hi_sq=1.0)


def _cfg(n_paths=60, n_steps=12, seed=11):
    return PathConfig(n_steps=n_steps, horizon=1.0, n_paths=n_paths, seed=seed)


def _recording(means: list):
    """A terminal square, recording the means of the calls made in this process."""
    def functional(bundle):
        vals = bundle.states[:, -1, 0] ** 2
        if os.getpid() == TEST_PID:
            means.append(float(vals.mean()))
        return vals
    return functional


def _d1_spec():
    return SdeSpec(dim_state=1, dim_noise=1, drift=lambda t, x, u: 0.05 * x,
                   diffusion=lambda t, x, u: 0.4 * x, initial_state=[1.0])


def _d2_spec():
    return SdeSpec(dim_state=2, dim_noise=2, drift=lambda t, x, u: 0.0,
                   diffusion=lambda t, x, u: np.eye(2), initial_state=[0.0, 0.0])


def _path_functional(means: list):
    """A functional of the whole path, recording the means of the calls made in this process."""
    def functional(bundle):
        states = bundle.states
        vals = np.sum(np.cos(states[:, -1, :]) + states[:, 5, :] ** 2, axis=1)
        if os.getpid() == TEST_PID:
            means.append(float(vals.mean()))
        return vals
    return functional


# (spec, set, n_segments, n_grid): the candidate count is n_grid ** (dim * n_segments)
CASES = {
    ("d1", 9): (_d1_spec, SET, 2, 3),
    ("d1", 16): (_d1_spec, SET, 2, 4),
    ("d2", 9): (_d2_spec, SET2, 1, 3),
    ("d2", 16): (_d2_spec, SET2, 2, 2),
    ("feedback", 9): (_feedback_spec, SET, 2, 3),
    ("feedback", 16): (_feedback_spec, SET, 4, 2),
}


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("case", list(CASES), ids=[f"{name}-{n}" for name, n in CASES])
def test_split_search_equals_the_one_cpu_search(usable_cpus, case, direction):
    build, set_, n_segments, n_grid = CASES[case]
    cfg = _cfg()
    n = case[1]
    usable_cpus(1)
    means = []
    one = upper_expectation_mc(build(), set_, _path_functional(means), cfg,
                               n_segments=n_segments, direction=direction, n_grid=n_grid)
    assert one.n_schedules_searched == len(means) == n

    usable_cpus(2)
    one_cpu_means = list(means)
    means.clear()
    two = upper_expectation_mc(build(), set_, _path_functional(means), cfg,
                               n_segments=n_segments, direction=direction, n_grid=n_grid)
    # This process evaluates every candidate once, in order, with the one-CPU means.
    assert means == one_cpu_means
    assert two.value == one.value
    assert two.std_error == one.std_error
    assert two.n_schedules_searched == one.n_schedules_searched == n
    assert two.best_schedule.breakpoints == one.best_schedule.breakpoints
    for got, want in zip(two.best_schedule.values, one.best_schedule.values, strict=True):
        assert np.array_equal(got, want)
    assert np.array_equal(two.best_paths.times, one.best_paths.times)
    assert np.array_equal(two.best_paths.states, one.best_paths.states)
    _assert_no_child_left()


def _terminal_indicator(threshold):
    """1.0 on every path where path 0 ends beyond ``threshold``, else 0.0: means tie exactly."""
    return lambda bundle: np.full(bundle.n_paths, float(abs(bundle.states[0, -1, 0]) > threshold))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("direction, above, earliest", [
    # One segment, five levels.  Path 0 ends beyond the threshold under every level
    # above ``above``, so these candidates all read 1.0, the others 0.0.
    pytest.param("upper", 0, 1, id="upper-tie-across-ranges"),
    pytest.param("lower", 2, 0, id="lower-tie-across-ranges"),
    pytest.param("upper", 1, 2, id="upper-tie-from-the-worker-range-start"),
    pytest.param("upper", 2, 3, id="upper-tie-in-the-worker-range"),
])
def test_a_tie_goes_to_the_earliest_candidate(usable_cpus, cpus, direction, above, earliest):
    cfg = _cfg()
    walk = np.sum(np.sqrt(cfg.dt) * path_normals(cfg.seed, 1, cfg.n_steps, 1))
    levels = np.linspace(SET.sigma_lo_sq, SET.sigma_hi_sq, 5)
    threshold = abs(walk) * np.sqrt((levels[above] + levels[above + 1]) / 2)
    usable_cpus(cpus)
    est = upper_expectation_mc(SdeSpec.brownian(1), SET, _terminal_indicator(threshold), cfg,
                               n_segments=1, direction=direction)
    assert est.value == (1.0 if direction == "upper" else 0.0)
    assert est.best_schedule.values[0][0, 0] == levels[earliest]
    _assert_no_child_left()


def _diverging_spec(cfg, levels_reached: float) -> SdeSpec:
    """Brownian motion whose drift turns NaN beyond a threshold only the higher levels reach."""
    walk = np.cumsum(np.sqrt(cfg.dt) * path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, 1), axis=1)
    threshold = np.sqrt(levels_reached) * np.max(np.abs(walk[:, :-1]))
    return SdeSpec(dim_state=1, dim_noise=1,
                   drift=lambda t, x, u: np.where(np.abs(x) > threshold, np.nan, 0.0),
                   diffusion=lambda t, x, u: 1.0, initial_state=[0.0])


def _numeric_error_text(spec, cfg, calls) -> str:
    with pytest.raises(NumericError) as info:
        upper_expectation_mc(spec, SET, _recording(calls), cfg, n_segments=1, n_grid=5)
    return str(info.value)


@pytest.mark.parametrize("levels_reached, named", [
    # levels 0.25, 0.4375, 0.625, 0.8125, 1
    pytest.param(0.7, 3, id="worker-range-only"),
    pytest.param(0.35, 1, id="both-ranges"),
])
def test_a_divergence_raises_the_one_cpu_error(usable_cpus, levels_reached, named):
    cfg = _cfg(n_paths=40, n_steps=20)
    spec = _diverging_spec(cfg, levels_reached)
    usable_cpus(1)
    calls = []
    serial = _numeric_error_text(spec, cfg, calls)
    assert f"under candidate schedule {named};" in serial
    assert len(calls) == named

    usable_cpus(2)
    calls.clear()
    assert _numeric_error_text(spec, cfg, calls) == serial
    assert len(calls) == named  # this process walked every candidate before the diverging one
    _assert_no_child_left()


@pytest.mark.parametrize("config", [c for command, c in GOLDEN if command == "simulate"],
                         ids=["simulate-d1", "simulate-d2"])
def test_a_split_simulate_writes_the_golden_bytes(tmp_path, monkeypatch, usable_cpus, config):
    usable_cpus(2)
    walked = []
    steps = estimators._euler_steps

    def recording(*args):
        walked.append(os.getpid())
        return steps(*args)

    monkeypatch.setattr(estimators, "_euler_steps", recording)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--output", str(out)]) == 0
    assert walked == [TEST_PID]  # simulate walks its one confirmed candidate here
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN[("simulate", config)]
    _assert_no_child_left()
