"""Path simulation: moment identities, reductions, determinism, CSV format."""

import numpy as np
import pytest

from gctrl import (
    AmbiguitySet,
    NumericError,
    PathConfig,
    SdeSpec,
    VolSchedule,
    bundle_csv_text,
    integrate_gsde,
    sample_gbm,
)
from gctrl.sde import path_normals

SET = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=1.0)


def _cfg(**kw):
    base = dict(n_steps=200, horizon=1.0, n_paths=4000, seed=12345)
    base.update(kw)
    return PathConfig(**base)


def test_terminal_second_moment_upper_bound_schedule():
    # constant high-variance scenario attains the worst-case second moment
    bundle = sample_gbm(SET, VolSchedule.constant(1.0), _cfg())
    b_t = bundle.states[:, -1, 0]
    mean = np.mean(b_t**2)
    se = np.std(b_t**2, ddof=1) / np.sqrt(len(b_t))
    assert abs(mean - 1.0) <= 3 * se


def test_terminal_second_moment_lower_bound_schedule():
    bundle = sample_gbm(SET, VolSchedule.constant(0.25), _cfg())
    b_t = bundle.states[:, -1, 0]
    mean = np.mean(b_t**2)
    se = np.std(b_t**2, ddof=1) / np.sqrt(len(b_t))
    assert abs(mean - 0.25) <= 3 * se


def test_paths_start_at_zero_and_deterministic():
    cfg = _cfg(n_paths=4, n_steps=16)
    a = sample_gbm(SET, VolSchedule.constant(0.5), cfg)
    b = sample_gbm(SET, VolSchedule.constant(0.5), cfg)
    assert np.all(a.states[:, 0, :] == 0.0)
    assert np.array_equal(a.states, b.states)


def test_path_count_extension_keeps_existing_paths():
    small = sample_gbm(SET, VolSchedule.constant(0.5), _cfg(n_paths=3, n_steps=32))
    large = sample_gbm(SET, VolSchedule.constant(0.5), _cfg(n_paths=7, n_steps=32))
    assert np.array_equal(small.states, large.states[:3])


def test_integrate_reduces_to_gbm():
    cfg = _cfg(n_paths=5, n_steps=64)
    spec = SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: 0.0,
        diffusion=lambda t, x, u: 1.0,
        initial_state=[0.0],
    )
    sched = VolSchedule(breakpoints=(0.0, 0.5), values=(np.array([[1.0]]), np.array([[0.25]])))
    assert np.array_equal(
        integrate_gsde(spec, SET, sched, cfg).states,
        sample_gbm(SET, sched, cfg).states,
    )


def test_gbm_matches_cumulative_increments():
    # reference: the running sum of sqrt(dt) * sqrt(v(t_k)) * xi, segment by segment
    cfg = _cfg(n_paths=5, n_steps=64)
    sched = VolSchedule(breakpoints=(0.0, 0.5), values=(np.array([[1.0]]), np.array([[0.25]])))
    roots = np.where(np.arange(cfg.n_steps) * cfg.dt < 0.5, 1.0, 0.5)
    incr = np.sqrt(cfg.dt) * path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, 1) * roots[:, None]
    expected = np.zeros((cfg.n_paths, cfg.n_steps + 1, 1))
    np.cumsum(incr, axis=1, out=expected[:, 1:, :])
    assert np.array_equal(sample_gbm(SET, sched, cfg).states, expected)


def test_deterministic_ode_oracle():
    # x' = -x, x(0) = 1 has x(1) = exp(-1); the Euler error is O(dt)
    cfg = _cfg(n_paths=1, n_steps=10_000)
    spec = SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: -x,
        diffusion=lambda t, x, u: 0.0,
        initial_state=[1.0],
    )
    bundle = integrate_gsde(spec, SET, VolSchedule.constant(1.0), cfg)
    assert abs(bundle.states[0, -1, 0] - np.exp(-1.0)) < 1e-3


def test_riskless_wealth_growth_oracle():
    # no consumption, no risky holdings: X(T) = x * exp(r T)
    r = 0.02
    cfg = _cfg(n_paths=1, n_steps=10_000)
    spec = SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: r * x,
        diffusion=lambda t, x, u: 0.0,
        initial_state=[1.0],
    )
    bundle = integrate_gsde(spec, SET, VolSchedule.constant(0.25), cfg)
    assert abs(bundle.states[0, -1, 0] - np.exp(r)) < 1e-4


def test_two_dimensional_increment_covariance():
    set2 = AmbiguitySet(dim=2, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
    v = np.array([[0.8, 0.3], [0.3, 0.5]])
    assert np.all(np.linalg.eigvalsh(v) >= 0.25) and np.all(np.linalg.eigvalsh(v) <= 1.0)
    cfg = _cfg(n_paths=20_000, n_steps=8)
    bundle = sample_gbm(set2, VolSchedule.constant(v), cfg)
    b_t = bundle.states[:, -1, :]
    cov = np.cov(b_t.T)
    assert np.max(np.abs(cov - v)) < 0.03


def test_schedule_gap_rejected():
    with pytest.raises(ValueError, match="not covered|start at time 0"):
        VolSchedule(breakpoints=(0.5,), values=(np.array([[0.5]]),))


def test_schedule_outside_set_rejected():
    with pytest.raises(ValueError, match="outside the ambiguity set"):
        sample_gbm(SET, VolSchedule.constant(3.0), _cfg(n_paths=1, n_steps=2))


def test_nan_drift_aborts_with_location():
    spec = SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: np.full_like(x, np.nan),
        diffusion=lambda t, x, u: 0.0,
        initial_state=[1.0],
    )
    with pytest.raises(NumericError, match="path 0 at step 1"):
        integrate_gsde(spec, SET, VolSchedule.constant(0.5), _cfg(n_paths=2, n_steps=4))


def test_feedback_control_reaches_drift():
    # control u = -x makes the drift u, i.e. the same contraction as above
    cfg = _cfg(n_paths=1, n_steps=5_000)
    spec = SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, u: u,
        diffusion=lambda t, x, u: 0.0,
        initial_state=[1.0],
        control=lambda t, x: -x,
    )
    bundle = integrate_gsde(spec, SET, VolSchedule.constant(1.0), cfg)
    assert abs(bundle.states[0, -1, 0] - np.exp(-1.0)) < 1e-3


def test_csv_format_and_stability():
    cfg = _cfg(n_paths=2, n_steps=3)
    bundle = sample_gbm(SET, VolSchedule.constant(0.5), cfg)
    text = bundle_csv_text(bundle)
    lines = text.splitlines()
    assert lines[0] == "path_id,time,state_0"
    assert len(lines) == 1 + 2 * 4
    # time column uses nine fractional digits
    assert lines[1].split(",")[1] == "0.000000000"
    assert lines[2].split(",")[1] == f"{1 / 3:.9f}"
    # states round-trip exactly at 17 significant digits
    val = float(lines[2].split(",")[2])
    assert val == bundle.states[0, 1, 0]
    assert text == bundle_csv_text(sample_gbm(SET, VolSchedule.constant(0.5), cfg))


def test_schedule_needs_one_value_per_interval():
    with pytest.raises(ValueError, match="one covariance per interval"):
        VolSchedule(breakpoints=(0.0, 0.5), values=(np.array([[0.5]]),))


def test_value_at_right_open_intervals():
    sched = VolSchedule(breakpoints=(0.0, 0.5), values=(np.array([[1.0]]), np.array([[0.25]])))
    assert sched.value_at(0.0)[0, 0] == 1.0
    assert sched.value_at(0.49999)[0, 0] == 1.0
    assert sched.value_at(0.5)[0, 0] == 0.25
    with pytest.raises(ValueError):
        sched.value_at(-0.1)
