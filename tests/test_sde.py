"""Path simulation: moment identities, reductions, determinism, CSV format."""

import numpy as np
import pytest

from gctrl import (
    AmbiguitySet,
    HjbProblem,
    MarketModel,
    NumericError,
    PathConfig,
    SdeSpec,
    VolSchedule,
    bundle_csv_text,
    integrate_gsde,
    sample_gbm,
)
from gctrl.estimators import _breakpoints
from gctrl.sde import _sqrt_psd, _step_intervals, path_normals

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


# Every piecewise-constant object, built from the given starts, with the name
# of the field that holds them.
_SEGMENTED = (
    ("breakpoints", lambda s: VolSchedule(breakpoints=s, values=(0.5,))),
    ("segment_starts", lambda s: HjbProblem(
        drift=lambda t, x, u: 0.0 * x, diffusion=lambda t, x, u: 1.0 + 0.0 * x,
        running_cost=lambda t, x, u: 0.0 * x, terminal_cost=lambda x: x, horizon=1.0,
        controls=(0.0,), ambiguity=SET, segment_starts=s)),
    ("segment_starts", lambda s: MarketModel(segment_starts=s, r=(0.02,), alpha=(0.06,),
                                             gamma=(0.2,))),
)


@pytest.mark.parametrize("starts", [None, (), (0.5,), (0.0, 0.0), (0.0, 0.5, 0.25)],
                         ids=["none", "empty", "late", "repeated", "decreasing"])
@pytest.mark.parametrize("name,build", _SEGMENTED,
                         ids=["VolSchedule", "HjbProblem", "MarketModel"])
def test_segment_starts_are_checked_alike(name, build, starts):
    with pytest.raises(ValueError, match=name):
        build(starts)


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


def test_drift_and_diffusion_changed_in_place_are_read_at_every_step():
    # An array returned again but changed in place since the last step is read
    # afresh at every step, whether it is float64 or of integers.
    cfg = _cfg(n_paths=5, n_steps=8)
    drift, diffusion = np.zeros(1, dtype=int), np.zeros((1, 1))

    def drift_in_place(t, x, u):
        drift[0] = round(8 * t)
        return drift

    def diffusion_in_place(t, x, u):
        diffusion[0, 0] = 2.0 - t
        return diffusion

    specs = [SdeSpec(1, 1, drift_in_place, diffusion_in_place, np.zeros(1)),
             SdeSpec(1, 1, lambda t, x, u: float(round(8 * t)),
                     lambda t, x, u: np.array([[2.0 - t]]), np.zeros(1))]
    in_place, fresh = (integrate_gsde(s, SET, VolSchedule.constant(0.5), cfg) for s in specs)
    assert np.array_equal(in_place.states, fresh.states)


_ROWS = 5
_DIMS = ((1, 1), (2, 1), (1, 2), (3, 2), (2, 3))  # (dim_state m, dim_noise d)


def _shape_cases():
    for m, d in _DIMS:
        drifts = [(), (m,), (1, m), (_ROWS, 1)] + [(_ROWS,)] * (m == 1)
        diffusions = ([(), (d,), (m, d), (m, 1), (1, d), (_ROWS, 1, d), (1, 1, 1), (1, m, d)]
                      + [(_ROWS, m)] * (d == 1) + [(_ROWS,)] * (d == m == 1))
        for s in drifts:
            yield pytest.param(m, d, s, (_ROWS, m, d), id=f"m{m}-d{d}-drift{s}")
        for s in diffusions:
            yield pytest.param(m, d, (_ROWS, m), s, id=f"m{m}-d{d}-diffusion{s}")


def _shaped(shape, t):
    """Distinct entries of ``shape`` that change with t; a plain number for shape ()."""
    value = (1.0 + t) * 0.1 * np.arange(1.0, np.prod(shape) + 1.0).reshape(shape)
    return value if shape else float(value)


def _at_full_shape(value, full):
    """``value`` as the Euler step reads it, broadcast to ``full`` shape.

    A shape that ``full`` starts with (a (rows,) drift when m = 1, a
    (rows, m) or (rows,) diffusion when d = 1) gains trailing axes; any other
    shape broadcasts from the right.  The result is a view, not a copy: where
    a diffusion is broadcast along d >= 2 noise columns, einsum sums
    g * dw over them as g * sum(dw), whose last bit can differ from that of
    the same values laid out in full.
    """
    value = np.asarray(value)
    if value.ndim and full[:value.ndim] == value.shape:
        value = value.reshape(value.shape + (1,) * (len(full) - value.ndim))
    return np.broadcast_to(value, full)


def _shape_run(m, d, drift, diffusion):
    set_ = AmbiguitySet(dim=d, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
    cov = 0.4 * np.eye(d) + 0.1  # eigenvalues 0.4 and 0.4 + 0.1 d, inside the set
    spec = SdeSpec(m, d, drift, diffusion, np.zeros(m))
    return integrate_gsde(spec, set_, VolSchedule.constant(cov), _cfg(n_paths=_ROWS, n_steps=6))


@pytest.mark.parametrize("m,d,drift_shape,diffusion_shape", _shape_cases())
def test_drift_and_diffusion_shapes_read_as_their_full_shapes(m, d, drift_shape, diffusion_shape):
    """Every accepted shape gives the bits of returning its values broadcast to full shape."""
    full_f, full_g = (_ROWS, m), (_ROWS, m, d)
    shaped = _shape_run(m, d, lambda t, x, u: _shaped(drift_shape, t),
                        lambda t, x, u: _shaped(diffusion_shape, 2.0 * t))
    full = _shape_run(m, d, lambda t, x, u: _at_full_shape(_shaped(drift_shape, t), full_f),
                      lambda t, x, u: _at_full_shape(_shaped(diffusion_shape, 2.0 * t), full_g))
    assert np.array_equal(shaped.states, full.states)


@pytest.mark.parametrize("m,d", _DIMS)
@pytest.mark.parametrize("case", ["drift-wide", "drift-extra-axis",
                                  "diffusion-wide", "diffusion-extra-axis"])
def test_misshaped_drift_or_diffusion_raises(m, d, case):
    drift_shape, diffusion_shape = {
        "drift-wide": ((_ROWS, m + 1), (_ROWS, m, d)),
        "drift-extra-axis": ((1, _ROWS, m), (_ROWS, m, d)),
        "diffusion-wide": ((_ROWS, m), (m, d + 1)),
        "diffusion-extra-axis": ((_ROWS, m), (1, _ROWS, m, d)),
    }[case]
    with pytest.raises(ValueError):
        _shape_run(m, d, lambda t, x, u: np.ones(drift_shape),
                   lambda t, x, u: np.ones(diffusion_shape))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_path_normals_are_one_fresh_generator_per_path(seed, dim):
    got = path_normals(seed, 7, 13, dim)
    for p in range(7):
        gen = np.random.Generator(np.random.Philox(key=(p << 64) | seed))
        assert np.array_equal(got[p], gen.standard_normal((13, dim)))


def _live_second_component(x):
    g = np.zeros((len(x), 2, 1))
    g[:, 1, 0] = 1.0 + 0.1 * np.cos(x[:, 1])
    return g


@pytest.mark.parametrize("diffusion", [
    pytest.param(lambda t, x, u: _live_second_component(x), id="rows-m-d"),
    pytest.param(lambda t, x, u: _live_second_component(x)[:, :, 0], id="rows-m"),
    pytest.param(lambda t, x, u: np.array([[0.0], [0.7]]), id="m-d"),
])
def test_one_noise_step_has_the_bits_of_the_einsum_contraction(diffusion):
    # State 0 starts at -0.0 under a -0.0 drift and no diffusion: a product g * dw of
    # -0.0 would keep it at -0.0 on the paths whose increment is negative, where
    # einsum's sum, 0.0 + g * dw, turns it to +0.0.
    cfg = _cfg(n_paths=_ROWS, n_steps=10)

    def drift(t, x, u):
        return np.column_stack([np.full(len(x), -0.0), 0.3 * np.sin(x[:, 1])])

    spec = SdeSpec(2, 1, drift, diffusion, np.array([-0.0, 0.5]))
    got = integrate_gsde(spec, SET, VolSchedule.constant(0.5), cfg).states

    root_t = _sqrt_psd(np.array([[0.5]])).T
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, 1)
    x = np.tile(spec.initial_state, (_ROWS, 1))
    want = [x]
    for k in range(cfg.n_steps):
        t = k * cfg.dt
        g = np.asarray(diffusion(t, x, None)).reshape(-1, 2, 1)
        dw = (np.sqrt(cfg.dt) * normals[:, k, :]) @ root_t
        x = x + drift(t, x, None) * cfg.dt + np.einsum("...md,...d->...m", g, dw)
        want.append(x)
    want = np.stack(want, axis=1)
    assert np.any(normals < 0.0) and np.signbit(want[:, 0, 0]).all()
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


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


def test_equal_segments_get_equal_steps():
    # k * (horizon / n_steps) and horizon * j / n_segments round apart: without the slack
    # in _step_intervals, at horizon 1, 6 segments took 1, 1, 1, 1, 2, 0 of 6 steps.
    uneven = []
    for horizon in (0.1, 0.25, 0.3, 0.7, 1.0, 2.5, 3.0):
        for n_segments in range(1, 13):
            for multiple in range(1, 7):
                cfg = PathConfig(n_steps=multiple * n_segments, horizon=horizon, n_paths=1,
                                 seed=0)
                times = np.linspace(0.0, horizon, cfg.n_steps + 1)[:-1]
                counts = np.bincount(_step_intervals(_breakpoints(horizon, n_segments), times,
                                                     horizon), minlength=n_segments)
                if counts.tolist() != [multiple] * n_segments:
                    uneven.append((horizon, n_segments, multiple, counts.tolist()))
    assert uneven == []


def test_the_walk_steps_each_segment_where_step_intervals_puts_it():
    # Ten steps of 0.1: 0.3 starts on step 3, 0.45 inside step 4, 0.62 and 0.67 both
    # inside step 6 (so 0.62 holds no step), and 1.5 after the horizon (no step either).
    starts = (0.0, 0.3, 0.45, 0.62, 0.67, 1.5)
    schedule = VolSchedule(starts, tuple(np.array([[v]]) for v in (0.25, 1.0, 0.5, 0.75,
                                                                   0.3, 0.9)))
    cfg = _cfg(n_steps=10, n_paths=5, seed=11)
    spec = SdeSpec(dim_state=1, dim_noise=1, drift=lambda t, x, u: np.sin(t) - 0.5 * x,
                   diffusion=lambda t, x, u: 1.0 + 0.1 * x * x, initial_state=[0.3])
    steps = _step_intervals(starts, np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)[:-1],
                            cfg.horizon)
    assert steps.tolist() == [0, 0, 0, 1, 1, 2, 2, 4, 4, 4]
    # The reference steps each k under the root of segment steps[k], in the walk's order
    # of operations.
    roots_t = [_sqrt_psd(v).T for v in schedule.values]
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, 1)
    x = np.full((cfg.n_paths, 1), 0.3)
    want = [x]
    for k in range(cfg.n_steps):
        t = k * cfg.dt
        dw = (np.sqrt(cfg.dt) * normals[:, k, :]) * roots_t[steps[k]]
        x = x + (np.sin(t) - 0.5 * x) * cfg.dt + ((1.0 + 0.1 * x * x) * dw + 0.0)
        want.append(x)
    assert np.array_equal(integrate_gsde(spec, SET, schedule, cfg).states,
                          np.stack(want, axis=1))


def test_value_at_right_open_intervals():
    sched = VolSchedule(breakpoints=(0.0, 0.5), values=(np.array([[1.0]]), np.array([[0.25]])))
    assert sched.value_at(0.0)[0, 0] == 1.0
    assert sched.value_at(0.49999)[0, 0] == 1.0
    assert sched.value_at(0.5)[0, 0] == 0.25
    with pytest.raises(ValueError):
        sched.value_at(-0.1)
