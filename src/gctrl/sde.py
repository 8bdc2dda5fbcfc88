"""Scenario-indexed simulation of ambiguous Brownian motion and controlled SDEs.

A volatility schedule picks one classical prior out of the ambiguity set:
piecewise-constant in time, each interval carrying one covariance matrix from
the set.  Under a fixed schedule the driving noise is ordinary Brownian motion
with increment covariance v(t) * dt, and controlled dynamics are integrated
with the Euler-Maruyama scheme.  Randomness comes from one counter-based
stream per path index, so enlarging the path count never reshuffles the paths
already drawn and every run is bit-reproducible from its seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ambiguity import AmbiguitySet, as_symmetric, contains
from .errors import NumericError

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class VolSchedule:
    """Piecewise-constant covariance scenario on right-open intervals.

    ``breakpoints`` must start at 0.0 and increase strictly; ``values`` holds
    one symmetric matrix per interval, the last interval extending to the end
    of any horizon.
    """

    breakpoints: tuple[float, ...]
    values: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        if not bps:
            raise ValueError("schedule needs at least one breakpoint")
        if bps[0] != 0.0:
            raise ValueError("schedule must start at time 0 (interval not covered)")
        if any(b1 >= b2 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        mats = tuple(as_symmetric(v) for v in self.values)
        if len(mats) != len(bps):
            raise ValueError(
                f"need one covariance per interval: {len(bps)} breakpoints "
                f"but {len(mats)} values"
            )
        dims = {m.shape[0] for m in mats}
        if len(dims) != 1:
            raise ValueError("all schedule values must share one dimension")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", mats)

    @classmethod
    def constant(cls, value) -> "VolSchedule":
        """Schedule holding one covariance for all time; scalars become 1x1."""
        return cls(breakpoints=(0.0,), values=(as_symmetric(value),))

    @property
    def dim(self) -> int:
        return self.values[0].shape[0]

    def value_at(self, t: float) -> np.ndarray:
        """Covariance in force at time t (right-open intervals)."""
        if t < 0.0:
            raise ValueError(f"schedule queried at negative time {t}")
        return self.values[bisect_right(self.breakpoints, t) - 1]


@dataclass(frozen=True)
class PathConfig:
    """Discretization and sampling sizes for one Monte Carlo run."""

    n_steps: int
    horizon: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("n_steps and n_paths must be positive")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


@dataclass(frozen=True)
class SdeSpec:
    """Controlled diffusion in feedback form.

    ``drift(t, x, u)`` must broadcast to (n_paths, dim_state) and
    ``diffusion(t, x, u)`` to (n_paths, dim_state, dim_noise) when ``x`` has
    shape (n_paths, dim_state); plain scalars and constant arrays are fine.
    ``control(t, x)`` produces the feedback value handed to both; ``None``
    means an uncontrolled system (the callables receive u=None).  Each row of
    ``x`` is one path and must be treated independently of the others: the
    scenario search stacks the paths of several schedules into one array.
    """

    dim_state: int
    dim_noise: int
    drift: Callable
    diffusion: Callable
    initial_state: np.ndarray
    control: Callable | None = None

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ValueError("state and noise dimensions must be positive")
        x0 = np.atleast_1d(np.asarray(self.initial_state, dtype=float))
        if x0.shape != (self.dim_state,):
            raise ValueError(f"initial_state must have shape ({self.dim_state},), got {x0.shape}")
        object.__setattr__(self, "initial_state", x0)


@dataclass(frozen=True)
class PathBundle:
    """Simulated paths: times (n_steps+1,), states (n_paths, n_steps+1, m)."""

    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    schedule: VolSchedule

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]


def path_normals(seed: int, n_paths: int, n_steps: int, dim: int) -> np.ndarray:
    """Standard normal draws, one counter-based stream per path index.

    The stream for path p is keyed by (seed, p), so draws for a given path
    do not depend on how many other paths are requested.
    """
    out = np.empty((n_paths, n_steps, dim))
    seed_lo = int(seed) & _MASK64
    for p in range(n_paths):
        key = (p << 64) | seed_lo
        gen = np.random.Generator(np.random.Philox(key=key))
        out[p] = gen.standard_normal((n_steps, dim))
    return out


def _sqrt_psd(v: np.ndarray) -> np.ndarray:
    """Symmetric (spectral) square root; tiny negative eigenvalues clipped."""
    w, q = np.linalg.eigh(v)
    w = np.clip(w, 0.0, None)
    return (q * np.sqrt(w)) @ q.T


def _validate_schedule(set_: AmbiguitySet, schedule: VolSchedule) -> None:
    if schedule.dim != set_.dim:
        raise ValueError(
            f"schedule dimension {schedule.dim} does not match ambiguity set dim {set_.dim}"
        )
    for k, v in enumerate(schedule.values):
        if not contains(set_, v):
            raise ValueError(f"schedule value {k} lies outside the ambiguity set")


def sample_gbm(set_: AmbiguitySet, schedule: VolSchedule, cfg: PathConfig) -> PathBundle:
    """Sample ambiguous Brownian motion under one volatility scenario.

    Paths start at zero; each increment is Gaussian with covariance
    v(t_k) * dt where v is the schedule value on [t_k, t_{k+1}).
    """
    d = set_.dim
    brownian = SdeSpec(dim_state=d, dim_noise=d, drift=lambda t, x, u: 0.0,
                       diffusion=lambda t, x, u: np.eye(d), initial_state=np.zeros(d))
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, d)
    return _integrate_batch(brownian, set_, [schedule], cfg, normals)[0]


def _coerce_drift(value, n: int, m: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1 and m == 1 and arr.shape[0] == n:
        arr = arr[:, None]
    return np.broadcast_to(arr, (n, m))


def _coerce_diffusion(value, n: int, m: int, d: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if d == 1 and arr.ndim == 2 and arr.shape == (n, m):
        arr = arr[:, :, None]
    elif d == 1 and m == 1 and arr.ndim == 1 and arr.shape[0] == n:
        arr = arr[:, None, None]
    return np.broadcast_to(arr, (n, m, d))


def _integrate_batch(
    spec: SdeSpec,
    set_: AmbiguitySet,
    schedules: Sequence[VolSchedule],
    cfg: PathConfig,
    normals: np.ndarray,
    first_index: int | None = None,
) -> list[PathBundle]:
    """Euler-Maruyama integration under C schedules at once, one bundle each.

    The schedules are stacked along the path axis, so the state has
    C * n_paths rows and every schedule sees the same ``normals`` (common
    random numbers).  States are stored time-major, (n_steps+1, C*n_paths, m),
    so each step writes one contiguous block; every bundle's states are a
    (n_paths, n_steps+1, m) view into that array.  A non-finite state aborts
    with the path index within its schedule, and with the schedule's index
    counted from ``first_index`` when one is given.
    """
    for schedule in schedules:
        _validate_schedule(set_, schedule)
        if schedule.dim != spec.dim_noise:
            raise ValueError(
                f"noise dimension {spec.dim_noise} does not match schedule dim {schedule.dim}"
            )
    n, m, d, c = cfg.n_paths, spec.dim_state, spec.dim_noise, len(schedules)
    rows = c * n
    dt = cfg.dt
    sqrt_dt = np.sqrt(dt)
    # roots_t[k, j] is the transposed square root of the covariance that
    # schedule j has in force on [t_k, t_{k+1}).
    t_steps = np.arange(cfg.n_steps) * dt
    roots_t = np.empty((cfg.n_steps, c, d, d))
    for j, schedule in enumerate(schedules):
        seg = np.searchsorted(schedule.breakpoints, t_steps, side="right") - 1
        roots_t[:, j] = np.stack([_sqrt_psd(v).T for v in schedule.values])[seg]

    states = np.empty((cfg.n_steps + 1, rows, m))
    states[0] = spec.initial_state
    x = np.array(states[0])
    for k in range(cfg.n_steps):
        t_k = k * dt
        u = spec.control(t_k, x) if spec.control is not None else None
        f = _coerce_drift(spec.drift(t_k, x, u), rows, m)
        g = _coerce_diffusion(spec.diffusion(t_k, x, u), rows, m, d)
        dw = ((sqrt_dt * normals[:, k, :]) @ roots_t[k]).reshape(rows, d)
        x = x + f * dt + np.einsum("pmd,pd->pm", g, dw)
        if not np.all(np.isfinite(x)):
            row = int(np.argwhere(~np.isfinite(x))[0, 0])
            where = ("" if first_index is None
                     else f" under candidate schedule {first_index + row // n}")
            raise NumericError(
                f"non-finite state on path {row % n} at step {k + 1} "
                f"(t={t_k + dt:.6g}){where}; check drift/diffusion growth"
            )
        states[k + 1] = x
    times = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    per_schedule = states.reshape(cfg.n_steps + 1, c, n, m).transpose(1, 2, 0, 3)
    return [PathBundle(times=times, states=per_schedule[j], schedule=s)
            for j, s in enumerate(schedules)]


def integrate_gsde(
    spec: SdeSpec,
    set_: AmbiguitySet,
    schedule: VolSchedule,
    cfg: PathConfig,
) -> PathBundle:
    """Euler-Maruyama integration of a controlled SDE under one scenario.

    x_{k+1} = x_k + drift(t_k, x_k, u_k) dt + diffusion(t_k, x_k, u_k) dB_k,
    with u_k = control(t_k, x_k).  For single-noise systems a diffusion of
    shape (n_paths, dim_state) is accepted as the one noise column.  A
    non-finite state aborts with the path and step where it first appeared.
    """
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, spec.dim_noise)
    return _integrate_batch(spec, set_, [schedule], cfg, normals)[0]


def bundle_csv_text(bundle: PathBundle) -> str:
    """CSV export: header row, 9-decimal times, 17-significant-digit states."""
    m = bundle.states.shape[2]
    # Times are formatted once into %-template rows shared by every path; each
    # path is one format call ("%.17g" matches format(v, ".17g")).
    time_rows = [f"{t:.9f}" + ",%.17g" * m + "\n" for t in bundle.times.tolist()]
    chunks = ["path_id,time," + ",".join(f"state_{j}" for j in range(m)) + "\n"]
    for p in range(bundle.n_paths):
        prefix = f"{p},"
        states = tuple(bundle.states[p].ravel().tolist())
        chunks.append((prefix + prefix.join(time_rows)) % states)
    return "".join(chunks)
