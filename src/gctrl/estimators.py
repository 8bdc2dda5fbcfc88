"""Worst-case and best-case Monte Carlo expectation over volatility scenarios.

The upper expectation of a path functional is the maximum of its mean over
all priors; this module estimates it by searching a finite family of
piecewise-constant schedules (equal time segments, gridded variance levels)
with common random numbers across candidates.  The search returns a lower
bound on the upper expectation; the payoffs used in the test suite are ones
whose optimum is attained at a constant schedule inside the family.

Candidates come in ``itertools.product`` order over segments, so those that
share their first k segments share their paths up to the k-th breakpoint.
The search walks this schedule-prefix tree depth first.  At depth j it
integrates the children of the current prefix (the segment covariances, a
group at a time) from their parent's end state over segment j only, then
descends into each child in order; every prefix is integrated once.  Rows
are integrated independently under the same normal draws, so a shared
prefix has the same bits as integrating each candidate on its own.

A large search is split into contiguous ranges of that order, one per usable
CPU, each walked by its own process (``upper_expectation_mc`` tells how).  A
range's walk starts by integrating every segment of its first candidate, so
a prefix that straddles two ranges is integrated in both.

Memory is bounded by ``_BATCH_FLOATS``: the group size is chosen so that the
per-depth segment buffers, (n_steps + n_segments) * group * n_paths * m
floats in all, fit in it, and beside them sits one (n_steps+1, n_paths, m)
buffer in which each candidate's path is assembled; each process walking a
range holds its own.  The bundle a functional receives is a view of that
buffer, valid only until the functional's next call: copy whatever must
outlive it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import AmbiguitySet
from .errors import ConfigError, NumericError
from .sde import (
    PathBundle,
    PathConfig,
    SdeSpec,
    VolSchedule,
    _checked_roots_t,
    _euler_steps,
    _run_jobs,
    _split_count,
    _step_intervals,
    path_normals,
)

DEFAULT_N_SEGMENTS = 4
DEFAULT_N_GRID = 5
_MAX_CANDIDATES = 200_000
# The search's per-depth segment buffers hold at most this many floats
# (8 MiB), which bounds memory whatever the candidate count.
_BATCH_FLOATS = 1 << 20
# A range of the search holds at least this many path-steps (candidates x
# paths x steps): 11 ms of walking on a 625-candidate prefix tree, about 100 ms
# on one segment (2-CPU x86-64).  A split costs a fork and reap (2-3 ms), the
# worker's walk down to its first candidate, and the winner integrated again (a
# sixth of a 9-candidate search).  Split in two, a 9-candidate search of 3.6M
# path-steps took 18-23% longer, one of 9M between 9% less and 6% more, and a
# 625-candidate one of 12.5M a third less.
MIN_RANGE_PATH_STEPS = 5_000_000


@dataclass(frozen=True)
class ExpectationEstimate:
    """Scenario-optimized sample mean with its standard error.

    ``best_paths`` holds the paths simulated under ``best_schedule``, the ones
    the mean was taken over.
    """

    value: float
    std_error: float
    best_schedule: VolSchedule
    n_schedules_searched: int
    best_paths: PathBundle = field(repr=False)


@dataclass(frozen=True)
class MomentReport:
    """Envelope moment statistics of a simulated system."""

    sup_moment: float
    holder_slope: float


def _variance_levels(set_: AmbiguitySet, n_grid: int) -> np.ndarray:
    if n_grid < 1:
        raise ValueError("n_grid must be positive")
    if set_.degenerate or n_grid == 1:
        return np.asarray([set_.sigma_lo_sq])
    return np.linspace(set_.sigma_lo_sq, set_.sigma_hi_sq, n_grid)


def _segment_matrices(set_: AmbiguitySet, n_grid: int, n_segments: int) -> list[np.ndarray]:
    """Candidate covariances for one segment: diagonal entries on the grid.

    Raises a ConfigError before any matrix is built or path drawn when the
    product family over ``n_segments`` would exceed ``_MAX_CANDIDATES``.
    """
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    levels = _variance_levels(set_, n_grid)
    total = len(levels) ** (set_.dim * n_segments)
    if total > _MAX_CANDIDATES:
        raise ConfigError(
            f"schedule grid has {total} candidates (> {_MAX_CANDIDATES}); "
            "reduce n_segments, n_grid, or the dimension"
        )
    return [np.diag(np.asarray(diag, dtype=float))
            for diag in itertools.product(levels, repeat=set_.dim)]


def _breakpoints(horizon: float, n_segments: int) -> tuple[float, ...]:
    return tuple(horizon * k / n_segments for k in range(n_segments))


def candidate_schedules(
    set_: AmbiguitySet, horizon: float, n_segments: int, n_grid: int
) -> list[VolSchedule]:
    """All piecewise-constant schedules on equal segments over the grid."""
    seg_mats = _segment_matrices(set_, n_grid, n_segments)
    breakpoints = _breakpoints(horizon, n_segments)
    return [VolSchedule(breakpoints=breakpoints, values=combo)
            for combo in itertools.product(seg_mats, repeat=n_segments)]


def _leaves(spec: SdeSpec, cfg: PathConfig, normals: np.ndarray, roots_t: np.ndarray,
            breakpoints: tuple[float, ...], start: int = 0, stop: int | None = None):
    """Yield ``(levels, path)`` for schedules ``start`` to ``stop - 1`` over ``breakpoints``.

    The schedules are numbered in product order, all of them by default.
    ``levels`` indexes ``roots_t``, the transposed roots of the segment
    covariances, one entry per segment.  ``path`` is the time-major
    (n_steps+1, n_paths, m) assembly buffer, overwritten for the next
    candidate.  Segments start where ``integrate_gsde`` switches covariance.
    """
    n, m, d = cfg.n_paths, spec.dim_state, spec.dim_noise
    n_levels, n_segments = len(roots_t), len(breakpoints)
    cuts = np.searchsorted(_step_intervals(breakpoints, cfg), np.arange(n_segments + 1)).tolist()
    group = min(n_levels, max(1, _BATCH_FLOATS // ((cfg.n_steps + n_segments) * n * m)))
    path = np.empty((cfg.n_steps + 1, n, m))
    path[0] = spec.initial_state
    bufs = [np.empty((k1 - k0 + 1, group * n, m)) for k0, k1 in zip(cuts, cuts[1:])]
    held = [range(0)] * n_segments  # the siblings whose segment each buffer holds
    order = itertools.product(range(n_levels), repeat=n_segments)
    for index, levels in enumerate(itertools.islice(order, start, stop), start):
        # Product order moves the last nonzero level and resets the later ones to 0,
        # so ``index`` is the first candidate under each node stepped below it.  The
        # first candidate walked has no path yet: every segment is stepped for it.
        top = 0 if index == start else max((j for j, level in enumerate(levels) if level),
                                           default=0)
        for depth in range(top, n_segments):
            k0, k1, level = cuts[depth], cuts[depth + 1], levels[depth]
            if depth > top or level not in held[depth]:
                size = min(group, n_levels - level)
                stride = n_levels ** (n_segments - 1 - depth)
                while True:
                    out = bufs[depth][:, :size * n]
                    out[0].reshape(size, n, m)[...] = path[k0]
                    steps_roots_t = np.broadcast_to(roots_t[level:level + size],
                                                    (k1 - k0, size, d, d))
                    try:
                        _euler_steps(spec, out, steps_roots_t, normals, k0, cfg.dt,
                                     range(index, index + size * stride, stride))
                        break
                    except NumericError:
                        if size == 1:
                            raise
                        # Step the siblings one at a time instead, so that the error
                        # names the first candidate in product order that diverges.
                        size = 1
                held[depth] = range(level, level + size)
            row = (level - held[depth].start) * n
            path[k0 + 1:k1 + 1] = bufs[depth][1:, row:row + n]
        yield levels, path


def upper_expectation_mc(
    spec: SdeSpec,
    set_: AmbiguitySet,
    functional,
    cfg: PathConfig,
    n_segments: int = DEFAULT_N_SEGMENTS,
    direction: str = "upper",
    n_grid: int = DEFAULT_N_GRID,
) -> ExpectationEstimate:
    """Optimize the sample mean of ``functional`` over the schedule family.

    ``functional(bundle)`` must return one value per path, shape (n_paths,).
    Direction ``upper`` maximizes the mean over candidate schedules (worst
    case for a cost), ``lower`` minimizes it; a tie goes to the earliest
    candidate.  All candidates share the same normal draws, so the comparison
    is path-for-path.  The chosen candidate's paths are returned as
    ``best_paths``.

    Candidates are visited in ``candidate_schedules`` order by the
    depth-first prefix walk described in the module docstring, in at most
    ``_BATCH_FLOATS`` floats of segment buffers.  ``bundle.states`` is a view
    that the next candidate overwrites.  If paths turn non-finite, the
    ``NumericError`` names the first candidate in product order whose paths
    diverge, with the path and step at which ``integrate_gsde`` on that
    candidate would stop, whatever the group size.  ConfigError, before any draw:
    over ``_MAX_CANDIDATES`` schedules, or a segment that no Euler step falls in.

    That order is split into contiguous ranges of candidates, one per usable
    CPU, but each of at least ``MIN_RANGE_PATH_STEPS`` path-steps (candidates
    x paths x steps), so a small search runs here alone.  This process walks
    the first range; a worker forked by ``sde._run_jobs`` walks each other
    range and sends back only its means, which are merged here in order.  A
    candidate's paths depend on the shared draws and its own schedule alone,
    so the estimate is the same at any CPU count, and so is the error raised:
    the first in candidate order.  The functional and the callables of
    ``spec`` may therefore run in a forked worker, whose side effects the
    caller does not see.  When a worker's candidate is chosen, this process
    integrates it and evaluates its functional a second time, to fill
    ``best_paths``.
    """
    if direction not in ("upper", "lower"):
        raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
    sign = 1.0 if direction == "upper" else -1.0
    seg_mats = _segment_matrices(set_, n_grid, n_segments)
    roots_t = _checked_roots_t(spec, set_, seg_mats)
    breakpoints = _breakpoints(cfg.horizon, n_segments)
    if not np.bincount(_step_intervals(breakpoints, cfg), minlength=n_segments).all():
        raise ConfigError(f"n_segments = {n_segments} leaves a segment that none of the "
                          f"n_steps = {cfg.n_steps} Euler steps falls in")
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, spec.dim_noise)
    times = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    n_candidates = len(seg_mats) ** n_segments
    n_ranges = _split_count(n_candidates, n_candidates * cfg.n_paths * cfg.n_steps,
                            MIN_RANGE_PATH_STEPS)
    bounds = [n_candidates * k // n_ranges for k in range(n_ranges + 1)]

    # The best candidate's states are copied out of the assembly buffer,
    # which the next candidate overwrites.
    best_states = np.empty((cfg.n_paths, cfg.n_steps + 1, spec.dim_state))
    best_levels = best_vals = None

    def walk(start: int, stop: int, keep: bool) -> list[float]:
        """The means of candidates ``start`` to ``stop - 1``, in order.

        With ``keep``, each candidate better than all before it in the range
        leaves its levels, values and states in ``best_*``.
        """
        nonlocal best_levels, best_vals
        means, best = [], None
        for levels, path in _leaves(spec, cfg, normals, roots_t, breakpoints, start, stop):
            bundle = PathBundle(times, path.transpose(1, 0, 2))
            # A copy, since the functional may return a view of the buffer.
            vals = np.array(functional(bundle), dtype=float).reshape(-1)
            if vals.shape != (cfg.n_paths,):
                raise ValueError(
                    f"functional must return one value per path, got shape {vals.shape}"
                )
            if not np.all(np.isfinite(vals)):
                raise NumericError("functional returned a non-finite value")
            means.append(float(vals.mean()))
            if keep and (best is None or sign * means[-1] > sign * means[best]):
                best, best_levels, best_vals = len(means) - 1, levels, vals
                best_states[...] = bundle.states
        return means

    jobs = [functools.partial(walk, bounds[k], bounds[k + 1], k == 0) for k in range(n_ranges)]
    means = [mean for part in _run_jobs(jobs) for mean in part]
    best = 0
    for index, mean in enumerate(means):
        if sign * mean > sign * means[best]:
            best = index
    if best >= bounds[1]:  # a worker's candidate: its paths are integrated again here
        walk(best, best + 1, True)

    std_error = 0.0 if cfg.n_paths < 2 else float(best_vals.std(ddof=1) / np.sqrt(cfg.n_paths))
    best_schedule = VolSchedule(breakpoints, tuple(seg_mats[i] for i in best_levels))
    return ExpectationEstimate(
        value=means[best],
        std_error=std_error,
        best_schedule=best_schedule,
        n_schedules_searched=len(means),
        best_paths=PathBundle(times, best_states),
    )


def moment_bound_check(
    spec: SdeSpec,
    set_: AmbiguitySet,
    cfg: PathConfig,
    ell: int,
    n_grid: int = DEFAULT_N_GRID,
) -> MomentReport:
    """Estimate the envelope pathwise moment and the increment-scaling slope.

    Simulates the system under constant isotropic schedules at gridded
    variance levels, takes the worst level for E[max_s |x(s)|^ell], and fits
    log E|x(t)-x(s)|^ell against log|t-s| on dyadic lags.  Diffusion-driven
    dynamics scale with slope about ell/2; smooth drift-only dynamics with
    slope about ell.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if cfg.n_steps < 8:
        raise ValueError("need at least 8 steps for the increment-scaling fit")
    eye = np.eye(set_.dim)
    roots_t = _checked_roots_t(spec, set_, [v * eye for v in _variance_levels(set_, n_grid)])
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, spec.dim_noise)

    lags = []
    lag = 1
    while lag <= cfg.n_steps // 4:
        lags.append(lag)
        lag *= 2

    sup_moment = -np.inf
    envelope = np.full(len(lags), -np.inf)
    for _, path in _leaves(spec, cfg, normals, roots_t, (0.0,)):
        # Path-major copy: the means below then sum in path order.
        states = np.ascontiguousarray(path.transpose(1, 0, 2))
        norms = np.linalg.norm(states, axis=2)  # (n_paths, n_steps+1)
        sup_moment = max(sup_moment, float(np.mean(np.max(norms, axis=1) ** ell)))
        for j, L in enumerate(lags):
            diffs = states[:, L:, :] - states[:, :-L, :]
            inc = np.linalg.norm(diffs, axis=2) ** ell
            envelope[j] = max(envelope[j], float(inc.mean()))

    dt = cfg.dt
    slope = float(np.polyfit(np.log(np.asarray(lags) * dt), np.log(envelope), 1)[0])
    return MomentReport(sup_moment=sup_moment, holder_slope=slope)
