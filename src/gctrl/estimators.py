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

A terminal payoff of G-Brownian motion from 0 (what ``simulate`` estimates)
needs no Euler step to be ranked: under a piecewise-constant schedule the
terminal state is the sum over segments of each segment's Brownian increment
times its volatility root.  ``terminal_expectation_mc`` screens every
candidate on these per-segment sums, in blocks of at most
``_BATCH_FLOATS // 8`` floats, without forking, and then walks only the
candidates whose screened mean lies within ``_SCREEN_RTOL`` of the best, as
``upper_expectation_mc`` walks them; every number it reports comes from that
walk.  The screen differs from the walk by rounding alone, so the margin
only matters for a payoff with a jump, such as a digital: one could be
screened wrong only if a path ends within about 1e-13 of the jump.
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
# terminal_expectation_mc walks every candidate whose screened mean is within
# this much of the best one, relative to max(1, |best screened mean|): far
# above the screen's rounding (its means were within 6e-16 of the walk's,
# relative, on the shipped configs), far below the gap between candidates.
_SCREEN_RTOL = 1e-9


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
    cuts = _segment_cuts(breakpoints, cfg)
    stop = n_levels ** n_segments if stop is None else stop
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
                stride = n_levels ** (n_segments - 1 - depth)
                # The siblings index, index + stride, ... that lie before ``stop``.
                size = min(group, n_levels - level, -(-(stop - index) // stride))
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


def _segment_cuts(breakpoints: tuple[float, ...], cfg: PathConfig) -> list[int]:
    """The first Euler step of each segment, then ``cfg.n_steps``.

    Segment j takes the steps ``cuts[j]`` to ``cuts[j + 1] - 1``, those on
    which ``integrate_gsde`` holds the covariance that starts at breakpoint j.
    """
    return np.searchsorted(_step_intervals(breakpoints, cfg),
                           np.arange(len(breakpoints) + 1)).tolist()


def _checked_search(spec: SdeSpec, set_: AmbiguitySet, cfg: PathConfig, n_segments: int,
                    direction: str, n_grid: int):
    """A search's ``(sign, segment covariances, their transposed roots, breakpoints)``.

    Raises before any draw: ValueError for an unknown direction or a
    covariance that ``spec`` cannot take; ConfigError for over
    ``_MAX_CANDIDATES`` schedules or a segment that no Euler step falls in.
    """
    if direction not in ("upper", "lower"):
        raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
    seg_mats = _segment_matrices(set_, n_grid, n_segments)
    roots_t = _checked_roots_t(spec, set_, seg_mats)
    breakpoints = _breakpoints(cfg.horizon, n_segments)
    cuts = _segment_cuts(breakpoints, cfg)
    if any(k0 == k1 for k0, k1 in zip(cuts, cuts[1:])):
        raise ConfigError(f"n_segments = {n_segments} leaves a segment that none of the "
                          f"n_steps = {cfg.n_steps} Euler steps falls in")
    return (1.0 if direction == "upper" else -1.0), seg_mats, roots_t, breakpoints


def _checked_values(values, count: int) -> np.ndarray:
    """``values`` copied to a flat float array: ValueError unless it holds ``count``
    values, one per path, and NumericError if one is not finite."""
    # A copy, since the functional may return a view of the buffer.
    vals = np.array(values, dtype=float).reshape(-1)
    if vals.shape != (count,):
        raise ValueError(f"functional must return one value per path, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise NumericError("functional returned a non-finite value")
    return vals


class _Best:
    """The best candidate walked so far in one direction; a tie keeps the earlier one.

    Its states are copied out of the assembly buffer, which the next
    candidate overwrites.
    """

    def __init__(self, sign: float, cfg: PathConfig, dim_state: int):
        self.sign, self.cfg = sign, cfg
        self.mean = self.levels = self.vals = None
        self.states = np.empty((cfg.n_paths, cfg.n_steps + 1, dim_state))

    def estimate(self, seg_mats: list, breakpoints: tuple[float, ...],
                 n_candidates: int) -> ExpectationEstimate:
        n_paths = self.cfg.n_paths
        return ExpectationEstimate(
            value=self.mean,
            std_error=0.0 if n_paths < 2 else float(self.vals.std(ddof=1) / np.sqrt(n_paths)),
            best_schedule=VolSchedule(breakpoints, tuple(seg_mats[i] for i in self.levels)),
            n_schedules_searched=n_candidates,
            best_paths=PathBundle(np.linspace(0.0, self.cfg.horizon, self.cfg.n_steps + 1),
                                  self.states),
        )


def _walk(spec: SdeSpec, cfg: PathConfig, normals: np.ndarray, roots_t: np.ndarray,
          breakpoints: tuple[float, ...], functional, start: int, stop: int,
          best: _Best | None = None) -> list[float]:
    """The means of ``functional`` on candidates ``start`` to ``stop - 1``, in order.

    ``_leaves`` Euler-integrates the candidates.  With ``best``, each one
    better than it replaces what it holds.
    """
    times = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    means = []
    for levels, path in _leaves(spec, cfg, normals, roots_t, breakpoints, start, stop):
        bundle = PathBundle(times, path.transpose(1, 0, 2))
        vals = _checked_values(functional(bundle), cfg.n_paths)
        means.append(float(vals.mean()))
        if best is not None and (best.mean is None
                                 or best.sign * means[-1] > best.sign * best.mean):
            best.mean, best.levels, best.vals = means[-1], levels, vals
            best.states[...] = bundle.states
    return means


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
    sign, seg_mats, roots_t, breakpoints = _checked_search(spec, set_, cfg, n_segments,
                                                           direction, n_grid)
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, spec.dim_noise)
    n_candidates = len(seg_mats) ** n_segments
    n_ranges = _split_count(n_candidates, n_candidates * cfg.n_paths * cfg.n_steps,
                            MIN_RANGE_PATH_STEPS)
    bounds = [n_candidates * k // n_ranges for k in range(n_ranges + 1)]
    best = _Best(sign, cfg, spec.dim_state)
    walk = functools.partial(_walk, spec, cfg, normals, roots_t, breakpoints, functional)
    jobs = [functools.partial(walk, bounds[k], bounds[k + 1], best if k == 0 else None)
            for k in range(n_ranges)]
    means = [mean for part in _run_jobs(jobs) for mean in part]
    top = 0
    for index, mean in enumerate(means):
        if sign * mean > sign * means[top]:
            top = index
    if top >= bounds[1]:  # a worker's candidate: its paths are integrated again here
        walk(top, top + 1, best)
    return best.estimate(seg_mats, breakpoints, n_candidates)


def _screen(payoff, normals: np.ndarray, roots_t: np.ndarray, cuts: list[int],
            dt: float) -> np.ndarray:
    """Every candidate's mean of ``payoff`` at its terminal state, in product order.

    Under the candidate with level l_s on segment s, Brownian motion from 0
    ends at the sum over s of I[s, l_s] = (sqrt(dt) times the sum of segment
    s's normals) @ roots_t[l_s]; the Euler walk adds the same increments one
    step at a time, so the two terminal states differ by rounding alone.
    The terminal states of consecutive candidates are formed a block of at
    most ``_BATCH_FLOATS // 8`` floats at a time (one candidate's, if more).
    """
    n, d = normals.shape[0], normals.shape[2]
    n_levels, n_segments = len(roots_t), len(cuts) - 1
    increments = [(np.sqrt(dt) * normals[:, k0:k1].sum(axis=1)) @ roots_t
                  for k0, k1 in zip(cuts, cuts[1:])]  # each (n_levels, n, d)
    n_candidates = n_levels ** n_segments
    block = max(1, _BATCH_FLOATS // 8 // (n * d))
    means = np.empty(n_candidates)
    for first in range(0, n_candidates, block):
        index = np.arange(first, min(first + block, n_candidates))
        states = np.zeros((index.size, n, d))
        for depth, increment in enumerate(increments):
            states += increment[index // n_levels ** (n_segments - 1 - depth) % n_levels]
        vals = _checked_values(payoff(states.reshape(-1, d)), states.shape[0] * n)
        means[index] = vals.reshape(-1, n).mean(axis=1)
    return means


def terminal_expectation_mc(
    set_: AmbiguitySet,
    payoff,
    cfg: PathConfig,
    n_segments: int = DEFAULT_N_SEGMENTS,
    direction: str = "upper",
    n_grid: int = DEFAULT_N_GRID,
) -> ExpectationEstimate:
    """``upper_expectation_mc`` of a terminal payoff of G-Brownian motion from 0.

    The estimate is the one ``upper_expectation_mc`` returns for
    ``SdeSpec.brownian(set_.dim)`` and the functional
    ``payoff(bundle.states[:, -1, :])``, bit for bit, with its errors.
    ``payoff(x)`` maps terminal states of shape (k, d) to k values and must
    treat each row independently of the others: the screen stacks the rows
    of many candidates.

    The search screens, then confirms.  ``_screen`` takes every candidate's
    mean from per-segment sums of the shared normals, with no Euler step and
    no fork.  ``_walk`` then Euler-integrates each candidate whose screened
    mean lies within ``_SCREEN_RTOL`` x max(1, |best screened mean|) of the
    best, and only those walked means are compared, a tie going to the
    earliest candidate.  The screened terminal
    states differ from the walked ones by rounding alone: by at most 5.3e-15
    on ``configs/heat.cfg`` and ``bench/scenario.cfg`` at seeds 1 to 5, and
    by about n_steps ulps of |X_T| at worst, 1e-13 at 250 steps.  So a
    payoff with a jump, such as a digital, could be screened wrong only if a
    path ends within about 1e-13 of the jump: the screen and the walk could
    then put that path on different sides, which moves a mean by 1 / n_paths.
    """
    spec = SdeSpec.brownian(set_.dim)
    sign, seg_mats, roots_t, breakpoints = _checked_search(spec, set_, cfg, n_segments,
                                                           direction, n_grid)
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, set_.dim)
    means = sign * _screen(payoff, normals, roots_t, _segment_cuts(breakpoints, cfg), cfg.dt)
    top = means.max()
    confirmed = np.flatnonzero(top - means <= _SCREEN_RTOL * max(1.0, abs(top)))
    best = _Best(sign, cfg, set_.dim)

    def functional(bundle):
        return payoff(bundle.states[:, -1, :])

    for run in np.split(confirmed, np.flatnonzero(np.diff(confirmed) > 1) + 1):
        _walk(spec, cfg, normals, roots_t, breakpoints, functional, int(run[0]),
              int(run[-1]) + 1, best)
    return best.estimate(seg_mats, breakpoints, means.size)


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
