"""Worst-case and best-case Monte Carlo expectation over volatility scenarios.

The upper expectation of a path functional is the maximum of its mean over
all priors; this module estimates it by searching a finite family of
piecewise-constant schedules (equal time segments, gridded variance levels)
with common random numbers across candidates.  The search returns a lower
bound on the upper expectation; the payoffs used in the test suite are ones
whose optimum is attained at a constant schedule inside the family.

Candidates are numbered in ``itertools.product`` order over segments, and
the search walks them in that order, each on its own, in the calling
process: one call of ``sde._euler_steps`` steps a candidate over the whole
horizon, one root per segment on the segment-step table the search builds
once, into one time-major (n_steps+1, n_paths, m) path buffer that holds x0
once and whose steps the next candidate overwrites.  A search thus holds the
normal draws and that one buffer, beside per-step temporaries, whatever the
candidate count.  Every candidate sees the same draws, so its paths have the
bits of integrating its schedule alone.  The bundle a functional receives is
a read-only view of the buffer, valid only until the functional's next call:
copy whatever must outlive it.  The best candidate's paths are returned as
that buffer, walked once more if a later candidate overwrote them.

A terminal payoff of G-Brownian motion from 0 (what ``simulate`` estimates)
needs no Euler step to be ranked: under a piecewise-constant schedule the
terminal state is the sum over segments of each segment's Brownian increment
times its volatility root.  ``terminal_expectation_mc`` screens every
candidate on these sums, over the steps of the same table, then walks only
the candidates whose screened mean lies within ``_SCREEN_RTOL`` of the best;
every number it reports comes from that walk, and its docstring bounds how
far the screen can differ from the walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterable

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
    _segment_cuts,
    path_normals,
)

DEFAULT_N_SEGMENTS = 4
DEFAULT_N_GRID = 5
_MAX_CANDIDATES = 200_000
# Floats in one block of terminal_expectation_mc's screen (128 KiB).  On the search of
# bench/scenario.cfg, 1 << 14 in place of 1 << 17 cut the screen's peak from 4.28 to 0.66 MiB,
# under the walk's 1.53 MiB path buffer, and its time from 6.8 to 5.1 ms (2-CPU x86-64).
_BLOCK_FLOATS = 1 << 14
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
    if isinstance(n_grid, bool) or not isinstance(n_grid, Integral):
        raise ValueError(f"n_grid must be an integer, got {n_grid!r}")
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
    if isinstance(n_segments, bool) or not isinstance(n_segments, Integral):
        raise ValueError(f"n_segments must be an integer, got {n_segments!r}")
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


def _checked_search(spec: SdeSpec, set_: AmbiguitySet, cfg: PathConfig, n_segments: int,
                    direction: str, n_grid: int):
    """A search's ``(sign, segment covariances, their transposed roots, breakpoints, cuts)``,
    ``cuts`` its one segment-step table, for its screen and every walk.

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
    return (1.0 if direction == "upper" else -1.0), seg_mats, roots_t, breakpoints, cuts


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


def _search(spec: SdeSpec, cfg: PathConfig, normals: np.ndarray, sign: float, seg_mats: list,
            roots_t: np.ndarray, breakpoints: tuple[float, ...], cuts: list[int], functional,
            candidates: Iterable[int]) -> ExpectationEstimate:
    """The estimate of the best of ``candidates``, indices walked in the order given.

    Each candidate is walked on the table ``cuts`` into one time-major path
    buffer, whose steps the next one overwrites, and its mean of
    ``functional`` taken on a read-only view; one better than the best so far
    replaces it, so a tie keeps the earlier one.  The best one's paths are the
    buffer itself: when a later candidate has overwritten them, the best one
    is walked once more, without calling its functional again.
    """
    path = np.empty((cfg.n_steps + 1, cfg.n_paths, spec.dim_state))
    path[0] = spec.initial_state
    bundle = PathBundle(np.linspace(0.0, cfg.horizon, cfg.n_steps + 1), path.transpose(1, 0, 2))
    bundle.states.flags.writeable = False  # a functional cannot move x0 under the next candidate
    shape = (len(seg_mats),) * len(breakpoints)

    def walk(index: int) -> None:
        levels = list(np.unravel_index(index, shape))
        _euler_steps(spec, path, roots_t[levels], cuts, normals, cfg.dt, index)

    best = best_mean = best_vals = None
    for index in candidates:
        walk(index)
        vals = _checked_values(functional(bundle), cfg.n_paths)
        mean = float(vals.mean())
        if best is None or sign * mean > sign * best_mean:
            best, best_mean, best_vals = index, mean, vals
    if best != index:
        walk(best)
    n_paths, levels = cfg.n_paths, np.unravel_index(best, shape)
    return ExpectationEstimate(
        value=best_mean,
        std_error=0.0 if n_paths < 2 else float(best_vals.std(ddof=1) / np.sqrt(n_paths)),
        best_schedule=VolSchedule(breakpoints, tuple(seg_mats[i] for i in levels)),
        n_schedules_searched=len(seg_mats) ** len(breakpoints),
        best_paths=bundle,
    )


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

    Candidates are walked one at a time in ``candidate_schedules`` order, as
    the module docstring describes, in the calling process.  ``bundle.states``
    is a read-only view of the one path buffer, which the next candidate
    overwrites.
    If paths turn non-finite, the ``NumericError`` names the first candidate
    in product order whose paths diverge, with the path and step at which
    ``integrate_gsde`` on that candidate would stop.  ConfigError, before any
    draw: over ``_MAX_CANDIDATES`` schedules, or a segment that no Euler step
    falls in.
    """
    sign, seg_mats, roots_t, breakpoints, cuts = _checked_search(spec, set_, cfg, n_segments,
                                                                 direction, n_grid)
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, spec.dim_noise)
    return _search(spec, cfg, normals, sign, seg_mats, roots_t, breakpoints, cuts, functional,
                   range(len(seg_mats) ** n_segments))


def _screen(payoff, normals: np.ndarray, roots_t: np.ndarray, cuts: list[int],
            dt: float) -> np.ndarray:
    """Every candidate's mean of ``payoff`` at its terminal state, in product order.

    Under the candidate with level l_s on segment s, Brownian motion from 0
    ends at the sum over s of I[s, l_s] = (sqrt(dt) times the sum of segment
    s's normals) @ roots_t[l_s]; the Euler walk adds the same increments one
    step at a time, so the two terminal states differ by rounding alone.
    The terminal states of consecutive candidates are formed at most
    ``_BLOCK_FLOATS`` floats at a time (one candidate's, if more), a size
    measured under one path buffer; each mean is a row reduction of states
    summed in segment order, so its bits do not depend on the block size.
    """
    n, d = normals.shape[0], normals.shape[2]
    n_levels, n_segments = len(roots_t), len(cuts) - 1
    increments = [(np.sqrt(dt) * normals[:, k0:k1].sum(axis=1)) @ roots_t
                  for k0, k1 in zip(cuts, cuts[1:])]  # each (n_levels, n, d)
    n_candidates = n_levels ** n_segments
    block = max(1, _BLOCK_FLOATS // (n * d))
    means = np.empty(n_candidates)
    for first in range(0, n_candidates, block):
        index = np.arange(first, min(first + block, n_candidates))
        states = np.zeros((index.size, n, d))
        levels = np.unravel_index(index, (n_levels,) * n_segments)
        for increment, level in zip(increments, levels):
            states += increment[level]
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
    no fork.  ``_search`` then Euler-integrates each candidate whose screened
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
    sign, seg_mats, roots_t, breakpoints, cuts = _checked_search(spec, set_, cfg, n_segments,
                                                                 direction, n_grid)
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, set_.dim)
    means = sign * _screen(payoff, normals, roots_t, cuts, cfg.dt)
    top = means.max()
    confirmed = np.flatnonzero(top - means <= _SCREEN_RTOL * max(1.0, abs(top)))
    return _search(spec, cfg, normals, sign, seg_mats, roots_t, breakpoints, cuts,
                   lambda bundle: payoff(bundle.states[:, -1, :]), confirmed.tolist())


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
    path = np.empty((cfg.n_steps + 1, cfg.n_paths, spec.dim_state))
    path[0] = spec.initial_state
    for level in range(len(roots_t)):
        _euler_steps(spec, path, roots_t[level:level + 1], [0, cfg.n_steps], normals, cfg.dt,
                     level)
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
