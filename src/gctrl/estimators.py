"""Worst-case and best-case Monte Carlo expectation over volatility scenarios.

The upper expectation of a path functional is the maximum of its mean over
all priors; this module estimates it by searching a finite family of
piecewise-constant schedules (equal time segments, gridded variance levels)
with common random numbers across candidates.  The search returns a lower
bound on the upper expectation; the payoffs used in the test suite are ones
whose optimum is attained at a constant schedule inside the family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import AmbiguitySet
from .errors import NumericError
from .sde import PathBundle, PathConfig, SdeSpec, VolSchedule, _integrate_batch, path_normals

DEFAULT_N_SEGMENTS = 4
DEFAULT_N_GRID = 5
_MAX_CANDIDATES = 200_000
# Schedules are integrated in chunks whose stacked states hold at most this
# many floats (8 MiB), which bounds memory whatever the candidate count.
_BATCH_FLOATS = 1 << 20


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


def _segment_matrices(set_: AmbiguitySet, n_grid: int) -> list[np.ndarray]:
    """Candidate covariances for one segment: diagonal entries on the grid."""
    levels = _variance_levels(set_, n_grid)
    return [np.diag(np.asarray(diag, dtype=float))
            for diag in itertools.product(levels, repeat=set_.dim)]


def candidate_schedules(
    set_: AmbiguitySet, horizon: float, n_segments: int, n_grid: int
) -> list[VolSchedule]:
    """All piecewise-constant schedules on equal segments over the grid."""
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    seg_mats = _segment_matrices(set_, n_grid)
    total = len(seg_mats) ** n_segments
    if total > _MAX_CANDIDATES:
        raise ValueError(
            f"schedule grid has {total} candidates (> {_MAX_CANDIDATES}); "
            "reduce n_segments, n_grid, or the dimension"
        )
    breakpoints = tuple(horizon * k / n_segments for k in range(n_segments))
    out = []
    for combo in itertools.product(seg_mats, repeat=n_segments):
        out.append(VolSchedule(breakpoints=breakpoints, values=combo))
    return out


def _bundles(spec: SdeSpec, set_: AmbiguitySet, schedules: list[VolSchedule],
             cfg: PathConfig, normals: np.ndarray):
    """One bundle per schedule, integrated in runs whose stacked states fit _BATCH_FLOATS."""
    size = max(1, _BATCH_FLOATS // (cfg.n_paths * (cfg.n_steps + 1) * spec.dim_state))
    for start in range(0, len(schedules), size):
        yield from _integrate_batch(spec, set_, schedules[start:start + size], cfg, normals,
                                    first_index=start)


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
    """
    if direction not in ("upper", "lower"):
        raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
    sign = 1.0 if direction == "upper" else -1.0
    schedules = candidate_schedules(set_, cfg.horizon, n_segments, n_grid)
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, spec.dim_noise)

    means = []
    best = None
    # The best candidate's states are copied into one buffer, so the estimate
    # does not keep a whole batch alive.
    best_states = np.empty((cfg.n_paths, cfg.n_steps + 1, spec.dim_state))
    for bundle in _bundles(spec, set_, schedules, cfg, normals):
        vals = np.asarray(functional(bundle), dtype=float).reshape(-1)
        if vals.shape != (cfg.n_paths,):
            raise ValueError(
                f"functional must return one value per path, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise NumericError("functional returned a non-finite value")
        means.append(vals.mean())
        if best is None or sign * means[-1] > sign * means[best]:
            best, best_vals = len(means) - 1, vals
            best_states[...] = bundle.states

    std_error = 0.0 if cfg.n_paths < 2 else float(best_vals.std(ddof=1) / np.sqrt(cfg.n_paths))
    return ExpectationEstimate(
        value=float(means[best]),
        std_error=std_error,
        best_schedule=schedules[best],
        n_schedules_searched=len(schedules),
        best_paths=PathBundle(bundle.times, best_states, schedules[best]),
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
    levels = _variance_levels(set_, n_grid)
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, spec.dim_noise)
    eye = np.eye(set_.dim)

    lags = []
    lag = 1
    while lag <= cfg.n_steps // 4:
        lags.append(lag)
        lag *= 2

    sup_moment = -np.inf
    envelope = np.full(len(lags), -np.inf)
    schedules = [VolSchedule.constant(v * eye) for v in levels]
    for bundle in _bundles(spec, set_, schedules, cfg, normals):
        # Path-major copy: the means below then sum in path order.
        states = np.ascontiguousarray(bundle.states)
        norms = np.linalg.norm(states, axis=2)  # (n_paths, n_steps+1)
        sup_moment = max(sup_moment, float(np.mean(np.max(norms, axis=1) ** ell)))
        for j, L in enumerate(lags):
            diffs = states[:, L:, :] - states[:, :-L, :]
            inc = np.linalg.norm(diffs, axis=2) ** ell
            envelope[j] = max(envelope[j], float(inc.mean()))

    dt = cfg.dt
    slope = float(np.polyfit(np.log(np.asarray(lags) * dt), np.log(envelope), 1)[0])
    return MomentReport(sup_moment=sup_moment, holder_slope=slope)
