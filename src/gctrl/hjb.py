"""Backward-in-time monotone finite-difference solver for ambiguous HJB equations.

The scheme is an explicit Euler sweep with upwinded first differences and a
central second difference; the second-order term passes through the scalar
worst-case generator (upper or lower), which makes the equation fully
nonlinear but keeps the update monotone under the CFL bound

    dt <= dx^2 / (sigma_hi_sq * max g^2 + dx * max |f| + dx^2 * discount).

Controls live on a finite list and are searched exhaustively at every node,
ties broken by lowest index, so runs are reproducible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ambiguity import AmbiguitySet, g_scalar
from .errors import CflError, NumericError
from .estimators import (
    DEFAULT_N_GRID,
    DEFAULT_N_SEGMENTS,
    ExpectationEstimate,
    upper_expectation_mc,
)
from .sde import PathConfig, SdeSpec

_ATTITUDES = ("upper", "lower")
_DIRECTIONS = ("minimize", "maximize")
_BOUNDARY_KINDS = ("one_sided", "power_dirichlet")

# Sampled times for the CFL check of coefficients without declared segments.
_CFL_TIME_SAMPLES = 33


@dataclass(frozen=True)
class BoundaryRule:
    """How the two edge rows are closed.

    one_sided: one-sided first/second differences with the control frozen to
    the adjacent interior argopt.  power_dirichlet: edge value copied from
    the adjacent interior node scaled by (x_edge / x_adjacent)**exponent,
    for value functions with a known power shape in x.
    """

    kind: str = "one_sided"
    exponent: float | None = None

    def __post_init__(self):
        if self.kind not in _BOUNDARY_KINDS:
            raise ValueError(f"boundary kind must be one of {_BOUNDARY_KINDS}, got {self.kind!r}")
        if self.kind == "power_dirichlet" and self.exponent is None:
            raise ValueError("power_dirichlet boundary needs an exponent")


@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time grid for the 1d state."""

    x_min: float
    x_max: float
    n_x: int
    n_t: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.n_x < 3:
            raise ValueError("n_x must be at least 3")
        if self.n_t < 1:
            raise ValueError("n_t must be at least 1")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)


@dataclass(frozen=True)
class HjbProblem:
    """Terminal-value control problem with ambiguous volatility, 1d state.

    drift(t, x, u), diffusion(t, x, u) and running_cost(t, x, u) must
    broadcast over a node array x for a fixed control value u;
    terminal_cost(x) likewise.  ``attitude`` selects the upper (sup) or lower
    (inf) generator for the diffusion term; ``opt_direction`` selects min or
    max over the control list.  The canonical pairings are (minimize, upper)
    and (minimize, lower) for conservative and positive cost control, and
    (maximize, lower) / (maximize, upper) for the pessimist and optimist
    portfolio problems.  ``segment_starts`` declares the three coefficient
    callables constant in t on right-open segments from these times on
    (``(0.0,)`` when they ignore t); the solver then builds its coefficient
    tables and checks the CFL bound once per segment.  ``None`` rebuilds the
    tables at every time level and samples the bound.
    """

    drift: Callable
    diffusion: Callable
    running_cost: Callable
    terminal_cost: Callable
    horizon: float
    controls: tuple
    ambiguity: AmbiguitySet
    discount: float = 0.0
    opt_direction: str = "minimize"
    attitude: str = "upper"
    boundary: BoundaryRule = BoundaryRule()
    segment_starts: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if len(self.controls) == 0:
            raise ValueError("controls must be a nonempty list")
        object.__setattr__(self, "controls", tuple(self.controls))
        if self.discount < 0.0:
            raise ValueError("discount must be nonnegative")
        if self.attitude not in _ATTITUDES:
            raise ValueError(f"attitude must be one of {_ATTITUDES}, got {self.attitude!r}")
        if self.opt_direction not in _DIRECTIONS:
            raise ValueError(
                f"opt_direction must be one of {_DIRECTIONS}, got {self.opt_direction!r}"
            )
        if self.ambiguity.dim != 1:
            raise ValueError("the 1d solver uses a scalar generator; ambiguity.dim must be 1")
        if self.segment_starts is not None:
            starts = tuple(float(s) for s in self.segment_starts)
            if not starts or starts[0] != 0.0 or any(a >= b for a, b in zip(starts, starts[1:])):
                raise ValueError("segment_starts must begin at 0 and increase strictly")
            object.__setattr__(self, "segment_starts", starts)


def gheat_problem(set_: AmbiguitySet, terminal_cost: Callable, horizon: float,
                  opt_direction: str = "minimize", attitude: str = "upper") -> HjbProblem:
    """The G-heat equation: no drift, unit diffusion, no running cost, one control."""
    return HjbProblem(
        drift=lambda t, x, u: 0.0 * x, diffusion=lambda t, x, u: 1.0 + 0.0 * x,
        running_cost=lambda t, x, u: 0.0 * x, terminal_cost=terminal_cost, horizon=horizon,
        controls=(0.0,), ambiguity=set_, opt_direction=opt_direction, attitude=attitude,
        segment_starts=(0.0,),
    )


@dataclass(frozen=True)
class HjbSolution:
    """Value and argopt-policy fields on the grid; immutable once returned."""

    grid: Grid1D
    x: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    policy: np.ndarray = field(repr=False)
    controls: tuple = field(repr=False)

    def value_at(self, t: float, x: float) -> float:
        """Bilinear interpolation of the value field."""
        tt = np.clip(t, self.times[0], self.times[-1])
        k = int(np.searchsorted(self.times, tt, side="right") - 1)
        k = min(max(k, 0), len(self.times) - 2)
        w = (tt - self.times[k]) / (self.times[k + 1] - self.times[k])
        row = (1.0 - w) * self.values[k] + w * self.values[k + 1]
        return float(np.interp(x, self.x, row))

    def control_at(self, t: float, x: float):
        """Control value of the extracted feedback policy, nearest node."""
        k = int(np.searchsorted(self.times, t, side="right") - 1)
        k = min(max(k, 0), self.policy.shape[0] - 1)
        i = int(np.clip(np.rint((x - self.x[0]) / (self.x[1] - self.x[0])), 0, len(self.x) - 1))
        return self.controls[int(self.policy[k, i])]


def _broadcast_nodes(value, n_x: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=float), (n_x,))


def _tables(problem: HjbProblem, x: np.ndarray, t: float):
    """Coefficient tables F, g^2, running cost, one row per control."""
    n_u, n_x = len(problem.controls), x.size
    F = np.empty((n_u, n_x))
    G2 = np.empty((n_u, n_x))
    C = np.empty((n_u, n_x))
    for j, u in enumerate(problem.controls):
        F[j] = _broadcast_nodes(problem.drift(t, x, u), n_x)
        g = _broadcast_nodes(problem.diffusion(t, x, u), n_x)
        G2[j] = g * g
        C[j] = _broadcast_nodes(problem.running_cost(t, x, u), n_x)
    return F, G2, C


def _cfl_denominator(problem: HjbProblem, F: np.ndarray, G2: np.ndarray, dx: float) -> float:
    hi = problem.ambiguity.sigma_hi_sq
    return float(hi * G2.max() + dx * np.abs(F).max() + dx * dx * problem.discount)


def _segment_tables(problem: HjbProblem, x: np.ndarray) -> dict | None:
    """(F, G2, C) by start of each segment starting before the horizon, or None."""
    if problem.segment_starts is None:
        return None
    return {s: _tables(problem, x, s) for s in problem.segment_starts if s < problem.horizon}


def _stable_dt(problem: HjbProblem, x: np.ndarray, dx: float, segments: dict | None) -> float:
    if segments is None:
        times = np.linspace(0.0, problem.horizon, _CFL_TIME_SAMPLES)
        tables = (_tables(problem, x, t) for t in times)
    else:
        tables = segments.values()
    denom = max(_cfl_denominator(problem, F, G2, dx) for F, G2, _ in tables)
    return np.inf if denom == 0.0 else dx * dx / denom


def max_stable_dt(problem: HjbProblem, grid: Grid1D) -> float:
    """Largest time step keeping the explicit update monotone.

    Exact per segment when ``segment_starts`` is declared.  With None the
    coefficients are sampled at _CFL_TIME_SAMPLES times over [0, horizon];
    the sweep re-checks every level it actually visits.
    """
    x = grid.nodes()
    return _stable_dt(problem, x, grid.dx, _segment_tables(problem, x))


def suggest_time_steps(problem: HjbProblem, x_min: float, x_max: float, n_x: int) -> int:
    """Smallest n_t satisfying the CFL bound on the given spatial grid."""
    probe = Grid1D(x_min=x_min, x_max=x_max, n_x=n_x, n_t=1)
    bound = max_stable_dt(problem, probe)
    if not np.isfinite(bound):
        return 1
    return max(1, int(np.ceil(problem.horizon / bound)))


def _sweep(problem: HjbProblem, x: np.ndarray, times: np.ndarray, terminal_values: np.ndarray,
           segments: dict | None):
    """Backward explicit recursion over the ``_segment_tables``; returns (values, policy)."""
    n_t = len(times) - 1
    n_x = x.size
    dx = float(x[1] - x[0])
    lo = problem.ambiguity.sigma_lo_sq
    hi = problem.ambiguity.sigma_hi_sq
    beta = problem.discount
    maximize = problem.opt_direction == "maximize"
    bnd = problem.boundary

    values = np.empty((n_t + 1, n_x))
    values[n_t] = terminal_values
    policy = np.zeros((n_t, n_x), dtype=np.int64)

    # The generator weight per node does not depend on the control: g^2 >= 0,
    # so sign(g^2 * cen) = sign(cen) and G(g^2 * cen) = g^2 * (slope * cen)
    # with the slope picked from the curvature sign alone.
    if problem.attitude == "upper":
        w_pos, w_neg = 0.5 * hi, 0.5 * lo
    else:
        w_pos, w_neg = 0.5 * lo, 0.5 * hi

    def step_tables(F, G2, C):
        denom = _cfl_denominator(problem, F, G2, dx)
        return (F, np.maximum(F, 0.0)[:, 1:-1], np.minimum(F, 0.0)[:, 1:-1],
                G2, G2[:, 1:-1].copy(), C, C[:, 1:-1].copy(), denom)

    starts, segment = problem.segment_starts, None
    cols = np.arange(n_x - 2)
    n_u = len(problem.controls)
    work = np.empty((n_u, n_x - 2))
    tmp = np.empty((n_u, n_x - 2))

    for k in range(n_t - 1, -1, -1):
        t_k = float(times[k])
        dt_k = float(times[k + 1] - times[k])
        if segments is None:
            tables = step_tables(*_tables(problem, x, t_k))
        else:
            start = starts[bisect_right(starts, t_k) - 1]
            if start != segment:
                segment, tables = start, step_tables(*segments[start])
        F, Fp, Fm, G2, G2i, C, Ci, denom = tables
        if denom > 0.0 and dt_k > dx * dx / denom * (1.0 + 1e-9):
            raise CflError(
                f"dt={dt_k:.6g} exceeds the monotone bound {dx * dx / denom:.6g} "
                f"at t={t_k:.6g}"
            )

        v = values[k + 1]
        # Overflow in a diverging sweep is caught by the finiteness check below.
        with np.errstate(over="ignore", invalid="ignore"):
            fwd = (v[2:] - v[1:-1]) / dx
            bwd = (v[1:-1] - v[:-2]) / dx
            cen = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
            w = np.where(cen > 0.0, w_pos, w_neg) * cen

            np.multiply(Fp, fwd, out=work)
            np.multiply(Fm, bwd, out=tmp)
            work += tmp
            np.multiply(G2i, w, out=tmp)
            work += tmp
            work += Ci
            work *= dt_k
            work += v[1:-1] * (1.0 - beta * dt_k)

        best = np.argmax(work, axis=0) if maximize else np.argmin(work, axis=0)
        values[k, 1:-1] = work[best, cols]
        policy[k, 1:-1] = best

        if bnd.kind == "one_sided":
            jl = int(policy[k, 1])
            dxl = (v[1] - v[0]) / dx
            dxxl = (v[2] - 2.0 * v[1] + v[0]) / (dx * dx)
            values[k, 0] = v[0] + dt_k * (
                F[jl, 0] * dxl + g_scalar(G2[jl, 0] * dxxl, problem.ambiguity, problem.attitude)
                + C[jl, 0] - beta * v[0]
            )
            jr = int(policy[k, n_x - 2])
            dxr = (v[-1] - v[-2]) / dx
            dxxr = (v[-1] - 2.0 * v[-2] + v[-3]) / (dx * dx)
            values[k, -1] = v[-1] + dt_k * (
                F[jr, -1] * dxr + g_scalar(G2[jr, -1] * dxxr, problem.ambiguity, problem.attitude)
                + C[jr, -1] - beta * v[-1]
            )
            policy[k, 0] = jl
            policy[k, -1] = jr
        else:  # power_dirichlet
            p = float(bnd.exponent)
            values[k, 0] = values[k, 1] * (x[0] / x[1]) ** p
            values[k, -1] = values[k, -2] * (x[-1] / x[-2]) ** p
            policy[k, 0] = policy[k, 1]
            policy[k, -1] = policy[k, -2]

        if not np.all(np.isfinite(values[k])):
            i_bad = int(np.argwhere(~np.isfinite(values[k]))[0][0])
            raise NumericError(f"non-finite value at time level {k} node {i_bad}")

    return values, policy


def solve(problem: HjbProblem, grid: Grid1D) -> HjbSolution:
    """Solve the terminal-value problem on the grid.

    Raises CflError before sweeping when dt violates the monotone bound,
    and NumericError (with time level and node) if the sweep produces a
    non-finite value.
    """
    dt = problem.horizon / grid.n_t
    x = grid.nodes()
    segments = _segment_tables(problem, x)
    bound = _stable_dt(problem, x, grid.dx, segments)
    if dt > bound * (1.0 + 1e-9):
        raise CflError(
            f"dt={dt:.6g} violates the monotone-scheme bound dt<={bound:.6g}; "
            f"need n_t >= {int(np.ceil(problem.horizon / bound))}"
        )
    times = np.linspace(0.0, problem.horizon, grid.n_t + 1)
    terminal = _broadcast_nodes(problem.terminal_cost(x), grid.n_x).copy()
    values, policy = _sweep(problem, x, times, terminal, segments)
    return HjbSolution(
        grid=grid,
        x=x,
        times=times,
        values=values,
        policy=policy,
        controls=problem.controls,
    )


def dpp_composition_check(problem: HjbProblem, grid: Grid1D, t_bar: float) -> float:
    """Max gap between a direct solve and the two-stage composed solve.

    Solves on [t_bar, T], installs that slice as a synthetic terminal
    condition on [0, t_bar], and compares the composed initial values with
    the direct ones.  On the shared grid the explicit recursion composes
    exactly, so the gap is rounding-level.
    """
    times = np.linspace(0.0, problem.horizon, grid.n_t + 1)
    k_bar = int(np.argmin(np.abs(times - t_bar)))
    if abs(times[k_bar] - t_bar) > 1e-9 * max(1.0, problem.horizon):
        raise ValueError(f"t_bar={t_bar} is not a grid time")
    if k_bar <= 0 or k_bar >= grid.n_t:
        raise ValueError("t_bar must lie strictly between 0 and the horizon")

    x = grid.nodes()
    terminal = _broadcast_nodes(problem.terminal_cost(x), grid.n_x).copy()
    segments = _segment_tables(problem, x)
    direct, _ = _sweep(problem, x, times, terminal, segments)
    tail, _ = _sweep(problem, x, times[k_bar:], terminal, segments)
    head, _ = _sweep(problem, x, times[: k_bar + 1], tail[0], segments)
    return float(np.max(np.abs(head[0] - direct[0])))


def _control_components(controls: tuple):
    if isinstance(controls[0], tuple):
        return tuple(np.asarray([c[i] for c in controls], dtype=float)
                     for i in range(len(controls[0])))
    return np.asarray(controls, dtype=float)


def evaluate_policy_mc(
    problem: HjbProblem,
    solution: HjbSolution,
    set_: AmbiguitySet,
    cfg: PathConfig,
    x0: float,
    control_fn: Callable | None = None,
    n_segments: int = DEFAULT_N_SEGMENTS,
    n_grid: int = DEFAULT_N_GRID,
) -> ExpectationEstimate:
    """Scenario-optimized Monte Carlo value of a feedback policy from x0.

    By default the policy is the solution's argopt field (nearest-node
    lookup); pass ``control_fn(t, x_array) -> control values`` to evaluate an
    analytic policy on the same dynamics instead.  The schedule search runs
    in the problem's attitude: upper maximizes the sampled mean over priors,
    lower minimizes it.  For a correct solver the estimate matches
    solution.value_at(0, x0) within Monte Carlo plus discretization error.
    """
    if abs(cfg.horizon - problem.horizon) > 1e-12 * max(1.0, problem.horizon):
        raise ValueError("cfg.horizon must equal the problem horizon")

    comps = _control_components(problem.controls)
    times = solution.times
    x_nodes = solution.x
    dx = float(x_nodes[1] - x_nodes[0])
    n_levels = solution.policy.shape[0]

    def lookup(t, x_flat):
        k = min(max(int(np.searchsorted(times, t, side="right") - 1), 0), n_levels - 1)
        i = np.clip(np.rint((x_flat - x_nodes[0]) / dx).astype(int), 0, len(x_nodes) - 1)
        idx = solution.policy[k, i]
        if isinstance(comps, tuple):
            return tuple(c[idx] for c in comps)
        return comps[idx]

    policy = control_fn if control_fn is not None else lookup

    def drift(t, x, u):
        return np.asarray(problem.drift(t, x[:, 0], u), dtype=float).reshape(-1, 1)

    def diffusion(t, x, u):
        g = np.broadcast_to(np.asarray(problem.diffusion(t, x[:, 0], u), dtype=float),
                            (x.shape[0],))
        return g.reshape(-1, 1, 1)

    spec = SdeSpec(
        dim_state=1,
        dim_noise=1,
        drift=drift,
        diffusion=diffusion,
        initial_state=np.asarray([x0]),
        control=lambda t, x: policy(t, x[:, 0]),
    )

    beta = problem.discount
    dt = cfg.dt

    def functional(bundle):
        total = np.zeros(bundle.n_paths)
        for k in range(cfg.n_steps):
            t_k = float(bundle.times[k])
            xk = bundle.states[:, k, 0]
            u = policy(t_k, xk)
            phi = np.broadcast_to(
                np.asarray(problem.running_cost(t_k, xk, u), dtype=float), xk.shape
            )
            total = total + np.exp(-beta * t_k) * phi * dt
        xT = bundle.states[:, -1, 0]
        term = np.broadcast_to(np.asarray(problem.terminal_cost(xT), dtype=float), xT.shape)
        return total + np.exp(-beta * cfg.horizon) * term

    return upper_expectation_mc(
        spec, set_, functional, cfg,
        n_segments=n_segments, direction=problem.attitude, n_grid=n_grid,
    )


def _format_control(value) -> str:
    if isinstance(value, tuple):
        return ";".join(format(float(c), ".17g") for c in value)
    return format(float(value), ".17g")


def solution_csv_text(solution: HjbSolution) -> str:
    """CSV rows ``t,x,value,control_index,control_value`` over the grid.

    The terminal level carries control_index -1 and an empty control column
    since no decision is taken there.
    """
    # x and control cells are formatted once; each time level is one
    # %-template filled by a single call ("%.17g" matches format(v, ".17g")).
    x_cells = [f"{x:.17g},%.17g," for x in solution.x.tolist()]
    control_cells = [f"{j},{_format_control(c)}\n" for j, c in enumerate(solution.controls)]
    n_t = solution.policy.shape[0]
    chunks = ["t,x,value,control_index,control_value\n"]
    for k, t in enumerate(solution.times.tolist()):
        if k < n_t:
            rows = map(str.__add__, x_cells,
                       map(control_cells.__getitem__, solution.policy[k].tolist()))
        else:
            rows = [cell + "-1,\n" for cell in x_cells]
        prefix = f"{t:.9f},"
        chunks.append((prefix + prefix.join(rows)) % tuple(solution.values[k].tolist()))
    return "".join(chunks)


def solution_meta_text(problem: HjbProblem, grid: Grid1D) -> str:
    """Sidecar key=value block describing the solved configuration."""
    amb = problem.ambiguity
    rows = [
        ("x_min", grid.x_min),
        ("x_max", grid.x_max),
        ("n_x", grid.n_x),
        ("n_t", grid.n_t),
        ("horizon", problem.horizon),
        ("discount", problem.discount),
        ("attitude", problem.attitude),
        ("opt_direction", problem.opt_direction),
        ("boundary", problem.boundary.kind),
        ("sigma_lo_sq", amb.sigma_lo_sq),
        ("sigma_hi_sq", amb.sigma_hi_sq),
        ("n_controls", len(problem.controls)),
    ]
    return "\n".join(f"{k}={v}" for k, v in rows) + "\n"
