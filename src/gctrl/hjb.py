"""Backward-in-time monotone finite-difference solver for ambiguous HJB equations.

Two sweeps share upwinded first differences and a central second
difference; the second-order term passes through the scalar worst-case
generator (upper or lower), which makes the equation fully nonlinear.  The
grid picks the sweep: explicit when its step horizon / n_t meets the CFL
bound, implicit otherwise.

explicit: one forward step per level.  Its interior rows are monotone under
the CFL bound below; its one-sided edge rows are not, at any dt (see
HjbProblem).

    dt <= dx^2 / (sigma_hi_sq * max g^2 + dx * max |f| + dx^2 * discount).

implicit: backward Euler, monotone at any dt.  Each level is solved by
Howard policy iteration (Forsyth & Labahn 2007; Bokanowski, Maroso &
Zidani 2009): fix every node's control and generator weight from the
current iterate, solve the resulting tridiagonal M-matrix system, and
repeat until a solve moves no node by more than 8 eps max(1, |u|_inf), or
until the choices fixed from an iterate are the ones its own solve used.  A
level raises NumericError when a solve returns the iterate of two solves
before, and when it has not settled after _HOWARD_MAX_SOLVES solves.

Controls live on a finite list, optionally declared as a product of
components (``ControlComponent``) whose drift parts are upwinded each by its
own sign, which keeps the scheme monotone.  The Hamiltonian is then a sum of
one term per component, so both sweeps search each component's levels on a
table of its own instead of the product, with the bound above reading max g^2
and max |f| as sums over the components.  Ties within a component go to its
lowest level, so runs are reproducible.  Every row, the edge rows included,
holds one level per component; the product index is formed only for the policy.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ambiguity import AmbiguitySet, g_scalar
from .errors import NumericError
from .estimators import (
    DEFAULT_N_GRID,
    DEFAULT_N_SEGMENTS,
    ExpectationEstimate,
    upper_expectation_mc,
)
from .sde import (CsvTable, PathConfig, SdeSpec, _checked_starts, _segment_index, _starts_before,
                  format_g17)

_ATTITUDES = ("upper", "lower")
_DIRECTIONS = ("minimize", "maximize")

# Linear solves one implicit time level may take before Howard iteration gives up.
_HOWARD_MAX_SOLVES = 50
# A level has settled once a linear solve moves no node by more than this times max(1, |u|_inf).
_HOWARD_SETTLED = 8.0 * np.finfo(float).eps


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
class ControlComponent:
    """One factor of a product control set, with its additive share of the coefficients.

    ``drift``, ``diffusion`` and ``running_cost`` take (t, x, level) for one
    of ``levels`` and broadcast over the node array x like the problem's own
    callables.  The problem's drift, diffusion and running cost are the sums
    of the components' parts, and the grid reads its squared diffusion as the
    sum of their squares.  With one noise that is the square of the sum only
    when at most one component diffuses, as in ``merton_hjb_problem``, so the
    solver raises ValueError on a segment where more than one does.  A part
    left None is absent: the grid reads zeros for it and the policy Monte
    Carlo does not call it.
    """

    levels: tuple
    drift: Callable | None
    diffusion: Callable | None
    running_cost: Callable | None


@dataclass(frozen=True, kw_only=True)
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
    (``(0.0,)`` when they ignore t).  The solver builds its coefficient
    tables and the explicit CFL bound once per segment, from the segment
    start, so a coefficient that varies within a segment must be declared
    with finer segments.

    ``edge_power`` picks how the two edge rows are closed.  None (one-sided):
    the explicit sweep uses one-sided first/second differences with the
    control frozen to the adjacent interior argopt.  That closure is not
    monotone: (v2 - 2 v1 + v0) / dx^2 weighs v1 by -2 w / dx^2, so ordered
    data can cross at the edges, which is why
    ``verify._random_ordered_problems`` keeps its supports 14 nodes away from
    them.  The implicit sweep drops the second-order term at the edge
    (V_xx ~ 0), keeps only the inward-pointing drift, upwinded, and optimizes
    the edge row's own control, which keeps it monotone.  A number p (power
    Dirichlet): the edge value is the adjacent interior node's scaled by
    (x_edge / x_adjacent)**p, for value functions with a known power shape x^p.

    ``components`` optionally declares the control list a product: ``controls``
    must then be the tuples of the components' levels in component-major order
    (the last component varying fastest), and the components state the
    coefficients once: the grid upwinds each drift part by its own sign and
    the policy Monte Carlo steps the parts' sums.  The three callables are
    then left None; without a declaration they are required and the whole
    list is one component with them (ValueError otherwise).
    """

    drift: Callable | None = None
    diffusion: Callable | None = None
    running_cost: Callable | None = None
    terminal_cost: Callable
    horizon: float
    controls: tuple
    ambiguity: AmbiguitySet
    segment_starts: tuple[float, ...]
    discount: float = 0.0
    opt_direction: str = "minimize"
    attitude: str = "upper"
    edge_power: float | None = None
    components: tuple[ControlComponent, ...] | None = None

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if len(self.controls) == 0:
            raise ValueError("controls must be a nonempty list")
        object.__setattr__(self, "controls", tuple(self.controls))
        given = [f is not None for f in (self.drift, self.diffusion, self.running_cost)]
        if given != [self.components is None] * 3:
            raise ValueError("state drift, diffusion and running_cost either in the "
                             "components or, without components, on the problem")
        if self.components is not None:
            object.__setattr__(self, "components", tuple(self.components))
            product = tuple(itertools.product(*(c.levels for c in self.components)))
            if not self.components or self.controls != product:
                raise ValueError("controls must be the component-major product of the "
                                 "components' levels")
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
        object.__setattr__(self, "segment_starts",
                           _checked_starts(self.segment_starts, "segment_starts"))


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
        """Bilinear interpolation of the value field; ValueError off the grid."""
        if not (self.times[0] <= t <= self.times[-1] and self.x[0] <= x <= self.x[-1]):
            raise ValueError(f"(t, x) = ({t}, {x}) lies outside the grid "
                             f"[{self.times[0]}, {self.times[-1]}] x [{self.x[0]}, {self.x[-1]}]")
        k = _segment_index(self.times[:-1], t)
        w = (t - self.times[k]) / (self.times[k + 1] - self.times[k])
        row = (1.0 - w) * self.values[k] + w * self.values[k + 1]
        return float(np.interp(x, self.x, row))


def _components(problem: HjbProblem) -> tuple[ControlComponent, ...]:
    """The declared components, or the whole control list as one component."""
    if problem.components is not None:
        return problem.components
    return (ControlComponent(problem.controls, problem.drift, problem.diffusion,
                             problem.running_cost),)


def _summed(problem: HjbProblem, name: str) -> Callable:
    """The coefficient ``name`` of the whole control u: the problem's own callable, or
    the components' parts present, each at its own value u[j], added in component order."""
    if problem.components is None:
        return getattr(problem, name)
    parts = [(j, part) for j, c in enumerate(problem.components)
             if (part := getattr(c, name)) is not None]
    if not parts:
        return lambda t, x, u: 0.0 * x
    (first_j, first), *rest = parts

    def whole(t, x, u):
        total = first(t, x, u[first_j])
        for j, part in rest:
            total = total + part(t, x, u[j])
        return total
    return whole


# The rows of a ``_tables`` table: max(F, 0), min(F, 0), g^2, the running cost and F.
_RISE, _FALL, _G2, _COST, _DRIFT = range(5)


def _tables(problem: HjbProblem, x: np.ndarray, t: float) -> list[np.ndarray]:
    """One (5, n_x, n_levels) table per component, in component order, of its rows at
    each node and level.  F is taken as the sum of its upwind parts; a part left None
    reads zeros."""
    tables = []
    for c in _components(problem):
        table = np.empty((5, x.size, len(c.levels)))
        for j, u in enumerate(c.levels):
            for row, part in ((_DRIFT, c.drift), (_G2, c.diffusion), (_COST, c.running_cost)):
                table[row, :, j] = 0.0 if part is None else part(t, x, u)
        table[_G2] **= 2
        np.maximum(table[_DRIFT], 0.0, out=table[_RISE])
        np.minimum(table[_DRIFT], 0.0, out=table[_FALL])
        np.add(table[_RISE], table[_FALL], out=table[_DRIFT])
        tables.append(table)
    if sum(bool(table[_G2].any()) for table in tables) > 1:
        raise ValueError(f"at t={t} more than one control component diffuses; one noise allows one")
    return tables


def _segment_tables(problem: HjbProblem, x: np.ndarray) -> list:
    """The ``_tables`` of each segment starting before the horizon, in segment order."""
    return [_tables(problem, x, s) for s in _starts_before(problem.segment_starts, problem.horizon)]


def _stable_dt(problem: HjbProblem, dx: float, segments: list) -> float:
    hi = problem.ambiguity.sigma_hi_sq

    def worst(tables, row):  # over the nodes, the sum of each component's largest |entry|
        return sum(np.abs(table[row]).max(axis=1) for table in tables).max()

    denom = max(float(hi * worst(tables, _G2) + dx * worst(tables, _DRIFT)
                      + dx * dx * problem.discount) for tables in segments)
    return np.inf if denom == 0.0 else dx * dx / denom


def max_stable_dt(problem: HjbProblem, grid: Grid1D) -> float:
    """Largest time step keeping the explicit update monotone, exact per segment."""
    x = grid.nodes()
    return _stable_dt(problem, grid.dx, _segment_tables(problem, x))


def suggest_time_steps(problem: HjbProblem, x_min: float, x_max: float, n_x: int) -> int:
    """Smallest n_t satisfying the CFL bound on the given spatial grid.

    ``solve`` runs the explicit sweep from this count up and the implicit
    sweep below it.
    """
    probe = Grid1D(x_min=x_min, x_max=x_max, n_x=n_x, n_t=1)
    bound = max_stable_dt(problem, probe)
    if not np.isfinite(bound):
        return 1
    return max(1, int(np.ceil(problem.horizon / bound)))


def _solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Thomas elimination: lower[i] u[i-1] + diag[i] u[i] + upper[i] u[i+1] = rhs[i].

    lower[0] and upper[-1] are not read.  Stable without pivoting for the
    diagonally dominant systems of the implicit sweep.
    """
    a, b, c, r = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    n = len(b)
    for i in range(1, n):
        m = a[i] / b[i - 1]
        b[i] -= m * c[i - 1]
        r[i] -= m * r[i - 1]
    u = [0.0] * n
    u[-1] = r[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        u[i] = (r[i] - c[i] * u[i + 1]) / b[i]
    return np.array(u)


def _require_finite(row: np.ndarray, k: int) -> None:
    if not np.isfinite(row).all():  # the method: np.all costs a wrapper call per level
        i_bad = int(np.argwhere(~np.isfinite(row))[0][0])
        raise NumericError(f"non-finite value at time level {k} node {i_bad}")


def _sweep(problem: HjbProblem, grid: Grid1D, times: np.ndarray, terminal_values: np.ndarray,
           segments: list):
    """Backward recursion over the ``_segment_tables``; returns (values, policy).

    ``times`` are levels of the grid's own time axis, so every sweep on one
    grid takes the same scheme: explicit when horizon / n_t is within the
    monotone bound, implicit otherwise.

    Each implicit level starts from the last choices of the level above (the
    argopt on its value where the segment changes) and stops once a solve
    moves no node by more than ``_HOWARD_SETTLED`` times max(1, |u|_inf), or
    once an iterate's choices (picks, slopes and edge picks) are the ones
    its own solve used, so that the next solve would return it bit for bit;
    a solve that returns the iterate of two solves before raises NumericError.
    The edge rows enter the tridiagonal system, whose elimination folds the
    power_dirichlet edges into the first and last interior rows.

    Every row holds one level per component, its picks, each an index into that
    component's own table: the interior rows (``best``) pick each component on
    its own Hamiltonian ``work`` buffer, an implicit one-sided edge row on its
    own inward-drift and running-cost terms, any other edge row takes its
    interior neighbour's.  Rows sum their picks' entries in component order.
    """
    implicit = problem.horizon / grid.n_t > _stable_dt(problem, grid.dx, segments) * (1.0 + 1e-9)
    x = grid.nodes()
    n_t = len(times) - 1
    n_x = x.size
    dx = float(x[1] - x[0])
    beta = problem.discount
    # The methods, not the np.argmax and np.argmin wrappers, which cost a call per level.
    argopt = np.ndarray.argmax if problem.opt_direction == "maximize" else np.ndarray.argmin
    one_sided = problem.edge_power is None

    values = np.empty((n_t + 1, n_x))
    values[n_t] = terminal_values
    policy = np.zeros((n_t, n_x), dtype=np.int64)

    # The generator weight per node does not depend on the control: g^2 >= 0,
    # so sign(g^2 * cen) = sign(cen) and G(g^2 * cen) = g^2 * (slope * cen)
    # with the slope, G(1) or -G(-1), picked from the curvature sign alone.
    w_pos = g_scalar(1.0, problem.ambiguity, problem.attitude)
    w_neg = -g_scalar(-1.0, problem.ambiguity, problem.attitude)

    # The edge rows, left then right, as (e, h, i, s, sign): the row e; the start h
    # of the stencil (v[h+2] - 2 v[h+1] + v[h]) at the edge, whose middle node is the
    # row's interior neighbour; the start i of the one-sided difference (v[i+1] - v[i]);
    # and the table row s of the drift's upwind part that points inward, with its sign.
    sides = ((0, 0, 0, _RISE, 1.0), (n_x - 1, n_x - 3, n_x - 2, _FALL, -1.0))
    if not one_sided:
        ratio = [(x[e] / x[h + 1]) ** float(problem.edge_power) for e, h, *_ in sides]

    cols = np.arange(n_x - 2)
    # Per segment, the interior nodes of each table row, a view per component: [row][c].
    interiors = [list(zip(*(table[:, 1:-1] for table in tables))) for tables in segments]
    sizes = [len(c.levels) for c in _components(problem)]
    work, tmp = ([np.empty((n_x - 2, n)) for n in sizes] for _ in range(2))
    if implicit:
        # Band s couples a node to the neighbour that table row s upwinds toward:
        # max(F, 0) to the upper band, min(F, 0) to the lower.
        system = np.zeros((4, n_x))
        upper, lower, diag, rhs = system
        if not one_sided:
            for (e, _, _, s, _), r in zip(sides, ratio):
                diag[e] = 1.0
                system[s, e] = -r

    def at(arrays, picks, *index):
        """The sum in component order of each component's array at ``index`` and its pick."""
        total = arrays[0][(*index, picks[0])]
        for array, j in zip(arrays[1:], picks[1:]):
            total = total + array[(*index, j)]
        return total

    def neighbour_picks(best):
        """The picks of the edge rows' interior neighbours, the first and last interior rows."""
        return [[j[0] for j in best], [j[-1] for j in best]]

    def product_index(picks):
        """The index in ``controls`` of the picks, component-major."""
        index = picks[0]
        for j, n in zip(picks[1:], sizes[1:]):
            index = index * n + j
        return index

    def fill_generator(u, interior):
        """work[c][i, j] = drift, generator and running-cost terms of level j of
        component c at interior node i on u; returns each component's argopt
        level per row and the generator slope, w_pos where cen > 0 and w_neg elsewhere."""
        fwd = ((u[2:] - u[1:-1]) / dx)[:, None]
        bwd = ((u[1:-1] - u[:-2]) / dx)[:, None]
        cen = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        slope = np.where(cen > 0.0, w_pos, w_neg)
        w = (slope * cen)[:, None]

        for rise, fall, g2, cost, out, term in zip(interior[_RISE], interior[_FALL],
                                                   interior[_G2], interior[_COST], work, tmp):
            np.multiply(rise, fwd, out=out)
            np.multiply(fall, bwd, out=term)
            np.add(out, term, out=out)
            np.multiply(g2, w, out=term)
            np.add(out, term, out=out)
            np.add(out, cost, out=out)
        return [argopt(out, axis=1) for out in work], slope

    seg_above = None
    for k in range(n_t - 1, -1, -1):
        t_k = float(times[k])
        dt_k = float(times[k + 1] - times[k])
        seg = _segment_index(problem.segment_starts, t_k)
        tables, interior = segments[seg], interiors[seg]
        v = values[k + 1]

        if implicit:
            u, u_prev, solves = v, None, 0
            while True:
                if solves or seg != seg_above:
                    used = (best, slopes, edge) if solves else None
                    with np.errstate(over="ignore", invalid="ignore"):
                        best, slopes = fill_generator(u, interior)
                        # A one-sided edge row optimizes its own inward-drift and running-cost
                        # terms, one component at a time.
                        edge = neighbour_picks(best) if not one_sided else [
                            [int(argopt(table[s, e] * ((u[i + 1] - u[i]) / dx) + table[_COST, e]))
                             for table in tables] for e, _, i, s, _ in sides]
                    # The choices of the last solve again: the next would return u bit for bit.
                    if (used and edge == used[2] and np.array_equal(slopes, used[1])
                            and all(map(np.array_equal, best, used[0]))):
                        break
                if solves == _HOWARD_MAX_SOLVES:
                    raise NumericError(
                        f"Howard iteration: value not settled after {solves} "
                        f"linear solves at time level {k}"
                    )
                diffusion = at(interior[_G2], best, cols) * slopes / (dx * dx)
                down = dt_k * (diffusion - at(interior[_FALL], best, cols) / dx)
                up = dt_k * (diffusion + at(interior[_RISE], best, cols) / dx)
                lower[1:-1] = -down
                upper[1:-1] = -up
                diag[1:-1] = 1.0 + beta * dt_k + down + up
                rhs[1:-1] = v[1:-1] + dt_k * at(interior[_COST], best, cols)
                if one_sided:
                    for (e, _, _, s, sign), picks in zip(sides, edge):
                        row = at(tables, picks, slice(None), e).tolist()
                        inward = sign * dt_k * row[s] / dx
                        diag[e] = 1.0 + beta * dt_k + inward
                        system[s, e] = -inward
                        rhs[e] = v[e] + dt_k * row[_COST]
                u_before, u_prev, u = u_prev, u, _solve_tridiagonal(lower, diag, upper, rhs)
                solves += 1
                _require_finite(u, k)
                if np.max(np.abs(u - u_prev)) <= _HOWARD_SETTLED * max(1.0, np.max(np.abs(u))):
                    break
                # From the second solve on, each solve's choices are a function of the
                # iterate alone, so an iterate repeated bit for bit repeats forever.
                if solves >= 3 and np.array_equal(u, u_before):
                    raise NumericError(
                        f"Howard iteration cycles between two iterates at time level {k}")
            values[k] = u
        else:
            # Overflow in a diverging sweep is caught by the finiteness check below.
            # Rounding is monotone, so the argopt of the Hamiltonian also optimizes the update.
            with np.errstate(over="ignore", invalid="ignore"):
                best, _ = fill_generator(v, interior)
                values[k, 1:-1] = at(work, best, cols) * dt_k + v[1:-1] * (1.0 - beta * dt_k)
            edge = neighbour_picks(best)
            for side, ((e, h, i, _, _), picks) in enumerate(zip(sides, edge)):
                if one_sided:
                    row = at(tables, picks, slice(None), e).tolist()
                    slope = (v[i + 1] - v[i]) / dx
                    curv = (v[h + 2] - 2.0 * v[h + 1] + v[h]) / (dx * dx)
                    alpha = row[_G2] * curv
                    values[k, e] = v[e] + dt_k * (
                        row[_DRIFT] * slope
                        + alpha * (w_pos if alpha > 0.0 else w_neg)
                        + row[_COST] - beta * v[e]
                    )
                else:
                    values[k, e] = values[k, h + 1] * ratio[side]
            _require_finite(values[k], k)
        policy[k, 1:-1] = product_index(best)
        policy[k, 0], policy[k, -1] = product_index(edge[0]), product_index(edge[1])
        seg_above = seg

    return values, policy


def solve(problem: HjbProblem, grid: Grid1D) -> HjbSolution:
    """Solve the terminal-value problem on the grid with a monotone scheme.

    The sweep is explicit when dt = horizon / n_t meets the CFL bound
    (n_t at or above ``suggest_time_steps``) and implicit below it.  The
    implicit sweep raises NumericError (with the time level) if Howard
    iteration's value does not settle within _HOWARD_MAX_SOLVES linear solves,
    or at once if its iterates cycle between two arrays bit for bit.
    Either raises NumericError (with time level and node) if the sweep
    produces a non-finite value.
    """
    x = grid.nodes()
    segments = _segment_tables(problem, x)
    times = np.linspace(0.0, problem.horizon, grid.n_t + 1)
    values, policy = _sweep(problem, grid, times, problem.terminal_cost(x), segments)
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

    The direct sweep's levels on [t_bar, T] are the solve there; its level at
    t_bar is swept back to 0 as a synthetic terminal condition, and those
    composed initial values are compared with the direct ones.  Both sweeps
    take the scheme ``solve`` takes on the grid, and on the shared grid
    either one-step recursion composes exactly, so the gap is rounding-level.
    """
    times = np.linspace(0.0, problem.horizon, grid.n_t + 1)
    k_bar = int(np.argmin(np.abs(times - t_bar)))
    if abs(times[k_bar] - t_bar) > 1e-9 * max(1.0, problem.horizon):
        raise ValueError(f"t_bar={t_bar} is not a grid time")
    if k_bar <= 0 or k_bar >= grid.n_t:
        raise ValueError("t_bar must lie strictly between 0 and the horizon")

    x = grid.nodes()
    segments = _segment_tables(problem, x)
    direct, _ = _sweep(problem, grid, times, problem.terminal_cost(x), segments)
    head, _ = _sweep(problem, grid, times[: k_bar + 1], direct[k_bar], segments)
    return float(np.max(np.abs(head[0] - direct[0])))


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
    lookup), handed to the callables as an array over the paths, or for
    tuple controls one such array per component along the first axis; pass
    ``control_fn(t, x_array) -> control values`` to evaluate an analytic
    policy on the same dynamics instead.  Components are stepped on their
    parts' sums, each part at its own component of the control.  The search
    runs in the problem's attitude: upper maximizes the sampled mean over
    priors, lower minimizes it.  For a correct solver the estimate matches
    solution.value_at(0, x0) within Monte Carlo plus discretization error.
    """
    if abs(cfg.horizon - problem.horizon) > 1e-12 * max(1.0, problem.horizon):
        raise ValueError("cfg.horizon must equal the problem horizon")

    comps = np.asarray(problem.controls, dtype=float).T  # component-major
    level_starts = solution.times[:-1].tolist()
    x_nodes = solution.x
    dx = float(x_nodes[1] - x_nodes[0])

    def lookup(t, x_flat):
        k = _segment_index(level_starts, t)
        i = np.clip(np.rint((x_flat - x_nodes[0]) / dx).astype(int), 0, len(x_nodes) - 1)
        return comps[..., solution.policy[k, i]]

    policy = control_fn if control_fn is not None else lookup
    drift, diffusion, running_cost = (_summed(problem, name)
                                      for name in ("drift", "diffusion", "running_cost"))
    spec = SdeSpec(dim_state=1, dim_noise=1, drift=lambda t, x, u: drift(t, x[:, 0], u),
                   diffusion=lambda t, x, u: diffusion(t, x[:, 0], u),
                   initial_state=np.asarray([x0]), control=lambda t, x: policy(t, x[:, 0]))

    beta = problem.discount
    dt = cfg.dt

    def functional(bundle):
        total = np.zeros(bundle.n_paths)
        for k in range(cfg.n_steps):
            t_k = float(bundle.times[k])
            xk = bundle.states[:, k, 0]
            u = policy(t_k, xk)
            total += np.exp(-beta * t_k) * running_cost(t_k, xk, u) * dt
        total += np.exp(-beta * cfg.horizon) * problem.terminal_cost(bundle.states[:, -1, 0])
        return total

    return upper_expectation_mc(
        spec, set_, functional, cfg,
        n_segments=n_segments, direction=problem.attitude, n_grid=n_grid,
    )


def solution_csv_chunks(solution: HjbSolution) -> CsvTable:
    """CSV rows ``t,x,value,control_index,control_value`` over the grid, one block per level.

    The terminal level carries control_index -1 and an empty control column
    since no decision is taken there.
    """
    # x and control cells are formatted once; each time level is one block,
    # and the terminal level's index -1 picks the appended "-1," cell.
    x_cells = [f"{x.decode()},%s," for x in format_g17(solution.x)]
    control_cells = [f"{j},{b';'.join(format_g17(c)).decode()}\n"
                     for j, c in enumerate(solution.controls)]
    control_cells.append("-1,\n")
    times, policy = solution.times.tolist(), solution.policy

    @functools.lru_cache(maxsize=1)  # consecutive levels mostly pick alike
    def rows(picks: tuple) -> list[str]:
        return list(map(str.__add__, x_cells, map(control_cells.__getitem__, picks)))

    def level(i: int) -> tuple:
        picks = policy[i].tolist() if i < len(policy) else [-1] * len(x_cells)
        return f"{times[i]:.9f},", rows(tuple(picks)), solution.values[i]

    return CsvTable("t,x,value,control_index,control_value", len(times), level,
                    solution.values.size)


def solution_csv_text(solution: HjbSolution) -> str:
    """The joined text of ``solution_csv_chunks(solution)``."""
    return "".join(solution_csv_chunks(solution))


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
        ("boundary", "one_sided" if problem.edge_power is None else "power_dirichlet"),
        ("sigma_lo_sq", amb.sigma_lo_sq),
        ("sigma_hi_sq", amb.sigma_hi_sq),
        ("n_controls", len(problem.controls)),
    ]
    return "\n".join(f"{k}={v}" for k, v in rows) + "\n"
