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

``solve_stack`` sweeps a stack of problems on one grid in one pass, each
member with the values and policy ``solve`` gives it alone, bit for bit;
``solve`` is a stack of one.  The members must share the scheme, the edge
rule, each component's level count and the segment of each time level.  A
level's interior rows are computed for the whole stack at once, by
elementwise operations; the edge rows, the tridiagonal solves and Howard
iteration's stop, cycle and cap tests are taken member by member, so the
members' Howard fixpoints stay uncoupled.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from numbers import Integral
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
                  _step_intervals, format_g17)

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
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("x_min and x_max must be finite")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        for name in ("n_x", "n_t"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
        if not 0.0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")
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
        if not 0.0 <= self.discount < np.inf:
            raise ValueError("discount must be nonnegative and finite")
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


def _require_finite(rows: np.ndarray, k: int) -> None:
    """NumericError naming level k and the node of the first non-finite entry of ``rows``,
    one member's row or a stack's, in member order."""
    if not np.isfinite(rows).all():  # the method: np.all costs a wrapper call per level
        i_bad = int(np.argwhere(~np.isfinite(rows))[0][-1])
        raise NumericError(f"non-finite value at time level {k} node {i_bad}")


def _shared(name: str, choices) -> object:
    """The one value every member of a stack gives; ValueError naming ``name`` otherwise."""
    first, *rest = choices
    if any(c != first for c in rest):
        raise ValueError(f"the problems of a stack must share the {name}")
    return first


def _sweep(problems, grid: Grid1D, times: np.ndarray, terminal_values: np.ndarray,
           segments: list):
    """Backward recursion of a stack of problems over their ``_segment_tables``, one
    list per member; returns (values, policy), indexed [level, member, node].

    ``times`` holds each member's levels of the grid's own time axis, one row per
    member, so every sweep on one grid takes the same scheme: explicit when
    horizon / n_t is within the monotone bound, implicit otherwise.  Each level
    [t_k, t_{k+1}) takes the segment ``sde._step_intervals`` gives the step at
    t_k, the one an Euler step there takes.  The members must share the scheme,
    the edge rule (one-sided or power), each component's level count and the
    segment of each level, or ValueError.

    The interior rows run on the members' rows laid end to end, so a stack of
    one runs the operations of a single problem; the rows that straddle two
    members are computed and overwritten by the edge rows.  A member's own
    scalar arithmetic (edge rows, solves) stays on Python floats.

    Each implicit level starts from the last choices of the level above (the
    argopt on its value at the top level and where the segment changes) and
    stops once a solve moves no node by more than ``_HOWARD_SETTLED`` times
    max(1, |u|_inf), or once an iterate's choices (picks, slopes and edge
    picks) are the ones its own solve used, so that the next solve would
    return it bit for bit; a solve that returns the iterate of two solves
    before raises NumericError.  Each member stops on its own and then keeps
    its iterate and choices while the rest go on; ``solves`` counts the solves
    each member still iterating has taken.  The edge rows enter the
    tridiagonal system, whose elimination folds the power_dirichlet edges into
    the first and last interior rows.

    Every row holds one level per component, its picks, each an index into that
    component's own table: the interior rows (``best``) pick each component on
    its own Hamiltonian ``work`` buffer, an implicit one-sided edge row on its
    own inward-drift and running-cost terms, any other edge row takes its
    interior neighbour's.  Rows sum their picks' entries in component order.
    """
    x = grid.nodes()
    m, n_t, n_x = len(problems), times.shape[1] - 1, x.size
    dx = float(x[1] - x[0])
    implicit = _shared("scheme", [
        p.horizon / grid.n_t > _stable_dt(p, grid.dx, tables) * (1.0 + 1e-9)
        for p, tables in zip(problems, segments)])
    one_sided = _shared("edge rule", [p.edge_power is None for p in problems])
    sizes = _shared("level count of each component",
                    [[len(c.levels) for c in _components(p)] for p in problems])
    segs = _shared("segment of each level", [
        _step_intervals(p.segment_starts, t[:-1], p.horizon).tolist()
        for p, t in zip(problems, times)])
    own_edges = implicit and one_sided

    values = np.empty((n_t + 1, m, n_x))
    values[n_t] = terminal_values
    policy = np.zeros((n_t, m, n_x), dtype=np.int64)
    # The members' rows end to end: interior row r is node r + 1 of the flat row, and
    # member i's interior rows are base[i] to base[i] + n_x - 3.
    flat, flat_policy = values.reshape(n_t + 1, -1), policy.reshape(n_t, -1)
    base = range(0, m * n_x, n_x)

    def spread(column):
        """A per-member constant over the flat interior rows."""
        return np.repeat(column, n_x)[1:-1]

    # Per level and member, the step and the factors 1 - beta dt and 1 + beta dt: Python
    # floats for the edge rows, and each level's as the stack's rows, a float when shared.
    steps = np.diff(times, axis=1).T
    step_floats = steps.tolist()
    beta_floats = [p.discount for p in problems]
    per_level = (steps, 1.0 - np.array(beta_floats) * steps, 1.0 + np.array(beta_floats) * steps)
    levels = range(n_t - 1, -1, -1)
    if all((c == c[:, :1]).all() for c in per_level):
        level_rows = list(zip(*(c[levels, 0].tolist() for c in per_level)))
    else:
        level_rows = ([spread(c[k]) for c in per_level] for k in levels)
    # The generator weight per node does not depend on the control: g^2 >= 0,
    # so sign(g^2 * cen) = sign(cen) and G(g^2 * cen) = g^2 * (slope * cen)
    # with the slope, G(1) or -G(-1), picked from the curvature sign alone.
    weights = [(g_scalar(1.0, p.ambiguity, p.attitude), -g_scalar(-1.0, p.ambiguity, p.attitude))
               for p in problems]
    w_pos, w_neg = weights[0] if len(set(weights)) == 1 else map(spread, zip(*weights))
    # The methods, not the np.argmax and np.argmin wrappers, which cost a call per level.
    argopts = [np.ndarray.argmax if p.opt_direction == "maximize" else np.ndarray.argmin
               for p in problems]
    if len(set(argopts)) == 1:
        argopt = argopts[0]
    else:
        maximize = spread([a is np.ndarray.argmax for a in argopts])

        def argopt(a, axis):
            return np.where(maximize, a.argmax(axis=axis), a.argmin(axis=axis))

    # The edge rows, left then right, as (e, h, i, s, sign): the row e; the start h
    # of the stencil (v[h+2] - 2 v[h+1] + v[h]) at the edge, whose middle node is the
    # row's interior neighbour; the start i of the one-sided difference (v[i+1] - v[i]);
    # and the table row s of the drift's upwind part that points inward, with its sign.
    sides = ((0, 0, 0, _RISE, 1.0), (n_x - 1, n_x - 3, n_x - 2, _FALL, -1.0))
    if not one_sided:
        ratio = [[(x[e] / x[h + 1]) ** float(p.edge_power) for e, h, *_ in sides]
                 for p in problems]

    def flat_interior(tables):
        """The interior rows of one component's tables, one per member, laid end to end."""
        return (tables[0] if m == 1 else np.concatenate(tables, axis=1))[:, 1:-1]

    cols = np.arange(m * n_x - 2)
    # Per segment a level takes, each table row's interior rows, one array per component:
    # [row][c] of shape (m * n_x - 2, levels).
    interiors = {j: list(zip(*map(flat_interior, zip(*(member[j] for member in segments)))))
                 for j in set(segs)}
    work, tmp = ([np.empty((m * n_x - 2, n)) for n in sizes] for _ in range(2))
    if implicit:
        # Band s couples a node to the neighbour that table row s upwinds toward:
        # max(F, 0) to the upper band, min(F, 0) to the lower.
        system = np.zeros((4, m * n_x))
        upper, lower, diag, rhs = system
        bands = system.reshape(4, m, n_x)
        # Each member's interior rows, then the two straddling rows after it.
        cuts = [c for b in base for c in (b, b + n_x - 2)][:-1]

    def at(arrays, picks, *index):
        """The sum in component order of each component's array at ``index`` and its pick."""
        total = arrays[0][(*index, picks[0])]
        for array, j in zip(arrays[1:], picks[1:]):
            total = total + array[(*index, j)]
        return total

    def own_picks(i, u, seg):
        """Member i's one-sided edge picks on the flat u: each component optimizes its own
        inward-drift and running-cost terms at the edge."""
        b = base[i]
        return [[int(argopts[i](table[s, e] * ((u[b + r + 1] - u[b + r]) / dx) + table[_COST, e]))
                 for table in segments[i][seg]] for e, _, r, s, _ in sides]

    def neighbour_picks(best, b):
        """The picks of a member's edge rows' interior neighbours, its first and last
        interior rows, from the member's base b."""
        return [[j[b] for j in best], [j[b + n_x - 3] for j in best]]

    def product_index(picks):
        """The index in ``controls`` of the picks, component-major."""
        index = picks[0]
        for j, n in zip(picks[1:], sizes[1:]):
            index = index * n + j
        return index

    def fill_generator(u, interior):
        """work[c][r, j] = drift, generator and running-cost terms of level j of
        component c at interior row r on the flat u; returns each component's argopt
        level per row and the generator slope, w_pos where cen > 0 and w_neg elsewhere."""
        diff = ((u[1:] - u[:-1]) / dx)[:, None]
        fwd, bwd = diff[1:], diff[:-1]
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

    for k, (dt, keep, grow) in zip(levels, level_rows):
        dts = step_floats[k]
        seg = segs[k]
        interior = interiors[seg]
        v = flat[k + 1]

        if implicit:
            u, active, solves = v, range(m), 0
            while True:
                if solves or k == n_t - 1 or seg != segs[k + 1]:
                    with np.errstate(over="ignore", invalid="ignore"):
                        fresh, fresh_slopes = fill_generator(u, interior)
                        fresh_edges = ({i: own_picks(i, u, seg) for i in active}
                                       if own_edges else None)
                    if solves:
                        # The choices of the last solve again: the next would return the
                        # member's iterate bit for bit.
                        same = fresh_slopes == slopes
                        for f, b in zip(fresh, best):
                            same &= f == b
                        same = np.logical_and.reduceat(same, cuts)[::2]
                        active = [i for i in active if not (
                            same[i] and (not own_edges or fresh_edges[i] == edges[i]))]
                        if not active:
                            break
                    if len(active) == m:
                        best, slopes, edges = fresh, fresh_slopes, fresh_edges
                    else:
                        rows = spread(np.isin(range(m), active))
                        for b, f in zip(best, fresh):
                            np.copyto(b, f, where=rows)
                        np.copyto(slopes, fresh_slopes, where=rows)
                        if own_edges:
                            edges.update((i, fresh_edges[i]) for i in active)
                if solves == _HOWARD_MAX_SOLVES:
                    raise NumericError(
                        f"Howard iteration: value not settled after {solves} "
                        f"linear solves at time level {k}"
                    )
                diffusion = at(interior[_G2], best, cols) * slopes / (dx * dx)
                down = dt * (diffusion - at(interior[_FALL], best, cols) / dx)
                up = dt * (diffusion + at(interior[_RISE], best, cols) / dx)
                lower[1:-1] = -down
                upper[1:-1] = -up
                diag[1:-1] = grow + down + up
                rhs[1:-1] = v[1:-1] + dt * at(interior[_COST], best, cols)
                u_before, u_prev, u = u_prev if solves else None, u, u.copy()
                for i in active:
                    b = base[i]
                    for side, (e, _, _, s, sign) in enumerate(sides):
                        if one_sided:
                            row = at(segments[i][seg], edges[i][side], slice(None), e).tolist()
                            inward = sign * dts[i] * row[s] / dx
                            diag[b + e] = 1.0 + beta_floats[i] * dts[i] + inward
                            system[s, b + e] = -inward
                            rhs[b + e] = v[b + e] + dts[i] * row[_COST]
                        else:
                            diag[b + e], system[s, b + e], rhs[b + e] = 1.0, -ratio[i][side], 0.0
                    u[b:b + n_x] = _solve_tridiagonal(bands[1, i], bands[2, i], bands[0, i],
                                                      bands[3, i])
                solves += 1
                members = u.reshape(m, n_x)
                _require_finite(members, k)
                gap = np.abs(u - u_prev).reshape(m, n_x).max(axis=1)
                settled = gap <= _HOWARD_SETTLED * np.maximum(1.0, np.abs(members).max(axis=1))
                active = [i for i in active if not settled[i]]
                # From the second solve on, each solve's choices are a function of the
                # iterate alone, so an iterate repeated bit for bit repeats forever.
                if solves >= 3 and active:
                    cycles = (u == u_before).reshape(m, n_x).all(axis=1)
                    if any(cycles[i] for i in active):
                        raise NumericError(
                            f"Howard iteration cycles between two iterates at time level {k}")
                if not active:
                    break
            flat[k] = u
            if not own_edges:
                edges = [neighbour_picks(best, b) for b in base]
        else:
            # Overflow in a diverging sweep is caught by the finiteness check below.
            # Rounding is monotone, so the argopt of the Hamiltonian also optimizes the update.
            with np.errstate(over="ignore", invalid="ignore"):
                best, _ = fill_generator(v, interior)
                flat[k, 1:-1] = at(work, best, cols) * dt + v[1:-1] * keep
            edges = [neighbour_picks(best, b) for b in base]
            for i, vi in enumerate(values[k + 1]):
                for side, ((e, h, r, _, _), picks) in enumerate(zip(sides, edges[i])):
                    if not one_sided:
                        values[k, i, e] = values[k, i, h + 1] * ratio[i][side]
                        continue
                    # The stencil's three nodes as Python floats, indexed from h.
                    near = vi[h:h + 3].tolist()
                    row = at(segments[i][seg], picks, slice(None), e).tolist()
                    slope = (near[r + 1 - h] - near[r - h]) / dx
                    curv = (near[2] - 2.0 * near[1] + near[0]) / (dx * dx)
                    alpha = row[_G2] * curv
                    values[k, i, e] = near[e - h] + dts[i] * (
                        row[_DRIFT] * slope
                        + alpha * (weights[i][0] if alpha > 0.0 else weights[i][1])
                        + row[_COST] - beta_floats[i] * near[e - h]
                    )
            _require_finite(values[k], k)
        flat_policy[k, 1:-1] = product_index(best)
        for i in range(m):
            left, right = edges[i]
            policy[k, i, 0], policy[k, i, -1] = product_index(left), product_index(right)

    return values, policy


def solve(problem: HjbProblem, grid: Grid1D) -> HjbSolution:
    """Solve the terminal-value problem on the grid with a monotone scheme.

    The sweep is explicit when dt = horizon / n_t meets the CFL bound
    (n_t at or above ``suggest_time_steps``) and implicit below it.  The
    implicit sweep raises NumericError (with the time level) if Howard
    iteration's value does not settle within _HOWARD_MAX_SOLVES linear solves,
    or at once if its iterates cycle between two arrays bit for bit.
    Either raises NumericError (with time level and node) if the sweep
    produces a non-finite value.  This is ``solve_stack`` on a stack of one.
    """
    return solve_stack([problem], grid)[0]


def solve_stack(problems, grid: Grid1D) -> list[HjbSolution]:
    """``solve`` of each problem on the one grid, in one sweep; the solutions in order.

    Each member's values and policy are those ``solve`` gives it alone, bit
    for bit.  The members must share the scheme ``solve`` takes on the grid,
    the edge rule, each component's level count and the segment each level
    takes (ValueError otherwise); see ``_sweep``.  A member's error is
    ``solve``'s error on it.
    """
    if not problems:
        return []
    x = grid.nodes()
    times = np.array([np.linspace(0.0, p.horizon, grid.n_t + 1) for p in problems])
    terminal = np.empty((len(problems), x.size))
    for row, p in zip(terminal, problems):
        row[:] = p.terminal_cost(x)
    values, policy = _sweep(problems, grid, times, terminal,
                            [_segment_tables(p, x) for p in problems])
    return [HjbSolution(grid=grid, x=x, times=t, values=np.ascontiguousarray(values[:, i]),
                        policy=np.ascontiguousarray(policy[:, i]), controls=p.controls)
            for i, (p, t) in enumerate(zip(problems, times))]


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
    segments = [_segment_tables(problem, x)]
    direct, _ = _sweep([problem], grid, times[None], problem.terminal_cost(x), segments)
    head, _ = _sweep([problem], grid, times[None, : k_bar + 1], direct[k_bar], segments)
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
    lookup, on the level that ``sde._step_intervals`` gives the step's
    time), handed to the callables as an array over the paths, or for
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
    x_nodes = solution.x
    dx = float(x_nodes[1] - x_nodes[0])

    def lookup(t, x_flat):
        k = _step_intervals(solution.times[:-1], t, problem.horizon)
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
