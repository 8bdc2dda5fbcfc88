"""Robust consumption-portfolio choice under volatility ambiguity.

Market coefficients are a piecewise-constant segment table in time; the
investor holds power utility and faces ambiguous volatility, so the value
function's diffusion term is evaluated at a worst-case covariance matrix from
the ambiguity set (largest variance for a pessimist with a concave value,
smallest for an optimist).  With that matrix frozen, the value function
has the power form A(t)^kappa * x^(1-kappa) / (1-kappa) where A solves the
linear terminal-value ODE

    A'(t) = (eta(t) / kappa) * A(t) - 1,      A(T) = 1,

and the optimal policy consumes x / A(t) and invests the constant fraction
(1/kappa) (gamma^T)^(-1) Lambda_bar^(-1) theta(t) in the risky assets.

Two printed-formula ambiguities are settled numerically.  Whether eta's
quadratic form carries the inverse of the worst-case matrix is settled by the
PDE residual verifier.  Whether the constant-coefficient A is the
affine-exponential expression or its reciprocal is settled by solve_A, which
computes A exactly, holds the printed candidates to that curve and records
the one that matches in ``resolved_branch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ambiguity import AmbiguitySet, as_symmetric, g_matrix
from .errors import ConsistencyError, NumericError
from .hjb import ControlComponent, Grid1D, HjbProblem, HjbSolution, solve
from .sde import (CsvTable, _checked_starts, _is_integer, _segment_index, _starts_before,
                  table_csv_chunks)

# A printed closed-form candidate is accepted when it stays this close to the exact
# A(t) curve, relative to 1 + |A|.
BRANCH_RTOL = 1e-8
# |eta| below this uses the linear limit A(t) = T - t + 1.
ETA_ZERO_TOL = 1e-10

# Range of the default control levels, and the rows of the policy CSV.
PI_MAX = 1.0
RHO_MIN, RHO_MAX = 1e-3, 3.0
POLICY_CSV_ROWS = 21

_ATTITUDES = ("pessimist", "optimist")
_SIGNS = ("negative", "positive")


@dataclass(frozen=True, eq=False)
class MarketModel:
    """Riskless rate, expected returns and volatility loadings, one entry per segment.

    ``segment_starts`` are the starts of the right-open time segments;
    entry i of ``r`` (a scalar), ``alpha`` (shape (dim,)) and ``gamma``
    (shape (dim, dim), gamma @ gamma.T positive definite) holds on segment
    i, and ``at(t)`` returns the triple in force at t, its arrays read-only.
    The coefficients are constant on each segment by construction, so
    ``solve_A`` and the grid solver, which read them once per segment, see
    the whole market.  Scalars mean dim 1.
    """

    segment_starts: tuple[float, ...]
    r: tuple[float, ...]
    alpha: tuple[np.ndarray, ...] = field(repr=False)
    gamma: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        starts = _checked_starts(self.segment_starts, "segment_starts")
        rs = tuple(float(v) for v in self.r)
        alphas = tuple(np.atleast_1d(np.array(v, dtype=float)) for v in self.alpha)
        gammas = tuple(np.atleast_2d(np.array(v, dtype=float)) for v in self.gamma)
        if not len(starts) == len(rs) == len(alphas) == len(gammas):
            raise ValueError("need one (r, alpha, gamma) triple per segment")
        for name, values in (("r", rs), ("alpha", alphas), ("gamma", gammas)):
            if not all(np.isfinite(v).all() for v in values):
                raise ValueError(f"{name} must be finite")
        d = alphas[0].shape[0]
        for a, g in zip(alphas, gammas):
            if a.shape != (d,) or g.shape != (d, d):
                raise ValueError("segment coefficient shapes disagree")
            _require_positive_definite(g)
            a.flags.writeable = g.flags.writeable = False
        for name, value in (("segment_starts", starts), ("r", rs),
                            ("alpha", alphas), ("gamma", gammas)):
            object.__setattr__(self, name, value)

    @classmethod
    def constant(cls, r: float, alpha, gamma) -> "MarketModel":
        """Market with time-independent coefficients."""
        return cls((0.0,), (r,), (alpha,), (gamma,))

    @property
    def dim(self) -> int:
        return self.alpha[0].shape[0]

    def at(self, t: float) -> tuple[float, np.ndarray, np.ndarray]:
        """(r, alpha, gamma) of the segment in force at t; a time before 0 takes the first."""
        i = _segment_index(self.segment_starts, t)
        return self.r[i], self.alpha[i], self.gamma[i]


def _require_positive_definite(g: np.ndarray) -> None:
    w = np.linalg.eigvalsh(g @ g.T)
    if np.min(w) <= 0.0:
        raise ValueError("gamma @ gamma.T must be positive definite")


@dataclass(frozen=True)
class CrraUtility:
    """Power utility z^(1-kappa) / (1-kappa) with discount rate beta."""

    kappa: float
    beta: float = 0.0

    def __post_init__(self):
        if not self.kappa > 0.0 or self.kappa == 1.0:
            raise ValueError("kappa must be positive and different from 1")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        for name in ("kappa", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def utility(self, z):
        return np.power(z, 1.0 - self.kappa) / (1.0 - self.kappa)

    def marginal(self, z):
        return np.power(z, -self.kappa)

    def inverse_marginal(self, y):
        return np.power(y, -1.0 / self.kappa)


@dataclass(frozen=True)
class ClosedForm:
    """Sampled A(t) curve with the ingredients that produced it."""

    times: np.ndarray = field(repr=False)
    a_values: np.ndarray = field(repr=False)
    eta: Callable[[float], float] = field(repr=False)
    lambda_bar: np.ndarray = field(repr=False)
    resolved_branch: str = "ode-only"

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def a_at(self, t) -> np.ndarray | float:
        return np.interp(t, self.times, self.a_values)

    def a_prime_at(self, t) -> np.ndarray | float:
        """Time derivative of the sampled curve (second-order differences).

        Differentiates whatever is stored in ``a_values``, so a perturbed
        curve yields a perturbed derivative; the residual verifier depends
        on this to stay non-vacuous.
        """
        d = np.gradient(self.a_values, self.times[1] - self.times[0], edge_order=2)
        return np.interp(t, self.times, d)


@dataclass(frozen=True)
class PolicyField:
    """Feedback consumption and portfolio maps plus two-fund weights."""

    consumption: Callable[[float, float], float]
    portfolio: Callable[[float, float], np.ndarray]
    fund_weights: Callable[[float, float], tuple]


def market_price_of_risk(m: MarketModel, t: float) -> np.ndarray:
    """theta(t) = gamma(t)^(-1) (alpha(t) - r(t) * ones)."""
    r, alpha, gamma = m.at(t)
    try:
        return np.linalg.solve(gamma, alpha - r)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"volatility loading matrix is singular at t={t}") from exc


def worst_case_lambda(set_: AmbiguitySet, vxx_sign: str = "negative",
                      attitude: str = "pessimist") -> np.ndarray:
    """Covariance attaining the generator on the value's diffusion term.

    The diffusion term is a multiple of a positive semidefinite quadratic
    form in the covariance, scaled by the sign of the value's second space
    derivative.  A pessimist takes the infimum: with a concave value
    (negative sign) that lands on the largest variance; an optimist's
    supremum lands on the smallest.  Both flip for a convex value.  So this is
    ``g_matrix``'s attaining matrix for -I (negative) or I (positive), in the
    lower direction for a pessimist and the upper one for an optimist.
    """
    if attitude not in _ATTITUDES:
        raise ValueError(f"attitude must be one of {_ATTITUDES}, got {attitude!r}")
    if vxx_sign not in _SIGNS:
        raise ValueError(f"vxx_sign must be one of {_SIGNS}, got {vxx_sign!r}")
    sign = -1.0 if vxx_sign == "negative" else 1.0
    return g_matrix(sign * np.eye(set_.dim), set_,
                    "lower" if attitude == "pessimist" else "upper").maximizer


def _lambda_inv_quadratic(lambda_bar: np.ndarray, theta: np.ndarray) -> float:
    try:
        return float(theta @ np.linalg.solve(lambda_bar, theta))
    except np.linalg.LinAlgError as exc:
        raise NumericError("worst-case covariance matrix is singular") from exc


def eta(m: MarketModel, u: CrraUtility, lambda_bar: np.ndarray, t: float) -> float:
    """Coefficient of the linear A(t) ODE:

        eta(t) = beta - (1-kappa) r(t)
                 - ((1-kappa) / (2 kappa)) * theta(t)' Lambda_bar^(-1) theta(t).

    The quadratic form carries the inverse of the worst-case matrix; that is
    the variant under which the power-form value function solves the HJB
    equation (verify_hjb_residual is the authority and rejects the
    non-inverted variant whenever the two differ).
    """
    theta = market_price_of_risk(m, t)
    quad = _lambda_inv_quadratic(as_symmetric(lambda_bar, m.dim), theta)
    k = u.kappa
    return u.beta - (1.0 - k) * m.at(t)[0] - (1.0 - k) / (2.0 * k) * quad


def solve_A(m: MarketModel, u: CrraUtility, lambda_bar: np.ndarray,
            n_t: int, horizon: float) -> ClosedForm:
    """Sample A(t) exactly on each market segment and resolve the formula branch.

    eta is constant on each segment, so the linear ODE has a closed form
    there: walking the segments backward from A(T)=1, with e = eta/kappa and
    A_end the value at the segment's end s, a sample t of the segment gets
    A_end exp(-e (s-t)) - expm1(-e (s-t)) / e (A_end + s - t when e = 0).  A
    sample takes the segment in force at its time by the right-open rule.
    When eta is constant up to the horizon, the printed closed-form
    candidates are held to that exact curve and ``resolved_branch`` records
    the first that matches it: the linear limit A(t) = T - t + 1 (within
    1e-6) when |eta| is below ETA_ZERO_TOL, else the affine-exponential
    expression, then its reciprocal (within BRANCH_RTOL relative to 1 + |A|,
    widened for a tiny eta).  If none matches, the curve and the formulas are
    inconsistent and a ConsistencyError is raised.  eta is
    evaluated once per entry of ``m.segment_starts`` up to the horizon and
    looked up for every other time; ``ClosedForm.eta`` is that lookup.
    """
    if not _is_integer(n_t):
        raise ValueError(f"n_t must be an integer, got {n_t!r}")
    if n_t < 2:
        raise ValueError("n_t must be at least 2")
    if not 0.0 < horizon < np.inf:
        raise ValueError("horizon must be positive and finite")
    lam = as_symmetric(lambda_bar, m.dim)
    times = np.linspace(0.0, horizon, n_t + 1)

    # The coefficients, hence eta, are constant on each segment.
    starts = _starts_before(m.segment_starts, horizon)
    per_segment = [eta(m, u, lam, s) for s in starts]

    def eta_fn(t: float) -> float:
        return per_segment[_segment_index(starts, t)]

    index = np.searchsorted(starts, times, side="right") - 1
    a_values = np.empty_like(times)
    a_end, end = 1.0, horizon
    with np.errstate(over="ignore"):
        for j in range(len(starts) - 1, -1, -1):
            # The segment's samples, then its start, whose value is the next A_end.
            on = index == j
            tau = end - np.append(times[on], starts[j])
            e = per_segment[j] / u.kappa
            vals = a_end + tau if e == 0.0 else a_end * np.exp(-e * tau) - np.expm1(-e * tau) / e
            a_values[on], a_end, end = vals[:-1], vals[-1], starts[j]
    if not np.all(np.isfinite(a_values)) or np.min(a_values) <= 0.0:
        raise NumericError("A(t) overflowed or left the positive domain")

    branch = "ode-only"
    if max(per_segment) - min(per_segment) <= 1e-12 * max(1.0, max(map(abs, per_segment))):
        eta_c = per_segment[0]
        if abs(eta_c) < ETA_ZERO_TOL:
            candidates, tol, scale = {"linear-limit": horizon - times + 1.0}, 1e-6, 1.0
        else:
            ratio = u.kappa / eta_c
            affine = ratio + (1.0 - ratio) * np.exp(-(eta_c / u.kappa) * (horizon - times))
            candidates = {"affine-exp": affine, "inverse-affine-exp": 1.0 / affine}
            # The affine-exponential loses ~eps * kappa/eta digits to cancellation
            # when eta is tiny; widen the acceptance floor accordingly.
            tol, scale = max(BRANCH_RTOL, 1e-13 * (1.0 + abs(ratio))), 1.0 + np.abs(a_values)
        branch = next((name for name, curve in candidates.items()
                       if float(np.max(np.abs(curve - a_values) / scale)) <= tol), "")
        if not branch:
            raise ConsistencyError("the exact A(t) curve matches no printed closed-form candidate")
    return ClosedForm(times=times, a_values=a_values, eta=eta_fn,
                      lambda_bar=lam, resolved_branch=branch)


def closed_form_value(cf: ClosedForm, u: CrraUtility, t: float, x) -> float:
    """Power-form value A(t)^kappa * x^(1-kappa) / (1-kappa) for x > 0."""
    xv = np.asarray(x, dtype=float)
    if np.any(xv <= 0.0):
        raise ValueError("wealth must be positive")
    a = cf.a_at(t)
    out = np.power(a, u.kappa) * np.power(xv, 1.0 - u.kappa) / (1.0 - u.kappa)
    return float(out) if np.isscalar(x) or xv.ndim == 0 else out


def optimal_policy(cf: ClosedForm, m: MarketModel, u: CrraUtility,
                   set_: AmbiguitySet) -> PolicyField:
    """Feedback maps of the resolved closed form.

    Consumption is proportional to wealth, the risky fractions are
    independent of wealth, and the risky-fund weight is 1/kappa with the
    riskless weight making the two sum to one exactly.  The risky fund is
    constant on each market segment: it is computed at the first time asked
    of its segment and handed out read-only from then on.
    """
    lam = cf.lambda_bar
    w2 = 1.0 / u.kappa
    w1 = 1.0 - w2
    funds = {}

    def risky_fund(t: float) -> np.ndarray:
        j = _segment_index(m.segment_starts, t)
        if j not in funds:
            theta = market_price_of_risk(m, t)
            try:
                fund = np.linalg.solve(m.at(t)[2].T, np.linalg.solve(lam, theta))
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"singular loading or covariance matrix at t={t}") from exc
            fund.flags.writeable = False
            funds[j] = fund
        return funds[j]

    def consumption(t: float, x: float) -> float:
        return x / float(cf.a_at(t))

    def portfolio(t: float, x: float) -> np.ndarray:
        return w2 * risky_fund(t)

    def fund_weights(t: float, x: float) -> tuple:
        return w1, w2, risky_fund(t)

    return PolicyField(consumption=consumption, portfolio=portfolio, fund_weights=fund_weights)


def verify_hjb_residual(cf: ClosedForm, m: MarketModel, u: CrraUtility,
                        set_: AmbiguitySet, sample_points) -> float:
    """Max normalized residual of the value PDE at interior sample points.

    Uses the stored A(t) samples (derivative by finite differences of the
    samples, space derivatives analytic), so any perturbation of the curve
    shows up in the residual; the normalization per point is
    1 + |beta V| + |r x V_x|.
    """
    k = u.kappa
    beta = u.beta
    worst = 0.0
    T = cf.horizon
    for t, x in sample_points:
        if not 0.0 < t < T:
            raise ValueError(f"sample time {t} is not interior to (0, {T})")
        if not x > 0.0:
            raise ValueError(f"sample wealth {x} must be positive")
        a = float(cf.a_at(t))
        ap = float(cf.a_prime_at(t))
        v = a**k * x ** (1.0 - k) / (1.0 - k)
        vt = (k / (1.0 - k)) * a ** (k - 1.0) * ap * x ** (1.0 - k)
        vx = a**k * x ** (-k)
        vxx = -k * a**k * x ** (-k - 1.0)
        r = m.at(t)[0]
        theta = market_price_of_risk(m, t)
        quad = _lambda_inv_quadratic(cf.lambda_bar, theta)
        resid = (
            vt - beta * v + r * x * vx
            + (k / (1.0 - k)) * vx ** ((k - 1.0) / k)
            - (vx * vx / (2.0 * vxx)) * quad
        )
        norm = 1.0 + abs(beta * v) + abs(r * x * vx)
        worst = max(worst, abs(resid) / norm)
    return worst


def default_pi_levels(n_pi: int = 41) -> np.ndarray:
    """Evenly spaced risky fractions from 0 to PI_MAX."""
    return np.linspace(0.0, PI_MAX, n_pi)


def default_rho_levels(n_rho: int = 33) -> np.ndarray:
    """Log-spaced consumption-to-wealth rates; scale-free under power utility."""
    return np.exp(np.linspace(np.log(RHO_MIN), np.log(RHO_MAX), n_rho))


def control_grid(n_pi: int = 41, n_rho: int = 33) -> list[tuple[float, float]]:
    """(risky fraction, consumption rate) pairs over the default levels, pi-major."""
    return [(float(p), float(rho))
            for p in default_pi_levels(n_pi) for rho in default_rho_levels(n_rho)]


def merton_hjb_problem(
    m: MarketModel,
    u: CrraUtility,
    set_: AmbiguitySet,
    horizon: float,
    attitude: str = "pessimist",
    controls: Sequence[tuple] | None = None,
) -> HjbProblem:
    """Assemble the wealth-equation control problem for the grid solver.

    Controls are (risky fraction, consumption rate as a fraction of wealth)
    pairs; the default grid covers d=1 markets.  The list must be the
    pi-major product of its distinct risky fractions and its distinct
    consumption rates, as ``control_grid`` lists them (ValueError otherwise):
    the problem states its coefficients once, in two control components, the
    fraction with drift x (r + pi (alpha - r)) and diffusion x pi gamma, the
    rate with drift -rho x and running cost U(rho x); only the fraction
    diffuses, and the policy Monte Carlo steps the sums.  A pessimist prices
    the diffusion term with the lower generator, an optimist with the upper.
    The market must have ``set_.dim`` assets (ValueError otherwise).
    """
    if attitude not in _ATTITUDES:
        raise ValueError(f"attitude must be one of {_ATTITUDES}, got {attitude!r}")
    if controls is None:
        if m.dim != 1:
            raise ValueError("default control grid covers d=1; pass controls explicitly")
        controls = control_grid()
    if m.dim != set_.dim:
        raise ValueError(f"the market has {m.dim} assets; the ambiguity set has dim {set_.dim}")
    controls = tuple(tuple(c) for c in controls)

    def pi_drift(t, x, pi):
        r, alpha, _ = m.at(t)
        return x * (r + pi * (float(alpha[0]) - r))

    risky = ControlComponent(tuple(dict.fromkeys(c[0] for c in controls)), pi_drift,
                             diffusion=lambda t, x, pi: x * pi * float(m.at(t)[2][0, 0]),
                             running_cost=None)
    consumption = ControlComponent(tuple(dict.fromkeys(c[1] for c in controls)),
                                   drift=lambda t, x, rho: -rho * x, diffusion=None,
                                   running_cost=lambda t, x, rho: u.utility(rho * x))
    return HjbProblem(
        terminal_cost=u.utility,
        horizon=horizon,
        controls=controls,
        ambiguity=set_,
        discount=u.beta,
        opt_direction="maximize",
        attitude="lower" if attitude == "pessimist" else "upper",
        edge_power=1.0 - u.kappa,
        segment_starts=m.segment_starts,
        components=(risky, consumption),
    )


def solve_merton_pde(
    m: MarketModel,
    u: CrraUtility,
    set_: AmbiguitySet,
    grid: Grid1D,
    attitude: str = "pessimist",
    horizon: float = 1.0,
    controls: Sequence[tuple] | None = None,
) -> HjbSolution:
    """Grid solution of the wealth control problem (delegates to the HJB sweep)."""
    if not grid.x_min > 0.0:
        raise ValueError("wealth grid must be truncated away from zero: x_min > 0")
    problem = merton_hjb_problem(m, u, set_, horizon, attitude, controls)
    return solve(problem, grid)


def a_curve_csv_chunks(cf: ClosedForm) -> CsvTable:
    """CSV rows ``t,A`` of the sampled curve."""
    return table_csv_chunks("t,A", cf.times, cf.a_values)


def a_curve_csv_text(cf: ClosedForm) -> str:
    """The joined text of ``a_curve_csv_chunks(cf)``."""
    return b"".join(a_curve_csv_chunks(cf)).decode()


def policy_csv_chunks(cf: ClosedForm, m: MarketModel, u: CrraUtility,
                      set_: AmbiguitySet) -> CsvTable:
    """CSV of the closed-form policy at POLICY_CSV_ROWS evenly spaced times.

    Consumption is reported as the rate per unit wealth (independent of x),
    the portfolio as risky fractions, plus the two fund weights.
    """
    pol = optimal_policy(cf, m, u, set_)
    ts = np.linspace(0.0, cf.horizon, POLICY_CSV_ROWS)
    d = m.dim
    head = ["t", "consumption_rate"] + [f"pi_{j}" for j in range(d)] + ["w_riskless", "w_risky"]
    consumption = [pol.consumption(t, 1.0) for t in ts]
    pis = np.array([np.atleast_1d(pol.portfolio(t, 1.0)) for t in ts])
    weights = np.array([pol.fund_weights(t, 1.0)[:2] for t in ts])
    return table_csv_chunks(",".join(head), ts, consumption, *pis.T, *weights.T)


def policy_csv_text(cf: ClosedForm, m: MarketModel, u: CrraUtility, set_: AmbiguitySet) -> str:
    """The joined text of ``policy_csv_chunks(cf, m, u, set_)``."""
    return b"".join(policy_csv_chunks(cf, m, u, set_)).decode()
