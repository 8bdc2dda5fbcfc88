"""Argument checks of the public constructors and entry points, one row each."""

import dataclasses
import re

import numpy as np
import pytest

from gctrl import (
    AmbiguitySet,
    CrraUtility,
    Grid1D,
    MarketModel,
    NumericError,
    PathConfig,
    SdeSpec,
    VolSchedule,
    as_symmetric,
    candidate_schedules,
    evaluate_policy_mc,
    integrate_gsde,
    merton_hjb_problem,
    moment_bound_check,
    solve_A,
    terminal_expectation_mc,
    upper_expectation_mc,
    worst_case_lambda,
)
from gctrl.hjb import gheat_problem
from gctrl.sde import path_normals

SET = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
HEAT = gheat_problem(SET, lambda x: x * x, 1.0)
MARKET = MarketModel.constant(r=0.02, alpha=0.06, gamma=0.2)
UTILITY = CrraUtility(kappa=2.0, beta=0.1)
CFG = PathConfig(n_steps=4, horizon=1.0, n_paths=3, seed=0)
BROWNIAN = SdeSpec.brownian(1)


def _spec(**kw):
    return SdeSpec(**{**dict(dim_state=1, dim_noise=1, drift=lambda t, x, u: 0.0,
                             diffusion=lambda t, x, u: 1.0, initial_state=np.zeros(1)), **kw})


def _search(functional=lambda bundle: bundle.states[:, -1, 0], **kw):
    return upper_expectation_mc(BROWNIAN, SET, functional, CFG, **{"n_segments": 1,
                                                                  "n_grid": 2, **kw})


CHECKS = {
    "grid-x-order": (lambda: Grid1D(1.0, 1.0, 5, 2), ValueError, "x_min must be below x_max"),
    "grid-finite": (lambda: Grid1D(-np.inf, 1.0, 5, 2), ValueError,
                    "x_min and x_max must be finite"),
    "grid-n_x": (lambda: Grid1D(0.0, 1.0, 2, 2), ValueError, "n_x must be at least 3"),
    "grid-n_t": (lambda: Grid1D(0.0, 1.0, 3, 0), ValueError, "n_t must be at least 1"),
    "grid-n_x-integer": (lambda: Grid1D(-1.0, 1.0, 5.5, 2), ValueError,
                         "n_x must be an integer, got 5.5"),
    "grid-n_t-integer": (lambda: Grid1D(-1.0, 1.0, 5, 2.5), ValueError,
                         "n_t must be an integer, got 2.5"),
    "problem-horizon": (lambda: dataclasses.replace(HEAT, horizon=0.0), ValueError,
                        "horizon must be positive"),
    "problem-no-controls": (lambda: dataclasses.replace(HEAT, controls=()), ValueError,
                            "controls must be a nonempty list"),
    "problem-discount": (lambda: dataclasses.replace(HEAT, discount=-0.1), ValueError,
                         "discount must be nonnegative"),
    "problem-horizon-finite": (lambda: dataclasses.replace(HEAT, horizon=np.inf), ValueError,
                               "horizon must be positive and finite"),
    "problem-discount-finite": (lambda: dataclasses.replace(HEAT, discount=np.nan), ValueError,
                                "discount must be nonnegative and finite"),
    "market-r-finite": (lambda: MarketModel.constant(r=np.nan, alpha=0.06, gamma=0.2),
                        ValueError, "r must be finite"),
    "market-alpha-finite": (lambda: MarketModel.constant(r=0.02, alpha=np.inf, gamma=0.2),
                            ValueError, "alpha must be finite"),
    "market-gamma-finite": (lambda: MarketModel.constant(r=0.02, alpha=0.06, gamma=np.nan),
                            ValueError, "gamma must be finite"),
    "problem-attitude": (lambda: dataclasses.replace(HEAT, attitude="sideways"), ValueError,
                         "attitude must be one of"),
    "problem-direction": (lambda: dataclasses.replace(HEAT, opt_direction="up"), ValueError,
                          "opt_direction must be one of"),
    "policy-mc-horizon": (lambda: evaluate_policy_mc(HEAT, None, SET,
                                                     dataclasses.replace(CFG, horizon=2.0), 0.0),
                          ValueError, "cfg.horizon must equal the problem horizon"),
    "utility-beta": (lambda: CrraUtility(kappa=2.0, beta=-0.1), ValueError,
                     "beta must be nonnegative"),
    "utility-beta-finite": (lambda: CrraUtility(kappa=2.0, beta=np.nan), ValueError,
                            "beta must be finite"),
    "utility-kappa-finite": (lambda: CrraUtility(kappa=np.inf), ValueError,
                             "kappa must be finite"),
    "solve-A-n_t": (lambda: solve_A(MARKET, UTILITY, np.eye(1), 1, 1.0), ValueError,
                    "n_t must be at least 2"),
    "solve-A-n_t-integer": (lambda: solve_A(MARKET, UTILITY, np.eye(1), 10.5, 1.0), ValueError,
                            "n_t must be an integer, got 10.5"),
    "solve-A-horizon": (lambda: solve_A(MARKET, UTILITY, np.eye(1), 4, 0.0), ValueError,
                        "horizon must be positive"),
    "solve-A-overflow": (lambda: solve_A(MarketModel.constant(r=0.02, alpha=10.0, gamma=0.1),
                                         CrraUtility(kappa=0.5), np.eye(1), 4, 1.0),
                         NumericError, "A(t) overflowed or left the positive domain"),
    "lambda-attitude": (lambda: worst_case_lambda(SET, attitude="realist"), ValueError,
                        "attitude must be one of"),
    "lambda-vxx-sign": (lambda: worst_case_lambda(SET, vxx_sign="zero"), ValueError,
                        "vxx_sign must be one of"),
    "merton-attitude": (lambda: merton_hjb_problem(MARKET, UTILITY, SET, 1.0, "realist"),
                        ValueError, "attitude must be one of"),
    "paths-n_steps": (lambda: dataclasses.replace(CFG, n_steps=0), ValueError,
                      "n_steps and n_paths must be positive"),
    "paths-n_paths": (lambda: dataclasses.replace(CFG, n_paths=0), ValueError,
                      "n_steps and n_paths must be positive"),
    "paths-horizon": (lambda: dataclasses.replace(CFG, horizon=0.0), ValueError,
                      "horizon must be positive"),
    "paths-horizon-finite": (lambda: dataclasses.replace(CFG, horizon=np.inf), ValueError,
                             "horizon must be positive and finite"),
    "paths-n_steps-integer": (lambda: dataclasses.replace(CFG, n_steps=2.5), ValueError,
                              "n_steps and n_paths must be positive integers"),
    # Each of these seeds drew the paths of another: seed 1's, 1's and 2**64 - 1's.
    "paths-seed-fraction": (lambda: dataclasses.replace(CFG, seed=1.5), ValueError,
                            "seed must be an integer in [0, 2**64), got 1.5"),
    "paths-seed-wide": (lambda: dataclasses.replace(CFG, seed=2**64 + 1), ValueError,
                        "seed must be an integer in [0, 2**64), got 18446744073709551617"),
    "paths-seed-negative": (lambda: dataclasses.replace(CFG, seed=-1), ValueError,
                            "seed must be an integer in [0, 2**64), got -1"),
    "normals-seed-fraction": (lambda: path_normals(1.5, 2, 3, 1), ValueError,
                              "seed must be an integer in [0, 2**64), got 1.5"),
    "normals-seed-negative": (lambda: path_normals(-1, 2, 3, 1), ValueError,
                              "seed must be an integer in [0, 2**64), got -1"),
    "sde-dim-state": (lambda: _spec(dim_state=0), ValueError,
                      "state and noise dimensions must be positive"),
    "sde-dim-noise": (lambda: _spec(dim_noise=0), ValueError,
                      "state and noise dimensions must be positive"),
    "sde-initial-state": (lambda: _spec(initial_state=np.zeros(2)), ValueError,
                          "initial_state must have shape (1,), got (2,)"),
    "schedule-mixed-dims": (lambda: VolSchedule((0.0, 0.5), (np.eye(1), np.eye(2))), ValueError,
                            "all schedule values must share one dimension"),
    "integrate-schedule-dim": (lambda: integrate_gsde(BROWNIAN, SET,
                                                      VolSchedule((0.0,), (np.eye(2),)), CFG),
                               ValueError, "schedule dimension 2 does not match ambiguity set"),
    "integrate-noise-dim": (lambda: integrate_gsde(_spec(dim_noise=2), SET,
                                                   VolSchedule((0.0,), (np.eye(1),)), CFG),
                            ValueError, "noise dimension 2 does not match schedule dim 1"),
    "search-n_grid": (lambda: _search(n_grid=0), ValueError, "n_grid must be positive"),
    "search-n_segments": (lambda: _search(n_segments=0), ValueError, "n_segments must be >= 1"),
    "search-n_grid-integer": (lambda: _search(n_grid=2.5), ValueError,
                              "n_grid must be an integer, got 2.5"),
    "search-n_grid-bool": (lambda: _search(n_grid=True), ValueError,
                           "n_grid must be an integer, got True"),
    "search-n_segments-integer": (lambda: _search(n_segments=2.5), ValueError,
                                  "n_segments must be an integer, got 2.5"),
    "terminal-n_grid-integer": (lambda: terminal_expectation_mc(SET, lambda x: x[:, 0], CFG,
                                                                n_grid=2.5),
                                ValueError, "n_grid must be an integer, got 2.5"),
    "terminal-n_segments-integer": (lambda: terminal_expectation_mc(SET, lambda x: x[:, 0], CFG,
                                                                    n_segments=2.5),
                                    ValueError, "n_segments must be an integer, got 2.5"),
    "candidates-n_grid-integer": (lambda: candidate_schedules(SET, 1.0, 2, 2.5), ValueError,
                                  "n_grid must be an integer, got 2.5"),
    "candidates-n_segments-integer": (lambda: candidate_schedules(SET, 1.0, 2.5, 2), ValueError,
                                      "n_segments must be an integer, got 2.5"),
    "moment-n_grid-integer": (lambda: moment_bound_check(
        BROWNIAN, SET, dataclasses.replace(CFG, n_steps=8), ell=2, n_grid=2.5),
        ValueError, "n_grid must be an integer, got 2.5"),
    "search-direction": (lambda: _search(direction="middle"), ValueError,
                         "direction must be 'upper' or 'lower'"),
    "search-functional-shape": (lambda: _search(functional=lambda bundle: np.zeros(2)),
                                ValueError, "functional must return one value per path"),
    "search-functional-finite": (lambda: _search(functional=lambda bundle: np.full(3, np.nan)),
                                 NumericError, "functional returned a non-finite value"),
    "set-dim-fraction": (lambda: AmbiguitySet(dim=1.5, sigma_lo_sq=0.25, sigma_hi_sq=1.0),
                         ValueError, "dim must be a positive integer, got 1.5"),
    "set-dim-text": (lambda: AmbiguitySet(dim="2", sigma_lo_sq=0.25, sigma_hi_sq=1.0),
                     ValueError, "dim must be a positive integer, got '2'"),
    "set-finite": (lambda: AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=np.inf),
                   ValueError, "variance bounds must be finite"),
    "symmetric-3-axes": (lambda: as_symmetric(np.zeros((2, 2, 2))), ValueError,
                         "expected a square matrix, got shape (2, 2, 2)"),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_argument_check_raises(name):
    call, error, fragment = CHECKS[name]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
