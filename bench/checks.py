"""Output checks for the benchmark workloads, computed apart from gctrl.

Every check reads the run configuration with its own small parser (missing
keys take the defaults documented in the README's configuration table),
derives the expected numbers in closed form, and compares them with the
artifacts a command wrote.  Each check returns a list of problems; an empty
list means the outputs are correct.  Nothing here imports gctrl.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Documented defaults of the keys the checks read.
DEFAULTS = {
    "ambiguity.sigma_hi_sq": "1.0",
    "market.r": "0.02",
    "market.alpha": "0.06",
    "market.gamma": "0.2",
    "utility.kappa": "2.0",
    "utility.beta": "0.1",
    "solver.x_min": "-4.0",
    "solver.x_max": "4.0",
    "solver.n_x": "401",
    "solver.horizon": "1.0",
    "simulation.n_paths": "2000",
    "simulation.n_steps": "200",
    "simulation.n_segments": "4",
    "simulation.n_grid": "5",
    "output.prefix": "run",
}

# Reports print floats with six significant digits.
REPORT_RTOL = 1e-5
# A Monte Carlo value may sit this many of its standard errors from the truth.
MC_STD_ERRORS = 5.0
# The explicit heat sweep reproduces x^2 + hi*(T-t) up to rounding.
HEAT_TOL = 1e-9
# Same bound as the program's pde_vs_closed_form gate.
PDE_REL_TOL = 0.02
A_RTOL = 1e-8


class Config(dict):
    """Flat ``section.key -> text`` map of a gctrl config file."""

    def num(self, key: str) -> float:
        return float(self.text(key))

    def int(self, key: str) -> int:
        return int(self.text(key))

    def text(self, key: str) -> str:
        return self.get(key, DEFAULTS.get(key))


def read_config(path) -> Config:
    cfg = Config()
    section = ""
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        key, _, value = line.partition("=")
        cfg[f"{section}.{key.strip()}"] = value.strip()
    return cfg


def read_report(path) -> dict:
    """``key = value`` lines of a report, up to its ``[artifacts]`` block."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            break
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def _load_csv(path, cols) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)


def _report_float(report: dict, key: str, problems: list) -> float:
    try:
        return float(report[key])
    except (KeyError, ValueError):
        problems.append(f"report has no numeric {key!r}")
        return math.nan


def _close(measured: float, expected: float, rtol: float) -> bool:
    return abs(measured - expected) <= rtol * abs(expected)


def _check_paths(cfg: Config, sim_dir: Path, problems: list) -> tuple[dict, float, float]:
    """Read a simulate run back: (report, value, std_error) checked against its paths CSV."""
    prefix = cfg.text("output.prefix")
    n_paths = cfg.int("simulation.n_paths")
    n_steps = cfg.int("simulation.n_steps")
    horizon = cfg.num("solver.horizon")
    report = read_report(sim_dir / f"{prefix}_report.txt")
    value = _report_float(report, "value", problems)
    std_error = _report_float(report, "std_error", problems)

    csv = sim_dir / f"{prefix}_paths.csv"
    lines = _count_lines(csv)
    if lines != n_paths * (n_steps + 1) + 1:
        problems.append(f"paths CSV has {lines} lines, expected {n_paths * (n_steps + 1) + 1}")
        return report, value, std_error
    rows = _load_csv(csv, (0, 1, 2))
    terminal = rows[n_steps::n_steps + 1]
    if not (np.array_equal(terminal[:, 0], np.arange(n_paths))
            and np.allclose(terminal[:, 1], horizon, rtol=0.0, atol=1e-9)):
        problems.append("paths CSV rows are not ordered path by path up to the horizon")
        return report, value, std_error
    sq = terminal[:, 2] ** 2
    moment = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(n_paths))
    if not _close(value, moment, REPORT_RTOL):
        problems.append(f"simulate value {value} != terminal second moment {moment:.9g} "
                        "of the paths CSV")
    if not _close(std_error, se, REPORT_RTOL):
        problems.append(f"simulate std_error {std_error} != {se:.9g} from the paths CSV")
    truth = cfg.num("ambiguity.sigma_hi_sq") * horizon
    if not abs(value - truth) <= MC_STD_ERRORS * std_error:
        problems.append(f"simulate value {value} is more than {MC_STD_ERRORS:g} std errors "
                        f"from sigma_hi_sq*T = {truth:g}")
    return report, value, std_error


def check_heat(cfg: Config, solve_dir: Path, sim_dir: Path) -> list[str]:
    """solve-hjb then simulate on the ambiguous heat equation with x^2 data."""
    problems: list[str] = []
    prefix = cfg.text("output.prefix")
    hi = cfg.num("ambiguity.sigma_hi_sq")
    horizon = cfg.num("solver.horizon")
    n_x = cfg.int("solver.n_x")

    report = read_report(solve_dir / f"{prefix}_report.txt")
    v00 = _report_float(report, "V(0,0)", problems)
    if not _close(v00, hi * horizon, REPORT_RTOL):
        problems.append(f"V(0,0) = {v00} != sigma_hi_sq*T = {hi * horizon:g}")
    n_t = _report_float(report, "n_t", problems)
    rows = _load_csv(solve_dir / f"{prefix}_solution.csv", (0, 1, 2))
    if not n_t >= 1 or rows.shape[0] != (int(n_t) + 1) * n_x:
        problems.append(f"solution CSV has {rows.shape[0]} rows, "
                        f"expected (n_t+1)*n_x for n_t={n_t}")
    else:
        t, x, v = rows.T
        expected = x**2 + hi * (horizon - t)
        err = np.abs(v - expected) / (1.0 + np.abs(expected))
        bad = int(np.argmax(err))
        if err[bad] > HEAT_TOL:
            problems.append(f"solution row {bad + 2}: value {float(v[bad])!r} != "
                            f"x^2 + hi*(T-t) = {float(expected[bad])!r}")

    _, value, std_error = _check_paths(cfg, sim_dir, problems)
    if not abs(value - v00) <= MC_STD_ERRORS * std_error:
        problems.append(f"simulate value {value} is more than {MC_STD_ERRORS:g} std errors "
                        f"from the PDE V(0,0) = {v00}")
    return problems


def merton_a0(cfg: Config) -> tuple[float, float]:
    """Closed-form A(0) and pi_hat of the constant-coefficient pessimist problem."""
    keys = ("market.r", "market.alpha", "market.gamma")
    if any("," in cfg.text(k) or ";" in cfg.text(k) or " " in cfg.text(k) for k in keys):
        raise ValueError("the desk check covers one-asset constant markets only")
    r, alpha, gamma = (cfg.num(k) for k in keys)
    kappa, beta = cfg.num("utility.kappa"), cfg.num("utility.beta")
    hi, horizon = cfg.num("ambiguity.sigma_hi_sq"), cfg.num("solver.horizon")
    theta = (alpha - r) / gamma
    eta = beta - (1.0 - kappa) * r - (1.0 - kappa) * theta**2 / (2.0 * kappa * hi)
    a0 = kappa / eta + (1.0 - kappa / eta) * math.exp(-eta * horizon / kappa)
    return a0, theta / (kappa * gamma * hi)


def check_desk(cfg: Config, merton_dir: Path, verify_dir: Path) -> list[str]:
    """merton then verify on a constant one-asset market, pessimist attitude."""
    problems: list[str] = []
    prefix = cfg.text("output.prefix")
    kappa = cfg.num("utility.kappa")
    n_x = cfg.int("solver.n_x")
    a0, pi_hat = merton_a0(cfg)

    curve = _load_csv(merton_dir / f"{prefix}_a_curve.csv", (0, 1))
    if curve[0, 0] != 0.0 or not _close(curve[0, 1], a0, A_RTOL):
        problems.append(f"A(0) = {float(curve[0, 1])!r} at t={float(curve[0, 0])} "
                        f"!= closed form {a0!r}")
    report = read_report(merton_dir / f"{prefix}_report.txt")
    measured_pi = _report_float(report, "pi_hat", problems)
    if not _close(measured_pi, pi_hat, REPORT_RTOL):
        problems.append(f"pi_hat = {measured_pi} != theta/(kappa*gamma*hi) = {pi_hat!r}")

    compare = _load_csv(merton_dir / f"{prefix}_compare.csv", (0, 1, 2))
    if compare.shape[0] != n_x:
        problems.append(f"compare CSV has {compare.shape[0]} rows, expected {n_x}")
    else:
        x, pde, closed = compare.T
        ours = a0**kappa * x ** (1.0 - kappa) / (1.0 - kappa)
        if not np.allclose(closed, ours, rtol=A_RTOL, atol=0.0):
            problems.append("compare CSV closed_form_value column differs from "
                            "A(0)^k x^(1-k)/(1-k)")
        lo = n_x // 10
        rel = np.abs(pde - ours)[lo:n_x - lo] / np.abs(ours[lo:n_x - lo])
        if not rel.max() <= PDE_REL_TOL:
            i = lo + int(np.argmax(rel))
            problems.append(f"PDE value at x={x[i]} is {rel.max():.4g} from the closed form "
                            f"(bound {PDE_REL_TOL})")

    verdicts = read_report(verify_dir / f"{prefix}_verify.txt")
    lines = {k: v for k, v in verdicts.items() if k not in ("checks_total", "checks_failed")}
    failing = [k for k, v in lines.items() if not v.startswith("PASS ")]
    if not lines or failing:
        problems.append(f"verify lines not PASS: {failing or 'no check lines'}")
    if verdicts.get("checks_failed") != "0" or verdicts.get("checks_total") != str(len(lines)):
        problems.append(f"verify reports checks_failed={verdicts.get('checks_failed')} "
                        f"checks_total={verdicts.get('checks_total')} for {len(lines)} lines")
    return problems


def check_scenario(cfg: Config, sim_dir: Path) -> list[str]:
    """simulate with a many-candidate schedule search."""
    problems: list[str] = []
    report, _, _ = _check_paths(cfg, sim_dir, problems)
    expected = cfg.int("simulation.n_grid") ** cfg.int("simulation.n_segments")
    if report.get("n_schedules_searched") != str(expected):
        problems.append(f"n_schedules_searched = {report.get('n_schedules_searched')} "
                        f"!= n_grid ** n_segments = {expected}")
    return problems
