"""Command line entry points: solve-hjb, merton, simulate, verify.

Every command takes ``--config <path>`` plus optional ``--output <dir>``,
``--force`` (allow overwriting existing artifacts) and ``--seed <int>``
(overrides the config seed).  All computation happens before any file is
written, so a failing run leaves no partial artifacts.

Exit codes: 0 success, 1 verification failure, 2 config error,
3 numerical-precondition error, 4 oracle inconsistency.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig, canonical_text, hjb_attitude, parse_config
from .errors import CflError, ConfigError, ConsistencyError, NumericError
from .estimators import upper_expectation_mc
from .hjb import HjbProblem, gheat_problem, solution_csv_text, solution_meta_text, solve
from .merton import (
    a_curve_csv_text,
    closed_form_value,
    merton_hjb_problem,
    policy_csv_text,
    verify_hjb_residual,
)
from .sde import PathConfig, SdeSpec, VolSchedule, bundle_csv_text
from .verify import TOL_RESIDUAL, merton_run, run_all_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_INCONSISTENT = 4


@dataclass
class RunReport:
    """Outcome of one command: result map plus the files it wrote."""

    command: str
    config_echo: str
    results: dict = field(default_factory=dict)
    artifact_paths: list = field(default_factory=list)


def _fmt_result(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_text(report: RunReport) -> str:
    lines = [f"# gctrl {report.command} report", ""]
    for key, value in report.results.items():
        lines.append(f"{key} = {_fmt_result(value)}")
    # File names only: the report stays byte-stable wherever the run lands.
    lines += ["", "[artifacts]"]
    lines += [Path(p).name for p in report.artifact_paths]
    lines += ["", "[config]"]
    lines += report.config_echo.splitlines()
    return "\n".join(lines) + "\n"


def _check_overwrite(paths: list[Path], force: bool) -> None:
    existing = [str(p) for p in paths if p.exists()]
    if existing and not force:
        raise ConfigError(
            "refusing to overwrite existing files (pass --force): " + ", ".join(existing)
        )


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # Written a MiB at a time, so a large artifact is never held as str and bytes at once.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(0, len(text), 1 << 20):
            fh.write(text[i:i + (1 << 20)])


def _terminal_fn(cfg: RunConfig):
    kind = cfg.solver.terminal
    const = cfg.solver.terminal_constant
    if kind == "x_squared":
        return lambda x: x**2
    if kind == "minus_x_squared":
        return lambda x: -(x**2)
    return lambda x: const + 0.0 * x


def _preset_problem(cfg: RunConfig) -> HjbProblem:
    """Built-in problem family for solve-hjb; the flat config carries no code."""
    s = cfg.solver
    return gheat_problem(cfg.ambiguity_set_1d(), _terminal_fn(cfg), s.horizon,
                         s.direction, hjb_attitude(s.attitude))


def cmd_solve_hjb(cfg: RunConfig, out_dir: Path, force: bool) -> RunReport:
    problem = _preset_problem(cfg)
    prefix = cfg.output.prefix
    targets = [out_dir / f"{prefix}_solution.csv",
               out_dir / f"{prefix}_solution_meta.txt",
               out_dir / f"{prefix}_report.txt"]
    _check_overwrite(targets, force)

    grid = cfg.grid(problem)
    solution = solve(problem, grid)
    report = RunReport(command="solve-hjb", config_echo=canonical_text(cfg))
    report.results["problem"] = cfg.solver.problem
    report.results["n_t"] = grid.n_t
    report.results["dt"] = problem.horizon / grid.n_t
    report.results["V(0,0)"] = solution.value_at(0.0, 0.0)
    report.results["V(0,x0)"] = solution.value_at(0.0, cfg.simulation.x0)

    _write_text(targets[0], solution_csv_text(solution))
    _write_text(targets[1], solution_meta_text(problem, grid))
    report.artifact_paths = [str(p) for p in targets]
    _write_text(targets[2], report_text(report))
    return report


def cmd_merton(cfg: RunConfig, out_dir: Path, force: bool) -> RunReport:
    s = cfg.solver
    prefix = cfg.output.prefix
    targets = [out_dir / f"{prefix}_a_curve.csv",
               out_dir / f"{prefix}_policy.csv",
               out_dir / f"{prefix}_compare.csv",
               out_dir / f"{prefix}_solution.csv",
               out_dir / f"{prefix}_report.txt"]
    _check_overwrite(targets, force)

    run = merton_run(cfg)
    market, util, cf, solution = run.market, run.utility, run.closed_form, run.solution
    set_ = run.problem.ambiguity

    pts_rng = np.random.default_rng(cfg.simulation.seed)
    pts = list(zip(pts_rng.uniform(0.05 * s.horizon, 0.95 * s.horizon, 100),
                   pts_rng.uniform(max(s.x_min, 1e-3), s.x_max, 100)))
    residual = verify_hjb_residual(run.checked_form, market, util, set_, pts)
    if residual > TOL_RESIDUAL:
        raise ConsistencyError(
            f"closed-form HJB residual {residual:.3g} exceeds {TOL_RESIDUAL:g}"
        )

    report = RunReport(command="merton", config_echo=canonical_text(cfg))
    res = report.results
    res["attitude"] = run.attitude
    res["resolved_branch"] = cf.resolved_branch
    res["eta_quadratic_form"] = "theta' inv(Lambda_bar) theta"
    res["eta(0)"] = cf.eta(0.0)
    res["lambda_bar"] = format(float(cf.lambda_bar[0, 0]), ".17g")
    res["pi_hat"] = run.pi_hat
    res["consumption_rate(0)"] = 1.0 / float(cf.a_at(0.0))
    res["A(0)"] = float(cf.a_values[0])
    res["A(T)"] = float(cf.a_values[-1])
    res["V(0,x0)"] = closed_form_value(cf, util, 0.0, cfg.simulation.x0)
    res["max_hjb_residual"] = residual
    res["pde_rel_error_interior"] = run.interior_rel_error
    res["n_t"] = solution.grid.n_t

    if set_.degenerate:
        other = "optimist" if run.attitude == "pessimist" else "pessimist"
        other_sol = solve(merton_hjb_problem(market, util, set_, s.horizon, other,
                                             run.problem.controls), solution.grid)
        gap = float(np.max(np.abs(other_sol.values - solution.values)))
        res["degenerate_ambiguity"] = "true (single prior; pessimist and optimist coincide)"
        res["pessimist_optimist_gap"] = gap

    compare_lines = ["x,pde_value,closed_form_value,rel_error"]
    for i, xv in enumerate(solution.x):
        compare_lines.append(
            f"{format(xv, '.17g')},{format(solution.values[0, i], '.17g')},"
            f"{format(run.closed_row[i], '.17g')},{format(run.rel_error[i], '.17g')}"
        )

    _write_text(targets[0], a_curve_csv_text(cf))
    _write_text(targets[1], policy_csv_text(cf, market, util, set_))
    _write_text(targets[2], "\n".join(compare_lines) + "\n")
    _write_text(targets[3], solution_csv_text(solution))
    report.artifact_paths = [str(p) for p in targets]
    _write_text(targets[4], report_text(report))
    return report


def _simulate_functional(cfg: RunConfig):
    kind = cfg.simulation.functional
    const = cfg.simulation.functional_constant
    if kind == "terminal_square":
        return lambda bundle: np.sum(bundle.states[:, -1, :] ** 2, axis=1)
    if kind == "neg_terminal_square":
        return lambda bundle: -np.sum(bundle.states[:, -1, :] ** 2, axis=1)
    return lambda bundle: np.full(bundle.n_paths, const)


def _schedule_text(schedule: VolSchedule, horizon: float) -> str:
    parts = []
    edges = list(schedule.breakpoints) + [horizon]
    for k, v in enumerate(schedule.values):
        diag = " ".join(format(x, ".6g") for x in np.diag(v))
        parts.append(f"[{edges[k]:.6g},{edges[k + 1]:.6g}):{diag}")
    return " | ".join(parts)


def cmd_simulate(cfg: RunConfig, out_dir: Path, force: bool) -> RunReport:
    set_ = cfg.ambiguity_set()
    sim = cfg.simulation
    prefix = cfg.output.prefix
    targets = [out_dir / f"{prefix}_paths.csv", out_dir / f"{prefix}_report.txt"]
    _check_overwrite(targets, force)

    d = set_.dim
    spec = SdeSpec(
        dim_state=d,
        dim_noise=d,
        drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda t, x, u: np.eye(d),
        initial_state=np.zeros(d),
    )
    path_cfg = PathConfig(n_steps=sim.n_steps, horizon=cfg.solver.horizon,
                          n_paths=sim.n_paths, seed=sim.seed)
    functional = _simulate_functional(cfg)
    direction = hjb_attitude(cfg.solver.attitude)
    est = upper_expectation_mc(spec, set_, functional, path_cfg, n_segments=sim.n_segments,
                               direction=direction, n_grid=sim.n_grid)

    report = RunReport(command="simulate", config_echo=canonical_text(cfg))
    res = report.results
    res["functional"] = sim.functional
    res["direction"] = direction
    res["value"] = est.value
    res["std_error"] = est.std_error
    res["n_schedules_searched"] = est.n_schedules_searched
    res["best_schedule"] = _schedule_text(est.best_schedule, cfg.solver.horizon)

    _write_text(targets[0], bundle_csv_text(est.best_paths))
    report.artifact_paths = [str(p) for p in targets]
    _write_text(targets[1], report_text(report))
    return report


def cmd_verify(cfg: RunConfig, out_dir: Path, force: bool) -> tuple[RunReport, int]:
    prefix = cfg.output.prefix
    targets = [out_dir / f"{prefix}_verify.txt"]
    _check_overwrite(targets, force)

    checks = run_all_checks(cfg)
    report = RunReport(command="verify", config_echo=canonical_text(cfg))
    n_failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        n_failed += 0 if c.passed else 1
        report.results[c.name] = f"{status} measured={c.measured:.6g} bound {c.bound}"
    report.results["checks_total"] = len(checks)
    report.results["checks_failed"] = n_failed

    report.artifact_paths = [str(targets[0])]
    _write_text(targets[0], report_text(report))
    return report, EXIT_OK if n_failed == 0 else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gctrl",
        description="Stochastic optimal control under volatility ambiguity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve-hjb", "solve a preset ambiguous HJB problem on a grid"),
        ("merton", "run the robust consumption-portfolio pipeline"),
        ("simulate", "scenario-optimized Monte Carlo expectation"),
        ("verify", "run the full cross-check suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--output", default=None, help="output directory (overrides config)")
        p.add_argument("--force", action="store_true", help="overwrite existing artifacts")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(
                cfg, simulation=dataclasses.replace(cfg.simulation, seed=args.seed)
            )
        out_dir = Path(args.output) if args.output else Path(cfg.output.directory)

        if args.command == "solve-hjb":
            report = cmd_solve_hjb(cfg, out_dir, args.force)
            code = EXIT_OK
        elif args.command == "merton":
            report = cmd_merton(cfg, out_dir, args.force)
            code = EXIT_OK
        elif args.command == "simulate":
            report = cmd_simulate(cfg, out_dir, args.force)
            code = EXIT_OK
        else:
            report, code = cmd_verify(cfg, out_dir, args.force)

        for key, value in report.results.items():
            print(f"{key} = {_fmt_result(value)}")
        for path in report.artifact_paths:
            print(f"wrote {path}")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CflError as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConsistencyError as exc:
        print(f"oracle inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
