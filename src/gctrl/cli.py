"""Command line entry points: solve-hjb, merton, simulate, verify.

Every command takes ``--config <path>`` plus optional ``--output <dir>``,
``--force`` (allow overwriting existing artifacts) and ``--seed <int>``
(overrides the config seed).  ``COMMANDS`` lists each command's artifact
files in write order, the report last, and ``run_command`` is the one
writer: it refuses to overwrite before any computation, runs the command's
``cmd_*`` function, and only then writes each artifact to a temporary file
beside it.  CSV artifacts go through ``sde.write_csv``, which formats a
large one in ranges on the usable CPUs, in forked workers that are all gone
when it returns or raises; ``verify`` runs its market-free checks in one
such worker.  ``simulate`` searches its schedules with
``estimators.terminal_expectation_mc``, which screens every candidate on
per-segment Brownian sums and Euler-integrates only those whose screened
mean is within ``_SCREEN_RTOL`` of the best, in this process, forking no
worker; a payoff with a jump could be screened wrong only if a path ends
within about 1e-13 of the jump.  The files are published under their names
together, once every write has succeeded, so a failing run leaves no
partial artifacts and, with ``--force``, the previous set untouched.

Exit codes: 0 success, 1 verification failure, 2 config error,
3 numerical error, 4 oracle inconsistency.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import (FUNCTIONALS, PAYOFFS, SEEDS, RunConfig, canonical_text, hjb_attitude,
                     parse_config)
from .errors import ConfigError, ConsistencyError, NumericError
from .estimators import terminal_expectation_mc
from .hjb import gheat_problem, solution_csv_chunks, solution_meta_text, solve
from .merton import (
    a_curve_csv_chunks,
    closed_form_value,
    policy_csv_chunks,
    verify_hjb_residual,
)
from .sde import (
    CsvTable,
    PathConfig,
    VolSchedule,
    bundle_csv_chunks,
    table_csv_chunks,
    write_csv,
)
from .verify import TOL_RESIDUAL, merton_run, run_all_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INCONSISTENT = 4

# Each command's help text and artifact file suffixes, in write order; the last is the report.
COMMANDS = {
    "solve-hjb": ("solve a preset ambiguous HJB problem on a grid",
                  ("solution.csv", "solution_meta.txt", "report.txt")),
    "merton": ("run the robust consumption-portfolio pipeline",
               ("a_curve.csv", "policy.csv", "compare.csv", "solution.csv", "report.txt")),
    "simulate": ("scenario-optimized Monte Carlo expectation", ("paths.csv", "report.txt")),
    "verify": ("run the full cross-check suite", ("verify.txt",)),
}


@dataclass
class RunReport:
    """Outcome of one command: result map, exit code and the files it wrote."""

    command: str
    config_echo: str
    results: dict = field(default_factory=dict)
    artifact_paths: list = field(default_factory=list)
    exit_code: int = EXIT_OK


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


def _write_text(path: Path, content: str | CsvTable) -> None:
    """Write ``content``: a str as it is, a CSV table through ``sde.write_csv``."""
    if isinstance(content, CsvTable):
        write_csv(path, content)
    else:
        path.write_text(content, encoding="utf-8", newline="\n")


def run_command(command: str, cfg: RunConfig, out_dir: Path, force: bool) -> RunReport:
    """Run one command and publish its artifacts together, the report last.

    The command's ``cmd_*`` function is looked up in the module globals at
    call time, so rebinding it (as a tracer does) takes effect.  It fills in
    the report's results (and exit code) and returns one renderer per
    artifact before the report.  A renderer returns its text, or for a CSV
    artifact its ``sde.CsvTable``, which ``sde.write_csv`` writes block by
    block, so no CSV artifact's whole text is ever held.  Each artifact is
    written to a temporary name in ``out_dir``; only when every write has
    succeeded are they renamed into place, the report last, each file they
    replace kept as a hard-linked backup that any error puts back.  On any
    error the other renamed files and the temporaries are removed too, so
    the directory keeps what it held before the run.  An ``out_dir`` that
    exists and is not a directory is a ConfigError before the command runs,
    and so is any OSError of writing the artifacts, after it.
    """
    if out_dir.exists() and not out_dir.is_dir():
        raise ConfigError(f"output directory {out_dir} exists and is not a directory")
    paths = [out_dir / f"{cfg.output.prefix}_{suffix}" for suffix in COMMANDS[command][1]]
    existing = [p for p in paths if p.exists()]
    if existing and not force:
        raise ConfigError("refusing to overwrite existing files (pass --force): "
                          + ", ".join(map(str, existing)))
    report = RunReport(command=command, config_echo=canonical_text(cfg))
    renderers = globals()["cmd_" + command.replace("-", "_")](cfg, report)
    report.artifact_paths = [str(p) for p in paths]
    temps, backups, published = [], {}, []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, render in zip(paths, [*renderers, lambda: report_text(report)], strict=True):
            temps.append(path.with_name(f".{path.name}.tmp"))
            _write_text(temps[-1], render())
        for path in existing:
            backups[path] = path.with_name(f".{path.name}.bak")
            backups[path].unlink(missing_ok=True)
            os.link(path, backups[path])
        for temp, path in zip(temps, paths):
            temp.replace(path)
            published.append(path)
    except BaseException as exc:
        for path in published:
            if path in backups:
                backups.pop(path).replace(path)
            else:
                path.unlink()
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write the artifacts in {out_dir}: {exc}") from exc
        raise
    finally:
        for temp in [*temps, *backups.values()]:
            temp.unlink(missing_ok=True)
    return report


def cmd_solve_hjb(cfg: RunConfig, report: RunReport) -> list:
    s, x0 = cfg.solver, cfg.simulation.x0
    if not s.x_min <= x0 <= s.x_max:
        raise ConfigError(f"simulation.x0 = {x0!r} lies outside the grid "
                          f"[solver.x_min, solver.x_max] = [{s.x_min!r}, {s.x_max!r}]")
    payoff, c = PAYOFFS[s.terminal], s.terminal_constant
    problem = gheat_problem(cfg.ambiguity_set_1d(), lambda x: payoff(x[:, None], c),
                            s.horizon, s.direction, hjb_attitude(s.attitude))
    grid = cfg.grid(problem)
    solution = solve(problem, grid)
    report.results["problem"] = s.problem
    report.results["n_t"] = grid.n_t
    report.results["dt"] = problem.horizon / grid.n_t
    if s.x_min <= 0.0 <= s.x_max:
        report.results["V(0,0)"] = solution.value_at(0.0, 0.0)
    report.results["V(0,x0)"] = solution.value_at(0.0, x0)
    return [lambda: solution_csv_chunks(solution), lambda: solution_meta_text(problem, grid)]


def cmd_merton(cfg: RunConfig, report: RunReport) -> list:
    s = cfg.solver
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
        other = "upper" if run.problem.attitude == "lower" else "lower"
        other_sol = solve(dataclasses.replace(run.problem, attitude=other), solution.grid)
        gap = float(np.max(np.abs(other_sol.values - solution.values)))
        res["degenerate_ambiguity"] = "true (single prior; pessimist and optimist coincide)"
        res["pessimist_optimist_gap"] = gap

    return [lambda: a_curve_csv_chunks(cf),
            lambda: policy_csv_chunks(cf, market, util, set_),
            lambda: table_csv_chunks("x,pde_value,closed_form_value,rel_error",
                                     ["%s,%s,%s,%s\n"] * solution.x.size, solution.x,
                                     solution.values[0], run.closed_row, run.rel_error),
            lambda: solution_csv_chunks(solution)]


def _schedule_text(schedule: VolSchedule, horizon: float) -> str:
    parts = []
    edges = list(schedule.breakpoints) + [horizon]
    for k, v in enumerate(schedule.values):
        diag = " ".join(format(x, ".6g") for x in np.diag(v))
        parts.append(f"[{edges[k]:.6g},{edges[k + 1]:.6g}):{diag}")
    return " | ".join(parts)


def cmd_simulate(cfg: RunConfig, report: RunReport) -> list:
    set_ = cfg.ambiguity_set()
    sim = cfg.simulation
    path_cfg = PathConfig(n_steps=sim.n_steps, horizon=cfg.solver.horizon,
                          n_paths=sim.n_paths, seed=sim.seed)
    payoff, c = PAYOFFS[FUNCTIONALS[sim.functional]], sim.functional_constant
    direction = hjb_attitude(cfg.solver.attitude)
    est = terminal_expectation_mc(set_, lambda x: payoff(x, c), path_cfg,
                                  n_segments=sim.n_segments, direction=direction,
                                  n_grid=sim.n_grid)

    res = report.results
    res["functional"] = sim.functional
    res["direction"] = direction
    res["value"] = est.value
    res["std_error"] = est.std_error
    res["n_schedules_searched"] = est.n_schedules_searched
    res["best_schedule"] = _schedule_text(est.best_schedule, cfg.solver.horizon)
    return [lambda: bundle_csv_chunks(est.best_paths)]


def cmd_verify(cfg: RunConfig, report: RunReport) -> list:
    checks = run_all_checks(cfg)
    n_failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        n_failed += 0 if c.passed else 1
        report.results[c.name] = f"{status} measured={c.measured:.6g} bound {c.bound}"
    report.results["checks_total"] = len(checks)
    report.results["checks_failed"] = n_failed
    report.exit_code = EXIT_OK if n_failed == 0 else EXIT_VERIFY_FAILED
    return []


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gctrl",
        description="Stochastic optimal control under volatility ambiguity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _suffixes) in COMMANDS.items():
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
            if args.seed not in SEEDS:
                raise ConfigError(f"--seed must be in [0, 2**64), got {args.seed}")
            cfg = dataclasses.replace(
                cfg, simulation=dataclasses.replace(cfg.simulation, seed=args.seed)
            )
        out_dir = Path(args.output) if args.output else Path(cfg.output.directory)
        report = run_command(args.command, cfg, out_dir, args.force)
        for key, value in report.results.items():
            print(f"{key} = {_fmt_result(value)}")
        for path in report.artifact_paths:
            print(f"wrote {path}")
        return report.exit_code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConsistencyError as exc:
        print(f"oracle inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
