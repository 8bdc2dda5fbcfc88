"""Config parsing and the four CLI commands, including exit codes."""

import dataclasses
import os
import re
from pathlib import Path

import numpy as np
import pytest

from gctrl import ConfigError, estimators, sde, verify
from gctrl.cli import main
from gctrl.config import FUNCTIONALS, PAYOFFS, RunConfig, canonical_text, parse_config_text

DESK_CONFIG = """
[ambiguity]
d = 1
sigma_lo_sq = 0.25
sigma_hi_sq = 1.0

[market]
r = 0.02
alpha = 0.06
gamma = 0.2

[utility]
kappa = 2.0
beta = 0.1

[solver]
x_min = 0.4
x_max = 2.4
n_x = 201
horizon = 1.0
attitude = pessimist
n_pi = 21
n_rho = 33

[simulation]
n_paths = 1500
n_steps = 150
n_segments = 2
n_grid = 3
seed = 4242
x0 = 1.0

[output]
prefix = desk
"""

GHEAT_CONFIG = """
[ambiguity]
sigma_lo_sq = 0.25
sigma_hi_sq = 1.0

[solver]
problem = g_heat
terminal = x_squared
x_min = -4.0
x_max = 4.0
n_x = 401
attitude = upper

[simulation]
seed = 31
n_paths = 3000
n_steps = 200
n_segments = 2
n_grid = 3

[output]
prefix = gheat
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _report_value(report_path: Path, key: str) -> str:
    for line in report_path.read_text().splitlines():
        if line.startswith(f"{key} = "):
            return line[len(key) + 3 :]
    raise AssertionError(f"{key} not found in {report_path}")


def test_parse_defaults_and_roundtrip():
    cfg = parse_config_text(DESK_CONFIG)
    assert cfg.ambiguity.sigma_hi_sq == 1.0
    assert cfg.solver.n_t == 0  # default: derive from the stability bound
    assert cfg.output.directory == "out"
    echoed = canonical_text(cfg)
    assert parse_config_text(echoed) == cfg
    assert canonical_text(parse_config_text(echoed)) == echoed


def test_parse_rejects_scheme_as_unknown_key():
    solver_echo = (
        "[solver]\nproblem = g_heat\nterminal = x_squared\nterminal_constant = 0.0\n"
        "x_min = 0.4\nx_max = 2.4\nn_x = 201\nn_t = 0\nhorizon = 1.0\nattitude = pessimist\n"
        "direction = minimize\nn_pi = 21\nn_rho = 33\ndebug_perturb_a = 0.0\n\n"
    )
    assert solver_echo in canonical_text(parse_config_text(DESK_CONFIG))
    for value in ("explicit", "implicit"):
        text = DESK_CONFIG.replace("n_x = 201", f"n_x = 201\nscheme = {value}")
        line = text.splitlines().index(f"scheme = {value}") + 1
        with pytest.raises(ConfigError, match=rf"line {line}: unknown key 'scheme' in section"):
            parse_config_text(text)


def test_readme_config_table_names_every_key():
    """The README's configuration table has one row per key; ``a / b`` rows name two keys."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| section.key | default | meaning |\n| --- | --- | --- |\n")[1]
    documented = []
    for row in table.split("\n\n")[0].splitlines():
        section, _, keys = row.split(" | ")[0].lstrip("| ").partition(".")
        documented += [f"{section}.{key.strip()}" for key in keys.split("/")]
    declared = [f"{section.name}.{key.name}" for section in dataclasses.fields(RunConfig)
                for key in dataclasses.fields(section.default)]
    assert sorted(documented) == sorted(declared)


def test_readme_preset_lists_are_the_choices():
    """The README lists solver.terminal's payoffs and pairs each simulation.functional with
    its payoff, in choice order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    meaning = {row.split(" | ")[0][2:]: row.split(" | ")[2]
               for row in readme.splitlines() if row.startswith("| ")}
    choices = {f"{section.name}.{key.name}": list(key.metadata["choices"])
               for section in dataclasses.fields(RunConfig)
               for key in dataclasses.fields(section.default) if "choices" in key.metadata}
    assert re.findall(r"`(\w+)`", meaning["solver.terminal"]) == choices["solver.terminal"]
    pairs = re.findall(r"`(\w+)` is `(\w+)`", meaning["simulation.functional"])
    assert pairs == [(name, FUNCTIONALS[name]) for name in choices["simulation.functional"]]


def test_parse_choice_errors_name_the_choices_in_order():
    for section, key, choices in (
        ("solver", "terminal", "('x_squared', 'minus_x_squared', 'constant')"),
        ("solver", "attitude", "('upper', 'lower', 'pessimist', 'optimist')"),
        ("simulation", "functional", "('terminal_square', 'neg_terminal_square', 'constant')"),
    ):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"[{section}]\n{key} = nope\n")
        assert str(exc.value) == f"line 2: {key} must be one of {choices}, got 'nope'"


@pytest.mark.parametrize("d", [1, 2])
def test_functionals_are_their_payoffs_at_the_last_state(d):
    """Each functional keeps the bits of the path functional it replaced, and each payoff
    on grid nodes those of the terminal cost it replaced."""
    rng = np.random.default_rng(d)
    # The layout the scenario search hands its functional: a path-major view of step-major rows.
    states = rng.normal(size=(9, 40, d)).transpose(1, 0, 2)
    c, n = 2.5, states.shape[0]
    references = {
        "terminal_square": np.sum(states[:, -1, :] ** 2, axis=1),
        "neg_terminal_square": -np.sum(states[:, -1, :] ** 2, axis=1),
        "constant": np.full(n, c),
    }
    assert list(FUNCTIONALS) == list(references)
    for name, expected in references.items():
        assert PAYOFFS[FUNCTIONALS[name]](states[:, -1, :], c).tobytes() == expected.tobytes()

    x = np.sort(rng.uniform(-4.0, 4.0, 25))
    for c in (0.0, 2.5, -3.0):
        for name, expected in (("x_squared", x**2), ("minus_x_squared", -(x**2)),
                               ("constant", c + 0.0 * x)):
            assert PAYOFFS[name](x[:, None], c).tobytes() == expected.tobytes()
    # The one node value that moved: c + 0.0 * x was +0.0 at x >= 0 for c = -0.0.
    assert np.signbit(PAYOFFS["constant"](x[:, None], -0.0)).all()


def test_parse_unknown_key_reports_line():
    bad = DESK_CONFIG.replace("kappa = 2.0", "kappa = 2.0\nwrong_key = 1")
    with pytest.raises(ConfigError, match=r"line \d+.*wrong_key"):
        parse_config_text(bad)


def test_parse_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[nonsense]\nx = 1\n")


def test_parse_bad_number_reports_line():
    bad = DESK_CONFIG.replace("beta = 0.1", "beta = abc")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config_text(bad)


def test_parse_variance_order_violation():
    bad = DESK_CONFIG.replace("sigma_lo_sq = 0.25", "sigma_lo_sq = 2.0")
    with pytest.raises(ConfigError, match="sigma_lo_sq"):
        parse_config_text(bad)


def test_parse_duplicate_key_rejected():
    bad = DESK_CONFIG.replace("beta = 0.1", "beta = 0.1\nbeta = 0.2")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(bad)


def test_parse_multisegment_market():
    text = DESK_CONFIG.replace(
        "r = 0.02", "segment_starts = 0.0,0.5\nr = 0.02,0.03"
    ).replace("alpha = 0.06", "alpha = 0.06,0.07").replace("gamma = 0.2", "gamma = 0.2,0.25")
    cfg = parse_config_text(text)
    model = cfg.market_model()
    assert model.at(0.25)[0] == 0.02 and model.at(0.75)[0] == 0.03
    assert model.segment_starts == (0.0, 0.5)
    assert parse_config_text(canonical_text(cfg)) == cfg


def test_cli_solve_hjb_gheat(tmp_path):
    cfg_path = _write(tmp_path, "gheat.cfg", GHEAT_CONFIG)
    out = tmp_path / "out"
    assert main(["solve-hjb", "--config", cfg_path, "--output", str(out)]) == 0
    report = (out / "gheat_report.txt").read_text()
    v00 = float(_report_value(out / "gheat_report.txt", "V(0,0)"))
    assert abs(v00 - 1.0) <= 1e-2
    assert "gheat_solution.csv" in report
    header = (out / "gheat_solution.csv").read_text().splitlines()[0]
    assert header == "t,x,value,control_index,control_value"


def test_cli_solve_hjb_cfl_violation_no_partial_files(tmp_path, monkeypatch):
    from gctrl import hjb

    monkeypatch.setattr(hjb, "_HOWARD_MAX_SOLVES", 0)  # n_t = 10 is far below the CFL count
    cfg_path = _write(
        tmp_path, "bad.cfg", GHEAT_CONFIG.replace("attitude = upper", "attitude = upper\nn_t = 10")
    )
    out = tmp_path / "out"
    assert main(["solve-hjb", "--config", cfg_path, "--output", str(out)]) == 3
    assert not out.exists() or not list(out.iterdir())


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, "gheat.cfg", GHEAT_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--output", str(out1)]) == 0
    assert main(["simulate", "--config", cfg_path, "--output", str(out2)]) == 0
    for name in ("gheat_paths.csv", "gheat_report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_overwrite_needs_force(tmp_path):
    cfg_path = _write(tmp_path, "gheat.cfg", GHEAT_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--output", str(out)]) == 0
    assert main(["simulate", "--config", cfg_path, "--output", str(out)]) == 2
    assert main(["simulate", "--config", cfg_path, "--output", str(out), "--force"]) == 0


def test_cli_simulate_moment_identity_and_seed_override(tmp_path):
    cfg_path = _write(tmp_path, "gheat.cfg", GHEAT_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--output", str(out)]) == 0
    rpt = out / "gheat_report.txt"
    value = float(_report_value(rpt, "value"))
    se = float(_report_value(rpt, "std_error"))
    assert abs(value - 1.0) <= 3 * se

    out2 = tmp_path / "out2"
    assert main(["simulate", "--config", cfg_path, "--output", str(out2), "--seed", "77"]) == 0
    value2 = float(_report_value(out2 / "gheat_report.txt", "value"))
    se2 = float(_report_value(out2 / "gheat_report.txt", "std_error"))
    assert (out / "gheat_paths.csv").read_bytes() != (out2 / "gheat_paths.csv").read_bytes()
    assert abs(value - value2) <= 6 * (se + se2)


def test_cli_simulate_two_dimensional_noise(tmp_path):
    market = "[market]\nr = 0.02\nalpha = 0.06 0.05\ngamma = 0.2 0; 0 0.25\n\n"
    text = (market + GHEAT_CONFIG.replace("[ambiguity]", "[ambiguity]\nd = 2")
            .replace("n_paths = 3000", "n_paths = 1500")
            .replace("n_steps = 200", "n_steps = 60"))
    cfg_path = _write(tmp_path, "d2.cfg", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--output", str(out)]) == 0
    header = (out / "gheat_paths.csv").read_text().splitlines()[0]
    assert header == "path_id,time,state_0,state_1"
    # |B_T|^2 worst case is the isotropic high-variance scenario: 2 * sigma_hi_sq
    rpt = out / "gheat_report.txt"
    value = float(_report_value(rpt, "value"))
    se = float(_report_value(rpt, "std_error"))
    assert abs(value - 2.0) <= 4 * se


def test_cli_simulate_constant_functional(tmp_path):
    text = GHEAT_CONFIG.replace(
        "seed = 31", "seed = 31\nfunctional = constant\nfunctional_constant = 7.0"
    )
    cfg_path = _write(tmp_path, "const.cfg", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--output", str(out)]) == 0
    assert float(_report_value(out / "gheat_report.txt", "value")) == 7.0
    assert float(_report_value(out / "gheat_report.txt", "std_error")) == 0.0


def test_cli_simulate_steps_only_the_confirmed_candidates(tmp_path, monkeypatch):
    """The screen steps no path, and each confirmed candidate is stepped once, in one call."""
    nodes = []
    steps = sde._euler_steps

    def counting(spec, states, roots_t, cuts, normals, dt, candidate=None):
        nodes.append((cuts[-1] - cuts[0], candidate))  # (steps, its candidate)
        return steps(spec, states, roots_t, cuts, normals, dt, candidate)

    monkeypatch.setattr(sde, "_euler_steps", counting)
    monkeypatch.setattr(estimators, "_euler_steps", counting)
    text = GHEAT_CONFIG.replace("n_paths = 3000", "n_paths = 300")
    cfg_path = _write(tmp_path, "gheat.cfg", text)
    assert main(["simulate", "--config", cfg_path, "--output", str(tmp_path / "out")]) == 0
    # n_grid = 3 levels on n_segments = 2 halves of n_steps = 200: of the 9 candidates, the
    # screen confirms the one that holds the high level on both halves alone, candidate 8,
    # and the walk steps it over the whole horizon.
    assert nodes == [(200, 8)]


@pytest.mark.parametrize("config", ["configs/heat.cfg", "bench/scenario.cfg"])
def test_cli_simulate_confirms_one_candidate_on_the_shipped_configs(monkeypatch, config):
    from gctrl import cli

    walked = []
    steps = estimators._euler_steps

    def recording(*args):
        walked.append(args[-1])  # the candidate index
        return steps(*args)

    monkeypatch.setattr(estimators, "_euler_steps", recording)
    text = (Path(__file__).resolve().parents[1] / config).read_text("utf-8")
    report = cli.RunReport(command="simulate", config_echo="")
    cli.cmd_simulate(parse_config_text(text), report)
    assert len(walked) == 1
    assert report.results["n_schedules_searched"] == {"configs/heat.cfg": 9,
                                                      "bench/scenario.cfg": 625}[config]


def test_cli_merton_report_values(tmp_path):
    text = DESK_CONFIG.replace("n_x = 201", "n_x = 201\nn_t = 200")
    cfg_path = _write(tmp_path, "desk.cfg", text)
    out = tmp_path / "out"
    assert main(["merton", "--config", cfg_path, "--output", str(out)]) == 0
    rpt = out / "desk_report.txt"
    assert float(_report_value(rpt, "pi_hat")) == 0.5
    assert _report_value(rpt, "A(T)") == "1"
    assert _report_value(rpt, "resolved_branch") == "affine-exp"
    assert float(_report_value(rpt, "max_hjb_residual")) <= 1e-6
    a_curve = (out / "desk_a_curve.csv").read_text().splitlines()
    assert a_curve[0] == "t,A"
    assert a_curve[-1].endswith(",1")
    compare = (out / "desk_compare.csv").read_text().splitlines()
    assert compare[0] == "x,pde_value,closed_form_value,rel_error"


def test_cli_merton_degenerate_note(tmp_path):
    text = DESK_CONFIG.replace("sigma_lo_sq = 0.25", "sigma_lo_sq = 1.0").replace(
        "n_x = 201", "n_x = 101"
    )
    cfg_path = _write(tmp_path, "degen.cfg", text)
    out = tmp_path / "out"
    assert main(["merton", "--config", cfg_path, "--output", str(out)]) == 0
    rpt = out / "desk_report.txt"
    assert "degenerate_ambiguity" in rpt.read_text()
    assert float(_report_value(rpt, "pessimist_optimist_gap")) <= 1e-10


def test_cli_merton_solves_both_attitudes_with_the_configured_scheme(tmp_path, monkeypatch,
                                                                     solves_per_level):
    """Both attitudes are solved on the configured grid, so both take its implicit sweep."""
    from gctrl import cli, hjb

    grids, linear_solves = [], []

    def recorded(problem, grid):
        before = len(solves_per_level)
        solution = hjb.solve(problem, grid)
        grids.append(grid)
        linear_solves.append(len(solves_per_level) - before)
        return solution

    monkeypatch.setattr(cli, "solve", recorded)
    monkeypatch.setattr(verify, "solve", recorded)
    text = DESK_CONFIG.replace("sigma_lo_sq = 0.25", "sigma_lo_sq = 1.0").replace(
        "n_x = 201", "n_x = 101\nn_t = 40"
    )
    out = tmp_path / "out"
    assert main(["merton", "--config", _write(tmp_path, "degen.cfg", text),
                 "--output", str(out)]) == 0
    assert len(grids) == 2 and grids[0] == grids[1]
    assert min(linear_solves) >= 40
    rpt = out / "desk_report.txt"
    assert float(_report_value(rpt, "pessimist_optimist_gap")) <= 1e-10
    assert float(_report_value(rpt, "n_t")) == 40


def test_cli_config_error_exit_code(tmp_path):
    bad = DESK_CONFIG.replace("sigma_lo_sq = 0.25", "sigma_lo_sq = 2.0")
    cfg_path = _write(tmp_path, "bad.cfg", bad)
    assert main(["merton", "--config", cfg_path, "--output", str(tmp_path / "o")]) == 2


def test_cli_missing_config_file(tmp_path):
    assert main(["merton", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_cli_merton_perturbed_closed_form_is_oracle_inconsistency(tmp_path):
    bad = DESK_CONFIG.replace("n_rho = 33", "n_rho = 33\ndebug_perturb_a = 0.01")
    cfg_path = _write(tmp_path, "bad.cfg", bad)
    out = tmp_path / "out"
    assert main(["merton", "--config", cfg_path, "--output", str(out)]) == 4
    assert not out.exists() or not list(out.iterdir())


def test_cli_report_lists_existing_nonempty_artifacts(tmp_path):
    from gctrl.cli import run_command

    cfg = parse_config_text(GHEAT_CONFIG)
    report = run_command("simulate", cfg, tmp_path / "out", force=False)
    assert report.artifact_paths
    for p in report.artifact_paths:
        path = Path(p)
        assert path.exists() and path.stat().st_size > 0


def test_cli_verify_needs_one_dimensional_ambiguity(tmp_path, capsys):
    text = (DESK_CONFIG.replace("d = 1", "d = 2").replace("alpha = 0.06", "alpha = 0.06 0.05")
            .replace("gamma = 0.2", "gamma = 0.2 0; 0 0.25"))
    cfg_path = _write(tmp_path, "d2.cfg", text)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--output", str(out)]) == 2
    assert "this command needs a 1-dimensional ambiguity set" in capsys.readouterr().err
    assert not (out / "desk_verify.txt").exists()


def test_cli_wealth_grid_needs_positive_x_min(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("grid solve started before the config was rejected")

    monkeypatch.setattr(verify, "solve", no_solve)
    zero = DESK_CONFIG.replace("x_min = 0.4", "x_min = 0.0")
    for name, text in (("gheat.cfg", GHEAT_CONFIG), ("zero.cfg", zero)):
        cfg_path = _write(tmp_path, name, text)
        for command in ("merton", "verify"):
            out = tmp_path / f"{command}_{name}"
            assert main([command, "--config", cfg_path, "--output", str(out)]) == 2
            assert "solver.x_min > 0" in capsys.readouterr().err
            assert not out.exists()


def test_cli_wealth_problems_need_positive_x0(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("grid solve started before the config was rejected")

    monkeypatch.setattr(verify, "solve", no_solve)
    for x0 in ("0.0", "-1.0"):
        cfg_path = _write(tmp_path, "x0.cfg", DESK_CONFIG.replace("x0 = 1.0", f"x0 = {x0}"))
        for command in ("merton", "verify"):
            out = tmp_path / f"{command}_{x0}"
            assert main([command, "--config", cfg_path, "--output", str(out)]) == 2
            assert "simulation.x0 > 0" in capsys.readouterr().err
            assert not out.exists()
    # the other two commands take any initial state
    text = GHEAT_CONFIG.replace("[simulation]", "[simulation]\nx0 = -1.0").replace(
        "n_paths = 3000", "n_paths = 200")
    cfg_path = _write(tmp_path, "gheat_x0.cfg", text)
    for command in ("solve-hjb", "simulate"):
        assert main([command, "--config", cfg_path, "--output", str(tmp_path / command)]) == 0


def test_cli_simulate_over_the_candidate_cap_is_a_config_error(tmp_path, capsys):
    # d = 2 with 5 levels per axis is 25 covariances a segment: 25^4 = 390625 schedules
    text = GHEAT_CONFIG.replace("[ambiguity]", "[ambiguity]\nd = 2").replace(
        "n_segments = 2\nn_grid = 3", "n_segments = 4\nn_grid = 5")
    cfg_path = _write(tmp_path, "cap.cfg", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--output", str(out)]) == 2
    assert "schedule grid has 390625 candidates" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_with_a_segment_no_step_falls_in_is_a_config_error(tmp_path, capsys):
    text = GHEAT_CONFIG.replace("n_segments = 2", "n_segments = 4")
    text = re.sub(r"n_steps = \d+", "n_steps = 2", text)
    cfg_path = _write(tmp_path, "steps.cfg", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--output", str(out)]) == 2
    assert "n_segments = 4 leaves a segment" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("seed", [-1, 2**64 + 1])
@pytest.mark.parametrize("command", ["solve-hjb", "merton", "simulate", "verify"])
def test_cli_seeds_outside_64_bits_are_config_errors(tmp_path, capsys, command, seed):
    """A seed from the file names its line, one from --seed the flag, before any computation."""
    text = DESK_CONFIG if command in ("merton", "verify") else GHEAT_CONFIG
    out = tmp_path / "out"
    ok_path = _write(tmp_path, "ok.cfg", text)
    assert main([command, "--config", ok_path, "--output", str(out), "--seed", str(seed)]) == 2
    assert capsys.readouterr().err == f"config error: --seed must be in [0, 2**64), got {seed}\n"
    bad = re.sub(r"seed = \d+", f"seed = {seed}", text)
    line = bad.splitlines().index(f"seed = {seed}") + 1
    bad_path = _write(tmp_path, "bad.cfg", bad)
    assert main([command, "--config", bad_path, "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: line {line}: simulation.seed must be in [0, 2**64), got {seed}\n")
    assert not out.exists()


def _no_solve(*args, **kwargs):
    raise AssertionError("grid solve started before the config was rejected")


def test_cli_prefix_with_a_path_separator_writes_nothing(tmp_path, capsys, monkeypatch):
    from gctrl import cli

    monkeypatch.setattr(cli, "solve", _no_solve)
    cfg_path = _write(tmp_path, "up.cfg", GHEAT_CONFIG.replace("prefix = gheat",
                                                              "prefix = ../escaped"))
    assert main(["solve-hjb", "--config", cfg_path, "--output", str(tmp_path / "out")]) == 2
    assert "output.prefix must not contain a path separator" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["up.cfg"]


def test_cli_output_that_is_a_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    from gctrl import cli

    cfg_path = _write(tmp_path, "gheat.cfg", GHEAT_CONFIG)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "solve", _no_solve)
        assert main(["solve-hjb", "--config", cfg_path, "--output", str(taken)]) == 2
    assert capsys.readouterr().err == (
        f"config error: output directory {taken} exists and is not a directory\n")
    # A directory below a file fails only when it is made, after the solve.
    assert main(["solve-hjb", "--config", cfg_path, "--output", str(taken / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write the artifacts in {taken / 'sub'}: ")
    assert err.count("\n") == 1
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("failing", [1, 2, 3])
def test_cli_failed_rename_exits_2_and_keeps_the_directory(tmp_path, capsys, monkeypatch,
                                                           failing):
    text = GHEAT_CONFIG.replace("n_x = 401", "n_x = 41")
    cfg_path = _write(tmp_path, "gheat.cfg", text)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["solve-hjb", "--config", cfg_path, "--output", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # The second run's solution differs from the first, so each artifact it publishes would show.
    short_path = _write(tmp_path, "short.cfg", text.replace("[solver]", "[solver]\nhorizon = 0.5"))
    capsys.readouterr()

    replace, calls = Path.replace, []

    def refuse_one(self, target):
        calls.append(target)
        if len(calls) == failing:
            raise OSError(30, "Read-only file system", str(target))
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", refuse_one)
    # Over the old set with --force, the old set stays; into a fresh directory, nothing appears.
    for directory, flags, kept in ((out, ["--force"], before), (fresh, [], {})):
        calls.clear()
        assert main(["solve-hjb", "--config", short_path, "--output", str(directory), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write the artifacts in {directory}: ")
        assert "Read-only file system" in err and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == kept


def test_cli_solve_hjb_needs_x0_on_the_grid(tmp_path, capsys, monkeypatch):
    from gctrl import cli

    text = GHEAT_CONFIG.replace("[simulation]", "[simulation]\nx0 = 10.0")
    cfg_path = _write(tmp_path, "far.cfg", text)
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "solve", _no_solve)
        assert main(["solve-hjb", "--config", cfg_path, "--output", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: simulation.x0 = 10.0 lies outside the grid "
                                       "[solver.x_min, solver.x_max] = [-4.0, 4.0]\n")
    assert not out.exists()
    # A grid away from 0 reports V(0,x0) alone; V(0,0) would lie off the grid.
    right = (text.replace("x0 = 10.0", "x0 = 1.0").replace("x_min = -4.0", "x_min = 0.5")
             .replace("n_x = 401", "n_x = 41"))
    assert main(["solve-hjb", "--config", _write(tmp_path, "right.cfg", right),
                 "--output", str(out)]) == 0
    report = (out / "gheat_report.txt").read_text()
    assert "V(0,x0) = " in report and "V(0,0)" not in report


def _recorded_verify_calls(monkeypatch, cpus: int) -> tuple[list, list]:
    """Names of the ``verify`` functions called in this process, in order, and the
    checks' results, from ``run_all_checks`` on a small desk config with ``cpus`` usable CPUs."""
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    names = ["solve", "evaluate_policy_mc", "dpp_composition_check"]
    names += [name for name in dir(verify) if name.startswith("check_")]
    for name in names:
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
    fast = (DESK_CONFIG.replace("n_x = 201", "n_x = 61").replace("x_min = 0.4", "x_min = 0.5")
            .replace("x_max = 2.4", "x_max = 2.0").replace("n_paths = 1500", "n_paths = 50")
            .replace("n_steps = 150", "n_steps = 10"))
    return calls, verify.run_all_checks(parse_config_text(fast))


def test_verify_runs_the_monte_carlo_leg_before_the_checks(monkeypatch):
    # The policy MC follows the grid solve of merton_run and precedes every check, so
    # its search allocates before the checks' solves have churned the heap.  With one
    # usable CPU every check runs in this process, where the calls are recorded.
    calls, _ = _recorded_verify_calls(monkeypatch, cpus=1)
    assert calls[:2] == ["solve", "evaluate_policy_mc"]
    assert "evaluate_policy_mc" not in calls[2:]
    assert {"check_subadditivity", "check_comparison_principle",
            "dpp_composition_check"} <= set(calls[2:])


VERIFY_CHECKS = [
    "g_subadditivity", "g_positive_homogeneity", "g_upper_ge_lower", "g_maximizer_membership",
    "g_bruteforce_agreement", "comparison_principle", "comparison_principle_implicit",
    "dpp_composition_heat", "dpp_composition_portfolio", "dpp_composition_portfolio_implicit",
    "pde_vs_closed_form", "pi_extraction", "mc_vs_closed_form", "hjb_residual",
    "hjb_residual_sensitivity", "fund_weights_sum", "pi_decreasing_in_ambiguity",
    "csv_byte_stability",
]


def test_verify_with_two_cpus_runs_the_monte_carlo_leg_first_here(monkeypatch):
    # The market-free checks run in a forked worker, which this process does not record.
    calls, results = _recorded_verify_calls(monkeypatch, cpus=2)
    assert calls[:2] == ["solve", "evaluate_policy_mc"]
    assert calls.count("evaluate_policy_mc") == 1
    assert "check_subadditivity" not in calls
    assert [r.name for r in results] == VERIFY_CHECKS


@pytest.mark.parametrize("horizon, count", [("1.0", 782), ("0.03", 24), ("0.02", 16),
                                            ("0.001", 1)])
def test_the_implicit_portfolio_dpp_line_sweeps_below_the_explicit_count(monkeypatch, horizon,
                                                                         count):
    # ``count`` is the desk market's explicit count on the 81-node DPP grid; at 1 no grid of
    # two levels lies below it, and the implicit line says so instead of sweeping.
    grids, dpp_result = [], verify._dpp_result
    monkeypatch.setattr(verify, "_dpp_result", lambda name, problem, grid:
                        grids.append(grid) or dpp_result(name, problem, grid))
    text = (DESK_CONFIG.replace("horizon = 1.0", f"horizon = {horizon}")
            .replace("n_paths = 1500", "n_paths = 50"))
    results = verify._merton_checks(parse_config_text(text))
    implicit = next(r for r in results if r.name == "dpp_composition_portfolio_implicit")
    assert grids[0].n_t == max(2, count) and implicit.passed
    assert [2 <= g.n_t < count for g in grids[1:]] == ([True] if count >= 3 else [])
    assert implicit.bound.startswith("n/a") == (count < 3)


def test_cli_verify_passes_and_perturbation_fails(tmp_path):
    fast = DESK_CONFIG.replace("n_x = 201", "n_x = 101").replace(
        "x_min = 0.4", "x_min = 0.5"
    ).replace("x_max = 2.4", "x_max = 2.0")
    cfg_path = _write(tmp_path, "verify.cfg", fast)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--output", str(out)]) == 0
    text = (out / "desk_verify.txt").read_text()
    assert "FAIL" not in text
    assert "checks_failed = 0" in text

    bad = fast.replace("n_rho = 33", "n_rho = 33\ndebug_perturb_a = 0.01")
    bad_path = _write(tmp_path, "verify_bad.cfg", bad)
    out2 = tmp_path / "out2"
    assert main(["verify", "--config", bad_path, "--output", str(out2)]) == 1
    text2 = (out2 / "desk_verify.txt").read_text()
    assert "hjb_residual = FAIL" in text2


def test_cli_verify_at_a_horizon_of_one_explicit_step(tmp_path):
    # At horizon 0.001 one step meets the CFL bound on both explicit DPP grids (the
    # 81-node portfolio grid and the 101-node heat grid); each still needs a level
    # strictly inside the horizon to split at.
    short = DESK_CONFIG.replace("horizon = 1.0", "horizon = 0.001")
    out = tmp_path / "out"
    assert main(["verify", "--config", _write(tmp_path, "short.cfg", short),
                 "--output", str(out)]) == 0
    lines = (out / "desk_verify.txt").read_text().splitlines()
    assert "checks_total = 18" in lines and "checks_failed = 0" in lines


def test_cli_solve_hjb_implicit(tmp_path, solves_per_level):
    cfg_path = _write(tmp_path, "heat.cfg", GHEAT_CONFIG.replace("[solver]", "[solver]\nn_t = 20"))
    out = tmp_path / "out"
    assert main(["solve-hjb", "--config", cfg_path, "--output", str(out)]) == 0
    assert solves_per_level.count(1) == 20  # every level took the implicit sweep
    report = next(out.glob("*_report.txt")).read_text()
    assert "n_t = 20\n" in report
    assert "scheme" not in report
    v00 = float(report.split("V(0,0) = ")[1].split("\n")[0])
    assert v00 == pytest.approx(1.0, abs=1e-3)


def test_cli_verify_implicit_adds_two_checks(tmp_path):
    fast = DESK_CONFIG.replace("x_min = 0.4", "x_min = 0.5").replace("x_max = 2.4", "x_max = 2.0")
    names_by_run = []
    for name, grid in (("implicit", "n_x = 151\nn_t = 100"), ("explicit", "n_x = 101\nn_t = 0")):
        cfg_path = _write(tmp_path, f"{name}.cfg", fast.replace("n_x = 201", grid))
        out = tmp_path / name
        assert main(["verify", "--config", cfg_path, "--output", str(out)]) == 0
        lines = (out / "desk_verify.txt").read_text().splitlines()
        assert "FAIL" not in "\n".join(lines)
        assert "checks_total = 18" in lines
        names_by_run.append([line.split(" = ")[0] for line in lines if " = PASS" in line])
    names = names_by_run[0]
    assert names[5:8] == ["comparison_principle", "comparison_principle_implicit",
                          "dpp_composition_heat"]
    assert names[8:10] == ["dpp_composition_portfolio", "dpp_composition_portfolio_implicit"]
    assert len(names) == 18
    assert names_by_run[1] == names


def _late(text: str, line: int, message: str):
    """A row for a check made once the whole text is read, which reports ``line``; its id
    names the text and the rule's message."""
    return pytest.param(text, f"line {line}: {message}", id=f"{text}-{message}")


@pytest.mark.parametrize("text, message", [
    ("n_x = 401\n", "line 1: key outside any [section]"),
    ("[solver]\nn_x 401\n", "line 2: expected 'key = value', got 'n_x 401'"),
    ("[nonsense]\nx = 1\n", "line 1: unknown section [nonsense]"),
    ("[solver]\nwrong = 1\n", "line 2: unknown key 'wrong' in section [solver]"),
    ("[solver]\nn_x = 101\nn_x = 201\n", "line 3: duplicate key 'n_x' in section [solver]"),
    ("[solver]\ndirection = up\n",
     "line 2: direction must be one of ('minimize', 'maximize'), got 'up'"),
    ("[solver]\nn_x = 2.5\n", "line 2: expected an integer, got '2.5'"),
    ("[utility]\nbeta = abc\n", "line 2: expected a number, got 'abc'"),
    ("[utility]\nbeta = inf\n", "line 2: value must be finite, got 'inf'"),
    ("[market]\nr = 0.02, x\n", "line 2: expected a number, got 'x'"),
    ("[market]\ngamma = 0.2 0\n", "line 2: matrix segments must be square"),
    ("[market]\ngamma = 0.2 0; 0\n", "line 2: matrix segments must be square"),
    ("[market]\n\nsegment_starts = 0.0, , 0.5\n", "line 3: empty entry in '0.0, , 0.5'"),
    ("[market]\nr = 0.02,\n", "line 2: empty entry in '0.02,'"),
    ("[market]\nr =\n", "line 2: empty entry in ''"),
    ("[market]\nalpha = 0.06,\n", "line 2: empty entry in '0.06,'"),
    ("[market]\ngamma = 0.2 0;\n", "line 2: empty entry in '0.2 0;'"),
    ("[market]\ngamma = 0.2,,0.3\n", "line 2: empty entry in '0.2,,0.3'"),
    _late("[ambiguity]\nd = 0\n", 1, "dim must be a positive integer, got 0"),
    _late("[utility]\nkappa = 1.0\n", 1, "kappa must be positive and different from 1"),
    _late("[output]\nprefix = p\n[utility]\nbeta = 0.1\nkappa = -1\n", 3,
          "kappa must be positive and different from 1"),
    _late("[solver]\nx_min = 4.0\n", 2, "solver.x_min must be below solver.x_max"),
    _late("[solver]\nn_x = 51\nx_max = -5.0\nx_min = 0.0\n", 3,
          "solver.x_min must be below solver.x_max"),
    _late("[solver]\nn_x = 2\n", 2, "solver.n_x must be at least 3"),
    _late("[solver]\nn_t = -1\n", 2, "solver.n_t must be 0 (auto) or positive"),
    _late("[solver]\nhorizon = 0.0\n", 2, "solver.horizon must be positive"),
    _late("[solver]\nn_rho = 1\n", 2, "solver.n_pi and solver.n_rho must be at least 2"),
    _late("[solver]\nn_pi = 21\nn_rho = 1\n", 3, "solver.n_pi and solver.n_rho must be at least 2"),
    _late("[simulation]\nn_grid = 0\n", 2, "simulation sizes must be positive"),
    _late("[output]\nprefix =\n", 2, "output.prefix must be nonempty"),
    _late("[output]\nprefix = sub/heat\n", 2,
          "output.prefix must not contain a path separator, got 'sub/heat'"),
    _late("[output]\nprefix = ../escaped\n", 2,
          "output.prefix must not contain a path separator, got '../escaped'"),
    _late("[output]\nprefix = g\x00x\n", 2,
          "output.prefix must not contain a NUL byte, got 'g\\x00x'"),
    _late("[output]\nprefix = g\ndirectory = o\x00x\n", 3,
          "output.directory must not contain a NUL byte, got 'o\\x00x'"),
    _late("[simulation]\nseed = -1\n", 2, "simulation.seed must be in [0, 2**64), got -1"),
    _late("[simulation]\nseed = 18446744073709551616\n", 2,
          "simulation.seed must be in [0, 2**64), got 18446744073709551616"),
])
def test_parse_errors_give_their_message_and_line(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert str(exc.value) == message


def test_canonical_text_of_a_two_asset_two_segment_market():
    text = ("[ambiguity]\nd = 2\n[market]\nsegment_starts = 0, 0.5\nr = 0.02 ,0.03\n"
            "alpha = 0.06  0.05, 0.07 0.04\ngamma = 0.2 0 ; 0 0.3, 0.25 0;0 0.3\n")
    echo = canonical_text(parse_config_text(text))
    assert ("[market]\nsegment_starts = 0.0,0.5\nr = 0.02,0.03\n"
            "alpha = 0.06 0.05,0.07 0.04\n"
            "gamma = 0.2 0.0;0.0 0.3,0.25 0.0;0.0 0.3\n") in echo
    assert canonical_text(parse_config_text(echo)) == echo


def test_cli_simulate_two_dimensional_noise_needs_no_market(tmp_path):
    text = (GHEAT_CONFIG.replace("[ambiguity]", "[ambiguity]\nd = 2")
            .replace("n_paths = 3000", "n_paths = 200").replace("n_steps = 200", "n_steps = 20"))
    cfg_path = _write(tmp_path, "d2.cfg", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--output", str(out)]) == 0
    assert (out / "gheat_paths.csv").read_text().startswith("path_id,time,state_0,state_1\n")


def test_cli_market_needs_ambiguity_d_assets(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("grid solve started before the config was rejected")

    monkeypatch.setattr(verify, "solve", no_solve)
    text = (DESK_CONFIG.replace("alpha = 0.06", "alpha = 0.06 0.05")
            .replace("gamma = 0.2", "gamma = 0.2 0; 0 0.25"))
    cfg_path = _write(tmp_path, "two_assets.cfg", text)
    for command in ("merton", "verify"):
        out = tmp_path / command
        assert main([command, "--config", cfg_path, "--output", str(out)]) == 2
        assert "the market has 2 assets; ambiguity.d is 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("market, message", [
    pytest.param("r = 0.02, 0.03", "need one (r, alpha, gamma) triple per segment", id="triple"),
    pytest.param("segment_starts = 0.0, 0.5\nr = 0.02, 0.02\nalpha = 0.06, 0.06 0.05\n"
                 "gamma = 0.2, 0.2", "segment coefficient shapes disagree", id="shapes"),
    pytest.param("gamma = 0", "gamma @ gamma.T must be positive definite", id="gamma"),
])
def test_cli_market_errors_exit_2_where_the_market_is_read(tmp_path, capsys, monkeypatch,
                                                           market, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("grid solve started before the config was rejected")

    monkeypatch.setattr(verify, "solve", no_solve)
    text = DESK_CONFIG.replace("[market]\nr = 0.02\nalpha = 0.06\ngamma = 0.2\n",
                               f"[market]\n{market}\n")
    cfg_path = _write(tmp_path, "market.cfg", text)
    for command in ("merton", "verify"):
        out = tmp_path / command
        assert main([command, "--config", cfg_path, "--output", str(out)]) == 2
        assert f"config error: {message}\n" == capsys.readouterr().err
        assert not out.exists()


def test_cli_solve_hjb_and_simulate_do_not_read_the_market(tmp_path):
    text = "[market]\ngamma = 0\n\n" + GHEAT_CONFIG.replace("n_paths = 3000", "n_paths = 300")
    cfg_path = _write(tmp_path, "market.cfg", text)
    for command in ("solve-hjb", "simulate"):
        assert main([command, "--config", cfg_path, "--output", str(tmp_path / command)]) == 0


def _fails_after_first_chunk(chunk_form):
    def failing(*args):
        table = chunk_form(*args)

        def block(i):
            if i > 0:
                raise RuntimeError("renderer failed mid-file")
            return table.block(i)

        return dataclasses.replace(table, block=block)

    return failing


@pytest.mark.parametrize("command, chunk_form", [
    pytest.param("simulate", "bundle_csv_chunks", id="simulate-first-artifact"),
    pytest.param("merton", "solution_csv_chunks", id="merton-fourth-artifact"),
])
def test_cli_publishes_all_artifacts_or_none(tmp_path, monkeypatch, command, chunk_form):
    from test_golden_artifacts import DESK

    from gctrl import cli

    cfg = parse_config_text(DESK if command == "merton" else GHEAT_CONFIG)
    names = sorted(f"{cfg.output.prefix}_{suffix}" for suffix in cli.COMMANDS[command][1])
    out = tmp_path / "out"
    cli.run_command(command, cfg, out, force=False)
    assert sorted(p.name for p in out.iterdir()) == names
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    monkeypatch.setattr(cli, chunk_form, _fails_after_first_chunk(getattr(cli, chunk_form)))
    # Another horizon changes every artifact, so one published ahead of the failure would show.
    shorter = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, horizon=0.5))
    with pytest.raises(RuntimeError, match="mid-file"):
        cli.run_command(command, shorter, out, force=True)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    fresh = tmp_path / "fresh"
    with pytest.raises(RuntimeError, match="mid-file"):
        cli.run_command(command, cfg, fresh, force=False)
    assert not fresh.exists() or not list(fresh.iterdir())


def _traced_peak(write) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_streams_the_solution_csv(tmp_path):
    from gctrl.cli import run_command

    text = (Path(__file__).resolve().parents[1] / "configs" / "heat.cfg").read_text("utf-8")
    cfg = parse_config_text(text.replace("n_x = 401", "n_x = 201"))
    peak = _traced_peak(lambda: run_command("solve-hjb", cfg, tmp_path, force=False))
    size = (tmp_path / "heat_solution.csv").stat().st_size
    assert size > 6e6
    assert peak < size / 2, (peak, size)


def test_cli_writer_streams_a_paths_bundle(tmp_path):
    from gctrl.ambiguity import AmbiguitySet
    from gctrl.cli import _write_text

    set_ = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
    bundle = sde.sample_gbm(set_, sde.VolSchedule.constant(1.0),
                            sde.PathConfig(n_steps=100, horizon=1.0, n_paths=2000, seed=3))
    path = tmp_path / "paths.csv"
    peak = _traced_peak(lambda: _write_text(path, sde.bundle_csv_chunks(bundle)))
    size = path.stat().st_size
    assert size > 5e6
    assert path.read_text("utf-8") == sde.bundle_csv_text(bundle)
    assert peak < size / 2, (peak, size)
