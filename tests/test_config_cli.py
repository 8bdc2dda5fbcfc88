"""Config parsing and the four CLI commands, including exit codes."""

import dataclasses
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


def test_cli_simulate_integrates_each_candidate_once(tmp_path, monkeypatch):
    """Every node of the schedule-prefix tree is stepped once, and the best paths never again."""
    nodes = []
    steps = sde._euler_steps

    def counting(spec, states, roots_t, normals, first_step, dt, candidates=None):
        # one entry per stacked block: (first step, steps, first candidate below it)
        blocks = roots_t.shape[1]
        firsts = [None] * blocks if candidates is None else list(candidates)
        nodes.extend((first_step, len(roots_t), c) for c in firsts)
        return steps(spec, states, roots_t, normals, first_step, dt, candidates)

    monkeypatch.setattr(sde, "_euler_steps", counting)
    monkeypatch.setattr(estimators, "_euler_steps", counting)
    text = GHEAT_CONFIG.replace("n_paths = 3000", "n_paths = 300")
    cfg_path = _write(tmp_path, "gheat.cfg", text)
    assert main(["simulate", "--config", cfg_path, "--output", str(tmp_path / "out")]) == 0
    # n_grid = 3 levels on n_segments = 2 halves of n_steps = 200: 3 + 9 nodes
    first_half = [(0, 100, 3 * level) for level in range(3)]
    second_half = [(100, 100, candidate) for candidate in range(9)]
    assert sorted(nodes) == first_half + second_half


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


def test_verify_runs_the_monte_carlo_leg_before_the_checks(monkeypatch):
    # The policy MC follows the grid solve of merton_run and precedes every check, so
    # its search allocates before the checks' solves have churned the heap.
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    names = ["solve", "evaluate_policy_mc", "dpp_composition_check"]
    names += [name for name in dir(verify) if name.startswith("check_")]
    for name in names:
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
    fast = (DESK_CONFIG.replace("n_x = 201", "n_x = 61").replace("x_min = 0.4", "x_min = 0.5")
            .replace("x_max = 2.4", "x_max = 2.0").replace("n_paths = 1500", "n_paths = 50")
            .replace("n_steps = 150", "n_steps = 10"))
    verify.run_all_checks(parse_config_text(fast))
    assert calls[:2] == ["solve", "evaluate_policy_mc"]
    assert "evaluate_policy_mc" not in calls[2:]
    assert {"check_subadditivity", "check_comparison_principle",
            "dpp_composition_check"} <= set(calls[2:])


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
