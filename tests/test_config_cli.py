"""Config parsing and the four CLI commands, including exit codes."""

from pathlib import Path

import pytest

from gctrl import ConfigError, estimators, sde, verify
from gctrl.cli import main
from gctrl.config import canonical_text, parse_config_text

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
    assert model.r(0.25) == 0.02 and model.r(0.75) == 0.03
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


def test_cli_solve_hjb_cfl_violation_no_partial_files(tmp_path):
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
    integrated = []
    batch = sde._integrate_batch

    def counting(spec, set_, schedules, *args, **kwargs):
        integrated.append(len(schedules))
        return batch(spec, set_, schedules, *args, **kwargs)

    monkeypatch.setattr(sde, "_integrate_batch", counting)
    monkeypatch.setattr(estimators, "_integrate_batch", counting)
    text = GHEAT_CONFIG.replace("n_paths = 3000", "n_paths = 300")
    cfg_path = _write(tmp_path, "gheat.cfg", text)
    assert main(["simulate", "--config", cfg_path, "--output", str(tmp_path / "out")]) == 0
    assert sum(integrated) == 3 ** 2  # n_grid ** n_segments


def test_cli_merton_report_values(tmp_path):
    cfg_path = _write(tmp_path, "desk.cfg", DESK_CONFIG)
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
    from gctrl.cli import cmd_simulate
    from gctrl.config import parse_config_text

    cfg = parse_config_text(GHEAT_CONFIG)
    report = cmd_simulate(cfg, tmp_path / "out", force=False)
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


def test_cli_verify_passes_and_perturbation_fails(tmp_path):
    fast = DESK_CONFIG.replace("n_x = 201", "n_x = 151").replace(
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
