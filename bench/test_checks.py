"""The benchmark's output checks pass on real artifacts and bite on altered ones.

Each workload's commands run once on a copy of its config with fewer paths
(and, for heat, a coarser grid); every test then alters one value in a copy
of those artifacts and requires the workload's check to report a problem.

    python3 -m pytest bench/test_checks.py -q      # from the repository root
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent

# (commands, config, overrides that shrink it, check)
SMALL = {
    "heat_artifacts": (("solve-hjb", "simulate"), "configs/heat.cfg",
                       {("solver", "n_x"): "41", ("simulation", "n_paths"): "200",
                        ("simulation", "n_steps"): "20"}, checks.check_heat),
    "desk_pipeline": (("merton", "verify"), "configs/desk.cfg",
                      {("simulation", "n_paths"): "500",
                       ("simulation", "n_steps"): "50"}, checks.check_desk),
    "scenario_search": (("simulate",), "bench/scenario.cfg",
                        {("simulation", "n_paths"): "50", ("simulation", "n_steps"): "20"},
                        checks.check_scenario),
}


def shrink(src: Path, dest: Path, overrides: dict) -> None:
    """Copy a config, replacing the overridden keys of each section."""
    out, section = [], ""
    for line in src.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped[1:-1]
            out.append(line)
            out += [f"{k} = {v}" for (s, k), v in overrides.items() if s == section]
        elif (section, stripped.partition("=")[0].strip()) not in overrides:
            out.append(line)
    dest.write_text("\n".join(out) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: (config path, output directories of its commands)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GCTRL_THREADS", None)
    out = {}
    for name, (commands, config, overrides, _) in SMALL.items():
        base = tmp_path_factory.mktemp(name)
        cfg = base / "small.cfg"
        shrink(ROOT / config, cfg, overrides)
        dirs = []
        for k, command in enumerate(commands):
            d = base / f"{k}-{command}"
            subprocess.run([sys.executable, "-m", "gctrl.cli", command, "--config", str(cfg),
                            "--output", str(d), "--seed", "3"],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            dirs.append(d)
        out[name] = (cfg, dirs)
    return out


def run_check(name: str, cfg: Path, dirs: list) -> list:
    return SMALL[name][3](checks.read_config(cfg), *dirs)


def edit_line(path: Path, pick, change) -> None:
    """Apply ``change`` to the first line for which ``pick(index, line)`` holds."""
    lines = path.read_text(encoding="utf-8").split("\n")
    i = next(i for i, line in enumerate(lines) if pick(i, line))
    lines[i] = change(lines[i])
    path.write_text("\n".join(lines), encoding="utf-8")


def report_key(key: str):
    return lambda i, line: line.startswith(f"{key} = ")


def row(n: int):
    return lambda i, line: i == n


def scale_field(col: int, factor: float):
    def change(line: str) -> str:
        cells = line.split(",")
        cells[col] = repr(float(cells[col]) * factor)
        return ",".join(cells)
    return change


def scale_report_value(factor: float):
    def change(line: str) -> str:
        key, _, value = line.partition(" = ")
        return f"{key} = {float(value) * factor:.6g}"
    return change


def set_field(col: int, value: str):
    def change(line: str) -> str:
        cells = line.split(",")
        cells[col] = value
        return ",".join(cells)
    return change


def drop_line(path: Path, n: int) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    del lines[n]
    path.write_text("\n".join(lines), encoding="utf-8")


# (workload, command index, file, mutation); rows count the header as line 0.
MUTATIONS = {
    "heat solution row": ("heat_artifacts", 0, "heat_solution.csv",
                          lambda p: edit_line(p, row(500), scale_field(2, 1.000001))),
    "heat V(0,0) line": ("heat_artifacts", 0, "heat_report.txt",
                         lambda p: edit_line(p, report_key("V(0,0)"), scale_report_value(1.001))),
    "heat value line": ("heat_artifacts", 1, "heat_report.txt",
                        lambda p: edit_line(p, report_key("value"), scale_report_value(1.001))),
    "heat terminal state": ("heat_artifacts", 1, "heat_paths.csv",
                            lambda p: edit_line(p, row(21), set_field(2, "10"))),
    "heat paths line dropped": ("heat_artifacts", 1, "heat_paths.csv", lambda p: drop_line(p, 7)),
    "desk A(0) row": ("desk_pipeline", 0, "desk_a_curve.csv",
                      lambda p: edit_line(p, row(1), scale_field(1, 1.000001))),
    "desk pi_hat line": ("desk_pipeline", 0, "desk_report.txt",
                         lambda p: edit_line(p, report_key("pi_hat"), scale_report_value(1.01))),
    "desk compare row": ("desk_pipeline", 0, "desk_compare.csv",
                         lambda p: edit_line(p, row(50), scale_field(1, 1.05))),
    "desk closed-form column": ("desk_pipeline", 0, "desk_compare.csv",
                                lambda p: edit_line(p, row(3), scale_field(2, 1.000001))),
    "verify PASS to FAIL": ("desk_pipeline", 1, "desk_verify.txt",
                            lambda p: edit_line(p, lambda i, line: " = PASS " in line,
                                                lambda line: line.replace("PASS", "FAIL"))),
    "verify checks_failed": ("desk_pipeline", 1, "desk_verify.txt",
                             lambda p: edit_line(p, report_key("checks_failed"),
                                                 lambda line: "checks_failed = 1")),
    "scenario candidates line": ("scenario_search", 0, "scenario_report.txt",
                                 lambda p: edit_line(p, report_key("n_schedules_searched"),
                                                     lambda line: "n_schedules_searched = 624")),
    "scenario value line": ("scenario_search", 0, "scenario_report.txt",
                            lambda p: edit_line(p, report_key("value"),
                                                scale_report_value(1.001))),
    "scenario terminal state": ("scenario_search", 0, "scenario_paths.csv",
                                lambda p: edit_line(p, row(21), set_field(2, "10"))),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_passes_on_real_artifacts(runs, name):
    cfg, dirs = runs[name]
    assert run_check(name, cfg, dirs) == []


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_check_fails_on_altered_artifact(runs, tmp_path, mutation):
    name, index, filename, mutate = MUTATIONS[mutation]
    cfg, dirs = runs[name]
    copies = [shutil.copytree(d, tmp_path / d.name) for d in dirs]
    mutate(copies[index] / filename)
    assert run_check(name, cfg, copies) != []
