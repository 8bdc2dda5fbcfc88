"""The CSV writer that formats contiguous ranges of a table's blocks in forked workers."""

import dataclasses
import os
import signal
from pathlib import Path

import pytest

from gctrl import cli, hjb, sde
from gctrl.ambiguity import AmbiguitySet
from gctrl.config import parse_config_text

HEAT = (Path(__file__).resolve().parents[1] / "configs" / "heat.cfg").read_text("utf-8")
SET = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=1.0)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _heat_201():
    return parse_config_text(HEAT.replace("n_x = 401", "n_x = 201"))


def _recording_solution_table(monkeypatch) -> list:
    """Makes ``cli.solution_csv_chunks`` record the solutions it is given."""
    seen = []

    def recording(solution):
        seen.append(solution)
        return hjb.solution_csv_chunks(solution)

    monkeypatch.setattr(cli, "solution_csv_chunks", recording)
    return seen


def test_range_count_follows_the_table_size(usable_cpus):
    usable_cpus(8)
    n = sde.MIN_RANGE_VALUES

    def table(n_blocks, n_values):
        return sde.CsvTable("h", n_blocks, lambda i: ("", [], []), n_values)

    assert sde._range_count(table(1, 100 * n)) == 1  # one block: a single range
    assert sde._range_count(table(1000, 2 * n - 1)) == 1
    assert sde._range_count(table(1000, 2 * n)) == 2
    assert sde._range_count(table(3, 100 * n)) == 3
    assert sde._range_count(table(1000, 100 * n)) == 8
    usable_cpus(1)
    assert sde._range_count(table(1000, 100 * n)) == 1


@pytest.mark.parametrize("cpus", [3, 1])
def test_split_artifacts_equal_the_joined_text(tmp_path, monkeypatch, usable_cpus, cpus):
    usable_cpus(cpus)
    seen = _recording_solution_table(monkeypatch)
    cli.run_command("solve-hjb", _heat_201(), tmp_path, force=False)
    table = hjb.solution_csv_chunks(seen[0])
    assert sde._range_count(table) == min(cpus, 2)  # 125,826 values
    assert (tmp_path / "heat_solution.csv").read_text("utf-8") == hjb.solution_csv_text(seen[0])

    bundle = sde.sample_gbm(SET, sde.VolSchedule.constant(1.0),
                            sde.PathConfig(n_steps=100, horizon=1.0, n_paths=2000, seed=5))
    assert sde._range_count(sde.bundle_csv_chunks(bundle)) == cpus
    cli._write_text(tmp_path / "paths.csv", sde.bundle_csv_chunks(bundle))
    assert (tmp_path / "paths.csv").read_text("utf-8") == sde.bundle_csv_text(bundle)

    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "heat_report.txt", "heat_solution.csv", "heat_solution_meta.txt", "paths.csv"]
    _assert_no_child_left()


TEST_PID = os.getpid()


def _kill_self():
    assert os.getpid() != TEST_PID, "the failing block must run in a worker"
    os.kill(os.getpid(), signal.SIGKILL)


def _interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("where, failure, error", [
    pytest.param("last", _kill_self, RuntimeError, id="worker-killed"),
    pytest.param("last", _interrupt, RuntimeError, id="worker-raises"),
    pytest.param("first", _interrupt, KeyboardInterrupt, id="parent-interrupted"),
])
def test_a_failing_range_leaves_the_directory_as_it_was(tmp_path, monkeypatch, usable_cpus, where,
                                                        failure, error):
    usable_cpus(2)
    out = tmp_path / "out"
    cli.run_command("solve-hjb", _heat_201(), out, force=False)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_table(solution):
        table = hjb.solution_csv_chunks(solution)
        fail_at = table.n_blocks - 1 if where == "last" else 1

        def block(i):
            if i == fail_at:
                failure()
            return table.block(i)

        return dataclasses.replace(table, block=block)

    monkeypatch.setattr(cli, "solution_csv_chunks", failing_table)
    # Another horizon changes every artifact, so one published ahead of the failure would show;
    # a longer one keeps the solution large enough to split.
    cfg = _heat_201()
    longer = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, horizon=2.0))
    with pytest.raises(error):
        cli.run_command("solve-hjb", longer, out, force=True)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    _assert_no_child_left()

    fresh = tmp_path / "fresh"
    with pytest.raises(error):
        cli.run_command("solve-hjb", cfg, fresh, force=False)
    assert list(fresh.iterdir()) == []
    _assert_no_child_left()
