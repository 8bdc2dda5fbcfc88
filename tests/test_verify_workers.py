"""`verify`'s two check groups side by side, and the forked workers every command may start."""

import hashlib
import os
import signal
import time
from pathlib import Path

import pytest
from test_config_cli import DESK_CONFIG, GHEAT_CONFIG, _write

from gctrl import verify
from gctrl.cli import main
from gctrl.errors import NumericError

DESK_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "desk.cfg")
# desk_verify.txt of configs/desk.cfg at seed 7, as the checks wrote it in one sequence.
DESK_VERIFY_SHA256 = "c8c3bf649d1aad3f51734b0ce7996b0800393b9b60a20903bff828045725493c"

FAST_DESK = (DESK_CONFIG.replace("n_x = 201", "n_x = 101").replace("x_min = 0.4", "x_min = 0.5")
             .replace("x_max = 2.4", "x_max = 2.0").replace("n_paths = 1500", "n_paths = 50")
             .replace("n_steps = 150", "n_steps = 10"))

TEST_PID = os.getpid()


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_worker(fn):
    """``fn`` as a stand-in that must run in a forked worker."""
    def wrapped(*args, **kwargs):
        assert os.getpid() != TEST_PID, "the market-free checks must run in a worker"
        return fn()
    return wrapped


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_bytes_do_not_depend_on_the_cpu_count(tmp_path, usable_cpus, cpus):
    usable_cpus(cpus)
    assert main(["verify", "--config", DESK_CFG, "--seed", "7", "--output", str(tmp_path)]) == 0
    text = (tmp_path / "desk_verify.txt").read_bytes()
    assert hashlib.sha256(text).hexdigest() == DESK_VERIFY_SHA256
    _assert_no_child_left()


def _numeric_error():
    raise NumericError("market-free check failed at time level 3")


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_numeric_error_in_the_worker_exits_3_with_its_message(tmp_path, monkeypatch, usable_cpus,
                                                               capsys):
    usable_cpus(2)
    monkeypatch.setattr(verify, "check_homogeneity", _in_worker(_numeric_error))
    out = tmp_path / "out"
    assert main(["verify", "--config", _write(tmp_path, "desk.cfg", FAST_DESK),
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical error: market-free check failed at time level 3\n")
    assert not (out / "desk_verify.txt").exists()
    _assert_no_child_left()


def test_a_killed_worker_raises_runtime_error(tmp_path, monkeypatch, usable_cpus):
    usable_cpus(2)
    monkeypatch.setattr(verify, "check_subadditivity", _in_worker(_killed))
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="status -9"):
        main(["verify", "--config", _write(tmp_path, "desk.cfg", FAST_DESK), "--output", str(out)])
    assert not (out / "desk_verify.txt").exists()
    _assert_no_child_left()


def test_an_interrupt_in_the_parent_kills_and_reaps_the_worker(tmp_path, monkeypatch, usable_cpus):
    usable_cpus(2)
    # The worker would take a minute; the interrupt must not wait for it.
    monkeypatch.setattr(verify, "check_subadditivity", _in_worker(lambda: time.sleep(60)))

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "evaluate_policy_mc", interrupted)
    out = tmp_path / "out"
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--config", _write(tmp_path, "desk.cfg", FAST_DESK), "--output", str(out)])
    assert time.perf_counter() - start < 30.0
    assert not (out / "desk_verify.txt").exists()
    _assert_no_child_left()


def test_no_command_leaves_a_process_behind(tmp_path, usable_cpus):
    usable_cpus(2)
    # The solution (401 nodes x 301 levels) and the paths (3000 x 201) are split in two ranges.
    gheat = _write(tmp_path, "gheat.cfg", GHEAT_CONFIG.replace("[solver]", "[solver]\nn_t = 300"))
    desk = _write(tmp_path, "desk.cfg", FAST_DESK)
    for command, cfg_path in (("solve-hjb", gheat), ("merton", desk), ("simulate", gheat),
                              ("verify", desk)):
        assert main([command, "--config", cfg_path, "--output", str(tmp_path / command)]) == 0
        _assert_no_child_left()
