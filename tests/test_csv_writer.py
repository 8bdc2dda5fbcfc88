"""The CSV writer that formats contiguous ranges of a table's blocks in forked workers."""

import dataclasses
import os
import signal
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
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


def _g17_corpus() -> np.ndarray:
    """Values ``format_g17`` must render as Python's ``%`` does, fast path and fallback alike."""
    rng = np.random.default_rng(17)
    parts = [rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)]
    # Random bits under every exponent of the fixed notation, 1e-4 to 1e17.
    exponents = rng.integers(1023 - 15, 1023 + 58, 20_000, dtype=np.uint64)
    mantissas = rng.integers(0, 2**53, 20_000, dtype=np.uint64)  # bit 52 picks the sign
    parts.append(((mantissas >> np.uint64(52) << np.uint64(63)) | exponents << np.uint64(52)
                  | mantissas & np.uint64(2**52 - 1)).view(np.float64))
    # Powers of ten from 1e-6 to 1e18 and their three neighbours on either side.
    for p in range(-6, 19):
        up = down = 10.0 ** p
        parts.append([up, -up])
        for _ in range(3):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            parts.append([up, down, -up, -down])
    # Exact ties m * 2**-k: 18 significant digits, the last a 5, where the %g exponent is
    # 17 - k and m is odd and below 2**53; other multiples of 2**-k where there are none.
    for k in range(1, 23):
        lo = (2**k * 10**(17 - k) if k <= 17 else -(-2**k // 10**(k - 17)))
        hi = min(lo * 10, 2**53)
        m = (rng.integers(lo, hi, 2_000) | 1) if lo < hi else rng.integers(1, 2**53, 2_000)
        parts.append(np.ldexp(m.astype(np.float64), -k))
    parts.append([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  np.inf, -np.inf, np.nan, -np.nan, 1e-4, 9.9999999999999995e-5, 1e16, 1e17,
                  99999999999999999.0, 0.5, 2.5, -1.5, 0.1, 1.0 / 3.0])
    return np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])


def test_format_g17_is_percent_g17_byte_for_byte():
    values = _g17_corpus()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # log10 and the casts stay quiet on 0, inf and nan
        texts = sde.format_g17(values)
        assert sde.format_g17([]) == [] and sde.format_g17(np.array([-0.25])) == [b"-0.25"]
        assert sde._g17_slice(np.array([-0.25])) == [b"-0.25"]
    assert len(texts) == values.size
    wrong = [(v, t) for v, t in zip(values.tolist(), texts) if t != b"%.17g" % v]
    assert not wrong, wrong[:5]
    # The thresholds between decades are exact: the least doubles at or above 10**k.
    for k, ten in zip(range(-5, 19), sde._TENS.tolist()):
        assert Fraction(np.nextafter(ten, 0.0)) < Fraction(10)**k <= Fraction(ten)


def test_split_writes_match_across_batches_and_ranges(tmp_path, monkeypatch, usable_cpus):
    from test_golden_artifacts import EDGE, _reference_bundle_csv

    # Thirty paths of 82 values: batches of twelve paths and two ranges of fifteen split the
    # table mid-way, and the fallback's edge values sit in an array batch of each range.
    monkeypatch.setattr(sde, "FORMAT_SLICE", 1000)
    monkeypatch.setattr(sde, "MIN_RANGE_VALUES", 1000)
    rng = np.random.default_rng(9)
    states = rng.standard_normal((30, 41, 2)) * np.logspace(-5, 17, 41)[:, None]
    states[1, :EDGE.size, 0] = EDGE
    states[20, -EDGE.size:, 1] = EDGE[::-1]
    bundle = sde.PathBundle(times=np.linspace(0.0, 1.0, 41), states=states)
    written = {}
    for cpus in (1, 2):
        usable_cpus(cpus)
        table = sde.bundle_csv_chunks(bundle)
        assert sde._range_count(table) == cpus
        sde.write_csv(tmp_path / f"paths{cpus}.csv", table)
        written[cpus] = (tmp_path / f"paths{cpus}.csv").read_bytes()
        _assert_no_child_left()
    assert written[1] == written[2] == _reference_bundle_csv(bundle).encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["paths1.csv", "paths2.csv"]
