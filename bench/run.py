"""End-to-end benchmark of the gctrl CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; gctrl is imported from ``src/``.
With ``--trace 0`` each workload's CLI commands run as fresh interpreters
and only spawn-to-exit is timed; with ``--trace 1`` the same commands run
in this process with every layer's public functions wrapped in spans (see
layers.py).  Either way rounds of the workload repeat until ``--seconds``
have passed, every round's outputs are checked against values computed
apart from gctrl (see checks.py), and the last line printed is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metric names and units are those of BENCHMARK.json.  The
lines before it record the machine and every round.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Each workload: its commands in order (command, config), and its output check.
WORKLOADS = {
    "heat_artifacts": (
        (("solve-hjb", "configs/heat.cfg"), ("simulate", "configs/heat.cfg")),
        checks.check_heat,
    ),
    "desk_pipeline": (
        (("merton", "configs/desk.cfg"), ("verify", "configs/desk.cfg")),
        checks.check_desk,
    ),
    "scenario_search": (
        (("simulate", "bench/scenario.cfg"),),
        checks.check_scenario,
    ),
}

# Interpreter launches behind the setup_s median, as (before the rounds, after
# them), so that they sample the whole run as wall_s does.
SETUP_LAUNCHES = (5, 4)
SETUP_CODE = ("import sys, gctrl.cli, gctrl.config; "
              "gctrl.config.parse_config(sys.argv[1])")
# The whole run, set-up and checks included, stays inside this many seconds.
RUN_BUDGET_S = 170.0


def child_env() -> dict:
    """Environment of every command: gctrl from src/, default serial search."""
    env = dict(os.environ)
    env.pop("GCTRL_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_spawn(argv: list, env: dict, err_path: Path, deadline: float) -> tuple:
    """Run argv to completion: (wall seconds, peak RSS in MiB, exit code).

    The peak resident set comes from wait4 on this child alone; the clock
    runs from just before the spawn to just after the child is reaped.
    """
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def report_failure(what: str, err_path: Path) -> None:
    tail = err_path.read_text(errors="replace")[-2000:] if err_path.exists() else ""
    print(f"{what} failed\n{tail}", file=sys.stderr)


def setup_time(config: str, count: int, env: dict, work_dir: Path, deadline: float) -> list:
    """Seconds to start an interpreter, import gctrl.cli and parse the config."""
    samples = []
    for i in range(count):
        err = work_dir / f"setup{i}.err"
        wall, _, code = timed_spawn([sys.executable, "-c", SETUP_CODE, str(ROOT / config)],
                                    env, err, deadline)
        if code != 0:
            report_failure("set-up launch", err)
            raise SystemExit(3)
        samples.append(wall)
    return samples


def command_argv(command: str, config: str, out_dir: Path, seed: int) -> list:
    return [command, "--config", str(ROOT / config), "--output", str(out_dir),
            "--seed", str(seed)]


def run_round(commands, seed: int, round_dir: Path, env: dict, deadline: float) -> list:
    """Every command as a fresh interpreter, each into its own output directory."""
    results = []
    for k, (command, config) in enumerate(commands):
        out_dir = round_dir / f"{k}-{command}"
        err = round_dir / f"{k}-{command}.err"
        argv = [sys.executable, "-m", "gctrl.cli"] + command_argv(command, config, out_dir, seed)
        wall, rss, code = timed_spawn(argv, env, err, deadline)
        if code != 0:
            report_failure(f"{command} (exit {code})", err)
        results.append({"command": command, "wall_s": wall, "peak_rss_mb": rss,
                        "exit": code, "out": out_dir})
    return results


def run_round_traced(commands, seed: int, round_dir: Path) -> tuple:
    """The same commands in this process, under the layer tracer."""
    import gctrl.cli
    import layers

    tracer = layers.Tracer()
    results = []
    start = time.perf_counter()
    with layers.installed(tracer), open(os.devnull, "w") as sink:
        for k, (command, config) in enumerate(commands):
            out_dir = round_dir / f"{k}-{command}"
            try:
                with contextlib.redirect_stdout(sink):
                    code = gctrl.cli.main(command_argv(command, config, out_dir, seed))
            except Exception:
                traceback.print_exc()
                code = -1
            if code != 0:
                print(f"{command} (exit {code}) failed", file=sys.stderr)
            results.append({"command": command, "exit": code, "out": out_dir})
    wall = time.perf_counter() - start
    return results, layers.layer_metrics(tracer, wall)


def check_round(name: str, results: list) -> list:
    """Problems found in the outputs of a round whose commands all exited 0."""
    commands, check = WORKLOADS[name]
    if any(r["exit"] != 0 for r in results):
        return []
    cfg = checks.read_config(ROOT / commands[0][1])
    try:
        return check(cfg, *(r["out"] for r in results))
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    commands, _ = WORKLOADS[args.workload]
    missing = [c for _, c in commands if not (ROOT / c).is_file()]
    if not (SRC / "gctrl" / "cli.py").is_file() or missing:
        print(f"gctrl sources or configs not found under {ROOT}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    try:
        if args.trace:
            os.environ.pop("GCTRL_THREADS", None)
            sys.path.insert(0, str(SRC))
        else:
            setup = setup_time(commands[0][1], SETUP_LAUNCHES[0], env, run_dir, deadline)

        rounds, layer_rounds, problems = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            round_dir = run_dir / f"round{len(rounds)}"
            round_dir.mkdir()
            if args.trace:
                results, layer = run_round_traced(commands, args.seed, round_dir)
                layer_rounds.append(layer)
            else:
                results = run_round(commands, args.seed, round_dir, env, deadline)
            found = check_round(args.workload, results)
            shutil.rmtree(round_dir)
            attempted += len(results)
            failed += sum(r["exit"] != 0 for r in results)
            problems += found
            rounds.append(results)
            print(json.dumps({"round": len(rounds) - 1, "problems": found, "commands": [
                {k: v for k, v in r.items() if k != "out"} for r in results]}))
        if not args.trace:
            setup += setup_time(commands[0][1], SETUP_LAUNCHES[1], env, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        values = {name: statistics.median(r[name] for r in layer_rounds)
                  for name in layer_rounds[0]}
    else:
        values = {
            "wall_s": statistics.median(sum(r["wall_s"] for r in rs) for rs in rounds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(max(r["peak_rss_mb"] for r in rs) for rs in rounds),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
