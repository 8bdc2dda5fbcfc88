"""The benchmark's traced pass names functions of gctrl; each name must still resolve,
and the pass must run every command to a finite value of every per-layer metric."""

import importlib
import importlib.util
import json
import math
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_to_a_callable():
    layers = _layers()
    missing = [f"{module}.{name}" for module, name in layers.TRACED
               if not callable(getattr(importlib.import_module(f"gctrl.{module}"), name, None))]
    assert missing == []
    assert set(layers.WORK) <= {f"{module}.{name}" for module, name in layers.TRACED}


def test_traced_pass_runs_every_command(tmp_path):
    # WORK reads the traced functions' arguments by name, so a renamed
    # parameter fails here rather than in the benchmark's traced pass.
    import gctrl.cli
    from test_golden_artifacts import DESK, HEAT

    layers = _layers()
    tracer = layers.Tracer()
    codes = {}
    start = time.perf_counter()
    with layers.installed(tracer):
        for k, (command, config) in enumerate((("solve-hjb", HEAT), ("simulate", HEAT),
                                               ("merton", DESK), ("verify", DESK))):
            cfg_path = tmp_path / f"{k}.cfg"
            cfg_path.write_text(config, encoding="utf-8")
            codes[command] = gctrl.cli.main([command, "--config", str(cfg_path),
                                             "--output", str(tmp_path / f"{k}-{command}")])
    metrics = layers.layer_metrics(tracer, time.perf_counter() - start)
    # verify may exit 1: some of its checks fail on the coarse 21-node desk grid.
    assert max(codes.values()) < 2, codes
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert [m["name"] for m in per_layer if not math.isfinite(metrics[m["name"]])] == []
    assert {"hjb.solve", "merton.solve_A"} <= {span.name for span in tracer.spans}
