"""The benchmark's traced pass names functions of gctrl; each name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


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
