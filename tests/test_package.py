"""The package's public names resolve, and its modules import only numpy, the standard
library and gctrl itself (numpy is the one declared runtime dependency)."""

import ast
import sys
from pathlib import Path

import gctrl


def test_every_public_name_resolves():
    assert len(set(gctrl.__all__)) == len(gctrl.__all__)
    assert [name for name in gctrl.__all__ if not hasattr(gctrl, name)] == []


def test_modules_import_only_numpy_the_standard_library_and_gctrl():
    allowed = {"numpy", "gctrl", *sys.stdlib_module_names}
    outside = []
    for path in sorted(Path(gctrl.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []
