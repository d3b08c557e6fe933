"""The benchmark's traced names resolve in the package.

perfbench/layers.py lists the functions a traced benchmark run rebinds, as
"module.func" keys of FUNCTIONS.  A deletion or rename in src/equivar that
drops one of them breaks the traced run, so each key is checked here by
reading that file (with ast, without importing it).
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _traced_names():
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets):
            return [ast.literal_eval(k) for k in node.value.keys]
    raise AssertionError(f"no FUNCTIONS dict in {LAYERS}")


def test_every_traced_name_resolves():
    names = _traced_names()
    assert names
    missing = []
    for name in names:
        mod, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"equivar.{mod}"), func, None)):
            missing.append(name)
    assert missing == []
