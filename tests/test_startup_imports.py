"""Start-up guard: a fresh interpreter that imports equivar.cli loads none of
the standard modules below.  Every CLI call pays its own start-up, and
`dataclasses` alone pulls in inspect, ast, dis and tokenize (about 10 ms),
plus an exec per decorated class.  The child runs with -S, so that no site
hook (a .pth file importing importlib.resources, say) loads one first."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("dataclasses", "importlib.resources", "inspect")


def _heavy_after(prelude):
    """The HEAVY modules in sys.modules of a fresh `python -S` after it runs
    prelude and imports equivar.cli."""
    code = (f"{prelude}\nimport sys\nimport equivar.cli\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.split()


def test_cli_import_loads_no_heavy_module():
    assert _heavy_after("") == []


def test_guard_flags_a_heavy_import():
    assert _heavy_after("import dataclasses") == ["dataclasses", "inspect"]
