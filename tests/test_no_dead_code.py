"""Dead-code guard for the package.

Every top-level function and class of src/equivar/*.py, and every public
method of those classes, must be named somewhere in the package besides its
own definition.  The re-exports in __init__.py do not count as a use.  The
match is by word boundary, so a name shared by two definitions needs one
more occurrence than it has definitions; a dead chain (dead code calling
dead code) is not caught.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "equivar"

# "module.name" or "module.Class.method" -> why it stays without a caller
ALLOWED = {
    "randmodels.random_model": "seeded generator of random models for the property tests",
    "randmodels.random_element": "seeded generator of random elements for the property tests",
    "superalg.FormalModel.parity_of_term": "term parity read by the Koszul sign tests",
    "superalg.FormalModel.term_degree": "form degree of a term read by the truncation tests",
}


def _sources():
    return {p.stem: p.read_text(encoding="utf-8")
            for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _unreferenced(sources):
    definitions = {}
    candidates = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[node.name] = definitions.get(node.name, 0) + 1
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                candidates.append((f"{mod}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                candidates.extend(
                    (f"{mod}.{node.name}.{sub.name}", sub.name) for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))
    text = "\n".join(sources.values())
    return sorted(key for key, name in candidates
                  if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= definitions[name])


def test_every_definition_has_a_use():
    assert [k for k in _unreferenced(_sources()) if k not in ALLOWED] == []


def test_allowlist_is_current():
    unused = set(_unreferenced(_sources()))
    assert [k for k in ALLOWED if k not in unused] == []


def test_guard_flags_an_unused_function():
    sources = dict(_sources(), extra="def never_called():\n    return 1\n")
    assert "extra.never_called" in _unreferenced(sources)
