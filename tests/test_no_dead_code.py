"""Dead-code guard for the package.

Every top-level function and class of src/equivar/*.py, and every public
method of those classes, must be named somewhere in the package besides its
own definition.  The re-exports in __init__.py do not count as a use.  A
top-level name is matched by word boundary, so a name shared by two
definitions needs one more occurrence than it has definitions.  A method is
matched only by attribute use (`.name`), so a local variable or a keyword
argument of the same name does not keep it alive.  A dead chain (dead code
calling dead code) is not caught.
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
                candidates.append((f"{mod}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                candidates.extend(
                    (f"{mod}.{node.name}.{sub.name}", sub.name, True) for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))
    text = "\n".join(sources.values())

    def unused(name, method):
        if method:
            return re.search(rf"\.{re.escape(name)}\b", text) is None
        return len(re.findall(rf"\b{re.escape(name)}\b", text)) <= definitions[name]

    return sorted(key for key, name, method in candidates if unused(name, method))


def test_every_definition_has_a_use():
    assert [k for k in _unreferenced(_sources()) if k not in ALLOWED] == []


def test_allowlist_is_current():
    unused = set(_unreferenced(_sources()))
    assert [k for k in ALLOWED if k not in unused] == []


def test_guard_flags_an_unused_function():
    sources = dict(_sources(), extra="def never_called():\n    return 1\n")
    assert "extra.never_called" in _unreferenced(sources)


def test_guard_flags_a_method_named_only_as_a_word():
    extra = ("class Box:\n    def lonely(self):\n        return 1\n\n\n"
             "def f(lonely=2):\n    return Box(), lonely\n")
    assert "extra.Box.lonely" in _unreferenced(dict(_sources(), extra=extra))
    used = extra + "\n\ndef g(b):\n    return b.lonely()\n"
    assert "extra.Box.lonely" not in _unreferenced(dict(_sources(), extra=used))
