"""Dead-code guard for the package.

Every top-level function and class of src/equivar/*.py, and every public
method of those classes, must be named somewhere in the package besides its
own definition.  The re-exports in __init__.py do not count as a use, and
neither do string literals and comments: a name met only in a docstring, a
message or __all__ is unused.  A top-level name is matched by word boundary,
so a name shared by two definitions needs one more occurrence than it has
definitions.  A method is matched only by attribute use (`.name`), so a local
variable or a keyword argument of the same name does not keep it alive, and a
method name that N classes define needs N attribute uses.  A dead chain (dead
code calling dead code) is not caught.

Every name that a module (not __init__.py) imports must also be used in
that module's code, as a name or as the base of an attribute; an import
statement marked `# noqa: F401` is exempt.

The raw accumulator of superalg (its keys, the Koszul loop, finalize) stays
private to superalg: no other module of the package, __init__.py included,
imports a superalg name that starts with "_" or reads one as an attribute of
the superalg module, except _new_tuple, the term constructor.

A test that reads a private part of the Koszul loop must be ported whenever
the loop changes, so the test modules that name one (anywhere in their
text, strings and comments included) are listed in PRIVATE_READERS, each
with the names it reads and the reason.  A module or a name not listed
there fails the check, and so does a listed one that is no longer read.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "equivar"

# "module.name" or "module.Class.method" -> why it stays without a caller
ALLOWED = {}


def _sources():
    return {p.stem: p.read_text(encoding="utf-8")
            for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _code(text):
    """The tokens of text other than string literals and comments, joined by
    spaces."""
    skip = {tokenize.STRING, tokenize.COMMENT, getattr(tokenize, "FSTRING_MIDDLE", None)}
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return " ".join(t.string for t in tokens if t.type not in skip)


def _unreferenced(sources):
    definitions, methods = {}, {}
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
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        candidates.append((f"{mod}.{node.name}.{sub.name}", sub.name, True))
                        methods[sub.name] = methods.get(sub.name, 0) + 1
    text = "\n".join(_code(t) for t in sources.values())

    def unused(name, method):
        if method:
            return len(re.findall(rf"\.\s*{re.escape(name)}\b", text)) < methods[name]
        return len(re.findall(rf"\b{re.escape(name)}\b", text)) <= definitions[name]

    return sorted(key for key, name, method in candidates if unused(name, method))


def _unused_imports(sources):
    """"module.name" for each name a module imports and never uses."""
    unused = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        lines = text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{mod}.{name}")
    return sorted(unused)


# private superalg names that other modules may import
SHARED_PRIVATE = {"_new_tuple"}


def _private_superalg_uses(sources):
    """"module.name" for each private superalg name, other than those in
    SHARED_PRIVATE, that a module other than superalg imports or reads as
    superalg.name."""
    found = []
    for mod, text in sources.items():
        if mod == "superalg":
            continue
        for node in ast.walk(ast.parse(text)):
            names = []
            if isinstance(node, ast.ImportFrom) and node.module in ("superalg",
                                                                    "equivar.superalg"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "superalg":
                names = [node.attr]
            found += [f"{mod}.{n}" for n in names
                      if n.startswith("_") and n not in SHARED_PRIVATE]
    return sorted(found)


TESTS = Path(__file__).resolve().parent

# the private parts of superalg's loop and tables
SUPERALG_PRIVATES = ("_koszul", "_finalize", "_absorb", "_UNIT", "_NO_DELTA", "_exact",
                     "_odd_by_mask", "_u_frame")

# test module -> (the SUPERALG_PRIVATES it names, why it reads them)
PRIVATE_READERS = {
    "test_cli": ({"_absorb"},
                 "the no-absorption fault of the verify and index fault tables replaces "
                 "_absorb: no public function absorbs alone"),
    "test_jform": ({"_koszul", "_UNIT"},
                   "k + 1 Koszul calls per frame trial, the first from the unit, and an "
                   "unsigned Koszul loop as a fault (item 23's ledger replaces the count)"),
    "test_superalg": ({"_koszul", "_finalize", "_NO_DELTA", "_u_frame"},
                      "the fold tests record the raw accumulators of the Koszul loop and of "
                      "_finalize (item 23's ledger replaces the recorder); the reference "
                      "kernel reads each closed argument's frame slot, and term keys sort "
                      "with the no-delta key"),
}


def _private_readers(sources):
    """{module: the SUPERALG_PRIVATES that its text names} for each module
    of sources that names one, matched by word boundary."""
    found = {}
    for mod, text in sources.items():
        names = {n for n in SUPERALG_PRIVATES if re.search(rf"\b{n}\b", text)}
        if names:
            found[mod] = names
    return found


def _test_sources():
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))
            if p.name != Path(__file__).name}


def test_tests_read_superalg_privates_only_where_listed():
    assert _private_readers(_test_sources()) == \
        {mod: names for mod, (names, _) in PRIVATE_READERS.items()}


def test_guard_flags_a_new_private_reader():
    extra = ("from equivar import superalg\n\n\n"
             "def test_x(monkeypatch):\n    monkeypatch.setattr(superalg, \"_exact\", int)\n")
    assert _private_readers(dict(_test_sources(), test_extra=extra))["test_extra"] == {"_exact"}
    jform = _test_sources()["test_jform"] + "\n# m._odd_by_mask\n"
    assert _private_readers({"test_jform": jform})["test_jform"] == \
        {"_koszul", "_UNIT", "_odd_by_mask"}
    assert _private_readers({"test_x": "real_koszul = recorded_finalize\n"}) == {}


def _package_sources():
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_superalg_keeps_its_accumulator_private():
    assert _private_superalg_uses(_package_sources()) == []


def test_guard_flags_a_private_superalg_import():
    extra = ("from . import superalg\n"
             "from .superalg import _koszul, _new_tuple, fold\n"
             "from equivar.superalg import _NO_DELTA\n\n\n"
             "def f(acc, m):\n    return superalg._finalize(acc, m), superalg.multiply\n")
    assert _private_superalg_uses(dict(_package_sources(), extra=extra)) == \
        ["extra._NO_DELTA", "extra._finalize", "extra._koszul"]
    public = ("from .superalg import Term, _new_tuple\n\n"
              "ONE = _new_tuple(Term, (1, None, (), ()))\n")
    assert _private_superalg_uses(dict(_package_sources(), extra=public)) == []


def test_every_import_has_a_use():
    assert _unused_imports(_sources()) == []


def test_guard_flags_an_unused_import():
    extra = ("import json\nfrom fractions import Fraction\n"
             "from .superalg import add  # noqa: F401\n\n\n"
             "def f(x):\n    return json.dumps(x)\n")
    assert _unused_imports(dict(_sources(), extra=extra)) == ["extra.Fraction"]
    used = extra + "\n\nHALF = Fraction(1, 2)\n"
    assert _unused_imports(dict(_sources(), extra=used)) == []


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


def test_guard_counts_a_method_name_once_per_class():
    extra = ("class Left:\n    def shared(self):\n        return 1\n\n\n"
             "class Right:\n    def shared(self):\n        return 2\n\n\n"
             "def f():\n    return Left().shared()\n")
    unused = _unreferenced(dict(_sources(), extra=extra))
    assert {"extra.Left.shared", "extra.Right.shared"} <= set(unused)
    used = extra + "\n\ndef g():\n    return Right().shared()\n"
    unused = _unreferenced(dict(_sources(), extra=used))
    assert not {"extra.Left.shared", "extra.Right.shared"} & set(unused)


def test_guard_flags_a_name_met_only_in_strings_and_comments():
    extra = ('"""helper() is named in this docstring."""\n\n__all__ = ["helper"]\n\n\n'
             "def helper():  # helper\n    return 1\n")
    assert "extra.helper" in _unreferenced(dict(_sources(), extra=extra))
    used = extra + "\n\nVALUE = helper()\n"
    assert "extra.helper" not in _unreferenced(dict(_sources(), extra=used))
