"""Dead-code guard for the package.

Every top-level function and class of src/equivar/*.py, and every public
method of those classes, must be named somewhere in the package besides its
own definition.  String literals and comments do not count as a use: a name
met only in a docstring, a message or __all__ is unused.  A top-level name is
matched by word boundary, so a name shared by two definitions needs one more
occurrence than it has definitions.  A method is matched only by attribute
use (`.name`), so a local variable or a keyword argument of the same name does
not keep it alive, and a method name that N classes define needs N attribute
uses.  A dead chain (dead
code calling dead code) is not caught.

Every name that a module of the package, of tests/, of perfbench/ or of
perfbench/tests/ imports must also be used in that module's code, as a name
or as the base of an attribute; an import statement marked `# noqa: F401` is
exempt.  __init__.py re-exports nothing but INIT_IMPORTS: every test and
perfbench module imports the submodule it uses.

The oracle module is walled off from the engine it checks: oracles.py
imports only from ORACLE_IMPORTS and nothing of the package, and no module
of the package other than characters imports it.  An oracle that called the
localization or the expansion would pass every comparison with the engine.

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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "equivar"

# "module.name" or "module.Class.method" -> why it stays without a caller
ALLOWED = {"cli._Parser.error": "argparse calls it on every error it finds in argv"}


def _sources():
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


# the directories whose modules the unused-import check reads
IMPORT_DIRS = ("src/equivar", "tests", "perfbench", "perfbench/tests")


def _import_sources():
    """{"dir/stem": text} for every module of IMPORT_DIRS."""
    return {f"{d}/{p.stem}": p.read_text(encoding="utf-8")
            for d in IMPORT_DIRS for p in sorted((ROOT / d).glob("*.py"))}


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
                 "the no-absorption fault of the verify fault table replaces _absorb: no "
                 "public function absorbs alone"),
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


def test_superalg_keeps_its_accumulator_private():
    assert _private_superalg_uses(_sources()) == []


def test_guard_flags_a_private_superalg_import():
    extra = ("from . import superalg\n"
             "from .superalg import _koszul, _new_tuple, fold\n"
             "from equivar.superalg import _NO_DELTA\n\n\n"
             "def f(acc, m):\n    return superalg._finalize(acc, m), superalg.multiply\n")
    assert _private_superalg_uses(dict(_sources(), extra=extra)) == \
        ["extra._NO_DELTA", "extra._finalize", "extra._koszul"]
    public = ("from .superalg import Term, _new_tuple\n\n"
              "ONE = _new_tuple(Term, (1, None, (), ()))\n")
    assert _private_superalg_uses(dict(_sources(), extra=public)) == []


def test_every_import_has_a_use():
    assert _unused_imports(_import_sources()) == []


def test_guard_reads_the_imports_of_tests_and_perfbench():
    sources = _import_sources()
    assert {key.rpartition("/")[0] for key in sources} == set(IMPORT_DIRS)
    for key in ("tests/test_genco", "perfbench/run", "perfbench/tests/test_bench_spans"):
        assert _unused_imports({key: "import colorsys\n" + sources[key]}) == \
            [f"{key}.colorsys"], key


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


# the only modules that oracles.py may import from
ORACLE_IMPORTS = {"fractions", "itertools", "math"}


def _imported(text):
    """The absolute name of each module that text imports; a relative import
    in a package module names a module of equivar."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("equivar" if node.level else "", node.module)))
            if module == "equivar":  # from . import x, from equivar import x
                yield from (f"equivar.{alias.name}" for alias in node.names)
            else:
                yield module


def _oracle_wall_breaches(sources):
    """"oracles imports X" for each module X that oracles.py imports outside
    ORACLE_IMPORTS, and "M imports oracles" for each package module M other
    than characters that imports oracles.py."""
    found = []
    for mod, text in sources.items():
        for name in _imported(text):
            if mod == "oracles" and name.partition(".")[0] not in ORACLE_IMPORTS:
                found.append(f"oracles imports {name}")
            elif mod not in ("oracles", "characters") and name == "equivar.oracles":
                found.append(f"{mod} imports oracles")
    return sorted(found)


def test_oracles_cannot_see_the_engine():
    assert "oracles" in _sources()
    assert _oracle_wall_breaches(_sources()) == []


def test_guard_flags_an_oracle_that_imports_the_engine():
    oracles = _sources()["oracles"]
    for line, breach in (("from .laurent import expand_box", "equivar.laurent"),
                         ("from . import laurent", "equivar.laurent"),
                         ("from equivar.laurent import expand_box", "equivar.laurent"),
                         ("import equivar.laurent", "equivar.laurent"),
                         ("import equivar", "equivar"),
                         ("import json", "json")):
        sources = dict(_sources(), oracles=f"{line}\n{oracles}")
        assert _oracle_wall_breaches(sources) == [f"oracles imports {breach}"], line
    sources = dict(_sources(), oracles="from math import comb\nfrom fractions import Fraction\n"
                                       "from itertools import product\n" + oracles)
    assert _oracle_wall_breaches(sources) == []


def test_guard_flags_an_engine_module_that_imports_the_oracles():
    for line in ("from .oracles import hrr_cp1_oracle", "from . import oracles",
                 "import equivar.oracles", "from equivar import oracles"):
        sources = dict(_sources(), laurent=f"{line}\n{_sources()['laurent']}")
        assert _oracle_wall_breaches(sources) == ["laurent imports oracles"], line


# the names that __init__.py imports -> why each stays
INIT_IMPORTS = {"add": "perfbench/tests/test_bench_spans.py checks that the traced superalg.add "
                       "is bound as equivar.add too (perfbench is changed only by a benchmark "
                       "change)"}


def _imported_names(text):
    return sorted(alias.asname or alias.name for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names)


def test_package_init_re_exports_only_what_perfbench_reads():
    assert _imported_names(_sources()["__init__"]) == sorted(INIT_IMPORTS)


def test_guard_flags_a_re_export():
    init = _sources()["__init__"] + "\nfrom .characters import EXAMPLES, run_pipeline\n"
    assert _imported_names(init) == ["EXAMPLES", "add", "run_pipeline"]
