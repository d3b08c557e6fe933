"""The exit-code contract under a seeded fuzzer.

Each case is a built-in or golden model document with one or two
mutations.  Structural mutations delete a key or a list entry, give a value
another JSON type, or duplicate a list entry; value mutations keep the
document's shape and put a value of the same type in one place (a number, a
rational, a name of the model, an expression over its names, an exponent past
the int/str digit limit), so that a fair share of the cases reach the engine.
verify and render run on every case, in process, under a per-case time
limit.  The exit code is 0, 1 or 2; no exception escapes main; exit 2 prints
one "error:" line and nothing on stdout; exit 1 comes only from a verify
whose report has a failing entry.  A case over the time limit is a defect,
not a case to drop.

A second arm runs index on every example with --twist and --max-degree
drawn from a pool of small and huge ints, under the same contract: every
case ends within the time limit, since each example bounds its work before
it starts.  An int past the int/str digit limit is refused by argparse,
whose exit 2 prints its usage and then one "equivar index: error:" line.
Every error line of that arm is under 200 characters: no flag is echoed
whole.
"""

import copy
import json
import random
import signal
from importlib import resources
from pathlib import Path

from equivar.characters import EXAMPLES
from equivar.cli import main
from equivar.modelfile import builtin_names

SEED = 1729
CASES = 400
TIME_LIMIT_S = 10
GOLDEN_MODELS = Path(__file__).parent / "golden" / "models"

# the int/str conversion limit of CPython (sys.get_int_max_str_digits)
_PAST_LIMIT = "9" * 4301


def _sources():
    docs = [json.loads(resources.files("equivar").joinpath("models", f"{name}.json")
                       .read_text(encoding="utf-8")) for name in builtin_names()]
    docs += [json.loads(p.read_text(encoding="utf-8"))
             for p in sorted(GOLDEN_MODELS.glob("*.json"))]
    return docs


def _places(node, path=()):
    """Every path into the document but the root's."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _places(child, path + (key,))


def _names(doc):
    """The parameter and generator names that the mutations so far left."""
    params, gens = doc.get("parameters"), doc.get("generators")
    names = list(params) if isinstance(params, list) else []
    names += [g.get("name") for g in gens if isinstance(g, dict)] if isinstance(gens, list) else []
    return [n for n in names if isinstance(n, str)] or ["X"]


_EXPRESSION_KEYS = {"dTable", "iotaTable", "split"}
_RATIONALS = ("0", "1", "-1", "2", "1/2", "-1/2", "-3/4", "1/0")


def _kind(old, path):
    """How a value mutation reads the leaf old at path."""
    if isinstance(old, bool):
        return "bool"
    if isinstance(old, int):
        return "number"
    if _EXPRESSION_KEYS.intersection(path[:-1]):
        return "expression"
    if old.lstrip("-").replace("/", "").isdigit():
        return "rational"
    return "word"


def _value(rng, old, path, doc):
    """A value of old's JSON type for the leaf at path: an expression in
    the tables and splits, a rational where old reads as one, a name of the
    model or a word of the format elsewhere."""
    kind = _kind(old, path)
    if kind == "bool":
        return not old
    if kind == "number":
        return rng.choice((0, 1, -1, 2, 3, 5, 16, old + 1, old - 1, int("9" * 4000)))
    if kind == "rational":
        return rng.choice(_RATIONALS)
    a, b = rng.choice(_names(doc)), rng.choice(_names(doc))
    if kind == "expression":
        return rng.choice((a, f"{a}*{b}", f"{a} + {b}", f"-3/4*{a}*{b}",
                           f"{a}^{rng.randint(0, 9)}", f"{a}^{_PAST_LIMIT}",
                           f"{a}^{_PAST_LIMIT[1:]}", *_RATIONALS, "", "$"))
    return rng.choice((a, "positive", "negative", "odd", "even", "frameForm",
                       "closedArgument", "circle", "isolatedPoint"))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(rng, doc):
    """One mutation in place; its description.  A value mutation changes a
    number or a string, three times in four one that is not a word."""
    places = list(_places(doc))
    roll = rng.random()
    if roll < 0.1:
        path = rng.choice(places)
        del _at(doc, path[:-1])[path[-1]]
        return f"delete {path}"
    if roll < 0.2:
        path = rng.choice(places)
        old = _at(doc, path)
        _at(doc, path[:-1])[path[-1]] = rng.choice(
            [v for v in (None, True, 7, "x", [], {}) if type(v) is not type(old)])
        return f"retype {path}"
    if roll < 0.3:
        entries = [p for p in places if isinstance(_at(doc, p[:-1]), list)]
        path = rng.choice(entries)
        _at(doc, path[:-1]).insert(path[-1], copy.deepcopy(_at(doc, path)))
        return f"duplicate {path}"
    leaves = [p for p in places if isinstance(_at(doc, p), (int, str))]
    if rng.random() < 0.75:
        leaves = [p for p in leaves if _kind(_at(doc, p), p) != "word"]
    path = rng.choice(leaves)
    _at(doc, path[:-1])[path[-1]] = _value(rng, _at(doc, path), path, doc)
    return f"value {path}"


class _CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _CaseTimeout


def _run(argv, capsys):
    """(exit code, stdout, stderr) of main, or the exception that escaped."""
    signal.alarm(TIME_LIMIT_S)
    try:
        code = main(argv)
    except SystemExit as e:  # argparse refused an argument
        code = ("argparse", e.code)
    except Exception as e:  # every escape is a finding, _CaseTimeout included
        code = e
    finally:
        signal.alarm(0)
    out, err = capsys.readouterr()
    return code, out, err


def _breach(command, code, out, err):
    """What the outcome breaks of the contract, or None."""
    if isinstance(code, Exception):
        return f"{type(code).__name__} escaped: {code!s:.200}"
    if isinstance(code, tuple):
        last = err.splitlines()[-1] if err else ""
        if code[1] != 2 or out or not last.startswith(f"equivar {command}: error: "):
            return f"argparse exit {code[1]!r}: {err[-200:]!r}"
        return None
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    if code == 2 and not (out == "" and err.startswith("error: ") and err.count("\n") == 1):
        return f"exit 2 without one error line: {err[:200]!r}"
    if code == 1 and not (command == "verify" and "\n[fail] " in "\n" + out):
        return "exit 1 with no failing entry"
    return None


def test_exit_code_contract_under_fuzz(tmp_path, capsys):
    rng = random.Random(SEED)
    sources = _sources()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    breaches, codes = [], []
    try:
        for case in range(CASES):
            doc = copy.deepcopy(rng.choice(sources))
            mutations = [_mutate(rng, doc) for _ in range(rng.randint(1, 2))]
            path = tmp_path / f"case{case}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            for command in ("verify", "render"):
                code, out, err = _run([command, str(path)], capsys)
                codes.append(code)
                breach = _breach(command, code, out, err)
                if breach:
                    breaches.append((case, command, mutations, breach))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert breaches == []
    # the value mutations take a fair share of the cases past loading
    assert codes.count(0) + codes.count(1) > len(codes) // 5, codes


INDEX_SEED = 4517
INDEX_CASES = 60
# flag values: small ones that run, and huge ones that each example must
# refuse before its work starts; the last is past the int/str digit limit
_FLAG_POOL = ("0", "3", "-3", "7", str(10 ** 6), str(-10 ** 6), str(10 ** 11),
              str(-10 ** 11), "9" * 4000, "-" + "9" * 4000, _PAST_LIMIT)


def test_index_flags_keep_the_exit_code_contract(capsys):
    rng = random.Random(INDEX_SEED)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    breaches, codes = [], []
    try:
        for case in range(INDEX_CASES):
            argv = ["index", rng.choice(EXAMPLES)]
            for flag in ("--twist", "--max-degree"):
                if rng.random() < 0.7:
                    argv += [flag, rng.choice(_FLAG_POOL)]
            code, out, err = _run(argv, capsys)
            codes.append(code)
            breach = _breach("index", code, out, err)
            if not breach and max(map(len, err.splitlines()), default=0) >= 200:
                breach = f"error line of {len(err)} characters"
            if breach:
                breaches.append((case, [a[:20] for a in argv], breach))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert breaches == []
    # the cases run jobs, refuse work past a cap, and refuse flags argparse cannot read
    assert {0, 2, ("argparse", 2)} <= set(codes), codes
