"""The report writer against json.dumps, on seeded random values.

report.report_to_json writes its text directly instead of through
json.dumps(indent=2), which runs json's pure-Python encoder.  Its contract is
byte equality with json.dumps(x, sort_keys=True, indent=2) + "\n" on the
values a report holds: dicts with str keys, lists, tuples, str and int.  The
draws nest those values up to depth 6 and put in what an escaper or a
dispatch can get wrong: quotes, backslashes, control characters, non-ASCII
and astral characters, ints of 4000 digits, empty containers.  Any other
value, at top level or nested, raises json's TypeError.  Each fault row
breaks the writer in one way, by monkeypatching, and must make the
comparison fail.
"""

import json
import random
from fractions import Fraction

import pytest

from equivar import report

SEED = 3838
VALUES = 600
MAX_DEPTH = 6

CHARS = ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f",
         "a", "Z", "0", " ", "\u00e9", "\u00df", "\u2028", "\ufeff", "\ud800",
         "\U0001f600", "\U00010348"]
KINDS = ("str", "int", "long-int", "dict", "list", "tuple", "empty")


def _reference(x):
    return json.dumps(x, sort_keys=True, indent=2) + "\n"


def _text(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 6)))


def _scalar(rng, kind):
    if kind == "str":
        return _text(rng)
    if kind == "int":
        return rng.randint(-10 ** 6, 10 ** 6)
    return rng.choice((1, -1)) * rng.randrange(10 ** 3999, 10 ** 4000)


def _draw(rng, depth, seen):
    """A random value of nesting depth at most depth; seen counts the kinds."""
    kinds = KINDS if depth else KINDS[:3]
    kind = rng.choice(kinds)
    seen[kind] = seen.get(kind, 0) + 1
    if kind == "empty":
        return rng.choice(({}, [], ()))
    if kind == "dict":
        return {_text(rng): _draw(rng, depth - 1, seen) for _ in range(rng.randint(1, 4))}
    if kind in ("list", "tuple"):
        items = [_draw(rng, depth - 1, seen) for _ in range(rng.randint(1, 4))]
        return items if kind == "list" else tuple(items)
    return _scalar(rng, kind)


def _values():
    rng = random.Random(SEED)
    seen = {}
    values = [_draw(rng, rng.randint(0, MAX_DEPTH), seen) for _ in range(VALUES)]
    return values, seen


def _depth(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        return 1 + max(map(_depth, x), default=0)
    return 0


def _mismatches(values):
    return [x for x in values if report.report_to_json(x) != _reference(x)]


def test_draws_cover_every_kind():
    values, seen = _values()
    assert set(seen) == set(KINDS)
    assert min(seen.values()) >= 20, seen
    assert max(map(_depth, values)) == MAX_DEPTH


def test_writer_matches_json_dumps():
    values, _ = _values()
    assert _mismatches(values) == []


def test_shared_container_is_not_a_cycle():
    shared = [1, {"a": ()}]
    x = {"p": shared, "q": [shared, shared]}
    assert report.report_to_json(x) == _reference(x)


def _cycles():
    a = []
    a.append(a)
    d = {"k": [1]}
    d["k"].append(d)
    t = [0]
    t.append(({"x": t},))
    return [a, d, t]


@pytest.mark.parametrize("case", range(3))
def test_cycle_raises_the_same_error(case):
    with pytest.raises(ValueError) as ours:
        report.report_to_json(_cycles()[case])
    with pytest.raises(ValueError) as theirs:
        _reference(_cycles()[case])
    assert str(ours.value) == str(theirs.value) == "Circular reference detected"


def test_int_past_the_digit_limit_raises_the_same_error():
    x = {"n": [10 ** 4300]}
    with pytest.raises(ValueError) as ours:
        report.report_to_json(x)
    with pytest.raises(ValueError) as theirs:
        _reference(x)
    assert str(ours.value) == str(theirs.value)
    assert report.report_to_json({"n": [10 ** 4300 - 1]}) == _reference({"n": [10 ** 4300 - 1]})


# None, a bool, a float, a Fraction: json.dumps writes the first three, but
# no report holds one, so the writer refuses each with json's own TypeError
@pytest.mark.parametrize("value", [None, True, 1.5, float("nan"), Fraction(1, 2), Fraction(2)],
                         ids=repr)
def test_value_outside_the_report_types_raises_type_error(value):
    message = f"Object of type {type(value).__name__} is not JSON serializable"
    for x in (value, [1, "a", value], ["a", [value]], {"a": value}, {"a": {"b": [value]}}):
        with pytest.raises(TypeError) as err:
            report.report_to_json(x)
        assert str(err.value) == message, x
    if isinstance(value, Fraction):  # json refuses it too, in the same words
        with pytest.raises(TypeError, match=message):
            json.dumps(value)


@pytest.mark.parametrize("x", [{1: "a"}, {"a": 1, 2: "b"}, {"a": {("t",): 1}}, [{None: 0}]])
def test_non_str_key_raises_type_error(x):
    with pytest.raises(TypeError):
        report.report_to_json(x)


def _non_ascii_unescaped(monkeypatch):
    monkeypatch.setattr(report, "_quote", json.encoder.encode_basestring)


def _keys_unsorted(monkeypatch):
    monkeypatch.setattr(report, "sorted", list, raising=False)


def _tuple_as_str(monkeypatch):
    write = report._write

    def faulty(o, out, nl, seen):
        write(str(o) if o.__class__ is tuple else o, out, nl, seen)
    monkeypatch.setattr(report, "_write", faulty)


# fault -> monkeypatching that breaks the writer in that one way
WRITER_FAULTS = {
    "keys-unsorted": _keys_unsorted,
    "non-ascii-unescaped": _non_ascii_unescaped,
    "tuple-as-str": _tuple_as_str,
}


@pytest.mark.parametrize("fault", sorted(WRITER_FAULTS))
def test_each_writer_fault_is_caught(fault, monkeypatch):
    values, _ = _values()
    assert _mismatches(values) == []
    WRITER_FAULTS[fault](monkeypatch)
    assert _mismatches(values)
