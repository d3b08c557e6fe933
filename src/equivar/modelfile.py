"""JSON model-file ingestion.

A model file is one JSON document:

    {"name": ..., "manifoldDim": int, "parameters": ["X1", ...],
     "generators": [{"name", "parity", "formDegree", "kind", "frame"?, "slot"?}],
     "dTable": {gen: element-expr},
     "iotaTable": {gen: [element-expr, one per parameter]},
     "frames": [{"frameId", "rank", "slots", "momentSamples"?, "split"?}],
     "fixedLoci": [...], "base": {...}}

element-expr grammar: sum of '+'/'-' separated terms, each a '*'-separated
product of rational literals (p or p/q), parameter names, and generator
names with optional ^int powers.  No parentheses.

Closed-argument generators are matched to frame slots by their declared
(frame, slot) pair, so frames list only the slot forms.  "split" gives the
display decomposition of each closed argument (its exterior-derivative part,
a 2-form) and is required only by models that render Taylor expansions or declare a
principal-bundle structure.  Structural problems raise ParseError; semantic
problems raise InvariantViolation naming the failing invariant.  A generator
or frame name declared twice, a key repeated in one JSON object and a kind
outside superalg.KINDS are ParseErrors; validate_model rejects a parameter
named like a generator or inside a table image.  A ParseError's message
names its place: the JSON line and column, the object with a repeated key
(by its frameId, locusId or name, else by the key that holds it, as in
"duplicate key 'Psi' in dTable"), or the table entry and the column in its
expression.
"""

import json
import os
import re
import sys
from fractions import Fraction

from .charclass import CIRCLE, ISOLATED_POINT, FixedLocusDatum
from .errors import InvariantViolation, ParseError, UnknownExample
from .laurent import EXPAND_NEGATIVE, EXPAND_POSITIVE
from .superalg import (CLOSED_ARGUMENT, EVEN, KINDS, ODD, PLAIN_FORM, FormalModel,
                       FrameDecl, Generator, fold, validate_model)
# Unused here; perfbench/tests/test_bench_spans.py checks that tracing rebinds
# superalg.add in every module that imported it, and probes modelfile.add.
from .superalg import add  # noqa: F401

_DIRECTION_NAMES = {"positive": EXPAND_POSITIVE, "negative": EXPAND_NEGATIVE}

_RAT = re.compile(r"\d+(?:/\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _bad_literal(text):
    """The message for a rational literal that Fraction rejects.  One past the
    int-from-str digit limit has thousands of digits, so a literal longer
    than 40 characters is named by its length, not echoed."""
    if len(text) > 40:
        return f"bad rational literal of {len(text)} characters"
    return f"bad rational literal {text!r}"


def parse_rational(v, where=""):
    if isinstance(v, bool):
        raise ParseError(f"boolean is not a rational {where}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{_bad_literal(v)} {where}") from None
    raise ParseError(f"bad rational {v!r} {where}")


def _tokenize(src):
    toks = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        mm = _RAT.match(src, i)
        if mm:
            toks.append(("rat", mm.group(), i))
            i = mm.end()
            continue
        mm = _NAME.match(src, i)
        if mm:
            toks.append(("name", mm.group(), i))
            i = mm.end()
            continue
        if ch in "+-*^":
            toks.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", column=i)
    return toks


def _parse_term(toks, pos, m):
    """(the factors of the product term at pos, the position after it)"""
    factors = []
    while True:
        if pos >= len(toks):
            raise ParseError("unexpected end of expression", column=toks[-1][2])
        kind, val, col = toks[pos]
        if kind == "rat":
            try:
                factors.append(m.scalar(Fraction(val)))
            except (ValueError, ZeroDivisionError):
                raise ParseError(_bad_literal(val), column=col) from None
            pos += 1
        elif kind == "name":
            exp = 1
            pos += 1
            if pos < len(toks) and toks[pos][:2] == ("op", "^"):
                pos += 1
                if pos >= len(toks) or toks[pos][0] != "rat" or "/" in toks[pos][1]:
                    raise ParseError("expected integer exponent after '^'", column=col)
                try:
                    exp = int(toks[pos][1])
                except ValueError:  # past the str-to-int digit limit
                    raise ParseError(f"exponent has more than {sys.get_int_max_str_digits()} "
                                     "digits", column=toks[pos][2]) from None
                pos += 1
            try:
                factors.append(m.gen(val, exp))
            except KeyError:
                raise ParseError(f"unknown symbol {val!r}", column=col) from None
        else:
            raise ParseError(f"unexpected {val!r}", column=col)
        if pos < len(toks) and toks[pos][:2] == ("op", "*"):
            pos += 1
            continue
        break
    return factors, pos


def parse_element(src, m):
    """Element over m from the sum-of-products expression grammar."""
    toks = _tokenize(src)
    if not toks:
        raise ParseError("empty element expression", column=0)
    products = []
    pos = 0
    while pos < len(toks):
        sign = 1
        while pos < len(toks) and toks[pos][0] == "op" and toks[pos][1] in "+-":
            if toks[pos][1] == "-":
                sign = -sign
            pos += 1
        factors, pos = _parse_term(toks, pos, m)
        products.append([factors[0].scaled(sign), *factors[1:]])
        if pos < len(toks) and not (toks[pos][0] == "op" and toks[pos][1] in "+-"):
            raise ParseError(f"expected '+' or '-' before {toks[pos][1]!r}",
                             column=toks[pos][2])
    return fold(products, m)


def _require(doc, key, types, where):
    """doc[key], which must have one of types; no field takes a boolean."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be an object")
    if key not in doc:
        raise ParseError(f"missing {key!r} in {where}")
    v = doc[key]
    if not isinstance(v, types) or isinstance(v, bool):
        raise ParseError(f"bad type for {key!r} in {where}")
    return v


def _optional(doc, key, types, where, default):
    return _require(doc, key, types, where) if key in doc else default


def _expression(v, m, where):
    """parse_element of v; an error names the entry and the column."""
    if not isinstance(v, str):
        raise ParseError(f"{where} must be an element expression string")
    try:
        return parse_element(v, m)
    except ParseError as e:
        raise ParseError(f"{where}, column {e.column + 1}: {e}", column=e.column) from None


def _moment_samples(v, where):
    """A list of samples, each a list of rows, each a list of rationals."""
    if not isinstance(v, list) or not all(
            isinstance(s, list) and all(isinstance(row, list) for row in s) for s in v):
        raise ParseError(f"'momentSamples' in {where} must be a list of lists of rows")
    return tuple(tuple(tuple(parse_rational(x, f"in {where}") for x in row) for row in s)
                 for s in v)


def _parse_generators(items):
    gens = {}
    for it in items:
        name = _require(it, "name", str, "generator")
        parity = _require(it, "parity", str, name)
        if parity not in (ODD, EVEN):
            raise ParseError(f"bad parity {parity!r} on {name!r}")
        degree = _require(it, "formDegree", int, name)
        kind = _optional(it, "kind", str, name, PLAIN_FORM)
        if kind not in KINDS:
            raise ParseError(f"unknown kind {kind!r} on {name!r}")
        frame = _optional(it, "frame", str, name, None)
        slot = _optional(it, "slot", int, name, None)
        if kind != PLAIN_FORM and (frame is None or slot is None):
            raise ParseError(f"{kind} generator {name!r} needs frame and slot")
        if name in gens:
            raise ParseError(f"duplicate generator {name!r}")
        gens[name] = Generator(name, parity, degree, kind, frame, slot)
    return gens


def _parse_weight(v, nvars, where):
    if not isinstance(v, list) or len(v) != nvars \
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in v):
        raise ParseError(f"bad weight {v!r} in {where}")
    return tuple(v)


def _parse_locus(it, nvars):
    lid = _require(it, "locusId", str, "fixed locus")
    ltype = _require(it, "locusType", str, lid)
    if ltype not in (ISOLATED_POINT, CIRCLE):
        raise ParseError(f"unknown locus type {ltype!r} in {lid}")
    tangent = tuple(_parse_weight(w, nvars, lid)
                    for w in _optional(it, "tangentWeights", list, lid, []))
    normal = []
    for nw in _optional(it, "normalWeights", list, lid, []):
        where = f"normal weight of {lid}"
        w = _parse_weight(_require(nw, "weight", list, where), nvars, lid)
        c = parse_rational(_require(nw, "eval", (int, str), where), f"in {lid}")
        normal.append((w, c))
    dirs = []
    for d in _optional(it, "expansionDirections", list, lid, []):
        if not isinstance(d, str) or d not in _DIRECTION_NAMES:
            raise ParseError(f"unknown expansion direction {d!r} in {lid}")
        dirs.append(_DIRECTION_NAMES[d])
    twist = it.get("twistWeight")
    twist = _parse_weight(twist, nvars, lid) if twist is not None else (0,) * nvars
    circle = it.get("circleWeight")
    circle = _parse_weight(circle, nvars, lid) if circle is not None else None
    sign = it.get("orientationSign", 1)
    if isinstance(sign, bool) or sign not in (1, -1):
        raise ParseError(f"orientationSign must be +1 or -1 in {lid}")
    return FixedLocusDatum(lid, ltype, tangent, tuple(normal), twist, circle,
                           tuple(dirs), int(sign))


def model_from_dict(doc):
    name = _require(doc, "name", str, "model")
    dim = _require(doc, "manifoldDim", int, name)
    params = tuple(_require(doc, "parameters", list, name))
    if not all(isinstance(p, str) for p in params):
        raise ParseError(f"parameters must be names in {name}")
    gens = _parse_generators(_require(doc, "generators", list, name))

    frames = {}
    splits = {}
    for fd in _optional(doc, "frames", list, name, []):
        fid = _require(fd, "frameId", str, "frame")
        if fid in frames:
            raise ParseError(f"duplicate frame {fid!r}")
        rank = _require(fd, "rank", int, fid)
        slots = tuple(_require(fd, "slots", list, fid))
        if not all(isinstance(s, str) for s in slots):
            raise ParseError(f"'slots' in frame {fid!r} must be generator names")
        u_by_slot = {g.slot: g.name for g in gens.values()
                     if g.kind == CLOSED_ARGUMENT and g.frame_id == fid}
        try:
            u_slots = tuple(u_by_slot[j] for j in range(1, rank + 1))
        except KeyError as e:
            raise InvariantViolation(
                f"frame {fid!r} has no closed argument for slot {e.args[0]}") from None
        samples = fd.get("momentSamples")
        if samples is not None:
            samples = _moment_samples(samples, f"frame {fid!r}")
        frames[fid] = FrameDecl(fid, rank, slots, u_slots, samples, None)
        if "split" in fd:
            splits[fid] = fd["split"]

    # the expressions only need the generators; the model is built once below
    bare = FormalModel(name, dim, params, gens, {}, {})

    d_table = {}
    for gname, expr in _optional(doc, "dTable", dict, name, {}).items():
        if gname not in gens:
            raise ParseError(f"dTable entry for unknown generator {gname!r}")
        d_table[gname] = _expression(expr, bare, f"dTable entry for {gname!r}")
    iota_table = {}
    for gname, exprs in _optional(doc, "iotaTable", dict, name, {}).items():
        if gname not in gens:
            raise ParseError(f"iotaTable entry for unknown generator {gname!r}")
        if not isinstance(exprs, list) or len(exprs) != len(params):
            raise ParseError(f"iotaTable for {gname!r} needs one entry per parameter")
        for a, expr in enumerate(exprs):
            el = _expression(expr, bare, f"iotaTable entry {a} for {gname!r}")
            if not el.is_zero():
                iota_table[(gname, a)] = el

    for fid, exprs in splits.items():
        if not isinstance(exprs, list) or len(exprs) != frames[fid].rank:
            raise ParseError(f"split for frame {fid!r} needs one entry per slot")
        dalpha = tuple(_expression(e, bare, f"split entry {j} of frame {fid!r}")
                       for j, e in enumerate(exprs))
        frames[fid] = frames[fid]._replace(dalpha=dalpha)

    base = None
    if "base" in doc:
        b = _require(doc, "base", dict, name)
        base = {
            "tangentWeight": parse_rational(_require(b, "tangentWeight", (int, str), "base")),
            "curvatureVolume": parse_rational(_require(b, "curvatureVolume", (int, str), "base")),
            "dimension": _require(b, "dimension", int, "base"),
        }

    nloc = len(params)
    fixed_loci = tuple(_parse_locus(it, nloc)
                       for it in _optional(doc, "fixedLoci", list, name, []))

    m = FormalModel(name, dim, params, gens, d_table, iota_table, frames, base, fixed_loci)
    validate_model(m)
    return m


def _holds(value, error):
    return value is error or (value.__class__ is list
                              and any(_holds(v, error) for v in value))


def _object_hook():
    """(hook, pending) for one json.loads.  The hook builds each JSON object
    as a dict.  A repeated key is a ParseError that names the object by the
    first value of its frameId, locusId or name.  An object with none of them
    returns its error unraised in its place, and the first such error waits
    in pending until the hook of an enclosing object finds it under one of
    its keys, in a list or not, and raises it with that key.  Until an error
    is pending, no hook looks at its values."""
    pending = []

    def hook(pairs):
        if pending:
            for key, value in pairs:
                if _holds(value, pending[0]):
                    raise ParseError(f"{pending[0]} in {key}")
        doc = {}
        for key, value in pairs:
            if key in doc:
                first = dict(reversed(pairs))
                kinds = {"frameId": "frame", "locusId": "locus",
                         "name": "generator" if "parity" in first else "model"}
                place = next((f" in {kinds[k]} {first[k]!r}" for k in kinds
                              if isinstance(first.get(k), str)), None)
                error = ParseError(f"duplicate key {key!r}{place or ''}")
                if place:
                    raise error
                pending.append(error)
                return error
            doc[key] = value
        return doc

    return hook, pending


def loads_model(text):
    hook, pending = _object_hook()
    try:
        doc = json.loads(text, object_pairs_hook=hook)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}",
                         line=e.lineno, column=e.colno) from None
    except RecursionError:
        raise ParseError("JSON nesting is too deep") from None
    except ValueError as e:  # an integer past the int-from-str digit limit
        raise ParseError(str(e)) from None
    if pending:  # a repeat with no enclosing object
        raise pending[0]
    if not isinstance(doc, dict):
        raise ParseError("model file must hold one JSON object")
    return model_from_dict(doc)


def load_model(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return loads_model(text)


_MODELS = os.path.join(os.path.dirname(__file__), "models")


def builtin_names():
    return sorted(n[:-5] for n in os.listdir(_MODELS) if n.endswith(".json"))


def load_builtin(name):
    path = os.path.join(_MODELS, name + ".json")
    if not os.path.isfile(path):
        raise UnknownExample(f"no built-in model {name!r}; have {builtin_names()}")
    with open(path, encoding="utf-8") as fh:
        return loads_model(fh.read())
