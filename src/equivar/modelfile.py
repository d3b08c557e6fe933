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
names with optional ^int powers.  No parentheses.  One regular expression
(_TOKEN) scans an expression into tokens, skipping whitespace; any other
character outside the grammar is "unexpected character" at its 0-based
column.  Every generator and parameter name and every frame id must be a
name of the grammar ([A-Za-z_][A-Za-z_0-9]*), so that a rendered element,
or a moment delta that names its frame, reads back as one.
A rational field outside an expression is an int or such a literal with an
optional sign.  A normal weight's "eval", read as a rational field or a
JSON number, and a locus's "orientationSign" must equal +1 or -1, and load
as that int.

A circle locus names the moment sample of its orbit by "frame" and
"momentSample" (an index into that frame's "momentSamples"); the loader
resolves it into FixedLocusDatum.moment_sample.

Closed-argument generators are matched to frame slots by their declared
(frame, slot) pair, so frames list only the slot forms.  "split" gives the
display decomposition of each closed argument (its exterior-derivative part,
a 2-form) and is required only by models that render Taylor expansions or declare a
principal-bundle structure.  Each frame's split is parsed with its frame, so
a bad split raises before any dTable or iotaTable error.  An optional field
given as JSON null is a bad value of that field, never an absent one:
"twistWeight": null and "momentSamples": null are ParseErrors like a null
"split" or "base".

Each check has one owner.  This loader owns a file's structure, and each
structural problem is a ParseError: a JSON type or name, a parity other
than odd or even, a kind outside superalg.KINDS, a split without one entry
per slot, a generator or frame name declared twice, a key repeated in one
JSON object.  superalg.validate_model, called once the model is built, owns
the semantic invariants, each an InvariantViolation naming it: form degrees
against parity, parameter names that repeat or name a generator, frame
slots and ranks, moment-sample shapes, split entries, table images (no
parameter inside one) and D^2 = 0.  The loader raises one InvariantViolation
itself, for a frame with no closed argument for one of its slots.

A ParseError's message names its place: the JSON line and column, the
object with a repeated key (by its frameId, locusId or name, else by the
key that holds it, as in "duplicate key 'Psi' in dTable"), or the table
entry and the column in its expression.
"""

import json
import os
import re
import sys
from fractions import Fraction

from .charclass import CIRCLE, ISOLATED_POINT, FixedLocusDatum
from .errors import InvariantViolation, ParseError, UnknownExample, shown
from .laurent import EXPAND_NEGATIVE, EXPAND_POSITIVE
from .superalg import (CLOSED_ARGUMENT, EVEN, KINDS, ODD, PLAIN_FORM, FormalModel,
                       FrameDecl, Generator, fold, validate_model)
# Unused here; perfbench/tests/test_bench_spans.py checks that tracing rebinds
# superalg.add in every module that imported it, and probes modelfile.add.
from .superalg import add  # noqa: F401

_DIRECTION_NAMES = {"positive": EXPAND_POSITIVE, "negative": EXPAND_NEGATIVE}

_RAT = re.compile(r"\d+(?:/\d+)?")
_SIGNED_RAT = re.compile(r"[+-]?" + _RAT.pattern)
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# One token per match, named by its group.  finditer's search skips the
# whitespace between tokens in linear time; a leading \s* would instead
# rescan trailing whitespace from each of its positions.
_TOKEN = re.compile(rf"(?P<rat>{_RAT.pattern})|(?P<name>{_NAME.pattern})"
                    r"|(?P<op>[-+*^])|(?P<bad>\S)")


def _rejected(what, v, where="", column=None):
    """The ParseError "<what> <v> <where>", naming v without echoing it whole
    when long: a string by errors.shown; a list or object by its type and
    length; any other value by its type and repr."""
    if isinstance(v, str):
        named = shown(v)
    elif isinstance(v, (list, dict)):
        named = f"{type(v).__name__} of length {len(v)}"
    else:
        named = f"{type(v).__name__} {v!r}"
    return ParseError(f"{what} {named} {where}".rstrip(), column=column)


def parse_rational(v, where="", column=None):
    """v as a Fraction: an int, or a string of an optional sign and a literal
    of the element grammar, p or p/q (_RAT).  Anything else, a zero
    denominator included, is a ParseError (_rejected) that names where and
    column."""
    if v.__class__ is int:
        return Fraction(v)
    if isinstance(v, str):
        try:
            if _SIGNED_RAT.fullmatch(v):
                return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
        raise _rejected("bad rational literal", v, where, column)
    raise _rejected("bad rational:", v, where)


def _tokenize(src):
    """(kind, text, 0-based column) of each token of src; whitespace is
    skipped, and any other character outside the grammar is a ParseError."""
    toks = []
    for mm in _TOKEN.finditer(src):
        if mm.lastgroup == "bad":
            raise ParseError(f"unexpected character {mm.group()!r}", column=mm.start())
        toks.append((mm.lastgroup, mm.group(), mm.start()))
    return toks


def _parse_term(toks, pos, m):
    """(the factors of the product term at pos, the position after it)"""
    factors = []
    while True:
        if pos >= len(toks):
            raise ParseError("unexpected end of expression", column=toks[-1][2])
        kind, val, col = toks[pos]
        if kind == "rat":
            factors.append(m.scalar(parse_rational(val, column=col)))
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
                raise ParseError(f"unknown symbol {shown(val)}", column=col) from None
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
            raise ParseError(f"expected '+' or '-' before {shown(toks[pos][1])}",
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
    where = f"in {where}, field 'momentSamples'"
    return tuple(tuple(tuple(parse_rational(x, where) for x in row) for row in s) for s in v)


def _parse_generators(items):
    gens = {}
    for it in items:
        name = _require(it, "name", str, "generator")
        if not _NAME.fullmatch(name):
            raise _rejected("bad generator name", name)
        at, quoted = shown(name, bare=True), shown(name)
        parity = _require(it, "parity", str, at)
        if parity not in (ODD, EVEN):
            raise _rejected("bad parity", parity, f"on {quoted}")
        degree = _require(it, "formDegree", int, at)
        kind = _optional(it, "kind", str, at, PLAIN_FORM)
        if kind not in KINDS:
            raise _rejected("unknown kind", kind, f"on {quoted}")
        frame = _optional(it, "frame", str, at, None)
        slot = _optional(it, "slot", int, at, None)
        if kind != PLAIN_FORM and (frame is None or slot is None):
            raise ParseError(f"{kind} generator {quoted} needs frame and slot")
        if name in gens:
            raise ParseError(f"duplicate generator {quoted}")
        gens[name] = Generator(name, parity, degree, kind, frame, slot)
    return gens


def _parse_weight(v, nvars, where):
    if not isinstance(v, list) or len(v) != nvars \
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in v):
        raise _rejected("bad weight", v, f"in {where}: want {nvars} ints")
    return tuple(v)


def _unit(v, what, at):
    """v as the int +1 or -1, given as any number equal to one of them; else
    the ParseError "<what> must be +1 or -1 in <at>"."""
    if isinstance(v, bool) or v not in (1, -1):
        raise ParseError(f"{what} must be +1 or -1 in {at}")
    return int(v)


def _parse_locus(it, nvars, frames):
    lid = _require(it, "locusId", str, "fixed locus")
    at = shown(lid, bare=True)
    ltype = _require(it, "locusType", str, at)
    if ltype not in (ISOLATED_POINT, CIRCLE):
        raise _rejected("unknown locus type", ltype, f"in {at}")
    tangent = tuple(_parse_weight(w, nvars, at)
                    for w in _optional(it, "tangentWeights", list, at, []))
    where = f"normal weight of {at}"
    normal = []
    for nw in _optional(it, "normalWeights", list, at, []):
        w = _parse_weight(_require(nw, "weight", list, where), nvars, at)
        c = _require(nw, "eval", (int, float, str), where)
        if c.__class__ is not float:
            c = parse_rational(c, f"in {at}, field 'eval'")
        normal.append((w, _unit(c, "eval", at)))
    dirs = []
    for d in _optional(it, "expansionDirections", list, at, []):
        if not isinstance(d, str) or d not in _DIRECTION_NAMES:
            raise _rejected("unknown expansion direction", d, f"in {at}")
        dirs.append(_DIRECTION_NAMES[d])
    twist = _parse_weight(it["twistWeight"], nvars, at) if "twistWeight" in it else (0,) * nvars
    sample = None
    if ltype == CIRCLE:
        fid, k = _require(it, "frame", str, at), _require(it, "momentSample", int, at)
        if fid not in frames:
            raise ParseError(f"locus {shown(lid)} names no frame {shown(fid)}")
        if not 0 <= k < len(frames[fid].moment_samples or ()):
            raise ParseError(f"locus {shown(lid)}: frame {shown(fid)} has no momentSample {k}")
        sample = frames[fid].moment_samples[k]
    sign = _unit(it.get("orientationSign", 1), "orientationSign", at)
    return FixedLocusDatum(lid, ltype, tangent, tuple(normal), twist, sample,
                           tuple(dirs), sign)


def model_from_dict(doc):
    name = _require(doc, "name", str, "model")
    at = shown(name, bare=True)
    dim = _require(doc, "manifoldDim", int, at)
    params = tuple(_require(doc, "parameters", list, at))
    for p in params:
        if not isinstance(p, str) or not _NAME.fullmatch(p):
            raise _rejected("parameters must be names, not", p, f"in {at}")
    gens = _parse_generators(_require(doc, "generators", list, at))
    # the expressions only need the generators; the model is built once below
    bare = FormalModel(name, dim, params, gens, {}, {})

    frames = {}
    for fd in _optional(doc, "frames", list, at, []):
        fid = _require(fd, "frameId", str, "frame")
        if not _NAME.fullmatch(fid):
            raise _rejected("bad frame id", fid)
        if fid in frames:
            raise ParseError(f"duplicate frame {shown(fid)}")
        frame_at = shown(fid, bare=True)
        rank = _require(fd, "rank", int, frame_at)
        slots = tuple(_require(fd, "slots", list, frame_at))
        if not all(isinstance(s, str) for s in slots):
            raise ParseError(f"'slots' in frame {shown(fid)} must be generator names")
        u_by_slot = {g.slot: g.name for g in gens.values()
                     if g.kind == CLOSED_ARGUMENT and g.frame_id == fid}
        try:
            u_slots = tuple(u_by_slot[j] for j in range(1, rank + 1))
        except KeyError as e:
            raise InvariantViolation(
                f"frame {shown(fid)} has no closed argument for slot {e.args[0]}") from None
        samples = (_moment_samples(fd["momentSamples"], f"frame {shown(fid)}")
                   if "momentSamples" in fd else None)
        dalpha = None
        if "split" in fd:
            exprs = fd["split"]
            if not isinstance(exprs, list) or len(exprs) != rank:
                raise ParseError(f"split for frame {shown(fid)} needs one entry per slot")
            dalpha = tuple(_expression(e, bare, f"split entry {j} of frame {shown(fid)}")
                           for j, e in enumerate(exprs))
        frames[fid] = FrameDecl(fid, rank, slots, u_slots, samples, dalpha)

    d_table = {}
    for gname, expr in _optional(doc, "dTable", dict, at, {}).items():
        if gname not in gens:
            raise ParseError(f"dTable entry for unknown generator {shown(gname)}")
        d_table[gname] = _expression(expr, bare, f"dTable entry for {shown(gname)}")
    iota_table = {}
    for gname, exprs in _optional(doc, "iotaTable", dict, at, {}).items():
        if gname not in gens:
            raise ParseError(f"iotaTable entry for unknown generator {shown(gname)}")
        if not isinstance(exprs, list) or len(exprs) != len(params):
            raise ParseError(f"iotaTable for {shown(gname)} needs one entry per parameter")
        for a, expr in enumerate(exprs):
            el = _expression(expr, bare, f"iotaTable entry {a} for {shown(gname)}")
            if not el.is_zero():
                iota_table[(gname, a)] = el

    base = None
    if "base" in doc:
        b = _require(doc, "base", dict, at)
        base = {key: parse_rational(_require(b, key, (int, str), "base"),
                                    f"in base, field {key!r}")
                for key in ("tangentWeight", "curvatureVolume")}
        base["dimension"] = _require(b, "dimension", int, "base")

    fixed_loci = tuple(_parse_locus(it, len(params), frames)
                       for it in _optional(doc, "fixedLoci", list, at, []))

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
                    raise ParseError(f"{pending[0]} in {shown(key, bare=True)}")
        doc = {}
        for key, value in pairs:
            if key in doc:
                first = dict(reversed(pairs))
                kinds = {"frameId": "frame", "locusId": "locus",
                         "name": "generator" if "parity" in first else "model"}
                place = next((f" in {kinds[k]} {shown(first[k])}" for k in kinds
                              if isinstance(first.get(k), str)), None)
                error = ParseError(f"duplicate key {shown(key)}{place or ''}")
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
        raise ParseError(f"{shown(str(path), bare=True)}: not UTF-8 text "
                         f"({e.reason} at byte {e.start})") from None
    return loads_model(text)


_MODELS = os.path.join(os.path.dirname(__file__), "models")


def builtin_names():
    return sorted(n[:-5] for n in os.listdir(_MODELS) if n.endswith(".json"))


def load_builtin(name):
    path = os.path.join(_MODELS, name + ".json")
    if not os.path.isfile(path):
        raise UnknownExample(f"no built-in model {shown(name)}; have {builtin_names()}")
    return load_model(path)
