"""Element rendering (text and LaTeX) and the machine-readable report format.

Reports are self-describing: every envelope embeds the conventions block, so
a stored report pins down the normalization its numbers were computed under.
Serialization is deterministic (sorted keys, no floats) so identical inputs
produce byte-identical files.

report_to_json writes the text with one direct writer (_write) instead of
json.dumps: CPython's json uses its C encoder only when indent is None, so an
indent-2 dump runs json's pure-Python generators, about twice the writer's
time on a report of 8 KB.  A report holds only dicts, lists, tuples, strs and
ints (the engine computes exactly, and a witness writes a rational as its
str), and the writer dispatches on the exact class of each value over those:
- a dict, its str keys sorted (any other key is a TypeError);
- a list or a tuple, written as a list; {} and [] inline;
- a str, a dict key included, through json's own ASCII escaper;
- an int by int.__repr__ (past the int-to-str digit limit a ValueError, as
  in json).
Any other value, None, a bool, a float and a Fraction among them, raises
json's TypeError("Object of type X is not JSON serializable").  A container
met again inside itself raises json's ValueError("Circular reference
detected").  On these values the text equals json.dumps(x, sort_keys=True,
indent=2) + "\n" byte for byte; tests/test_report_writer.py checks that on
seeded random values.
"""

import sys
from json.encoder import encode_basestring_ascii as _quote

from . import genco
from .errors import InvariantViolation, OutOfRange
from .jform import j_form, unannihilated_slot
from .superalg import ARG_MOMENT, Element

CONVENTIONS = {
    "twoPiPolicy": "the (2 pi i)^-k prefactor and all Haar volumes are "
                   "normalized into the engine; multiplicities are unscaled",
    "fourierSign": "delta_0(x) = (2 pi)^-k Integral exp(-i<xi,x>) dxi",
    "orientationRule": "slot products run descending alpha_k..alpha_1; "
                       "reversing the order flips the sign by (-1)^(k(k-1)/2)",
}

TEXT = "text"
LATEX = "latex"


def _name(n, fmt):
    if fmt == LATEX:
        return n if len(n) == 1 else r"\mathrm{" + n + "}"
    return n


def _printed(q, what):
    """str(q); OutOfRange past the int-to-str digit limit."""
    try:
        return str(q)
    except ValueError:
        raise OutOfRange(f"{what} has more than {sys.get_int_max_str_digits()} "
                         "digits, too many to print") from None


def _pow(n, e, fmt):
    if e == 1:
        return _name(n, fmt)
    e = _printed(e, "an exponent")
    if fmt == LATEX:
        return _name(n, fmt) + "^{" + e + "}"
    return n + "^" + e


def _delta(d, m, fmt):
    fr = m.frames[d.frame_id]
    if d.argument == ARG_MOMENT:
        args = "f_{\\mathrm{%s}}" % d.frame_id if fmt == LATEX else f"f[{d.frame_id}]"
    else:
        names = fr.u_slots
        args = ",".join(_name(n, fmt) for n in names)
    sup = ""
    if any(d.deriv):
        sup = "^{(%s)}" % ",".join(map(str, d.deriv)) if fmt == LATEX \
            else "^(%s)" % ",".join(map(str, d.deriv))
    head = r"\delta_0" if fmt == LATEX else "delta0"
    return f"{head}{sup}({args})"


def render_term(t, m, fmt=TEXT):
    """Body of one term without its sign; coefficient magnitude included.
    The magnitude is str of the coefficient with its "-" stripped, which
    needs no abs of a Fraction."""
    odd = [_name(n, fmt) for n in t.odd_mono]
    factors = []
    if odd:
        factors.append((r" \wedge " if fmt == LATEX else "*").join(odd))
    if t.delta is not None:
        factors.append(_delta(t.delta, m, fmt))
    for n, e in t.even_mono:
        factors.append(_pow(n, e, fmt))
    sep = r"\," if fmt == LATEX else "*"
    body = sep.join(factors)
    c = t.coeff
    if not body or c.denominator != 1 or abs(c.numerator) != 1:
        cs = _printed(c, "a coefficient")
        if cs[0] == "-":
            cs = cs[1:]
        body = cs + (sep + body if body else "")
    return body


def render_element(e, m, fmt=TEXT):
    """The terms joined by their signs, each read from the coefficient's
    numerator."""
    if e.is_zero():
        return "0"
    out = []
    for i, t in enumerate(e.terms):
        body = render_term(t, m, fmt)
        if i == 0:
            out.append(("-" if t.coeff.numerator < 0 else "") + body)
        else:
            out.append((" - " if t.coeff.numerator < 0 else " + ") + body)
    return "".join(out)


def nonzero_witness(e, m):
    """The witness of a check that wanted e to be zero: its term count and
    its first three terms as text."""
    return {"terms": len(e.terms), "first": render_element(Element(e.terms[:3]), m)}


def annihilation_witness(m, frame_id, j):
    """The witness of a failing frame-annihilation check: the first slot a
    whose frame form alpha_a does not multiply J to zero, with the
    nonzero_witness of alpha_a J; None when every frame form does."""
    failure = unannihilated_slot(m, frame_id, j)
    if failure is None:
        return None
    a, p = failure
    return {"slot": a, **nonzero_witness(p, m)}


def display_value(m, frame_id, value):
    """value in Taylor display form when the frame declares a split,
    otherwise unchanged (closed-argument form)."""
    if m.frames[frame_id].dalpha is None:
        return value
    return genco.taylor_expand_delta(value, frame_id, m)


def render_frame_value(m, frame_id, fmt=TEXT):
    """The canonical form of the frame, in Taylor display form when the model
    declares a split, otherwise in closed-argument form."""
    return render_element(display_value(m, frame_id, j_form(m, frame_id)), m, fmt)


# ---------------------------------------------------------------------------
# report envelope

def make_report(command, model_name, results, characters=None, extra=None):
    """The report envelope; a key of extra never replaces one of its own."""
    rep = {**(extra or {}), "command": command, "model": model_name,
           "conventions": dict(CONVENTIONS), "results": results}
    if characters is not None:
        rep["characters"] = characters
    return rep


def entry(check, ok, witness=None):
    """One report entry: status "pass" or "fail" by ok, and the witness when
    one is given.  A witness shows why a check failed, so a passing entry
    that carries one is an InvariantViolation."""
    e = {"check": check, "status": "pass" if ok else "fail"}
    if witness is not None:
        if ok:
            raise InvariantViolation(f"passing entry {check!r} carries a witness")
        e["witness"] = witness
    return e


def report_status(rep):
    if any(r["status"] == "fail" for r in rep["results"]):
        return "fail"
    return "pass"


_int_text = int.__repr__


def _write(o, out, nl, seen):
    """Append the pieces of o to out as json.dumps(o, indent=2,
    sort_keys=True) writes it; nl is the newline and indent of o's own line
    and seen the ids of the containers that enclose o.  One loop writes the
    items of a dict, a list or a tuple: each item's head (the opening
    bracket or the separator, and a dict item's quoted key), then its value
    by a recursive call."""
    c = o.__class__
    if c is str:
        out.append(_quote(o))
    elif c is int:
        out.append(_int_text(o))
    elif c is dict or c is list or c is tuple:
        is_dict = c is dict
        if not o:
            out.append("{}" if is_dict else "[]")
            return
        key = id(o)
        if key in seen:
            raise ValueError("Circular reference detected")
        seen.add(key)
        inner = nl + "  "
        sep = "," + inner
        head = ("{" if is_dict else "[") + inner
        # a key that is not a str is a TypeError, from sorted or _quote
        for item in sorted(o) if is_dict else o:
            out.append(head + _quote(item) + ": " if is_dict else head)
            _write(o[item] if is_dict else item, out, inner, seen)
            head = sep
        out.append(nl + ("}" if is_dict else "]"))
        seen.discard(key)
    else:
        raise TypeError(f"Object of type {c.__name__} is not JSON serializable")


def report_to_json(rep):
    """rep as indented JSON text with sorted keys and a final newline: the
    bytes of json.dumps(rep, sort_keys=True, indent=2) + "\n", written by
    _write."""
    out = []
    _write(rep, out, "\n", set())
    out.append("\n")
    return "".join(out)
