"""Element rendering (text and LaTeX) and the machine-readable report format.

Reports are self-describing: every envelope embeds the conventions block, so
a stored report pins down the normalization its numbers were computed under.
Serialization is deterministic (sorted keys, no floats) so identical inputs
produce byte-identical files.
"""

import json
import sys
from fractions import Fraction

from . import genco
from .errors import OutOfRange
from .jform import j_form
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

def _json_default(x):
    """A Fraction as an int when it is integral, else as "p/q"; any other
    value json cannot write as its str."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return str(x)


def make_report(command, model_name, results, characters=None, extra=None):
    rep = {
        "command": command,
        "model": model_name,
        "conventions": dict(CONVENTIONS),
        "results": results,
    }
    if characters is not None:
        rep["characters"] = characters
    if extra:
        for k, v in extra.items():
            rep.setdefault(k, v)
    return rep


def entry(check, ok, witness=None):
    """One report entry: status "pass" or "fail" by ok, and the witness when
    one is given."""
    e = {"check": check, "status": "pass" if ok else "fail"}
    if witness is not None:
        e["witness"] = witness
    return e


def report_status(rep):
    if any(r["status"] == "fail" for r in rep["results"]):
        return "fail"
    return "pass"


def report_to_json(rep):
    return json.dumps(rep, default=_json_default, sort_keys=True, indent=2) + "\n"

