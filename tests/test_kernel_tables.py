"""The term algebra on tuple-backed terms and per-model odd-monomial tables,
checked against the kernel it replaced."""

import random
import re
from collections import Counter

import pytest

from equivar.errors import DeltaClash
from equivar.genco import with_fibre_coordinates
from equivar.randmodels import random_element, random_model
from equivar.superalg import (
    _NO_DELTA,
    ARG_CLOSED,
    CLOSED_ARGUMENT,
    EVEN,
    FRAME_FORM,
    ODD,
    DeltaFactor,
    Element,
    FormalModel,
    FrameDecl,
    Generator,
    Term,
    _absorb,
    _exact,
    add_all,
    multiply,
)

# ---------------------------------------------------------------------------
# previous kernel: multiply masks each odd monomial on every call, sorts the
# merged odd tuple of each pair with an inversion, and _finalize sums the
# degree of every key from the name -> degree tables.  Kept as it was, except
# that _prev_finalize counts the keys it truncates.


def _prev_degree(odd_mono, even_mono, form_degrees, truncation_degrees):
    deg = 0
    for n in odd_mono:
        deg += form_degrees[n]
    for n, e in even_mono:
        deg += e * truncation_degrees[n]
    return deg


def _prev_finalize(acc, m, seen=None):
    out = {}
    form_degrees, truncation_degrees = m.form_degrees, m.truncation_degrees
    dim = m.manifold_dim
    for key, coeff in acc.items():
        if coeff == 0:
            continue
        x_mono, dk, odd_mono, even_mono = key
        if even_mono and dk[2] == ARG_CLOSED:
            coeff, dk, even_mono = _absorb(coeff, dk, even_mono, m)
            if coeff == 0:
                continue
            key = (x_mono, dk, odd_mono, even_mono)
        if _prev_degree(odd_mono, even_mono, form_degrees, truncation_degrees) > dim:
            if seen is not None:
                seen["truncated"] += 1
            continue
        prev = out.get(key)
        out[key] = coeff if prev is None else prev + coeff
    deltas = {}
    terms = []
    for key in sorted(out):
        c = out[key]
        if c == 0:
            continue
        dk = key[1]
        if dk in deltas:
            delta = deltas[dk]
        else:
            delta = deltas[dk] = None if dk[0] == "" and not dk[1] else DeltaFactor(*dk)
        terms.append(Term(_exact(c), key[0], delta, key[2], key[3]))
    return Element(tuple(terms))


def _prev_odd_mask(odd_mono, order):
    mask = 0
    for g in odd_mono:
        mask |= 1 << order[g]
    return mask


def _prev_multiply(a, b, m, seen=None):
    order = m.odd_order
    right = [(t2, _prev_odd_mask(t2.odd_mono, order), [order[g] for g in t2.odd_mono],
              t2.delta if t2.delta is not None else _NO_DELTA, not any(t2.x_mono))
             for t2 in b.terms]
    acc = {}
    for t1 in a.terms:
        c1, x1, d1, odd1, even1 = t1.coeff, t1.x_mono, t1.delta, t1.odd_mono, t1.even_mono
        m1 = _prev_odd_mask(odd1, order)
        dk1 = d1 if d1 is not None else _NO_DELTA
        x1_zero = not any(x1)
        for t2, m2, orders2, dk2, x2_zero in right:
            if d1 is not None and t2.delta is not None:
                if d1.frame_id == t2.delta.frame_id:
                    raise DeltaClash(
                        f"product of two delta factors on frame {d1.frame_id!r}")
                raise DeltaClash(
                    f"product of delta factors on distinct frames "
                    f"{d1.frame_id!r} and {t2.delta.frame_id!r}")
            if m1 & m2:
                continue
            inv = 0
            if m1:
                for o in orders2:
                    inv += (m1 >> o).bit_count()
            if inv:
                odd = tuple(sorted(odd1 + t2.odd_mono, key=order.__getitem__))
            else:
                odd = odd1 + t2.odd_mono
            even2 = t2.even_mono
            if not even2:
                even = even1
            elif not even1:
                even = even2
            else:
                merged = dict(even1)
                for n, e in even2:
                    merged[n] = merged.get(n, 0) + e
                even = tuple(sorted(merged.items()))
            if x1_zero:
                x_mono = t2.x_mono
            elif x2_zero:
                x_mono = x1
            else:
                x_mono = tuple(i + j for i, j in zip(x1, t2.x_mono))
            key = (x_mono, dk1 if d1 is not None else dk2, odd, even)
            c = c1 * t2.coeff
            if inv & 1:
                c = -c
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
    return _prev_finalize(acc, m, seen)


# ---------------------------------------------------------------------------


# what the products below must have exercised
OPERAND_KINDS = ("x-left", "x-right", "even-left", "even-right", "delta-left", "delta-right")
PRODUCT_KINDS = OPERAND_KINDS + ("inversion", "truncated", "same-frame clash")


def _odd_inversion(a, b, m):
    """True when some pair of terms multiplies with a generator of a after
    one of b in odd_order."""
    order = m.odd_order
    return any(order[g1] > order[g2] for t1 in a.terms for t2 in b.terms
               if not set(t1.odd_mono) & set(t2.odd_mono)
               for g1 in t1.odd_mono for g2 in t2.odd_mono)


def _check_pair(a, b, m, seen):
    """multiply(a, b) against the previous kernel: the same terms in the same
    order with the same coefficient types, or the same DeltaClash message."""
    try:
        want = _prev_multiply(a, b, m, seen)
    except DeltaClash as e:
        with pytest.raises(DeltaClash, match=f"^{re.escape(str(e))}$"):
            multiply(a, b, m)
        seen["distinct-frame clash" if "distinct" in str(e) else "same-frame clash"] += 1
        return
    got = multiply(a, b, m)
    assert got.terms == want.terms, (m.name, a, b)
    assert [type(t.coeff) for t in got.terms] == [type(t.coeff) for t in want.terms]
    assert all(type(t) is Term for t in got.terms)
    for side, e in (("left", a), ("right", b)):
        seen[f"x-{side}"] += any(any(t.x_mono) for t in e.terms)
        seen[f"even-{side}"] += any(t.even_mono for t in e.terms)
        seen[f"delta-{side}"] += any(t.delta is not None for t in e.terms)
    seen["inversion"] += _odd_inversion(a, b, m)


def _operands(rng, m):
    a = random_element(rng, m, with_delta=rng.random() < 0.7, n_terms=rng.randint(1, 4))
    b = random_element(rng, m, with_delta=rng.random() < 0.4, n_terms=rng.randint(1, 4))
    return a, b


def test_tables_kernel_matches_previous_kernel_randomized():
    rng = random.Random(47)
    seen = Counter()
    while seen["models"] < 120:
        m = random_model(rng, max_rank=3, with_theta=rng.random() < 0.5,
                         dim_cap=rng.choice((2, 3, 4)))
        if m.frames["fr"].rank == 0:
            continue
        seen["models"] += 1
        seen["theta" if any(n.startswith("th") for n in m.generators) else "theta-free"] += 1
        for _ in range(3):
            a, b = _operands(rng, m)
            for x, y in ((a, b), (b, a), (a, a)):
                _check_pair(x, y, m, seen)
    assert all(seen[k] for k in PRODUCT_KINDS + ("theta", "theta-free")), seen


def test_tables_stay_with_their_model():
    """A model and its fibre extension order their odd generators
    differently.  The same operands, multiplied in turn in each, agree with
    the previous kernel in each, so no table entry crosses between them."""
    rng = random.Random(53)
    seen = Counter()
    while seen["models"] < 40:
        m = random_model(rng, max_rank=3, with_theta=rng.random() < 0.5, dim_cap=3)
        if m.frames["fr"].rank == 0:
            continue
        seen["models"] += 1
        mf = with_fibre_coordinates(m, "fr")
        seen["reordered"] += any(mf.odd_order[n] != i for n, i in m.odd_order.items())
        for _ in range(3):
            a, b = _operands(rng, m)
            for model in (m, mf, m, mf):
                _check_pair(a, b, model, seen)
                _check_pair(b, a, model, seen)
            fa = random_element(rng, mf, with_delta=rng.random() < 0.5, n_terms=3)
            seen["fibre operand"] += any(n.startswith("dxi") for t in fa.terms
                                         for n in t.odd_mono)
            _check_pair(fa, b, mf, seen)
            _check_pair(b, fa, mf, seen)
    assert all(seen[k] for k in PRODUCT_KINDS + ("reordered", "fibre operand")), seen


def _two_frame_model():
    gens, frames = {}, {}
    for fid, a, u in (("fr", "a", "u"), ("gs", "b", "v")):
        for j in (1, 2):
            gens[f"{a}{j}"] = Generator(f"{a}{j}", ODD, 1, FRAME_FORM, fid, j)
            gens[f"{u}{j}"] = Generator(f"{u}{j}", EVEN, 2, CLOSED_ARGUMENT, fid, j)
        frames[fid] = FrameDecl(fid, 2, (f"{a}1", f"{a}2"), (f"{u}1", f"{u}2"))
    gens["c"] = Generator("c", EVEN, 2)
    return FormalModel("two-frames", 6, ("X1", "X2"), gens, {}, {}, frames)


def test_delta_clash_messages_match_previous_kernel():
    """The first clashing pair in term order names the error, as before:
    a delta meeting a delta on its own frame or on another one, whichever
    frame the right operand's first delta is on."""
    m = _two_frame_model()
    fr1 = add_all((m.gen("c"), m.delta("fr", (1, 0))), m)
    gs1 = add_all((m.x(0), m.delta("gs", (0, 2))), m)
    both = add_all((m.gen("a1"), m.delta("fr"), m.delta("gs", (1, 1))), m)
    seen = Counter()
    for a in (fr1, gs1, both):
        for b in (fr1, gs1, both):
            _check_pair(a, b, m, seen)
    assert seen["same-frame clash"] and seen["distinct-frame clash"], seen
    with pytest.raises(DeltaClash, match="^product of delta factors on distinct frames "
                                         "'gs' and 'fr'$"):
        multiply(gs1, both, m)
