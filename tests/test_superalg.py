"""Algebra kernel: signs, absorption, the differential, and model validation."""

import functools
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from equivar import superalg
from equivar.errors import DeltaClash, InvariantViolation, NotDifferentiable
from equivar.genco import with_fibre_coordinates
from equivar.modelfile import builtin_names, load_builtin
from equivar.superalg import (
    _NO_DELTA,
    ARG_MOMENT,
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
    add,
    add_all,
    equivariant_differential,
    graded_exp_pieces,
    multiply,
    normal_form,
    product,
    validate_model,
)

from random_models import model_with, nonzero_rational, random_element, random_model


def test_odd_square_vanishes():
    m = load_builtin("s1-on-s1")
    assert multiply(m.gen("deta"), m.gen("deta"), m).is_zero()


def test_koszul_sign_on_odd_pair():
    m = load_builtin("t2-on-t2")
    ab = multiply(m.gen("deta1"), m.gen("deta2"), m)
    ba = multiply(m.gen("deta2"), m.gen("deta1"), m)
    assert ab == ba.scaled(-1)
    assert not ab.is_zero()


def test_even_factors_commute():
    m = load_builtin("hopf")
    a = multiply(m.gen("Psi"), m.gen(m.parameters[0], 2), m)
    b = multiply(m.gen(m.parameters[0], 2), m.gen("Psi"), m)
    assert a == b


def test_delta_absorbs_plain_argument():
    # u_j delta_0 = 0: the argument vanishes on the support.
    m = load_builtin("s1-on-s1")
    assert multiply(m.gen("u1"), m.delta("tau"), m).is_zero()


def test_delta_derivative_absorption_single():
    # u delta^(n) = -n delta^(n-1)
    m = load_builtin("s1-on-s1")
    got = multiply(m.gen("u1"), m.delta("tau", deriv=(3,)), m)
    assert got == m.delta("tau", deriv=(2,)).scaled(-3)


def test_delta_derivative_absorption_iterated():
    # u1^2 delta^(2,0) = 2 delta_0 and u1 u2 delta^(1,1) = delta_0
    m = load_builtin("t2-on-t2")
    sq = multiply(m.gen("u1", 2), m.delta("tau", deriv=(2, 0)), m)
    assert sq == m.delta("tau").scaled(2)
    mixed = product([m.gen("u1"), m.gen("u2"), m.delta("tau", deriv=(1, 1))], m)
    assert mixed == m.delta("tau")


def test_delta_clash_same_frame():
    m = load_builtin("t2-on-t2")
    with pytest.raises(DeltaClash):
        multiply(m.delta("tau"), m.delta("tau"), m)


def test_differential_of_frame_form():
    # D(alpha_j) = u_j is the defining relation of the frame slots.
    m = load_builtin("s1-on-s1")
    assert equivariant_differential(m.gen("deta"), m) == m.gen("u1")
    m = load_builtin("s3-contact")
    assert equivariant_differential(m.gen("alpha"), m) == m.gen("u1")


def test_differential_is_odd_derivation():
    m = load_builtin("t2-on-t2")
    a, b = m.gen("deta1"), m.gen("u2")
    lhs = equivariant_differential(multiply(a, b, m), m)
    rhs = add(
        multiply(equivariant_differential(a, m), b, m),
        multiply(a, equivariant_differential(b, m), m).scaled(-1),
        m,
    )
    # sign: a is odd, so D(a b) = D(a) b - a D(b); D(b) = 0 here anyway
    assert lhs == rhs


def test_differential_squares_to_zero_randomized():
    for name in builtin_names():
        m = load_builtin(name)
        rng = random.Random(17)
        for _ in range(1000):
            e = random_element(rng, m)
            dde = equivariant_differential(equivariant_differential(e, m), m)
            assert dde.is_zero(), (name, e)


def test_multiply_associative_randomized():
    rng = random.Random(5)
    for name in builtin_names():
        m = load_builtin(name)
        for _ in range(60):
            a = random_element(rng, m, with_delta=True)
            b = random_element(rng, m, with_delta=False)
            c = random_element(rng, m, with_delta=False)
            lhs = multiply(multiply(a, b, m), c, m)
            rhs = multiply(a, multiply(b, c, m), m)
            assert lhs == rhs


def test_multiply_graded_commutative_randomized():
    rng = random.Random(6)
    for name in builtin_names():
        m = load_builtin(name)
        for _ in range(80):
            a = random_element(rng, m, with_delta=True, n_terms=1)
            b = random_element(rng, m, with_delta=False, n_terms=1)
            if a.is_zero() or b.is_zero():
                continue
            pa = len(a.terms[0].odd_mono) % 2
            pb = len(b.terms[0].odd_mono) % 2
            sign = -1 if (pa and pb) else 1
            assert multiply(a, b, m) == multiply(b, a, m).scaled(sign)


def test_normal_form_idempotent_randomized():
    rng = random.Random(7)
    for name in builtin_names():
        m = load_builtin(name)
        for _ in range(50):
            e = random_element(rng, m)
            n1 = normal_form(e, m)
            assert normal_form(n1, m) == n1


def test_normal_form_multiplication_compatible():
    rng = random.Random(8)
    for name in builtin_names():
        m = load_builtin(name)
        for _ in range(50):
            a = random_element(rng, m, with_delta=True)
            b = random_element(rng, m, with_delta=False)
            assert multiply(a, b, m) == multiply(normal_form(a, m), normal_form(b, m), m)


def test_truncation_is_an_ideal():
    # dim 3: dalpha^2 has degree 4, so it kills any product it enters.
    m = load_builtin("s3-contact")
    over = Element((Term(Fraction(1), None, (), (("dalpha", 2),)),))
    assert normal_form(over, m).is_zero()
    assert multiply(over, m.gen("alpha"), m).is_zero()
    below = multiply(m.gen("alpha"), m.gen("dalpha"), m)  # degree 3 survives
    assert not below.is_zero()


def _key(t):
    """The accumulator key of a term in superalg.add_all."""
    return (_NO_DELTA if t.delta is None else t.delta, t.odd_mono, t.even_mono)


def _raw_pieces(rng, m, counts):
    """Unnormalized pieces built from the terms of a random element: a same-frame
    closed argument multiplied into a delta term (absorbed when finalized), a
    pair that cancels only after that absorption, and an even factor raised
    past the manifold dimension (truncated)."""
    fr = m.frames["fr"]
    plain = [n for n, g in m.generators.items()
             if g.parity == "even" and g.kind != CLOSED_ARGUMENT]
    pieces = []
    for t in random_element(rng, m, n_terms=4).terms:
        even = dict(t.even_mono)
        if t.delta is not None and rng.random() < 0.7:
            j = rng.randrange(fr.rank)
            u = fr.u_slots[j]
            up = tuple(e + (i == j) for i, e in enumerate(t.delta.deriv))
            absorbed = Term(t.coeff, DeltaFactor("fr", up), t.odd_mono,
                            tuple(sorted({**even, u: even.get(u, 0) + 1}.items())))
            partner = t._replace(coeff=t.coeff * up[j])
            pieces += [Element((absorbed,)), Element((partner,))]
            counts["absorbed"] += 1
        elif plain and rng.random() < 0.5:
            name = rng.choice(plain)
            even[name] = even.get(name, 0) + m.manifold_dim // 2 + 1
            over = t._replace(even_mono=tuple(sorted(even.items())))
            assert m.term_degree(over) > m.manifold_dim
            pieces.append(Element((over,)))
            counts["truncated"] += 1
        else:
            pieces.append(Element((t,)))
    return pieces


def test_add_all_equals_pairwise_fold_randomized():
    rng = random.Random(11)
    counts = dict.fromkeys(("absorbed", "truncated", "cancelled"), 0)
    for _ in range(150):
        m = random_model(rng, max_rank=3, with_theta=rng.random() < 0.3, dim_cap=6)
        if m.frames["fr"].rank == 0:
            continue
        pieces = [random_element(rng, m, n_terms=rng.randint(1, 5))
                  for _ in range(rng.randint(0, 4))]
        pieces += _raw_pieces(rng, m, counts)
        pieces += [p.scaled(-1) for p in pieces if rng.random() < 0.3]
        rng.shuffle(pieces)
        total = add_all(pieces, m)
        assert total == functools.reduce(lambda a, b: add(a, b, m), pieces, Element())
        assert total == add_all([total], m) == normal_form(total, m)
        merged = {_key(t) for p in pieces for t in normal_form(p, m).terms}
        counts["cancelled"] += len(merged) - len(total.terms)
    assert all(counts.values()), counts


def _fold_cases(acc, m, counts):
    """Count the keys of an unfinalized product that finalizing truncates, or
    whose same-frame closed arguments it absorbs into the delta: to zero when
    an exponent exceeds the derivative order, else to a lower order.  A raw
    key is (delta or None, odd bitmask, even monomial)."""
    for (dk, mask, even), c in acc.items():
        assert type(mask) is int and dk is not _NO_DELTA, (dk, mask)
        if not c:
            continue
        deg = sum(m.form_degrees[n] for n, i in m.odd_order.items() if mask >> i & 1)
        deg += sum(e * m.truncation_degrees[n] for n, e in even)
        counts["truncated"] += deg > m.manifold_dim
        if dk is None:
            continue
        slots = [(m._u_frame[n][1], e) for n, e in even
                 if n in m._u_frame and m._u_frame[n][0] == dk.frame_id]
        if slots:
            zero = any(e > dk.deriv[j] for j, e in slots)
            counts["absorbed-to-zero" if zero else "absorbed-lower"] += 1


def _random_product(rng, m):
    """0-3 delta-free factors, sometimes with an odd element twice (it
    squares to zero only once its two cross terms cancel in the
    accumulator), and with probability 0.7 one delta factor at a random
    place."""
    factors = [random_element(rng, m, with_delta=False, n_terms=rng.randint(1, 3))
               for _ in range(rng.randint(0, 3))]
    odd = [n for n, g in m.generators.items() if g.parity == ODD]
    if len(odd) >= 2 and rng.random() < 0.3:
        o = add(m.gen(odd[0]).scaled(nonzero_rational(rng)),
                m.gen(odd[1]).scaled(nonzero_rational(rng)), m)
        factors[rng.randint(0, len(factors)):0] = [o, o]
    if rng.random() < 0.7:
        delta = random_element(rng, m, with_delta=True, n_terms=rng.randint(1, 3))
        factors.insert(rng.randint(0, len(factors)), delta)
    return factors


def _recorded(run, monkeypatch, counts):
    """run() with the Koszul loop and _finalize recorded: (its value, the raw
    accumulators that the Koszul loop returned, in call order).  Each
    accumulator that _finalize receives is searched by _fold_cases."""
    real_koszul, real_finalize = superalg._koszul, superalg._finalize
    seen = []

    def recorded_koszul(items, b, m):
        seen.append(real_koszul(items, b, m))
        return seen[-1]

    def recorded_finalize(acc, m):
        _fold_cases(acc, m, counts)
        return real_finalize(acc, m)

    with monkeypatch.context() as patch:
        patch.setattr(superalg, "_koszul", recorded_koszul)
        patch.setattr(superalg, "_finalize", recorded_finalize)
        return run(), seen


def test_product_fold_equals_product_randomized(monkeypatch):
    """fold is add_all of the products' normal forms when at most one
    factor of each product carries a delta, wherever it stands; two
    products may share keys.  The reference kernel below gives the same sum
    without fold, which add_all and product also run through.  The Koszul
    loop's raw accumulators are recorded, one per factor, since each product
    starts from the unit: a partial product, any but the last of its
    product, may hold a cancelled term, and the accumulator that
    fold finalizes is searched for terms that finalizing truncates or
    absorbs."""
    rng = random.Random(37)
    counts = dict.fromkeys(("truncated", "absorbed-to-zero", "absorbed-lower",
                            "cancelled"), 0)
    for _ in range(200):
        m = random_model(rng, max_rank=3, with_theta=rng.random() < 0.3, dim_cap=6)
        products = [_random_product(rng, m) for _ in range(rng.randint(0, 3))]
        if len(products) >= 2 and rng.random() < 0.5:
            # a rescaled copy: two products whose terms share every key
            first = products[0]
            products[-1] = [first[0].scaled(nonzero_rational(rng)), *first[1:]] if first else []
        got, seen = _recorded(lambda: superalg.fold(products, m), monkeypatch, counts)
        for factors in products:
            calls = len(factors)
            partials = seen[:calls][:-1]
            del seen[:calls]
            counts["cancelled"] += any(c == 0 for acc in partials for c in acc.values())
        assert seen == []
        assert got == add_all([product(fs, m) for fs in products], m), (m.name, products)
        assert got == _ref_fold(products, m), (m.name, products)
        _assert_canonical(got)
    assert all(counts.values()), counts


def test_product_fold_needs_one_delta_factor():
    """With two delta factors in one product fold may raise where product
    does not: u1 delta_0 is zero once finalized, before the second delta
    meets it."""
    m = load_builtin("s1-on-s1")
    factors = [m.delta("tau"), m.gen("u1"), m.delta("tau")]
    assert product(factors, m).is_zero()
    with pytest.raises(DeltaClash):
        superalg.fold([factors], m)
    assert superalg.fold([factors[:2], factors[2:]], m) == m.delta("tau")


def _ref_taylor_fold(heads, xs, bound, rekey, m):
    """taylor_fold by its definition: for every |J| <= bound and head term t,
    t with its delta rekeyed, times the normal form of x^J, over J!."""
    pieces = []
    for jj in itertools.product(range(bound + 1), repeat=len(xs)):
        if sum(jj) > bound:
            continue
        xj = product([x for x, e in zip(xs, jj) for _ in range(e)], m)
        scale = Fraction(1, math.prod(map(math.factorial, jj)))
        for t in heads.terms:
            head = Element((t._replace(delta=rekey(t.delta, jj)),))
            pieces.append(multiply(head, xj, m).scaled(scale))
    return add_all(pieces, m)


def _taylor_rekeys(fid):
    """delta^(I) -> delta^(I+J)(f), the display's rekey; -> delta^(I+J)(u),
    which absorbs the closed arguments of x^J; -> delta^(I)(u), which
    absorbs them to zero once J exceeds I."""
    def shifted(d, jj, argument):
        return DeltaFactor(fid, tuple(a + b for a, b in zip(d.deriv, jj)), argument)
    return (lambda d, jj: shifted(d, jj, ARG_MOMENT),
            lambda d, jj: shifted(d, jj, "closed"),
            lambda d, jj: d)


def test_taylor_fold_equals_its_definition_randomized(monkeypatch):
    """taylor_fold against the sum of its terms one multi-index at a time.
    The heads carry one or more deltas and have several degrees, so the
    bound leaves some of their terms to the final truncation; the x_s
    include an odd generator (its square vanishes) and a two-term odd
    element (its square cancels), so subtrees end early.  Every partial
    product is recorded, and the accumulator taylor_fold finalizes is
    searched for terms that finalizing truncates or absorbs."""
    rng = random.Random(61)
    counts = dict.fromkeys(("truncated", "absorbed-to-zero", "absorbed-lower", "cancelled",
                            "vanished", "several-deltas", "several-degrees"), 0)
    cases = 0
    while cases < 150:
        m = random_model(rng, max_rank=3, with_theta=rng.random() < 0.4, dim_cap=8)
        k = m.frames["fr"].rank
        heads = Element(tuple(t for t in random_element(rng, m, n_terms=4).terms
                              if t.delta is not None))
        if not k or not heads.terms:
            continue
        cases += 1
        odd = sorted(n for n, g in m.generators.items() if g.parity == ODD)
        xs = []
        for _ in range(k):
            roll = rng.random()
            if roll < 0.2:
                xs.append(m.gen(rng.choice(odd)).scaled(nonzero_rational(rng)))
            elif roll < 0.35 and len(odd) >= 2:
                a, b = rng.sample(odd, 2)
                xs.append(add(m.gen(a), m.gen(b).scaled(nonzero_rational(rng)), m))
            else:
                xs.append(random_element(rng, m, with_delta=False, n_terms=rng.randint(1, 3)))
        bound = rng.randint(0, 4)
        rekey = rng.choice(_taylor_rekeys("fr"))
        counts["several-deltas"] += len({t.delta for t in heads.terms}) > 1
        counts["several-degrees"] += len({m.term_degree(t) for t in heads.terms}) > 1
        got, seen = _recorded(lambda: superalg.taylor_fold(heads, xs, bound, rekey, m),
                              monkeypatch, counts)
        counts["cancelled"] += any(c == 0 for acc in seen for c in acc.values())
        counts["vanished"] += any(not any(acc.values()) for acc in seen)
        assert got == _ref_taylor_fold(heads, xs, bound, rekey, m), (m.name, heads, xs, bound)
        _assert_canonical(got)
    assert all(counts.values()), counts


def test_taylor_fold_keeps_closed_arguments_of_the_factors():
    """A closed argument of a factor x_s stays next to the rekeyed moment
    delta: the head's own closed delta never absorbs it mid-walk."""
    m = load_builtin("hopf")
    moment = _taylor_rekeys("conn")[0]
    x = multiply(m.gen("u1"), m.gen("Psi"), m)
    got = superalg.taylor_fold(m.delta("conn", (1,)), [x], 1, moment, m)
    assert got == add(m.delta("conn", (1,), ARG_MOMENT),
                      multiply(m.delta("conn", (2,), ARG_MOMENT), x, m), m)
    assert len(got.terms) == 2 and got.terms[1].even_mono == (("Psi", 1), ("u1", 1))
    assert superalg.taylor_fold(Element(), [x], 3, moment, m) == Element()


# ---------------------------------------------------------------------------
# reference kernel: the Fraction-coefficient multiply and finalize that the
# integer-first, bitmask-signed kernel replaced, kept to check it against

def _ref_term_degree(m, t):
    deg = sum(m.generators[n].form_degree for n in t.odd_mono)
    deg += sum(e * (0 if n in m.parameters else m.generators[n].truncation_degree())
               for n, e in t.even_mono)
    return deg


def _ref_finalize(acc, m, counts=None):
    out = {}
    for key, coeff in acc.items():
        if coeff == 0:
            continue
        dk, odd_mono, even_mono = key
        delta = None if dk[0] == "" and not dk[1] else DeltaFactor(*dk)
        even = dict(even_mono)
        if delta is not None and delta.argument == "closed":
            before = delta.deriv
            coeff, delta, even = _ref_absorb(coeff, delta, even, m)
            if counts is not None and (coeff == 0 or delta.deriv != before):
                counts["absorbed"] += 1
            if coeff == 0:
                continue
        even_mono = tuple(sorted((n, e) for n, e in even.items() if e != 0))
        t = Term(coeff, delta, odd_mono, even_mono)
        if _ref_term_degree(m, t) > m.manifold_dim:
            if counts is not None:
                counts["truncated"] += 1
            continue
        k2 = _key(t)
        out[k2] = out.get(k2, 0) + coeff
    terms = tuple(
        Term(c, None if k[0][0] == "" and not k[0][1] else DeltaFactor(*k[0]), k[1], k[2])
        for k, c in sorted(out.items()) if c != 0)
    return Element(terms)


def _ref_absorb(coeff, delta, even, m):
    deriv = list(delta.deriv)
    changed = True
    while changed:
        changed = False
        for name in list(even):
            fs = m._u_frame.get(name)
            if fs is None or fs[0] != delta.frame_id or even[name] == 0:
                continue
            j = fs[1]
            if deriv[j] == 0:
                return Fraction(0), delta, even
            coeff *= -deriv[j]
            deriv[j] -= 1
            even[name] -= 1
            changed = True
    return coeff, DeltaFactor(delta.frame_id, tuple(deriv), delta.argument), even


def _ref_merge_sign(odd1, odd2, order):
    inv = 0
    for g2 in odd2:
        o2 = order[g2]
        inv += sum(1 for g1 in odd1 if order[g1] > o2)
    return -1 if inv % 2 else 1


def _ref_multiply(a, b, m, counts=None):
    acc = {}
    order = m.odd_order
    contributions = {}
    for t1 in a.terms:
        for t2 in b.terms:
            if t1.delta is not None and t2.delta is not None:
                if t1.delta.frame_id == t2.delta.frame_id:
                    raise DeltaClash(
                        f"product of two delta factors on frame {t1.delta.frame_id!r}")
                raise DeltaClash(
                    f"product of delta factors on distinct frames "
                    f"{t1.delta.frame_id!r} and {t2.delta.frame_id!r}")
            if set(t1.odd_mono) & set(t2.odd_mono):
                if counts is not None:
                    counts["overlap"] += 1
                continue
            sign = _ref_merge_sign(t1.odd_mono, t2.odd_mono, order)
            if counts is not None and sign < 0:
                counts["odd_inversions"] += 1
            odd = tuple(sorted(t1.odd_mono + t2.odd_mono, key=order.__getitem__))
            if counts is not None and odd != t1.odd_mono + t2.odd_mono:
                # a generator of t1 after one of t2 in odd_order
                counts["inversion"] += 1
            even = dict(t1.even_mono)
            for n, e in t2.even_mono:
                even[n] = even.get(n, 0) + e
            delta = t1.delta if t1.delta is not None else t2.delta
            if counts is not None and delta is not None and any(delta.deriv):
                counts["derivative_delta"] += 1
            dk = delta if delta is not None else ("", (), "")
            key = (dk, odd, tuple(sorted(even.items())))
            acc[key] = acc.get(key, Fraction(0)) + t1.coeff * t2.coeff * sign
            contributions[key] = contributions.get(key, 0) + 1
    if counts is not None:
        counts["cancelled"] += sum(1 for k, c in acc.items() if c == 0 and contributions[k] > 1)
    return _ref_finalize(acc, m, counts)


def _ref_fold(products, m):
    """The sum of the products, each multiplied stepwise from 1 by the
    reference kernel, with the sum finalized by the reference finalize."""
    acc = {}
    for factors in products:
        piece = Element((Term(1, None, (), ()),))
        for f in factors:
            piece = _ref_multiply(piece, f, m)
        for t in piece.terms:
            acc[_key(t)] = acc.get(_key(t), 0) + t.coeff
    return _ref_finalize(acc, m)


def _assert_canonical(e):
    for t in e.terms:
        c = t.coeff
        assert type(c) is (int if c.denominator == 1 else Fraction), t


# what the products of the randomized kernel tests must have exercised
OPERAND_KINDS = ("x-left", "x-right", "even-left", "even-right", "delta-left", "delta-right")
PRODUCT_KINDS = OPERAND_KINDS + ("inversion", "truncated", "same-frame clash")


def _check_pair(a, b, m, seen):
    """multiply(a, b) against the reference kernel: the same terms in the
    same order, each a Term with a canonical coefficient, or the same
    DeltaClash message."""
    try:
        want = _ref_multiply(a, b, m, seen)
    except DeltaClash as e:
        with pytest.raises(DeltaClash, match=f"^{re.escape(str(e))}$"):
            multiply(a, b, m)
        seen["distinct-frame clash" if "distinct" in str(e) else "same-frame clash"] += 1
        return
    got = multiply(a, b, m)
    assert got.terms == want.terms, (m.name, a, b)
    assert all(type(t) is Term for t in got.terms)
    _assert_canonical(got)
    for t in got.terms:
        seen["int_coeff" if type(t.coeff) is int else "fraction_coeff"] += 1
    for side, e in (("left", a), ("right", b)):
        seen[f"x-{side}"] += any(n in m.parameters for t in e.terms for n, _ in t.even_mono)
        seen[f"even-{side}"] += any(t.even_mono for t in e.terms)
        seen[f"delta-{side}"] += any(t.delta is not None for t in e.terms)


def _operands(rng, m):
    a = random_element(rng, m, with_delta=rng.random() < 0.8, n_terms=rng.randint(1, 4))
    b = random_element(rng, m, with_delta=rng.random() < 0.3, n_terms=rng.randint(1, 4))
    return a, b


def test_kernel_matches_reference_randomized():
    """multiply and add_all against the reference kernel on seeded random
    models of dimension cap 2 to 8, with and without theta generators; each
    pair of operands is multiplied in both orders and each operand by
    itself."""
    rng = random.Random(23)
    seen = Counter()
    while seen["models"] < 240:
        m = random_model(rng, max_rank=3, with_theta=rng.random() < 0.4,
                         dim_cap=rng.choice((2, 3, 4, 6, 8)))
        if m.frames["fr"].rank == 0:
            continue
        seen["models"] += 1
        seen["theta" if any(n.startswith("th") for n in m.generators) else "theta-free"] += 1
        for _ in range(3):
            a, b = _operands(rng, m)
            for x, y in ((a, b), (b, a), (a, a), (b, b)):
                _check_pair(x, y, m, seen)
        pieces = _raw_pieces(rng, m, Counter())
        acc = {}
        for p in pieces:
            for t in p.terms:
                acc[_key(t)] = acc.get(_key(t), Fraction(0)) + t.coeff
        total = add_all(pieces, m)
        assert total == _ref_finalize(acc, m)
        _assert_canonical(total)
    assert all(seen[k] for k in PRODUCT_KINDS + (
        "theta", "theta-free", "overlap", "odd_inversions", "absorbed", "derivative_delta",
        "cancelled", "int_coeff", "fraction_coeff")), seen


def test_tables_stay_with_their_model():
    """A model and its fibre extension order their odd generators
    differently.  The same operands, multiplied in turn in each, agree with
    the reference kernel in each, so no table entry crosses between them."""
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


def test_delta_clash_messages_match_reference():
    """The first clashing pair in term order names the error: a delta
    meeting a delta on its own frame or on another one, whichever frame the
    right operand's first delta is on."""
    m = _two_frame_model()
    fr1 = add_all((m.gen("c"), m.delta("fr", (1, 0))), m)
    gs1 = add_all((m.gen("X1"), m.delta("gs", (0, 2))), m)
    both = add_all((m.gen("a1"), m.delta("fr"), m.delta("gs", (1, 1))), m)
    seen = Counter()
    for a in (fr1, gs1, both):
        for b in (fr1, gs1, both):
            _check_pair(a, b, m, seen)
    assert seen["same-frame clash"] and seen["distinct-frame clash"], seen
    with pytest.raises(DeltaClash, match="^product of delta factors on distinct frames "
                                         "'gs' and 'fr'$"):
        multiply(gs1, both, m)


def test_coefficients_are_canonical():
    rng = random.Random(29)
    for name in builtin_names():
        m = load_builtin(name)
        for c in (3, Fraction(6, 2), Fraction(-1, 3), Fraction(5, 5)):
            _assert_canonical(m.scalar(c))
        for _ in range(40):
            e = random_element(rng, m)
            _assert_canonical(e)
            _assert_canonical(equivariant_differential(e, m))
            for c in (2, Fraction(1, 2), Fraction(-3, 3)):
                _assert_canonical(e.scaled(c))
            _assert_canonical(add_all((e, e.scaled(Fraction(1, 3))), m))
    assert type(m.one().terms[0].coeff) is int
    assert m.scalar(Fraction(4, 2)).terms[0].coeff == 2


def test_degree_tables_match_generators():
    models = [load_builtin(name) for name in builtin_names()]
    models += [with_fibre_coordinates(m, fid) for m in list(models) for fid in m.frames]
    # fibre coforms are plain forms that carry their frame and slot
    assert any(g.name.startswith("dxi_") and g.kind == "plainForm" and g.slot == 1
               for m in models for g in m.generators.values())
    for m in models:
        assert m.form_degrees == {n: g.form_degree for n, g in m.generators.items()}
        # a parameter is an even generator of truncation degree 0
        assert m.truncation_degrees == dict.fromkeys(m.parameters, 0) | {
            n: 0 if g.kind == CLOSED_ARGUMENT else g.form_degree
            for n, g in m.generators.items()}


def test_zeroth_power_is_one():
    m = load_builtin("hopf")
    assert m.gen("psi", 0) == m.one() == m.gen("Psi", 0)


def test_scalar_and_x_helpers():
    m = load_builtin("t2-on-t2")
    e = multiply(m.scalar(Fraction(3, 2)), m.gen(m.parameters[1], 2), m)
    assert e.terms[0].coeff == Fraction(3, 2)
    assert e.terms[0].even_mono == (("X2", 2),)
    with pytest.raises(KeyError):
        m.gen("X3")


def test_graded_exp_pieces():
    m = load_builtin("hopf")
    psi = m.gen("Psi")
    # Psi is a 2-form on the 3-manifold, so exp(2 Psi) = 1 + 2 Psi
    assert list(graded_exp_pieces(psi.scaled(2), m)) == [m.one(), psi.scaled(2)]
    # a scalar is not nilpotent: its powers never vanish
    with pytest.raises(InvariantViolation, match="failed to terminate"):
        list(graded_exp_pieces(m.scalar(1), m))


def _tiny_model(d_table, iota_table, gens=None):
    gens = gens or {
        "a": Generator("a", "odd", 1, "plainForm", None, None),
        "w": Generator("w", "even", 2, "plainForm", None, None),
    }
    return FormalModel(
        name="tiny", manifold_dim=6, parameters=("X",), generators=gens,
        d_table=d_table, iota_table=iota_table, frames={},
    )


def test_validate_rejects_nonvanishing_d_squared():
    m = _tiny_model({"a": Element((Term(Fraction(1), None, (), (("w", 1),)),)),
                     "w": Element((Term(Fraction(1), None, ("a",), (("w", 1),)),))},
                    {})
    with pytest.raises(InvariantViolation):
        validate_model(m)


def test_validate_rejects_cartan_violation():
    # L(X) a = iota(d a) + d(iota a) = iota(w) must vanish for invariant a
    m = _tiny_model({"a": Element((Term(Fraction(1), None, (), (("w", 1),)),))},
                    {("w", 0): Element((Term(Fraction(1), None, (), ()),))})
    with pytest.raises(InvariantViolation):
        validate_model(m)


def test_validate_rejects_a_parameter_named_like_a_generator():
    # a parameter is an even generator: the two would share one monomial
    gens = {"a": Generator("a", "odd", 1, "plainForm", None, None),
            "X": Generator("X", "even", 2, "plainForm", None, None)}
    with pytest.raises(InvariantViolation,
                       match="^a parameter name collides with a generator name$"):
        validate_model(_tiny_model({}, {}, gens))


def test_validate_rejects_a_slot_that_is_not_the_frames_closed_argument():
    """The loader matches closed arguments to slots itself, so only a model
    built in code can name another generator as a frame's closed argument."""
    m = load_builtin("s3-contact")
    frames = {"co": m.frames["co"]._replace(u_slots=("dalpha",))}
    bad = FormalModel(m.name, m.manifold_dim, m.parameters, m.generators, m.d_table,
                      m.iota_table, frames, m.base, m.fixed_loci)
    with pytest.raises(InvariantViolation, match="^bad closed argument 'dalpha' in 'co'$"):
        validate_model(bad)


def test_differential_of_a_parameter_is_zero():
    # D(X) = 0, so D(X w) = X D(w) for any w
    m = load_builtin("hopf")
    x = m.gen("X")
    assert equivariant_differential(x, m).is_zero()
    psi = m.gen("psi")
    assert equivariant_differential(multiply(x, psi, m), m) == \
        multiply(x, equivariant_differential(psi, m), m)


def test_validate_rejects_frame_form_table_entry():
    m = load_builtin("s1-on-s1")
    d_table = dict(m.d_table)
    d_table["deta"] = m.gen("u1")
    bad = model_with(m, d_table=d_table)
    with pytest.raises(InvariantViolation):
        validate_model(bad)


def test_validate_rejects_delta_in_image():
    m = load_builtin("hopf")
    d_table = dict(m.d_table)
    d_table["Psi"] = m.delta("conn")
    bad = model_with(m, d_table=d_table)
    with pytest.raises(InvariantViolation):
        validate_model(bad)


def _with_split(m, frame_id, dalpha):
    frames = dict(m.frames)
    frames[frame_id] = frames[frame_id]._replace(dalpha=dalpha)
    return model_with(m, frames=frames)


def test_validate_requires_split_entries_to_be_two_forms():
    # the Taylor display bounds its walk by degree, which needs every term of
    # dalpha_j to be a 2-form without a delta; u counts 0 toward the degree
    m = load_builtin("hopf")
    for bad in (m.one(), m.gen(m.parameters[0]), m.gen("psi"), m.gen("u1"), m.delta("conn"),
                add(m.gen("Psi"), m.scalar(2), m)):
        with pytest.raises(InvariantViolation, match="split entry 0"):
            validate_model(_with_split(m, "conn", (bad,)))
    for good in (Element(), m.gen("Psi"), multiply(m.gen(m.parameters[0]), m.gen("Psi"), m)):
        assert validate_model(_with_split(m, "conn", (good,))) is True


def test_random_models_validate():
    for seed in range(40):
        m = random_model(random.Random(seed))
        validate_model(m)  # must not raise


def _bare_images(m):
    """The bare image maps of the three identities: the d table, and the
    iota_a table of each parameter a; closed arguments map to zero."""
    closed_args = {g.name for g in m.generators.values() if g.kind == CLOSED_ARGUMENT}

    def d_img(n):
        return Element() if n in closed_args else m.d_table.get(n, Element())

    def iota_img(a):
        def img(n):
            return Element() if n in closed_args else m.iota_table.get((n, a), Element())
        return img

    return d_img, [iota_img(a) for a in range(m.r)]


def _reference_identities(m):
    """The three table identities that D^2 = 0 holds, checked one by one with
    nothing skipped: d d on every generator, iota_a iota_b + iota_b iota_a on
    every pair (a, b), and every Cartan sum.  The derivations are the
    product-based _ref_apply, which shares no code with D."""
    frame_forms = {g.name for g in m.generators.values() if g.kind == FRAME_FORM}
    d_img, iotas = _bare_images(m)
    for name in m.generators:
        if name in frame_forms:
            continue
        dd = _ref_apply(d_img(name), d_img, m)
        if not dd.is_zero():
            raise InvariantViolation(f"d(d({name})) != 0")
        for a in range(m.r):
            ia = iotas[a]
            for b in range(m.r):
                ib = iotas[b]
                anti = add(_ref_apply(ia(name), ib, m),
                           _ref_apply(ib(name), ia, m), m)
                if not anti.is_zero():
                    raise InvariantViolation(f"iota_{a} iota_{b} fails to anticommute on {name!r}")
            cartan = add(_ref_apply(ia(name), d_img, m),
                         _ref_apply(d_img(name), ia, m), m)
            if not cartan.is_zero():
                raise InvariantViolation(
                    f"generator {name!r} is not invariant: (d iota_{a} + iota_{a} d) != 0")
    return True


def _with_block(rng, m, kind):
    """m with extra generators zp (even, 2), zq and zr (odd, 1), zc (even, 2)
    and zs (odd, 3) placed at a random position, and table entries among them:

      valid        iota_a zp = zq, and if a != b also iota_b zp = zr,
                   iota_b zq = s, iota_a zr = -s (the pair (a, b) cancels)
      anticommute  iota_a zp = zq, iota_b zq = s (a > b, or a = b = 0 when
                   the model has one parameter)
      invariance   iota_a zp = zq, d zq = zc
      dd           d zq = s zp, d zp = zs

    and two kinds where one generator breaks two identities:

      dd+invariance           d zq = s zc, d zc = zs, iota_a zc = zr
                              (zq breaks d^2 and the Cartan sum of a)
      anticommute+invariance  iota_a zp = zq, iota_a zq = s (the pair (a, a)),
                              and iota_b zp = zr, d zr = zc if a != b (the
                              Cartan sum of b < a), else d zq = zc (of a)
    """
    new = {"zp": Generator("zp", EVEN, 2), "zq": Generator("zq", ODD, 1),
           "zr": Generator("zr", ODD, 1), "zc": Generator("zc", EVEN, 2),
           "zs": Generator("zs", ODD, 3)}
    items = list(m.generators.items())
    at = rng.randint(0, len(items))
    gens = dict(items[:at] + list(new.items()) + items[at:])
    d_table, iota_table = dict(m.d_table), dict(m.iota_table)
    s = nonzero_rational(rng)
    b, a = sorted(rng.sample(range(m.r), 2)) if m.r > 1 else (0, 0)
    one = Element((Term(1, None, (), ()),))

    def gen(name):
        g = new[name]
        if g.parity == ODD:
            return Element((Term(1, None, (name,), ()),))
        return Element((Term(1, None, (), ((name, 1),)),))

    if kind == "valid":
        iota_table[("zp", a)] = gen("zq")
        if a != b:
            iota_table[("zp", b)] = gen("zr")
            iota_table[("zq", b)] = one.scaled(s)
            iota_table[("zr", a)] = one.scaled(-s)
    elif kind == "anticommute":
        iota_table[("zp", a)] = gen("zq")
        iota_table[("zq", b)] = one.scaled(s)
    elif kind == "invariance":
        iota_table[("zp", a)] = gen("zq")
        d_table["zq"] = gen("zc")
    elif kind == "dd":
        d_table["zq"] = gen("zp").scaled(s)
        d_table["zp"] = gen("zs")
    elif kind == "dd+invariance":
        d_table["zq"] = gen("zc").scaled(s)
        d_table["zc"] = gen("zs")
        iota_table[("zc", a)] = gen("zr")
    else:
        iota_table[("zp", a)] = gen("zq")
        iota_table[("zq", a)] = one.scaled(s)
        if a != b:
            iota_table[("zp", b)] = gen("zr")
            d_table["zr"] = gen("zc")
        else:
            d_table["zq"] = gen("zc")
    return model_with(m, manifold_dim=max(m.manifold_dim, 4), generators=gens,
                      d_table=d_table, iota_table=iota_table), (a, b)


def _outcome(check, m):
    try:
        return check(m)
    except InvariantViolation as e:
        return str(e)


def test_validate_matches_full_identity_loop():
    expected = {
        "valid": lambda a, b: True,
        "anticommute": lambda a, b: f"iota_{b} iota_{a} fails to anticommute on 'zp'",
        "invariance": lambda a, b: f"generator 'zp' is not invariant: "
                                   f"(d iota_{a} + iota_{a} d) != 0",
        "dd": lambda a, b: "d(d(zq)) != 0",
    }
    seen = dict.fromkeys(("random", "anticommute a>b", "anticommute a=b", *expected), 0)
    for seed in range(60):
        rng = random.Random(seed)
        m = random_model(rng, max_rank=3, with_theta=seed % 3 != 0)
        assert _outcome(validate_model, m) is True is _outcome(_reference_identities, m)
        seen["random"] += 1
        for kind, message in expected.items():
            broken, (a, b) = _with_block(rng, m, kind)
            got = _outcome(validate_model, broken)
            assert got == _outcome(_reference_identities, broken), (seed, kind)
            assert got == message(a, b), (seed, kind, got)
            seen[kind] += 1
            if kind == "anticommute":
                seen["anticommute a>b" if a > b else "anticommute a=b"] += 1
    assert all(seen.values()), seen


def test_validate_reports_the_first_broken_identity():
    """When one generator breaks two identities, the message names the first
    in the order d^2, then for each a the pairs (a, b >= a) before the Cartan
    sum of a."""
    expected = {
        "dd+invariance": lambda a, b: "d(d(zq)) != 0",
        "anticommute+invariance": lambda a, b: (
            f"generator 'zp' is not invariant: (d iota_{b} + iota_{b} d) != 0" if a != b
            else f"iota_{a} iota_{a} fails to anticommute on 'zp'"),
    }
    seen = dict.fromkeys(("dd+invariance", "cartan first", "anticommute first"), 0)
    for seed in range(40):
        rng = random.Random(seed)
        m = random_model(rng, max_rank=3, with_theta=seed % 3 != 0)
        for kind, message in expected.items():
            broken, (a, b) = _with_block(rng, m, kind)
            got = _outcome(validate_model, broken)
            assert got == message(a, b), (seed, kind, got)
            assert got == _outcome(_reference_identities, broken), (seed, kind)
        seen["dd+invariance"] += 1
        # (a, b) of the last kind, anticommute+invariance
        seen["cartan first" if a != b else "anticommute first"] += 1
    assert all(seen.values()), seen


def test_validate_rejects_a_parameter_in_a_table_image():
    # the parameter factors of D^2 g name the identity it breaks only when
    # the tables themselves hold no parameter
    m = load_builtin("hopf")
    x = m.gen("X")
    d_table = dict(m.d_table)
    d_table["Psi"] = multiply(x, m.gen("Psi"), m)
    with pytest.raises(InvariantViolation, match=r"^parameter inside table image d\(Psi\)$"):
        validate_model(model_with(m, d_table=d_table))
    gens = dict(m.generators, th=Generator("th", ODD, 1))
    with pytest.raises(InvariantViolation,
                       match=r"^parameter inside table image iota_0\(th\)$"):
        validate_model(model_with(m, generators=gens, iota_table={("th", 0): x}))
    # the same model with a scalar contraction is valid
    assert validate_model(model_with(m, generators=gens,
                                     iota_table={("th", 0): m.one()})) is True


# ---------------------------------------------------------------------------
# reference derivation: the Leibniz rule as products of single generators,
# which the split-term rule replaced, kept to check it against

def _ref_derivation_on_term(t, image, m):
    if t.delta is not None and t.delta.argument == ARG_MOMENT:
        raise NotDifferentiable("display-form element (moment-argument delta)")
    factors = [(n, 1, ODD) for n in t.odd_mono]
    factors += [(n, e, EVEN) for n, e in t.even_mono]
    head = Element((Term(t.coeff, t.delta, (), ()),))
    sign = 1
    for i, (name, exp, parity) in enumerate(factors):
        img = image(name)
        if img.is_zero():
            if parity == ODD:
                sign = -sign
            continue
        if parity == ODD:
            dfi = img
        else:
            dfi = multiply(m.gen(name, exp - 1) if exp > 1 else m.one(), img, m).scaled(exp)
        pre = [m.gen(n, e) for n, e, _ in factors[:i]]
        post = [m.gen(n, e) for n, e, _ in factors[i + 1:]]
        yield product([head] + pre + [dfi] + post, m).scaled(sign)
        if parity == ODD:
            sign = -sign


def _ref_apply(a, image, m):
    return add_all((piece for t in a.terms for piece in _ref_derivation_on_term(t, image, m)), m)


def _count_leibniz_cases(t, image, m, seen):
    for name in t.odd_mono:
        img = image(name)
        if img.is_zero():
            seen["zero image"] += 1
            continue
        seen["odd piece"] += 1
        if t.delta is not None and any(m._u_frame.get(n, ("",))[0] == t.delta.frame_id
                                       for it in img.terms for n, _ in it.even_mono):
            seen["u absorbed"] += 1
    for name, e in t.even_mono:
        if image(name).is_zero():
            seen["zero image"] += 1
        elif e > 1:
            seen["even power"] += 1


def _check_derivations(rng, m, seen, n_elements):
    for _ in range(n_elements):
        e = random_element(rng, m, n_terms=rng.randint(1, 4))
        got = equivariant_differential(e, m)
        assert got.terms == _ref_apply(e, m.d_image, m).terms, (m.name, e)
        _assert_canonical(got)
        for t in e.terms:
            _count_leibniz_cases(t, m.d_image, m, seen)
        for t in e.terms:
            if t.delta is None:
                continue
            moment = Element((t._replace(delta=t.delta._replace(argument=ARG_MOMENT)),))
            for derive in (lambda x: equivariant_differential(x, m),
                           lambda x: _ref_apply(x, m.d_image, m)):
                with pytest.raises(NotDifferentiable):
                    derive(moment)
            seen["moment delta"] += 1


def test_derivation_matches_product_reference_randomized():
    """D on random elements of random, built-in and fibre-extended models,
    against the product-based rule."""
    rng = random.Random(37)
    seen = dict.fromkeys(("odd piece", "even power", "u absorbed", "zero image",
                          "moment delta", "random", "builtin", "fibre"), 0)
    builtins = [load_builtin(name) for name in builtin_names()]
    for m in builtins:
        _check_derivations(rng, m, seen, 20)
        seen["builtin"] += 1
        for fid in m.frames:
            _check_derivations(rng, with_fibre_coordinates(m, fid), seen, 10)
            seen["fibre"] += 1
    for _ in range(40):
        m = random_model(rng, max_rank=3, with_theta=rng.random() < 0.6,
                         dim_cap=rng.choice((4, 6)))
        _check_derivations(rng, m, seen, 4)
        _check_derivations(rng, with_fibre_coordinates(m, "fr"), seen, 2)
        seen["random"] += 1
        seen["fibre"] += 1
    assert all(seen.values()), seen


def test_models_are_frozen():
    m = load_builtin("hopf")
    for model in (m, with_fibre_coordinates(m, "conn"), random_model(random.Random(3))):
        for attr in ("d_table", "iota_table", "frames", "base", "fixed_loci", "odd_order"):
            with pytest.raises(AttributeError):
                setattr(model, attr, getattr(model, attr))


def test_delta_keys_sort_as_the_old_key_tuples():
    """A delta is its own key: keys with DeltaFactors sort as the keys with
    (frame_id, deriv, argument) tuples did, the no-delta key first."""
    pool = [None, DeltaFactor("", ()), DeltaFactor("", (), ARG_MOMENT),
            DeltaFactor("fr", (0, 1)), DeltaFactor("fr", (1, 0)),
            DeltaFactor("fr", (1, 0), ARG_MOMENT), DeltaFactor("gs", (0,))]
    assert all(_NO_DELTA < d for d in pool if d is not None)
    rng = random.Random(41)
    keys = []
    for name in builtin_names():
        m = load_builtin(name)
        for _ in range(30):
            for t in random_element(rng, m).terms:
                d = rng.choice(pool)
                keys.append(_key(t._replace(delta=d)))
    rng.shuffle(keys)

    def old_key(k):
        dk = ("", (), "") if k[0] is _NO_DELTA else (k[0].frame_id, k[0].deriv, k[0].argument)
        return (dk, k[1], k[2])

    assert sorted(keys) == sorted(keys, key=old_key)


def test_empty_frame_id_delta_is_kept():
    """The no-delta key is told apart by identity: a delta on a rank-1 frame
    with the empty id survives normal form and stays apart from 1."""
    m = FormalModel("empty-frame", 2, ("X",), {}, {}, {}, {"": FrameDecl("", 1, ("a",), ("u",))})
    d = m.delta("")
    assert normal_form(d, m).terms[0].delta == DeltaFactor("", (0,))
    assert multiply(m.gen("X"), d, m).terms[0].delta == DeltaFactor("", (0,))
    assert [t.delta for t in add(d, m.one(), m).terms] == [None, DeltaFactor("", (0,))]


def test_delta_of_no_arguments_is_one():
    """delta_0 of a rank-0 frame has no slots, and normal form reads it as 1,
    merged with the terms that carry no delta."""
    m = load_builtin("cp1-dolbeault")
    assert m.frames["triv"].rank == 0
    assert m.delta("triv") == m.one()
    assert normal_form(m.delta("triv"), m) == m.one()
    assert add(m.delta("triv"), m.one(), m) == m.scalar(2)
    x = m.gen(m.parameters[0])
    assert multiply(x, m.delta("triv"), m) == x
    # a moment-argument delta is a display form; the rule leaves it alone
    shown = normal_form(m.delta("triv", argument=ARG_MOMENT), m)
    assert shown.terms[0].delta == DeltaFactor("triv", (), ARG_MOMENT)
