"""Algebra kernel: signs, absorption, the differential, and model validation."""

import dataclasses
import functools
import random
import re
from fractions import Fraction

import pytest

from equivar.errors import DeltaClash, InvariantViolation, NotDifferentiable
from equivar.genco import with_fibre_coordinates
from equivar.modelfile import builtin_names, load_builtin
from equivar.randmodels import nonzero_rational, random_element, random_model
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
    apply_table_derivation,
    equivariant_differential,
    multiply,
    normal_form,
    product,
    validate_model,
)


def test_odd_square_vanishes():
    m = load_builtin("s1-on-s1")
    assert multiply(m.gen("deta"), m.gen("deta"), m).is_zero()


def test_koszul_sign_on_odd_pair():
    m = load_builtin("t2-on-t2")
    ab = multiply(m.gen("deta1"), m.gen("deta2"), m)
    ba = multiply(m.gen("deta2"), m.gen("deta1"), m)
    assert ab == -ba
    assert not ab.is_zero()


def test_even_factors_commute():
    m = load_builtin("hopf")
    a = multiply(m.gen("Psi"), m.x(0, 2), m)
    b = multiply(m.x(0, 2), m.gen("Psi"), m)
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
            pa = m.parity_of_term(a.terms[0])
            pb = m.parity_of_term(b.terms[0])
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
    over = Element((Term(Fraction(1), (0, 0), None, (), (("dalpha", 2),)),))
    assert normal_form(over, m).is_zero()
    assert multiply(over, m.gen("alpha"), m).is_zero()
    below = multiply(m.gen("alpha"), m.gen("dalpha"), m)  # degree 3 survives
    assert not below.is_zero()


def _key(t):
    """The accumulator key of a term in superalg.add_all."""
    return (t.x_mono, _NO_DELTA if t.delta is None else t.delta, t.odd_mono, t.even_mono)


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
            absorbed = Term(t.coeff, t.x_mono, DeltaFactor("fr", up), t.odd_mono,
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
        pieces += [-p for p in pieces if rng.random() < 0.3]
        rng.shuffle(pieces)
        total = add_all(pieces, m)
        assert total == functools.reduce(lambda a, b: add(a, b, m), pieces, Element())
        assert total == add_all([total], m) == normal_form(total, m)
        merged = {_key(t) for p in pieces for t in normal_form(p, m).terms}
        counts["cancelled"] += len(merged) - len(total.terms)
    assert all(counts.values()), counts


# ---------------------------------------------------------------------------
# reference kernel: the Fraction-coefficient multiply and finalize that the
# integer-first, bitmask-signed kernel replaced, kept to check it against

def _ref_term_degree(m, t):
    deg = sum(m.generators[n].form_degree for n in t.odd_mono)
    deg += sum(e * m.generators[n].truncation_degree() for n, e in t.even_mono)
    return deg


def _ref_finalize(acc, m, counts=None):
    out = {}
    for key, coeff in acc.items():
        if coeff == 0:
            continue
        x_mono, dk, odd_mono, even_mono = key
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
        t = Term(coeff, x_mono, delta, odd_mono, even_mono)
        if _ref_term_degree(m, t) > m.manifold_dim:
            if counts is not None:
                counts["truncated"] += 1
            continue
        k2 = _key(t)
        out[k2] = out.get(k2, 0) + coeff
    terms = tuple(
        Term(c, k[0], None if k[1][0] == "" and not k[1][1] else DeltaFactor(*k[1]), k[2], k[3])
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
                counts["resorted"] += 1
            even = dict(t1.even_mono)
            for n, e in t2.even_mono:
                even[n] = even.get(n, 0) + e
            x_mono = tuple(i + j for i, j in zip(t1.x_mono, t2.x_mono))
            delta = t1.delta if t1.delta is not None else t2.delta
            if counts is not None and delta is not None and any(delta.deriv):
                counts["derivative_delta"] += 1
            dk = delta if delta is not None else ("", (), "")
            key = (x_mono, dk, odd, tuple(sorted(even.items())))
            acc[key] = acc.get(key, Fraction(0)) + t1.coeff * t2.coeff * sign
            contributions[key] = contributions.get(key, 0) + 1
    if counts is not None:
        counts["cancelled"] += sum(1 for k, c in acc.items() if c == 0 and contributions[k] > 1)
    return _ref_finalize(acc, m, counts)


def _assert_canonical(e):
    for t in e.terms:
        c = t.coeff
        assert type(c) is (int if c.denominator == 1 else Fraction), t


def test_kernel_matches_reference_randomized():
    rng = random.Random(23)
    counts = dict.fromkeys(("overlap", "resorted", "odd_inversions", "absorbed",
                            "derivative_delta", "truncated", "cancelled", "clash",
                            "int_coeff", "fraction_coeff"), 0)
    models = 0
    while models < 160:
        m = random_model(rng, max_rank=3, with_theta=rng.random() < 0.4,
                         dim_cap=rng.choice((4, 6, 8)))
        if m.frames["fr"].rank == 0:
            continue
        models += 1
        for _ in range(3):
            a = random_element(rng, m, with_delta=True, n_terms=rng.randint(1, 4))
            b = random_element(rng, m, with_delta=rng.random() < 0.2,
                               n_terms=rng.randint(1, 4))
            for x, y in ((a, b), (b, a), (b, b)):
                try:
                    want = _ref_multiply(x, y, m, counts)
                except DeltaClash as e:
                    with pytest.raises(DeltaClash, match=re.escape(str(e))):
                        multiply(x, y, m)
                    counts["clash"] += 1
                    continue
                got = multiply(x, y, m)
                assert got == want, (m.name, x, y)
                _assert_canonical(got)
                for t in got.terms:
                    counts["int_coeff" if type(t.coeff) is int else "fraction_coeff"] += 1
        pieces = _raw_pieces(rng, m, dict.fromkeys(("absorbed", "truncated"), 0))
        acc = {}
        for p in pieces:
            for t in p.terms:
                acc[_key(t)] = acc.get(_key(t), Fraction(0)) + t.coeff
        total = add_all(pieces, m)
        assert total == _ref_finalize(acc, m)
        _assert_canonical(total)
    assert all(counts.values()), counts


def test_coefficients_are_canonical():
    rng = random.Random(29)
    for name in builtin_names():
        m = load_builtin(name)
        for c in (3, Fraction(6, 2), Fraction(-1, 3), "5/5"):
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
    assert any(g.kind == "fibreCoform" for m in models for g in m.generators.values())
    for m in models:
        assert m.form_degrees == {n: g.form_degree for n, g in m.generators.items()}
        assert m.truncation_degrees == {
            n: 0 if g.kind == CLOSED_ARGUMENT else g.form_degree
            for n, g in m.generators.items()}


def test_zeroth_power_is_one():
    m = load_builtin("hopf")
    assert m.gen("psi", 0) == m.one() == m.gen("Psi", 0)


def test_scalar_and_x_helpers():
    m = load_builtin("t2-on-t2")
    e = multiply(m.scalar(Fraction(3, 2)), m.x(1, 2), m)
    assert e.terms[0].coeff == Fraction(3, 2)
    assert e.terms[0].x_mono == (0, 2)


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
    m = _tiny_model({"a": Element((Term(Fraction(1), (0,), None, (), (("w", 1),)),)),
                     "w": Element((Term(Fraction(1), (0,), None, ("a",), (("w", 1),)),))},
                    {})
    with pytest.raises(InvariantViolation):
        validate_model(m)


def test_validate_rejects_cartan_violation():
    # L(X) a = iota(d a) + d(iota a) = iota(w) must vanish for invariant a
    m = _tiny_model({"a": Element((Term(Fraction(1), (0,), None, (), (("w", 1),)),))},
                    {("w", 0): Element((Term(Fraction(1), (0,), None, (), ()),))})
    with pytest.raises(InvariantViolation):
        validate_model(m)


def test_validate_rejects_frame_form_table_entry():
    m = load_builtin("s1-on-s1")
    d_table = dict(m.d_table)
    d_table["deta"] = m.gen("u1")
    bad = dataclasses.replace(m, d_table=d_table)
    with pytest.raises(InvariantViolation):
        validate_model(bad)


def test_validate_rejects_delta_in_image():
    m = load_builtin("hopf")
    d_table = dict(m.d_table)
    d_table["Psi"] = m.delta("conn")
    bad = dataclasses.replace(m, d_table=d_table)
    with pytest.raises(InvariantViolation):
        validate_model(bad)


def test_random_models_validate():
    for seed in range(40):
        m = random_model(random.Random(seed))
        validate_model(m)  # must not raise


def _bare_images(m):
    """The image maps validate_model derives with: the bare d table, and the
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
    """The identity loop of validate_model with nothing skipped: d d on every
    generator, iota_a iota_b + iota_b iota_a on every pair (a, b), and every
    Cartan sum."""
    frame_forms = {g.name for g in m.generators.values() if g.kind == FRAME_FORM}
    d_img, iotas = _bare_images(m)
    for name in m.generators:
        if name in frame_forms:
            continue
        dd = apply_table_derivation(d_img(name), d_img, m)
        if not dd.is_zero():
            raise InvariantViolation(f"d(d({name})) != 0")
        for a in range(m.r):
            ia = iotas[a]
            for b in range(m.r):
                ib = iotas[b]
                anti = add(apply_table_derivation(ia(name), ib, m),
                           apply_table_derivation(ib(name), ia, m), m)
                if not anti.is_zero():
                    raise InvariantViolation(f"iota_{a} iota_{b} fails to anticommute on {name!r}")
            cartan = add(apply_table_derivation(ia(name), d_img, m),
                         apply_table_derivation(d_img(name), ia, m), m)
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
    one = Element((Term(1, (0,) * m.r, None, (), ()),))

    def gen(name):
        g = new[name]
        if g.parity == ODD:
            return Element((Term(1, (0,) * m.r, None, (name,), ()),))
        return Element((Term(1, (0,) * m.r, None, (), ((name, 1),)),))

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
    else:
        d_table["zq"] = gen("zp").scaled(s)
        d_table["zp"] = gen("zs")
    return dataclasses.replace(m, manifold_dim=max(m.manifold_dim, 4), generators=gens,
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


# ---------------------------------------------------------------------------
# reference derivation: the Leibniz rule as products of single generators,
# which the split-term rule replaced, kept to check it against

def _ref_derivation_on_term(t, image, m):
    if t.delta is not None and t.delta.argument == ARG_MOMENT:
        raise NotDifferentiable("display-form element (moment-argument delta)")
    factors = [(n, 1, ODD) for n in t.odd_mono]
    factors += [(n, e, EVEN) for n, e in t.even_mono]
    head = Element((Term(t.coeff, t.x_mono, t.delta, (), ()),))
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
    d_img, iotas = _bare_images(m)
    for _ in range(n_elements):
        e = random_element(rng, m, n_terms=rng.randint(1, 4))
        for image, got in [(m.d_image, equivariant_differential(e, m))] + [
                (img, apply_table_derivation(e, img, m)) for img in [d_img] + iotas]:
            want = _ref_apply(e, image, m)
            assert got.terms == want.terms, (m.name, e)
            _assert_canonical(got)
            for t in e.terms:
                _count_leibniz_cases(t, image, m, seen)
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
    """D and the validator's bare d and iota_a, on random elements of random,
    built-in and fibre-extended models, against the product-based rule."""
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
            with pytest.raises(dataclasses.FrozenInstanceError):
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
        dk = ("", (), "") if k[1] is _NO_DELTA else (k[1].frame_id, k[1].deriv, k[1].argument)
        return (k[0], dk, k[2], k[3])

    assert sorted(keys) == sorted(keys, key=old_key)


def test_empty_frame_id_delta_is_kept():
    """The no-delta key is told apart by identity: a delta on a rank-0 frame
    with the empty id survives normal form."""
    m = FormalModel("empty-frame", 2, ("X",), {}, {}, {}, {"": FrameDecl("", 0, (), ())})
    d = m.delta("")
    assert normal_form(d, m).terms[0].delta == DeltaFactor("", ())
    assert multiply(m.x(0), d, m).terms[0].delta == DeltaFactor("", ())
