"""Laurent polynomials (exponent-tuple dicts), factored rational characters,
directed expansion."""

import math
import random
import sys
from fractions import Fraction

import pytest

from equivar import laurent, linalg
from equivar.characters import run_pipeline
from equivar.charclass import localize_index
from equivar.errors import MissingExpansionDirection, OutOfRange
from equivar.laurent import (
    EXPAND_NEGATIVE,
    EXPAND_POSITIVE,
    DenomFactor,
    RationalCharacter,
    RCTerm,
    _like_terms,
    _positivity_functional,
    box_dict,
    expand_box,
    lattice_comb,
)
from equivar.modelfile import load_builtin
from equivar.report import report_status

F = Fraction


def _expand(rc, radius):
    """expand_box as the dict of its non-zero cells."""
    return box_dict(expand_box(rc, radius), rc.nvars, radius)


def _geo(weight, direction, nvars=1):
    return RationalCharacter(
        nvars, (RCTerm({(0,) * nvars: 1}, (DenomFactor(weight, 1, direction),)),))


def _poly(nvars, coeffs):
    return RationalCharacter(nvars, (RCTerm(coeffs),))


def test_geometric_series_positive_side():
    box = _expand(_geo((1,), EXPAND_POSITIVE), 4)
    assert box == {(n,): 1 for n in range(5)}


def test_geometric_series_negative_side():
    # 1/(1-t) = -t^-1/(1-t^-1) on the other side of the pole
    box = _expand(_geo((1,), EXPAND_NEGATIVE), 4)
    assert box == {(-n,): -1 for n in range(1, 5)}


def test_two_sides_differ_by_the_full_comb():
    # positive minus negative expansion of 1/(1-t) is the delta comb
    pos = _expand(_geo((1,), EXPAND_POSITIVE), 6)
    neg = _expand(_geo((1,), EXPAND_NEGATIVE), 6)
    comb = _expand(lattice_comb(1, (1,)), 6)
    for n in range(-6, 7):
        assert pos.get((n,), 0) - neg.get((n,), 0) == comb.get((n,), 0)


def test_cauchy_product_consistency():
    rng = random.Random(9)
    for _ in range(25):
        p1 = {(rng.randint(-2, 2),): rng.randint(1, 3)}
        r1 = RationalCharacter(
            1, (RCTerm(p1, (DenomFactor((1,), 1, EXPAND_POSITIVE),)),))
        p2 = {(rng.randint(-2, 2),): rng.randint(1, 3),
              (rng.randint(3, 4),): rng.randint(-3, -1)}
        r2 = RationalCharacter(
            1, (RCTerm(p2, (DenomFactor((2,), 1, EXPAND_POSITIVE),)),))
        prod = _expand(r1 * r2, 6)
        b1 = _expand(r1, 30)
        b2 = _expand(r2, 30)
        for n in range(-6, 7):
            conv = sum(b1.get((i,), 0) * b2.get((n - i,), 0) for i in range(-30, 31))
            assert prod.get((n,), 0) == conv, n


def test_multiplying_back_the_denominator():
    # (1 - t^w) * [1/(1 - t^w)] recovers the numerator exactly
    for direction in (EXPAND_POSITIVE, EXPAND_NEGATIVE):
        geo = _geo((3,), direction)
        poly = _poly(1, {(0,): 1, (3,): -1})
        back = _expand(poly * geo, 10)
        assert back == {(0,): 1}


def test_reciprocal_inverse_pair():
    # (1 + t) * 1/(1 + t), the evaluation c = -1
    rc = _poly(1, {(0,): 1, (1,): 1})
    for direction in (EXPAND_POSITIVE, EXPAND_NEGATIVE):
        inv = RationalCharacter(
            1, (RCTerm({(0,): 1}, (DenomFactor((1,), -1, direction),)),))
        assert _expand(rc * inv, 8) == {(0,): 1}


def test_lattice_comb_two_variables():
    comb = lattice_comb(2, (1, 0))
    box = _expand(comb, 2)
    for a in range(-2, 3):
        assert box.get((a, 0), 0) == 1
    assert all(w[1] == 0 for w in box)


# ---------------------------------------------------------------------------
# reference expansion: the half-space Fraction algorithm the clipped walk
# replaced, kept here as a test-only oracle

def _reference_functional(steps, nvars, bound):
    """First integer phi in [-bound, bound]^nvars with phi . s >= 1 for all
    steps, by brute force."""
    def search(prefix):
        if len(prefix) == nvars:
            if all(sum(p * s for p, s in zip(prefix, st)) >= 1 for st in steps):
                return tuple(prefix)
            return None
        for v in range(-bound, bound + 1):
            got = search(prefix + [v])
            if got is not None:
                return got
        return None
    return search([])


def _reference_term(term, radius, nvars, bound):
    num = term.num
    if not term.den:
        return dict(num)
    steps = [f.step() for f in term.den]
    phi = _reference_functional(steps, nvars, bound)
    assert phi is not None
    box_max = sum(abs(p) for p in phi) * radius
    budget = box_max - min(sum(p * v for p, v in zip(phi, mono)) for mono in num)
    acc = dict(num)
    for f, s in zip(term.den, steps):
        nmax = max(0, budget // sum(p * x for p, x in zip(phi, s)))
        series = {}
        if f.direction == EXPAND_POSITIVE:
            cpow = F(1)
            for n in range(nmax + 1):
                series[tuple(n * x for x in f.weight)] = cpow
                cpow *= f.c
        else:
            cinv = 1 / F(f.c)
            cpow = cinv
            for n in range(1, nmax + 1):
                series[tuple(-n * x for x in f.weight)] = -cpow
                cpow *= cinv
        nxt = {}
        for v1, c1 in acc.items():
            for v2, c2 in series.items():
                v = tuple(a + b for a, b in zip(v1, v2))
                if sum(p * x for p, x in zip(phi, v)) <= box_max:
                    nxt[v] = nxt.get(v, F(0)) + c1 * c2
        acc = {v: c for v, c in nxt.items() if c != 0}
    return acc


def _reference_expand_box(rc, radius, bound=4):
    total = {}
    for term in rc.terms:
        for v, c in _reference_term(term, radius, rc.nvars, bound).items():
            total[v] = total.get(v, F(0)) + c
    return {v: c for v, c in total.items()
            if c != 0 and all(abs(x) <= radius for x in v)}


_COEFFS = (1, -1, 2, -3, 5, -4)
_CS = (1, -1)


def _nonzero_weight(rng, nvars, wmax):
    while True:
        w = tuple(rng.randint(-wmax, wmax) for _ in range(nvars))
        if any(w):
            return w


def _random_character(rng, nvars=None, wmax=2):
    """1-3 variables (unless nvars is given) and terms, weights in
    [-wmax, wmax]; directions follow a hidden functional, so a common
    positivity functional exists."""
    nvars = nvars or rng.randint(1, 3)
    hidden = [rng.choice((-2, -1, 1, 2)) for _ in range(nvars)]
    terms = []
    for _ in range(rng.randint(1, 3)):
        num = {tuple(rng.randint(-4, 4) for _ in range(nvars)): rng.choice(_COEFFS)
               for _ in range(rng.randint(1, 3))}
        den = []
        for _ in range(rng.randint(0, 3)):
            w = _nonzero_weight(rng, nvars, wmax)
            while sum(p * x for p, x in zip(hidden, w)) == 0:
                w = _nonzero_weight(rng, nvars, wmax)
            side = sum(p * x for p, x in zip(hidden, w)) > 0
            den.append(DenomFactor(w, rng.choice(_CS),
                                   EXPAND_POSITIVE if side else EXPAND_NEGATIVE))
        rng.shuffle(den)
        terms.append(RCTerm(num, tuple(den)))
    return RationalCharacter(nvars, terms)


def test_expand_box_matches_reference_on_random_characters():
    rng = random.Random(20)
    seen = {"radius0": 0, "empty": 0, "negative": 0}
    for _ in range(300):
        rc = _random_character(rng)
        radius = rng.randint(0, 4)
        cells = expand_box(rc, radius)
        assert all(type(c) is int for c in cells)
        got = box_dict(cells, rc.nvars, radius)
        assert got == _reference_expand_box(rc, radius)
        dens = [f for t in rc.terms for f in t.den]
        seen["radius0"] += radius == 0
        seen["empty"] += not got
        seen["negative"] += any(f.direction == EXPAND_NEGATIVE and f.c < 0 for f in dens)
    assert all(seen.values()), seen


def _flat_steps(rc, radius):
    """Flat step, in the dense box layout, of the last factor of each term."""
    width = 2 * radius + 1
    return [sum(x * width ** (rc.nvars - 1 - i) for i, x in enumerate(t.den[-1].step()))
            for t in rc.terms if t.den]


def test_expand_box_matches_reference_on_long_and_negative_flat_steps():
    # weights up to +-5 at radii 1-2 step over the box (flat step 0 included);
    # three-variable boxes reach radius 6
    rng = random.Random(21)
    seen = {"long": 0, "zero": 0, "negative": 0, "three_vars_r6": 0}
    cases = [(rng.randint(1, 2), rng.randint(1, 2), 5) for _ in range(250)]
    cases += [(3, rng.randint(3, 6), 2) for _ in range(40)]
    for nvars, radius, wmax in cases:
        rc = _random_character(rng, nvars, wmax)
        got = _expand(rc, radius)
        assert got == _reference_expand_box(rc, radius), (nvars, radius)
        assert all(type(c) is int for c in got.values())
        last = [t.den[-1].step() for t in rc.terms if t.den]
        flat = _flat_steps(rc, radius)
        seen["long"] += bool(got) and any(max(map(abs, s)) > 2 * radius for s in last)
        seen["zero"] += bool(got) and 0 in flat
        seen["negative"] += bool(got) and any(k < 0 for k in flat)
        seen["three_vars_r6"] += nvars == 3 and radius == 6 and bool(got)
    assert all(seen.values()), seen


def test_expand_box_too_large_to_hold():
    # cell counts past what a list can index or a malloc can size fail at the
    # MAX_BOX_CELLS check, before anything is allocated
    past_bytes = sys.maxsize // 16 + 1  # 2r + 1 cells > sys.maxsize // 8
    with pytest.raises(OutOfRange, match=f"radius {past_bytes} has {2 * past_bytes + 1} cells"):
        expand_box(_geo((1,), EXPAND_POSITIVE), past_bytes)
    with pytest.raises(OutOfRange, match="radius 10000000000 has"):
        expand_box(lattice_comb(2, (1, 0)), 10 ** 10)  # (2r + 1)^2 > sys.maxsize


def test_expand_box_accumulator_clipped_to_empty():
    # t^5 / (1 - t): every point of the series lies right of the box
    far = RationalCharacter(1, (RCTerm({(5,): 1},
                                       (DenomFactor((1,), 1, EXPAND_POSITIVE),)),))
    assert _expand(far, 3) == {} == _reference_expand_box(far, 3)
    # the first factor clips to nothing before the second is walked
    two = RationalCharacter(2, (RCTerm({(0, 4): 1},
                                       (DenomFactor((0, 1), -1, EXPAND_POSITIVE),
                                        DenomFactor((1, 0), 1, EXPAND_NEGATIVE))),))
    assert _expand(two, 2) == {} == _reference_expand_box(two, 2)
    assert _expand(two, 0) == {} and _expand(_geo((1,), EXPAND_POSITIVE), 0) == {(0,): 1}


def test_expand_box_matches_reference_on_s3_contact():
    rc = localize_index(load_builtin("s3-contact").fixed_loci, 2)
    assert _expand(rc, 30) == _reference_expand_box(rc, 30)


def test_functional_outside_small_search_window():
    # (1,-4) and (-4,17) admit phi = (21, 5) only with entries above 4
    assert _reference_functional([(1, -4), (-4, 17)], 2, 4) is None
    rc = RationalCharacter(2, (RCTerm({(1, 0): 3},
                                      (DenomFactor((1, -4), -1, EXPAND_POSITIVE),
                                       DenomFactor((4, -17), -1, EXPAND_NEGATIVE))),))
    got = _expand(rc, 6)
    assert got and got == _reference_expand_box(rc, 6, bound=21)


def _fourier_motzkin_functional(steps, nvars):
    """Integer phi with phi . s >= 1 for every step, or None: Fourier-Motzkin
    elimination decides the system over the rationals, back substitution
    picks each coordinate nearest zero, and the solution is scaled by its
    common denominator."""
    rows = [(tuple(F(x) for x in s), F(1)) for s in steps]
    stages = []
    for k in reversed(range(nvars)):
        stages.append((k, rows))
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        kept = [r for r in rows if r[0][k] == 0]
        for a, b in pos:
            for c, d in neg:
                lam, mu = -c[k], a[k]
                row = tuple(lam * x + mu * y for x, y in zip(a, c))
                scale = sum(abs(x) for x in row) or 1
                kept.append((tuple(x / scale for x in row), (lam * b + mu * d) / scale))
        rows = list(dict.fromkeys(kept))
    if any(b > 0 for _, b in rows):
        return None
    phi = [F(0)] * nvars
    for k, rows in reversed(stages):
        lo = hi = None
        for a, b in rows:
            if a[k] == 0:
                continue
            bound = (b - sum(x * p for x, p in zip(a[:k], phi))) / a[k]
            if a[k] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and lo > 0:
            phi[k] = F(math.ceil(lo)) if hi is None or math.ceil(lo) <= hi else lo
        elif hi is not None and hi < 0:
            phi[k] = F(math.floor(hi)) if lo is None or math.floor(hi) >= lo else hi
    den = math.lcm(*(p.denominator for p in phi))
    return tuple(int(p * den) for p in phi)


def _random_steps(rng, seen):
    """1-5 steps in 1-4 variables, entries in [-3, 3], with duplicate,
    opposite and dependent steps mixed in, and often three steps in two
    variables."""
    if rng.random() < 0.25:
        nvars, n = 2, 3
        seen["3-in-2"] += 1
    else:
        nvars, n = rng.randint(1, 4), rng.randint(1, 5)
    steps = [tuple(rng.randint(-3, 3) for _ in range(nvars)) for _ in range(n)]
    if n > 1:
        i, j = rng.sample(range(n), 2)
        kind = rng.choice(("duplicate", "opposite", None) + ("dependent",) * 2 * (n > 2))
        if kind == "duplicate":
            steps[i] = steps[j]
        elif kind == "opposite":
            steps[i] = tuple(-x for x in steps[j])
        elif kind == "dependent":
            k = next(k for k in range(n) if k not in (i, j))
            a, b = rng.choice((-2, -1, 1, 2)), rng.choice((-1, 1, 3))
            steps[i] = tuple(a * x + b * y for x, y in zip(steps[j], steps[k]))
        if kind:
            seen[kind] += 1
    return steps, nvars


def test_functional_agrees_with_fourier_motzkin():
    rng = random.Random(22)
    seen = dict.fromkeys(("duplicate", "opposite", "dependent", "3-in-2",
                          "found", "none"), 0)
    drawn = linalg.random_gl_plus(random.Random(22), 2)
    last = linalg._last_det
    assert last[0] is drawn
    for _ in range(2500):
        steps, nvars = _random_steps(rng, seen)
        phi = _positivity_functional(steps, nvars)
        want = _fourier_motzkin_functional(steps, nvars)
        assert (phi is None) == (want is None), steps
        if phi is not None:
            assert type(phi) is tuple and len(phi) == nvars, steps
            assert all(type(p) is int for p in phi), steps
            assert all(sum(p * x for p, x in zip(phi, s)) >= 1 for s in steps), steps
        seen["none" if phi is None else "found"] += 1
    # frame trials read the det memo: the functional leaves it alone
    assert linalg._last_det is last and last[1] == linalg._bareiss_det(drawn)
    assert all(v >= 100 for v in seen.values()), seen


def test_functional_searched_once_per_step_set(monkeypatch):
    """A cp1-l2 run expands one character per irreducible, all over the same
    steps: every expansion asks for the functional, and each distinct step
    set is searched once."""
    asked, searched = [], []
    memo, search = laurent._functional, laurent._positivity_functional

    def ask(steps, nvars):
        asked.append(steps)
        return memo(steps, nvars)

    def count(steps, nvars):
        searched.append(steps)
        return search(steps, nvars)

    monkeypatch.setattr(laurent, "_functional", ask)
    monkeypatch.setattr(laurent, "_positivity_functional", count)
    memo.cache_clear()
    assert report_status(run_pipeline("cp1-l2")) == "pass"
    assert len(asked) == 42
    assert searched == list(dict.fromkeys(asked)) == [((-2,),)]


def test_no_functional_still_rejected():
    opposite = RationalCharacter(1, (RCTerm({(0,): 1},
                                            (DenomFactor((1,), 1, EXPAND_POSITIVE),
                                             DenomFactor((1,), 1, EXPAND_NEGATIVE))),))
    with pytest.raises(MissingExpansionDirection):
        expand_box(opposite, 3)


# ---------------------------------------------------------------------------
# terms over like denominators are summed before the walk

def _like_denominator_character(rng, seen):
    """A seeded character with repeated denominators: copies of its terms'
    denominators in permuted factor order, over the same, the opposite or
    a partly changed numerator."""
    rc = _random_character(rng)
    terms = list(rc.terms)
    for t in rc.terms:
        if not t.den or rng.random() < 0.3:
            continue
        den = tuple(rng.sample(t.den, len(t.den)))
        seen["permuted"] += den != t.den
        kind = rng.choice(("same", "opposite", "partial"))
        seen[kind] += 1
        if kind == "same":
            num = dict(t.num)
        elif kind == "opposite":
            num = {v: -c for v, c in t.num.items()}
        else:
            v = rng.choice(sorted(t.num))
            num = {v: -t.num[v] + rng.choice(_COEFFS),
                   tuple(rng.randint(-4, 4) for _ in v): rng.choice(_COEFFS)}
        terms.append(RCTerm(num, den))
    return RationalCharacter(rc.nvars, terms)


def test_like_denominators_summed_match_reference():
    rng = random.Random(23)
    seen = dict.fromkeys(("permuted", "same", "opposite", "partial", "merged",
                          "cancelled"), 0)
    for _ in range(300):
        rc = _like_denominator_character(rng, seen)
        groups = _like_terms(rc.terms)
        seen["merged"] += len(groups) < len(rc.terms)
        seen["cancelled"] += any(not num for num, _ in groups)
        radius = rng.randint(0, 4)
        got = _expand(rc, radius)
        assert got == _reference_expand_box(rc, radius)
        assert all(type(c) is int for c in got.values())
    assert all(seen.values()), seen


def test_cancelled_group_without_functional_still_raises():
    pos = DenomFactor((1,), 1, EXPAND_POSITIVE)
    neg = DenomFactor((1,), 1, EXPAND_NEGATIVE)
    rc = RationalCharacter(1, (RCTerm({(0,): 1}, (pos, neg)), RCTerm({(0,): -1}, (neg, pos))))
    assert _like_terms(rc.terms) == [({}, (pos, neg))]
    with pytest.raises(MissingExpansionDirection):
        expand_box(rc, 3)


def test_s3_contact_expansion_walks_two_groups(monkeypatch):
    # the mixed-cone terms of the two circles cancel: 4 terms, 2 walks
    calls = []
    add_term = laurent._add_term

    def counted(*args):
        calls.append(1)
        return add_term(*args)

    monkeypatch.setattr(laurent, "_add_term", counted)
    rc = localize_index(load_builtin("s3-contact").fixed_loci, 2)
    assert len(rc.terms) == 4
    expand_box(rc, 20)
    assert len(calls) == 2
