"""Exact multivariate Laurent polynomials and factored rational characters.

A Laurent polynomial is a dict {exponent tuple: int coefficient} with no
zero entries.  Numerators are such dicts.  A RationalCharacter is a finite sum
of terms, each a numerator over a factored denominator prod (1 - c t^w).
Every denominator factor carries an expansion direction:

    expandPositive   1/(1 - c t^w)  ->  sum_{n>=0} c^n t^{n w}
    expandNegative   1/(1 - c t^w)  ->  -sum_{n>=1} c^{-n} t^{-n w}

Expansion of a term is defined when its step vectors admit a common
positive linear functional phi, phi . s >= 1 for every step s.  The test is
exact: if such a phi exists, one exists at a vertex, where rank(S)
independent steps are tight, so trying every basis of rank(S) steps through
linalg's exact determinants finds one or proves there is none.

expand_box returns the coefficients of a character on the box
max_i |v_i| <= r as one dense list with a cell for each point of the box,
in the order of itertools.product(range(-r, r + 1), repeat=n), which is the
lexicographic order of the weights: v sits at
sum_i (v_i + r) (2r + 1)^(n - 1 - i) (cell_index).  box_dict turns the list
into the polynomial dict of its non-zero cells, for callers that want one.
A box with more than MAX_BOX_CELLS cells raises OutOfRange before its list
is allocated.

Terms whose denominators are equal as multisets of (w, c, direction) are
one series: expand_box adds their numerators first and walks each such
group once, in its first term's factor order.  The functional is still
found, or found missing, for every group, also when its numerators cancel.
A group walks the directed series into its numerator one factor at a time
and keeps only points from which the remaining factors can still reach the
box.  For each point v of the running sum it walks one line v + n s along
the factor's step s, with n limited to
  - the half-space phi . (v + n s) <= max phi on the box, since phi only
    grows along later steps, and
  - the box in each coordinate i where every later step has one sign in i
    (a coordinate that can only grow must already be <= the radius, one that
    can only shrink >= minus the radius); after the last factor this is the
    box itself.
Every factor but the last walks into a dict of points.  The last factor's
lines lie in the box, so each one is the arithmetic progression of cells
starting at its first point with step sum_i s_i (2r + 1)^(n - 1 - i); a
line of one point, whose step may be longer than the box is wide, writes
that one cell.

Coefficients are Python ints.  The model loader is the integrality gate:
it admits only int numerator coefficients (orientation signs) and
evaluations c = +-1, so the series ratio of a factor, c or 1/c, is c itself,
and the walk only multiplies and adds ints.  Every cell of expand_box is an
int by construction.
"""

from functools import lru_cache
from itertools import combinations, compress, product, repeat
from operator import mul
from typing import NamedTuple

from . import linalg
from .errors import MissingExpansionDirection, OutOfRange, shown

EXPAND_POSITIVE = 1
EXPAND_NEGATIVE = -1

# the most cells expand_box allocates.  Worst time at the cap (Python 3.11,
# 2-core Intel Xeon): cp1-dolbeault --twist 124997, 0.17 s and 85 MB; the
# s3-contact box of radius 249 (249,001 cells), 0.01 s.  The largest golden
# or benchmark box is s3-contact at degree 160, 103,041 cells.
MAX_BOX_CELLS = 250_000


class DenomFactor(NamedTuple):
    """One denominator factor (1 - c t^w) with its expansion direction; c is
    the int +1 or -1, so it is also the ratio of either directed series."""

    weight: tuple
    c: int
    direction: int

    def step(self):
        """Support step vector of the chosen geometric series."""
        if self.direction == EXPAND_POSITIVE:
            return self.weight
        return tuple(-x for x in self.weight)


class RCTerm(NamedTuple):
    num: dict
    den: tuple = ()


def _poly_mul(p, q):
    """Product of two Laurent polynomials given as exponent-tuple dicts."""
    out = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


class RationalCharacter:
    """Finite sum of numerator-over-factored-denominator terms."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        self.terms = tuple(t for t in terms if t.num)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, (RCTerm({(0,) * nvars: 1}),))

    def __add__(self, other):
        return RationalCharacter(self.nvars, self.terms + other.terms)

    def __mul__(self, other):
        return RationalCharacter(self.nvars, tuple(
            RCTerm(_poly_mul(t1.num, t2.num), t1.den + t2.den)
            for t1 in self.terms for t2 in other.terms))


# cp1-l2 expands every row over the same steps, so each step tuple is
# searched once
@lru_cache(maxsize=256)
def _positivity_functional(steps, nvars):
    """Integer phi with phi . s >= 1 for every step, or None if none exists.

    Exact, by vertices.  A solution projected onto span(S) is still one, and
    inside span(S) the solutions form a polyhedron with no lines (a line
    would be orthogonal to every step and lie in their span).  So when there
    is a solution there is a vertex, where rank(S) independent steps b are
    tight.  For a basis B of rank(S) steps with Gram matrix G, the Cramer
    vector phi = sum_j det(G_j) b_j, G_j being G with column j set to ones,
    is det G times that vertex: phi . b = det G >= 1 on B when B is
    independent, and 0 when it is not.  The first phi over the bases in
    combinations order with phi . s >= 1 for every step is returned.  steps
    is a tuple, the key of the cache.
    """
    for basis in combinations(steps, linalg.rank(steps)):
        gram = [[sum(map(mul, b, c)) for c in basis] for b in basis]
        weights = [linalg.det([row[:j] + [1] + row[j + 1:] for row in gram]).numerator
                   for j in range(len(basis))]
        phi = tuple(sum(w * b[i] for w, b in zip(weights, basis)) for i in range(nvars))
        if all(sum(map(mul, phi, s)) >= 1 for s in steps):
            return phi
    return None


def _clips(later, nvars):
    """(i, sign) for every coordinate no later step can carry back into the
    box: sign * v_i <= radius must already hold after the current factor."""
    out = []
    for i in range(nvars):
        if all(s[i] >= 0 for s in later):
            out.append((i, 1))
        if all(s[i] <= 0 for s in later):
            out.append((i, -1))
    return out


def _lines(acc, f, s, phi, top, clips, radius):
    """(v, lo, hi, coef) for each point v of acc whose line v + n s,
    lo <= n <= hi, can still end in the box; coef is the coefficient of the
    first point, n = lo, and f.c the ratio of consecutive points."""
    ratio = f.c
    n0, first = (0, 1) if f.direction == EXPAND_POSITIVE else (1, -ratio)
    sigma = sum(map(mul, phi, s))
    for v, a in acc.items():
        lo, hi = n0, (top - sum(map(mul, phi, v))) // sigma
        for i, sign in clips:
            b, slack = sign * s[i], radius - sign * v[i]
            if b > 0:
                hi = min(hi, slack // b)
            elif b < 0:
                lo = max(lo, -(slack // -b))
            elif slack < 0:
                hi = -1
        if lo <= hi:
            yield v, lo, hi, a * first * ratio ** (lo - n0)


# orbit_comb's sign rule lets this cancel a term of each s3-contact circle: 2 walks, not 4
def _like_terms(terms):
    """(num, den) per group of terms whose denominators are equal as
    multisets of (weight, c, direction): the numerators summed, without
    zeros, over the first term's factors in their order."""
    groups = {}
    for t in terms:
        key = tuple(sorted((f.weight, f.direction, f.c) for f in t.den))
        if key in groups:
            num = groups[key][0]
            for v, c in t.num.items():
                num[v] = num.get(v, 0) + c
        else:
            groups[key] = (dict(t.num), t.den)
    return [({v: c for v, c in num.items() if c}, den) for num, den in groups.values()]


def _add_term(total, num, den, steps, phi, radius, strides):
    """Add the coefficients of num over the factors den (with their steps and
    common functional phi) on the box max_i |v_i| <= radius into the dense
    list total, whose cell for v is radius * sum(strides) + sum_i v_i *
    strides[i]."""
    offset = radius * sum(strides)
    acc = num
    if not den:
        for v, c in acc.items():
            if all(abs(x) <= radius for x in v):
                total[offset + sum(map(mul, v, strides))] += c
        return
    nvars = len(strides)
    top = sum(abs(p) for p in phi) * radius  # phi . v <= top on the box
    last = len(steps) - 1
    for j, (f, s) in enumerate(zip(den, steps)):
        ratio = f.c
        lines = _lines(acc, f, s, phi, top, _clips(steps[j + 1:], nvars), radius)
        if j == last:
            break
        nxt = {}
        get = nxt.get
        for v, lo, hi, coef in lines:
            for w in zip(*(range(x + lo * d, x + (hi + 1) * d, d) if d
                           else repeat(x, hi - lo + 1) for x, d in zip(v, s))):
                nxt[w] = get(w, 0) + coef
                coef *= ratio
        acc = {w: c for w, c in nxt.items() if c}
        if not acc:
            return
    # after the last factor the clips are the box itself, so each line lies
    # in the box and its cells are evenly spaced in total
    fstep = sum(map(mul, s, strides))
    for v, lo, hi, coef in lines:
        k = offset + sum(map(mul, v, strides)) + lo * fstep
        if lo == hi:
            # a step longer than the box is wide may have fstep == 0
            total[k] += coef
            continue
        for k in range(k, k + (hi - lo + 1) * fstep, fstep):
            total[k] += coef
            coef *= ratio


def expand_box(rc, radius):
    """Exact coefficients of rc on the box max_i |v_i| <= radius, one cell
    per point in the order of itertools.product(range(-radius, radius + 1),
    repeat=rc.nvars), each an int.  Raises OutOfRange when the box has more
    than MAX_BOX_CELLS cells."""
    nvars = rc.nvars
    width = 2 * radius + 1
    cells = width ** nvars
    if cells > MAX_BOX_CELLS:
        raise OutOfRange(f"the box of radius {shown(radius)} has {shown(cells)} cells, "
                         f"more than {MAX_BOX_CELLS}")
    total = [0] * cells
    strides = [width ** (nvars - 1 - i) for i in range(nvars)]
    for num, den in _like_terms(rc.terms):
        steps = tuple(f.step() for f in den)
        phi = _positivity_functional(steps, nvars) if den else ()
        if phi is None:
            raise MissingExpansionDirection(
                "declared expansion directions admit no common positivity functional")
        if num:
            _add_term(total, num, den, steps, phi, radius, strides)
    return total


def box_dict(cells, nvars, radius):
    """The {weight: coefficient} dict of the non-zero cells of an expand_box
    list, in box order, which is the sorted order of the weights."""
    return dict(zip(compress(product(range(-radius, radius + 1), repeat=nvars), cells),
                    filter(None, cells)))


def cell_index(weight, radius):
    """Position of weight in an expand_box list of the box of the radius."""
    k = 0
    for x in weight:
        k = k * (2 * radius + 1) + x + radius
    return k


def expand_to_degree(rc, max_degree):
    """expand_box(rc, max_degree), the coefficients on the box of radius
    max_degree.  Every cell is an int, since the model loader admits only
    int numerators and evaluations c = +-1 (module doc); the index layer
    calls this name, which the benchmark traces."""
    return expand_box(rc, max_degree)


def lattice_comb(nvars, direction):
    """Sum over the full sublattice Z*direction, split as the two directed
    geometric halves of the same factor (n >= 0 and n <= -1)."""
    zero = (0,) * nvars
    pos = RCTerm({zero: 1}, (DenomFactor(tuple(direction), 1, EXPAND_POSITIVE),))
    neg = RCTerm({zero: -1}, (DenomFactor(tuple(direction), 1, EXPAND_NEGATIVE),))
    return RationalCharacter(nvars, (pos, neg))
