"""Graded-commutative calculus with delta-distribution coefficients.

Elements are finite sums of terms over exact rationals.  A term has four
fields: a rational coefficient, an optional delta-derivative factor, a
square-free product of odd generators, and a monomial in even generators,
the parameters X_1..X_r among them (even, truncation degree 0, D(X) = 0, as
in the Cartan model).  D = d - iota(X) is the one derivation: it acts
through per-generator tables, except that a frame form's D-image is its
primitive closed argument u_j by construction; the u_j are D-closed symbols
of even parity.  validate_model checks D^2 = 0 on each generator, which holds
d^2 = 0, Cartan's identity and the anticommuting contractions at once.

Degree bookkeeping truncates any term whose total form degree exceeds
the declared manifold dimension.  Closed arguments count 0 toward that
degree: they stand for dalpha_j + f_j(X) and the moment part has degree
zero, so truncating on their nominal degree would be wrong.

Every sum of products is built by `fold`, add_all (a sum of one-factor
products) included, or by `taylor_fold` (below): Sigma_i Pi_j f_ij in one
key -> coefficient accumulator, finalized once.  Finalizing acts term by term (absorption, the
rule that delta_0 of no arguments is 1, truncation and zero-dropping depend
only on a term's key) and is idempotent on normal forms, so one pass over
the whole sum gives the same terms as one pass per summand.
`out = add(out, x, m)` in a loop re-finalizes the running sum at every
step, which makes building a sum quadratic; that idiom is a bug.

Sums and products are built on raw items ((delta, odd mask, even), coeff):
the term's delta factor, None when it has none; the bitmask of its odd
monomial (below); its even monomial, as in a term.  The Koszul loop
`_koszul` multiplies raw items by an element into a raw accumulator, keyed
the same way, which is unfinalized.  Every product starts from `_UNIT`, the
raw items of the empty product 1, so an element's terms become raw items
only as the right operand of the Koszul loop, and that loop is the one
place where an odd monomial becomes a mask.  Masks become odd monomials
again, and None the `_NO_DELTA` key, only in `_finalize`, once per key,
before absorption, truncation and the sort, so no partial product builds an
odd tuple.  `fold` starts each product at `_UNIT`, feeds each partial
accumulator's items back into the Koszul loop as they are, merges the last
one into the sum's accumulator and finalizes only the sum; `multiply` is
the fold of one two-factor product.  Finalizing is term-local and truncation
is an ideal (degrees only add), and absorbing u^e into delta^(I) gives the
same coefficient in one step as in e steps, so this is the sum of the
products' normal forms whenever at most one factor of each product carries
a delta.  With two, `fold` raises DeltaClash when a delta term of the
partial product meets the second delta factor, even where `product`,
finalizing at every step, would first have absorbed that term to zero.  So
`fold` either returns add_all(product(fs, m) for fs in products) or raises.

`taylor_fold` is the second sum builder, for the Taylor series
sum_J t_J x^J / J! of the display form.  Its products share prefixes: each
multi-index J extends a shorter one by one factor, so a depth-first walk
needs one Koszul call per index where `fold`, given every product as a
factor list, would redo the shared prefix each time.  The walk carries the
heads in its raw partial products and swaps each head's delta inside the
raw key at the leaf, which `fold` cannot: a closed delta carried through
the walk would absorb the closed arguments of the factors once finalized,
and the display keeps them.  It accumulates and finalizes once, like
`fold`.

Coefficients are exact and integer-first: a coefficient is an int when it
is integral and a Fraction otherwise (`_exact`).  The constructors, `scaled`
and every term that `_finalize` emits follow this rule; int and Fraction mix
exactly and compare and hash alike, so the rule only picks the cheaper
representation.  `graded_exp_pieces` divides the n-th power by n in its raw
accumulator, as an int where n divides the coefficient, before finalizing.
A term's even monomial is sorted by name with positive exponents, and its
odd monomial is sorted by `FormalModel.odd_order`.

A `Term` is a NamedTuple of its four fields: building one is one tuple
allocation, and two terms compare as tuples.  An odd monomial's mask has bit
odd_order[g] for each generator g; the Koszul loop builds it in the same
walk over the right term's generators that builds its parity mask.  The one
table, which each `FormalModel` fills lazily, maps a bitmask to (odd
monomial sorted by odd_order, its form degree) for `_finalize`.  Two terms
with overlapping masks multiply to zero; otherwise their product's mask is
m1 | m2, whose odd monomial `_finalize` reads from the table, with no
sort.  The Koszul sign is the parity of the pairs (g1, g2), g1 from the left
term after g2 from the right one: bit i of the right term's parity mask is
the parity of its generators below i, and the sign is the parity of the
popcount of m1 & that mask.  A call unpacks the right operand's terms once,
with their masks, skips the left items with a zero coefficient, and checks
for a delta clash once per left item with a delta, against the right
operand's first delta, which is the first clashing pair's.  Even degrees
come from the name -> truncation degree table (0 on closed arguments and
parameters).

The tables are safe because a `FormalModel` is frozen: `__post_init__` sets
its derived tables once.  The mask table lives on the model, not in the
terms, because the same mask stands for another monomial in another model:
`with_fibre_coordinates` builds a new model, with its own odd order and its
own tables.  `d_image` keeps no memo: an image is one table lookup and at
most r products.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import DeltaClash, InvariantViolation, NotDifferentiable

ODD = "odd"
EVEN = "even"

PLAIN_FORM = "plainForm"
FRAME_FORM = "frameForm"
CLOSED_ARGUMENT = "closedArgument"

KINDS = (PLAIN_FORM, FRAME_FORM, CLOSED_ARGUMENT)

# Delta argument tags.  "closed" is the computational form delta(u); "moment"
# marks the display expansion delta(f), which no operation differentiates.
ARG_CLOSED = "closed"
ARG_MOMENT = "moment"

# _new_tuple(Term, fields) builds a term without the Python-level __new__
# that NamedTuple generates; the per-term loops below use it
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class Generator:
    name: str
    parity: str
    form_degree: int
    kind: str = PLAIN_FORM
    frame_id: str | None = None
    slot: int | None = None

    def truncation_degree(self):
        return 0 if self.kind == CLOSED_ARGUMENT else self.form_degree


class DeltaFactor(NamedTuple):
    """delta_0^(deriv) applied to the closed arguments of one frame.  It is
    its own term key: a tuple, ordered field by field."""

    frame_id: str
    deriv: tuple[int, ...]
    argument: str = ARG_CLOSED


# delta key of a term without a delta factor, tested by identity; it sorts
# before every delta
_NO_DELTA = DeltaFactor("", (), "")


def _exact(q):
    """The exact rational q as an int when it is integral, else as a Fraction."""
    if q.__class__ is int:
        return q
    if q.__class__ is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class Term(NamedTuple):
    coeff: int | Fraction
    delta: DeltaFactor | None
    odd_mono: tuple[str, ...]
    even_mono: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Element:
    """Normal-form sum of terms; construct through FormalModel helpers."""

    terms: tuple[Term, ...] = ()

    def is_zero(self):
        return not self.terms

    def scaled(self, c):
        c = _exact(c)
        if c == 0:
            return Element()
        return Element(tuple(_new_tuple(Term, (_exact(t_c * c), d, odd, even))
                             for t_c, d, odd, even in self.terms))


@dataclass(frozen=True)
class FrameDecl:
    """A co-orientation frame: slot forms alpha_1..alpha_k and their closed
    arguments u_1..u_k, plus optional moment samples and display split."""

    frame_id: str
    rank: int
    alpha_slots: tuple[str, ...]
    u_slots: tuple[str, ...]
    moment_samples: tuple | None = None      # tuple of k x r Fraction matrices
    dalpha: tuple | None = None              # tuple of Elements (display split)


@dataclass(frozen=True)
class FormalModel:
    name: str
    manifold_dim: int
    parameters: tuple[str, ...]
    generators: dict
    d_table: dict
    iota_table: dict
    frames: dict = field(default_factory=dict)
    base: dict | None = None
    fixed_loci: tuple = ()

    def __post_init__(self):
        gens = self.generators
        odd_names = sorted((g.name for g in gens.values() if g.parity == ODD),
                           key=lambda n: self._order_key(gens[n]))
        self.__dict__.update(
            r=len(self.parameters),
            odd_order={n: i for i, n in enumerate(odd_names)},
            _odd_names=tuple(odd_names),
            form_degrees={n: g.form_degree for n, g in gens.items()},
            truncation_degrees=dict.fromkeys(self.parameters, 0)
            | {n: g.truncation_degree() for n, g in gens.items()},
            # filled lazily by _finalize (see the module docstring)
            _odd_by_mask={},        # bitmask -> (odd monomial sorted by odd_order, form degree)
            _u_frame={un: (fr.frame_id, j) for fr in self.frames.values()
                      for j, un in enumerate(fr.u_slots)},
        )

    @staticmethod
    def _order_key(g):
        return (g.frame_id or "", g.slot if g.slot is not None else 0, g.name)

    # -- element constructors ------------------------------------------------

    def scalar(self, c):
        c = _exact(c)
        if c == 0:
            return Element()
        return Element((Term(c, None, (), ()),))

    def one(self):
        return self.scalar(1)

    def gen(self, name, exp=1):
        """A generator or a parameter (an even generator) to the power exp."""
        g = self.generators.get(name)
        if g is None and name not in self.parameters:
            raise KeyError(name)
        if exp == 0:
            return self.one()
        if g is not None and g.parity == ODD:
            if exp > 1:
                return Element()
            return Element((Term(1, None, (name,), ()),))
        return Element((Term(1, None, (), ((name, exp),)),))

    def delta(self, frame_id, deriv=None, argument=ARG_CLOSED):
        """delta_0^(deriv) of the frame's arguments, in normal form: a closed
        delta of a rank-0 frame is 1."""
        fr = self.frames[frame_id]
        if deriv is None:
            deriv = (0,) * fr.rank
        d = DeltaFactor(frame_id, tuple(deriv), argument)
        return _finalize({(d, 0, ()): 1}, self)

    # -- structure helpers ---------------------------------------------------

    def term_degree(self, t):
        deg = sum(self.form_degrees[n] for n in t.odd_mono)
        for n, e in t.even_mono:
            deg += e * self.truncation_degrees[n]
        return deg

    def d_image(self, name):
        """D applied to a single generator, as an Element: 0 on a parameter."""
        if name in self.parameters:
            return Element()
        g = self.generators[name]
        if g.kind == FRAME_FORM:
            return self.gen(self.frames[g.frame_id].u_slots[g.slot - 1])
        if g.kind == CLOSED_ARGUMENT:
            return Element()
        products = [(self.d_table.get(name, Element()),)]
        for a, x in enumerate(self.parameters):
            it = self.iota_table.get((name, a))
            if it is not None:
                products.append((self.gen(x).scaled(-1), it))
        return fold(products, self)


# ---------------------------------------------------------------------------
# term assembly

def _odd_of_mask(mask, m):
    """(odd monomial of a bitmask, sorted by odd_order, its form degree),
    stored in m's table."""
    names, form_degrees = m._odd_names, m.form_degrees
    odd = tuple(names[i] for i in range(mask.bit_length()) if mask >> i & 1)
    m._odd_by_mask[mask] = entry = (odd, sum(form_degrees[n] for n in odd))
    return entry


def _finalize(acc, m):
    """Absorb closed arguments into deltas, read a delta of no arguments as
    1, truncate by degree, drop zeros.

    acc maps raw keys (delta or None, odd mask, even monomial) to
    coefficients.  Each key's mask becomes its odd monomial here, and its
    None the _NO_DELTA key, so the terms sort as (delta, odd, even) tuples.
    A closed-argument delta of a rank-0 frame has no slots, and delta_0 of no
    arguments is 1, so its key moves to _NO_DELTA.  Absorption and that rule
    can move a key onto another one, so the surviving coefficients are
    merged again before the zeros are dropped."""
    out = {}
    by_mask, truncation_degrees = m._odd_by_mask, m.truncation_degrees
    dim = m.manifold_dim
    for (dk, mask, even_mono), coeff in acc.items():
        if coeff == 0:
            continue
        odd = by_mask.get(mask)
        if odd is None:
            odd = _odd_of_mask(mask, m)
        odd_mono, deg = odd
        if dk is None:
            dk = _NO_DELTA
        elif dk.argument == ARG_CLOSED:
            if even_mono:
                coeff, dk, even_mono = _absorb(coeff, dk, even_mono, m)
                if coeff == 0:
                    continue
            if not dk.deriv:
                dk = _NO_DELTA
        for n, e in even_mono:
            deg += e * truncation_degrees[n]
        if deg > dim:
            continue
        key = (dk, odd_mono, even_mono)
        prev = out.get(key)
        out[key] = coeff if prev is None else prev + coeff
    terms = []
    for (dk, odd_mono, even_mono), c in sorted(out.items()):
        if c == 0:
            continue
        if c.__class__ is not int:
            c = _exact(c)
        terms.append(_new_tuple(Term, (c, None if dk is _NO_DELTA else dk, odd_mono, even_mono)))
    return Element(tuple(terms))


def _absorb(coeff, dk, even_mono, m):
    """Apply u_j * delta^(I) = -I_j * delta^(I - e_j) for every closed argument
    u_j of the delta's frame in even_mono; (0, ..) when some u_j^e has e > I_j.
    Returns (coeff, delta, even monomial)."""
    frame_id, deriv, argument = dk
    u_frame = m._u_frame
    nd = None
    rest = []
    for name, e in even_mono:
        fs = u_frame.get(name)
        if fs is None or fs[0] != frame_id:
            rest.append((name, e))
            continue
        if nd is None:
            nd = list(deriv)
        j = fs[1]
        if e > nd[j]:
            return 0, dk, even_mono
        for _ in range(e):
            coeff *= -nd[j]
            nd[j] -= 1
    if nd is None:
        return coeff, dk, even_mono
    return coeff, DeltaFactor(frame_id, tuple(nd), argument), tuple(rest)


def add_all(elements, m):
    """Normal form of the sum of elements."""
    return fold(((e,) for e in elements), m)


def normal_form(a, m):
    """Canonical representative: merged terms, eager delta rewrites, truncation."""
    return add_all((a,), m)


def add(a, b, m):
    return add_all((a, b), m)


def multiply(a, b, m):
    """Koszul-signed product, the fold of the one product a b.  DeltaClash on
    any delta * delta: the source calculus never multiplies two
    generalized-coefficient forms, so no product rule exists (same frame
    included)."""
    return fold(((a, b),), m)


# the raw items of the empty product, 1: every product starts here
_UNIT = (((None, 0, ()), 1),)


def _koszul(items, b, m):
    """The Koszul loop: raw items times the element b, as the product's
    unfinalized raw accumulator.  Items with a zero coefficient are skipped."""
    order = m.odd_order
    right = []
    d2 = None    # the first delta factor of b
    for c2, delta2, odd2, even2 in b.terms:
        # bit i of m2: odd_order i in odd2; of p2: parity of odd2 below i
        m2 = p2 = 0
        for g in odd2:
            i = order[g]
            m2 |= 1 << i
            p2 ^= -2 << i
        if d2 is None:
            d2 = delta2
        right.append((c2, delta2, m2, p2, even2))
    acc = {}
    for (d1, m1, even1), c1 in items:
        if not c1:
            continue
        if d1 is not None and d2 is not None:
            raise _delta_clash(d1, d2)
        for c2, dk2, m2, p2, even2 in right:
            if m1 & m2:
                continue
            if not even2:
                even = even1
            elif not even1:
                even = even2
            else:
                merged = dict(even1)
                for n, e in even2:
                    merged[n] = merged.get(n, 0) + e
                even = tuple(sorted(merged.items()))
            key = (d1 or dk2, m1 | m2, even)
            # the Koszul sign: parity of the pairs (g1, g2) with g1 after g2
            c = -c1 * c2 if (m1 & p2).bit_count() & 1 else c1 * c2
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
    return acc


def _delta_clash(d1, d2):
    if d1.frame_id == d2.frame_id:
        return DeltaClash(f"product of two delta factors on frame {d1.frame_id!r}")
    return DeltaClash(f"product of delta factors on distinct frames "
                      f"{d1.frame_id!r} and {d2.frame_id!r}")


def product(factors, m):
    out = m.one()
    for f in factors:
        out = multiply(out, f, m)
    return out


def fold(products, m):
    """Normal form of sum_i prod_j f_ij, products being the factor lists
    [f_i1, f_i2, ...]; an empty list is the product 1.  Each product is
    multiplied left to right from _UNIT, each factor through the Koszul
    loop once, each partial accumulator going back into it as it is, and its
    last accumulator is merged into the sum's, which alone is finalized.
    This is add_all(product(fs, m) for fs in products) when at most one
    factor of each product carries a delta factor; with two, DeltaClash is
    raised when a delta term of the partial product meets the second (see
    the module docstring)."""
    acc = {}
    for factors in products:
        items = _UNIT
        for f in factors:
            items = _koszul(items, f, m).items()
        for key, c in items:
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
    return _finalize(acc, m)


def taylor_fold(heads, xs, bound, rekey, m):
    """Normal form of sum_t sum_(|J| <= bound) t_J x_1^J_1 ... x_k^J_k / J!,
    t running over the terms of heads, t_J being t with its delta factor
    replaced by rekey(delta of t, J).  Every term of heads carries a delta
    factor, and no x_s does.

    The multi-indices J are walked depth first in lexicographic order from
    the raw product _UNIT times heads.  A node extends its parent's raw
    partial product by one factor x_s through the Koszul loop, so only one
    partial product per slot is alive, and a partial product with no
    non-zero coefficient ends its subtree.  At a leaf rekey is called once
    for each distinct delta of heads, and the leaf's raw items, their delta
    swapped inside the key and their coefficients divided by J!, go into one
    accumulator that is finalized once, which gives the sum of the leaves'
    normal forms (see fold).  The heads' own deltas never reach _finalize,
    so nothing is absorbed into them mid-walk.  1/J! is applied at the leaf,
    so the partial products keep the coefficients of the heads and the x_s,
    ints when those are."""
    deltas = {t.delta for t in heads.terms}
    k = len(xs)
    acc = {}

    def walk(jj, items, left, fact):
        s = len(jj)
        if s == k:
            keyed = {d: rekey(d, jj) for d in deltas}
            for (delta, mask, even), c in items:
                key = (keyed[delta], mask, even)
                if fact != 1:
                    c = Fraction(c, fact)
                prev = acc.get(key)
                acc[key] = c if prev is None else prev + c
            return
        x = xs[s]
        for e in range(left + 1):
            if e:
                part = _koszul(items, x, m)
                if not any(part.values()):
                    return
                items = part.items()
                fact *= e
            walk(jj + (e,), items, left - e, fact)

    walk((), _koszul(_UNIT, heads, m).items(), bound, 1)
    return _finalize(acc, m)


def graded_exp_pieces(e, m):
    """1, e, e^2/2!, ... up to the last non-zero power of the even, nilpotent
    element e; their sum is exp(e).  Each power is _UNIT times the previous
    one times e, two Koszul passes, divided by n in its raw accumulator (an
    int where n divides the coefficient) and then finalized.
    InvariantViolation when the power 2 * manifold_dim + 5 is still
    non-zero: e is not nilpotent."""
    piece, n = m.one(), 0
    while not piece.is_zero():
        if n > 2 * m.manifold_dim + 4:
            raise InvariantViolation("graded exponential failed to terminate")
        yield piece
        n += 1
        acc = _koszul(_koszul(_UNIT, piece, m).items(), e, m)
        for key, c in acc.items():
            acc[key] = c // n if c.__class__ is int and not c % n else Fraction(c, n)
        piece = _finalize(acc, m)


def _derivation_on_term(t, m):
    """D applied to one term c delta o_1..o_p (even part), as its Leibniz
    pieces, each a tuple of factors; the delta factor is a constant (its
    argument is D-closed).  The piece of o_i is
    (-1)^(i-1) (c delta o_1..o_(i-1)) D(o_i) (o_(i+1)..o_p even), and that
    of g^e in the even part is (-1)^p e (c delta o_1..o_p rest) D(g), rest
    the even part with g^(e-1).  Each bracket is a part of a normal-form
    term, so it is built directly as one."""
    c, delta, odd, even = t
    if delta is not None and delta.argument == ARG_MOMENT:
        raise NotDifferentiable("display-form element (moment-argument delta)")
    for i, name in enumerate(odd):
        img = m.d_image(name)
        if img.terms:
            left = Element((_new_tuple(Term, (c, delta, odd[:i], ())),))
            after = odd[i + 1:]
            if after or even:
                yield left, img, Element((_new_tuple(Term, (1, None, after, even)),))
            else:
                yield left, img
        c = -c
    for j, (name, e) in enumerate(even):
        img = m.d_image(name)
        if img.terms:
            lower = ((name, e - 1),) if e > 1 else ()
            rest = even[:j] + lower + even[j + 1:]
            yield Element((_new_tuple(Term, (c * e, delta, odd, rest)),)), img


def equivariant_differential(a, m):
    """D = d - iota(X), the fold of its Leibniz pieces.  Frame forms map to
    their closed arguments; closed arguments, parameters and delta factors
    to zero; everything else follows the tables."""
    return fold((piece for t in a.terms for piece in _derivation_on_term(t, m)), m)


# ---------------------------------------------------------------------------
# model validation

def validate_model(m):
    if m.manifold_dim < 0:
        raise InvariantViolation(f"negative manifold dimension {m.manifold_dim}")
    for g in m.generators.values():
        if g.parity not in (ODD, EVEN):
            raise InvariantViolation(f"bad parity on {g.name!r}")
        if g.kind not in KINDS:
            raise InvariantViolation(f"bad kind on {g.name!r}")
        if g.form_degree < 0:
            raise InvariantViolation(f"negative degree on {g.name!r}")
        nominal = g.form_degree % 2
        if g.kind == CLOSED_ARGUMENT:
            nominal = 0
        if (g.parity == ODD) != (nominal == 1):
            raise InvariantViolation(f"parity/degree mismatch on {g.name!r}")
    if len(set(m.parameters)) != m.r:
        raise InvariantViolation("duplicate parameter names")
    if not m.generators.keys().isdisjoint(m.parameters):
        raise InvariantViolation("a parameter name collides with a generator name")

    for fr in m.frames.values():
        if len(fr.alpha_slots) != fr.rank or len(fr.u_slots) != fr.rank:
            raise InvariantViolation(f"frame {fr.frame_id!r} slot count != rank")
        if fr.rank > m.manifold_dim:
            # k independent one-forms need k <= n
            raise InvariantViolation(f"frame {fr.frame_id!r} has rank {fr.rank} above "
                                     f"the manifold dimension {m.manifold_dim}")
        for j, (an, un) in enumerate(zip(fr.alpha_slots, fr.u_slots), start=1):
            ga, gu = m.generators.get(an), m.generators.get(un)
            if ga is None or ga.kind != FRAME_FORM or ga.frame_id != fr.frame_id \
                    or ga.slot != j or ga.form_degree != 1:
                raise InvariantViolation(f"bad frame form {an!r} in {fr.frame_id!r}")
            if gu is None or gu.kind != CLOSED_ARGUMENT or gu.frame_id != fr.frame_id \
                    or gu.slot != j:
                raise InvariantViolation(f"bad closed argument {un!r} in {fr.frame_id!r}")
        if fr.moment_samples is not None:
            for s in fr.moment_samples:
                if len(s) != fr.rank or any(len(row) != m.r for row in s):
                    raise InvariantViolation(
                        f"moment sample shape in frame {fr.frame_id!r} is not k x r")
        if fr.dalpha is not None:
            if len(fr.dalpha) != fr.rank:
                raise InvariantViolation(f"split length != rank in frame {fr.frame_id!r}")
            # dalpha_j is a 2-form: taylor_expand_delta bounds its walk by degree
            for j, el in enumerate(fr.dalpha):
                for t in el.terms:
                    if t.delta is not None:
                        raise InvariantViolation(
                            f"split entry {j} of frame {fr.frame_id!r} carries a delta factor")
                    deg = m.term_degree(t)
                    if deg != 2:
                        raise InvariantViolation(f"split entry {j} of frame {fr.frame_id!r} "
                                                 f"has a term of degree {deg}, not a 2-form")
    # the loop above checked each slot's generator; d_image reads the frame of each
    # frame-slot generator, so it must be one of them
    slotted = {n for fr in m.frames.values() for n in fr.alpha_slots + fr.u_slots}
    for g in m.generators.values():
        if g.kind != PLAIN_FORM and g.name not in slotted:
            raise InvariantViolation(f"{g.kind} {g.name!r} is not a slot of a declared frame "
                                     f"(frame {g.frame_id!r}, slot {g.slot})")

    frame_forms = {g.name for g in m.generators.values() if g.kind == FRAME_FORM}
    closed_args = {g.name for g in m.generators.values() if g.kind == CLOSED_ARGUMENT}

    def check_table_element(el, where):
        for t in el.terms:
            if t.delta is not None:
                raise InvariantViolation(f"delta factor inside table image {where}")
            used = set(t.odd_mono) | {n for n, _ in t.even_mono}
            if used & frame_forms:
                raise InvariantViolation(
                    f"frame form inside table image {where}: d is not defined there")
            if not used.isdisjoint(m.parameters):
                raise InvariantViolation(f"parameter inside table image {where}")

    for name, el in m.d_table.items():
        if name in frame_forms:
            raise InvariantViolation(f"d-table entry for frame form {name!r}; D(alpha)=u is implied")
        if name in closed_args and not el.is_zero():
            raise InvariantViolation(f"closed argument {name!r} must have zero d-image")
        check_table_element(el, f"d({name})")
    for (name, a), el in m.iota_table.items():
        if name in frame_forms:
            raise InvariantViolation(f"iota-table entry for frame form {name!r}")
        if name in closed_args and not el.is_zero():
            raise InvariantViolation(f"closed argument {name!r} must have zero iota-image")
        check_table_element(el, f"iota_{a}({name})")

    # D^2 g = d^2 g - sum_a X_a (d iota_a + iota_a d) g + sum_(a,b) X_a X_b iota_b iota_a g.
    # No table image holds a parameter, so the parameter factors of a term of D^2 g name
    # the identity it breaks: none d^2, X_a the Cartan sum of a, X_a X_b (a <= b) the pair
    # (a, b).  The first is reported: d^2, then for each a its pairs, then its Cartan sum.
    index = {p: a for a, p in enumerate(m.parameters)}
    for name in m.generators:
        broken = [tuple(index[n] for n, e in t.even_mono if n in index for _ in range(e))
                  for t in equivariant_differential(m.d_image(name), m).terms]
        if broken:
            xs = min(broken, key=lambda xs: (xs[:1], len(xs) == 1, xs))
            if not xs:
                raise InvariantViolation(f"d(d({name})) != 0")
            if len(xs) == 2:
                raise InvariantViolation(
                    f"iota_{xs[0]} iota_{xs[1]} fails to anticommute on {name!r}")
            raise InvariantViolation(
                f"generator {name!r} is not invariant: (d iota_{xs[0]} + iota_{xs[0]} d) != 0")
    return True
