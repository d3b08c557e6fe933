"""Graded-commutative calculus with delta-distribution coefficients.

Elements are finite sums of terms over exact rationals.  A term is a
rational coefficient times a monomial in the equivariant parameters
X_1..X_r, an optional delta-derivative factor, a square-free product of
odd generators, and a monomial in even generators.  The equivariant
differential D = d - iota(X) acts through per-generator tables, except
that a frame form's D-image is its primitive closed argument u_j by
construction; the u_j are D-closed symbols of even parity.

Degree bookkeeping truncates any term whose total form degree exceeds
the declared manifold dimension.  Closed arguments count 0 toward that
degree: they stand for dalpha_j + f_j(X) and the moment part has degree
zero, so truncating on their nominal degree would be wrong.

Sums are built with add_all, which merges the terms of all summands into
one key -> coefficient accumulator and finalizes it once.  Finalizing acts
term by term (absorption, truncation and zero-dropping depend only on a
term's key) and is idempotent on normal forms, so one pass over the whole
sum gives the same terms as one pass per summand.  `out = add(out, x, m)`
in a loop re-finalizes the running sum at every step, which makes building
a sum quadratic; that idiom is a bug.

Coefficients are exact and integer-first: a coefficient is an int when it
is integral and a Fraction otherwise (`_exact`).  The constructors, `scaled`
and every term that `_finalize` emits follow this rule; int and Fraction mix
exactly and compare and hash alike, so the rule only picks the cheaper
representation.  A term's even monomial is sorted by name with positive
exponents, and its odd monomial is sorted by `FormalModel.odd_order`.

A `Term` is a NamedTuple of its five fields: building one is one tuple
allocation, and two terms compare as tuples.  `multiply` and `_finalize`
read three tables that each `FormalModel` fills lazily: odd monomial ->
bitmask (bit odd_order[g] for each generator g), bitmask -> odd monomial
sorted by odd_order, and odd monomial -> form degree.  Two terms with
overlapping masks multiply to zero; otherwise their product's odd monomial
is the table entry of m1 | m2, with no sort.  The Koszul sign is the parity
of the pairs (g1, g2), g1 from the left term after g2 from the right one:
bit i of the right term's parity mask is the parity of its generators below
i, and the sign is the parity of the popcount of m1 & that mask.  A call
unpacks the right operand's terms once, with their masks, and checks for a
delta clash once per left term with a delta, against the right operand's
first delta, which is the first clashing pair's.  Even degrees come from
the name -> truncation degree table (0 on closed arguments).

The tables, and the `d_image` memo, are safe because a `FormalModel` is
frozen: `__post_init__` sets its derived tables once.  They are keyed by
name tuples and live on the model, not in the terms, because the same
monomial has another mask in another model: `with_fibre_coordinates` builds
a new model, with its own odd order and its own tables.
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
FIBRE_COORDINATE = "fibreCoordinate"
FIBRE_COFORM = "fibreCoform"

_KINDS = (PLAIN_FORM, FRAME_FORM, CLOSED_ARGUMENT, FIBRE_COORDINATE, FIBRE_COFORM)

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
    x_mono: tuple[int, ...]
    delta: DeltaFactor | None
    odd_mono: tuple[str, ...]
    even_mono: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Element:
    """Normal-form sum of terms; construct through FormalModel helpers."""

    terms: tuple[Term, ...] = ()

    def is_zero(self):
        return not self.terms

    def __neg__(self):
        return Element(tuple(_new_tuple(Term, (-c, x, d, odd, even))
                             for c, x, d, odd, even in self.terms))

    def scaled(self, c):
        c = _exact(c)
        if c == 0:
            return Element()
        return Element(tuple(_new_tuple(Term, (_exact(t_c * c), x, d, odd, even))
                             for t_c, x, d, odd, even in self.terms))


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
            truncation_degrees={n: g.truncation_degree() for n, g in gens.items()},
            # filled lazily by multiply and _finalize (see the module docstring)
            _odd_masks={},          # odd monomial -> bitmask
            _odd_by_mask={},        # bitmask -> odd monomial sorted by odd_order
            _odd_degrees={},        # odd monomial -> form degree
            _u_frame={un: (fr.frame_id, j) for fr in self.frames.values()
                      for j, un in enumerate(fr.u_slots)},
            _d_images={},           # generator name -> D image, filled by d_image
        )

    @staticmethod
    def _order_key(g):
        return (g.frame_id or "", g.slot if g.slot is not None else 0, g.name)

    # -- element constructors ------------------------------------------------

    def zero(self):
        return Element()

    def scalar(self, c):
        c = _exact(c)
        if c == 0:
            return Element()
        return Element((Term(c, (0,) * self.r, None, (), ()),))

    def one(self):
        return self.scalar(1)

    def x(self, a, exp=1):
        mono = tuple(exp if i == a else 0 for i in range(self.r))
        return Element((Term(1, mono, None, (), ()),))

    def gen(self, name, exp=1):
        g = self.generators[name]
        if exp == 0:
            return self.one()
        if g.parity == ODD:
            if exp > 1:
                return Element()
            return Element((Term(1, (0,) * self.r, None, (name,), ()),))
        return Element((Term(1, (0,) * self.r, None, (), ((name, exp),)),))

    def delta(self, frame_id, deriv=None, argument=ARG_CLOSED):
        fr = self.frames[frame_id]
        if deriv is None:
            deriv = (0,) * fr.rank
        d = DeltaFactor(frame_id, tuple(deriv), argument)
        return Element((Term(1, (0,) * self.r, d, (), ()),))

    # -- structure helpers ---------------------------------------------------

    def parity_of_term(self, t):
        return len(t.odd_mono) % 2

    def term_degree(self, t):
        deg = _odd_degree(t.odd_mono, self)
        for n, e in t.even_mono:
            deg += e * self.truncation_degrees[n]
        return deg

    def d_image(self, name):
        """D applied to a single generator, as an Element."""
        cached = self._d_images.get(name)
        if cached is not None:
            return cached
        g = self.generators[name]
        if g.kind == FRAME_FORM:
            fr = self.frames[g.frame_id]
            el = self.gen(fr.u_slots[g.slot - 1])
        elif g.kind == CLOSED_ARGUMENT:
            el = Element()
        else:
            pieces = [self.d_table.get(name, Element())]
            for a in range(self.r):
                it = self.iota_table.get((name, a))
                if it is not None and not it.is_zero():
                    pieces.append(multiply(self.x(a), it, self).scaled(-1))
            el = add_all(pieces, self)
        self._d_images[name] = el
        return el


# ---------------------------------------------------------------------------
# term assembly

def _odd_mask(odd_mono, m):
    """Bit odd_order[g] for each generator g of odd_mono, stored in m's table."""
    order = m.odd_order
    mask = 0
    for g in odd_mono:
        mask |= 1 << order[g]
    m._odd_masks[odd_mono] = mask
    return mask


def _odd_of_mask(mask, m):
    """The odd monomial of a bitmask, sorted by odd_order, stored in m's table."""
    names = m._odd_names
    odd = tuple(names[i] for i in range(mask.bit_length()) if mask >> i & 1)
    m._odd_by_mask[mask] = odd
    return odd


def _odd_degree(odd_mono, m):
    """Form degree of an odd monomial, stored in m's table."""
    form_degrees = m.form_degrees
    deg = m._odd_degrees[odd_mono] = sum(form_degrees[n] for n in odd_mono)
    return deg


def _finalize(acc, m):
    """Absorb closed arguments into deltas, truncate by degree, drop zeros.

    acc maps term keys to coefficients.  Absorption can move a key onto
    another one, so the surviving coefficients are merged again before the
    zeros are dropped."""
    out = {}
    odd_degrees, truncation_degrees = m._odd_degrees, m.truncation_degrees
    dim = m.manifold_dim
    for key, coeff in acc.items():
        if coeff == 0:
            continue
        x_mono, dk, odd_mono, even_mono = key
        if even_mono and dk.argument == ARG_CLOSED:
            coeff, dk, even_mono = _absorb(coeff, dk, even_mono, m)
            if coeff == 0:
                continue
            key = (x_mono, dk, odd_mono, even_mono)
        deg = odd_degrees.get(odd_mono)
        if deg is None:
            deg = _odd_degree(odd_mono, m)
        for n, e in even_mono:
            deg += e * truncation_degrees[n]
        if deg > dim:
            continue
        prev = out.get(key)
        out[key] = coeff if prev is None else prev + coeff
    terms = []
    for (x_mono, dk, odd_mono, even_mono), c in sorted(out.items()):
        if c == 0:
            continue
        if c.__class__ is not int:
            c = _exact(c)
        terms.append(_new_tuple(Term, (c, x_mono, None if dk is _NO_DELTA else dk,
                                       odd_mono, even_mono)))
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
    """Normal form of the sum of elements: all terms go into one accumulator,
    which is finalized once."""
    acc = {}
    for e in elements:
        for c, x_mono, delta, odd_mono, even_mono in e.terms:
            key = (x_mono, _NO_DELTA if delta is None else delta, odd_mono, even_mono)
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
    return _finalize(acc, m)


def normal_form(a, m):
    """Canonical representative: merged terms, eager delta rewrites, truncation."""
    return add_all((a,), m)


def add(a, b, m):
    return add_all((a, b), m)


def multiply(a, b, m):
    """Koszul-signed product.  Raises DeltaClash on any delta * delta: the
    source calculus never multiplies two generalized-coefficient forms, so no
    product rule exists (same frame included)."""
    order, masks, by_mask = m.odd_order, m._odd_masks, m._odd_by_mask
    right = []
    d2 = None    # the first delta factor of b
    for c2, x2, delta2, odd2, even2 in b.terms:
        m2 = masks.get(odd2)
        if m2 is None:
            m2 = _odd_mask(odd2, m)
        # bit i of p2: parity of the generators of odd2 below odd_order i
        p2 = 0
        for g in odd2:
            p2 ^= -2 << order[g]
        if delta2 is None:
            delta2 = _NO_DELTA
        elif d2 is None:
            d2 = delta2
        right.append((c2, x2, not any(x2), delta2, m2, p2, even2))
    acc = {}
    for c1, x1, d1, odd1, even1 in a.terms:
        if d1 is not None:
            if d2 is not None:
                if d1.frame_id == d2.frame_id:
                    raise DeltaClash(f"product of two delta factors on frame {d1.frame_id!r}")
                raise DeltaClash(f"product of delta factors on distinct frames "
                                 f"{d1.frame_id!r} and {d2.frame_id!r}")
        m1 = masks.get(odd1)
        if m1 is None:
            m1 = _odd_mask(odd1, m)
        x1_zero = not any(x1)
        for c2, x2, x2_zero, dk2, m2, p2, even2 in right:
            if m1 & m2:
                continue
            odd = by_mask.get(m1 | m2)
            if odd is None:
                odd = _odd_of_mask(m1 | m2, m)
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
                x_mono = x2
            elif x2_zero:
                x_mono = x1
            else:
                x_mono = tuple(i + j for i, j in zip(x1, x2))
            key = (x_mono, d1 or dk2, odd, even)
            # the Koszul sign: parity of the pairs (g1, g2) with g1 after g2
            c = -c1 * c2 if (m1 & p2).bit_count() & 1 else c1 * c2
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
    return _finalize(acc, m)


def product(factors, m):
    out = m.one()
    for f in factors:
        out = multiply(out, f, m)
    return out


def _derivation_on_term(t, image, m):
    """Odd derivation applied to one term c x delta o_1..o_p (even part), as
    unsummed Leibniz pieces; the delta factor and X-monomial are constants
    (the delta's argument is D-closed).  The piece of o_i is
    (-1)^(i-1) (c x delta o_1..o_(i-1)) image(o_i) (o_(i+1)..o_p even), and
    that of g^e in the even part is (-1)^p e (c x delta o_1..o_p rest)
    image(g), rest the even part with g^(e-1).  Each bracket is a part of a
    normal-form term, so it is built directly as one."""
    c, x_mono, delta, odd, even = t
    if delta is not None and delta.argument == ARG_MOMENT:
        raise NotDifferentiable("display-form element (moment-argument delta)")
    for i, name in enumerate(odd):
        img = image(name)
        if img.terms:
            left = Element((_new_tuple(Term, (c, x_mono, delta, odd[:i], ())),))
            piece = multiply(left, img, m)
            after = odd[i + 1:]
            if after or even:
                right = _new_tuple(Term, (1, (0,) * m.r, None, after, even))
                piece = multiply(piece, Element((right,)), m)
            yield piece
        c = -c
    for j, (name, e) in enumerate(even):
        img = image(name)
        if img.terms:
            lower = ((name, e - 1),) if e > 1 else ()
            rest = even[:j] + lower + even[j + 1:]
            yield multiply(Element((_new_tuple(Term, (c * e, x_mono, delta, odd, rest)),)), img, m)


def equivariant_differential(a, m):
    """D = d - iota(X).  Frame forms map to their closed arguments, closed
    arguments and delta factors to zero; everything else follows the tables."""
    return apply_table_derivation(a, m.d_image, m)


def apply_table_derivation(a, image, m):
    """Odd derivation from an arbitrary generator->Element image map: D uses
    m.d_image, the model validator the bare d and iota(e_a) tables.  All
    Leibniz pieces of all terms are summed in one accumulator."""
    return add_all((piece for t in a.terms for piece in _derivation_on_term(t, image, m)), m)


# ---------------------------------------------------------------------------
# model validation

def validate_model(m):
    if m.manifold_dim < 0:
        raise InvariantViolation(f"negative manifold dimension {m.manifold_dim}")
    names = set()
    for g in m.generators.values():
        if g.name in names:
            raise InvariantViolation(f"duplicate generator {g.name!r}")
        names.add(g.name)
        if g.parity not in (ODD, EVEN):
            raise InvariantViolation(f"bad parity on {g.name!r}")
        if g.kind not in _KINDS:
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
        if fr.dalpha is not None and len(fr.dalpha) != fr.rank:
            raise InvariantViolation(f"split length != rank in frame {fr.frame_id!r}")

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

    def d_img(n):
        if n in closed_args:
            return Element()
        return m.d_table.get(n, Element())

    def iota_img(a):
        def img(n):
            if n in closed_args:
                return Element()
            return m.iota_table.get((n, a), Element())
        return img

    # A derivation maps zero to zero, so a check whose inputs are all zero is
    # skipped.  iota_a iota_b + iota_b iota_a is symmetric in (a, b), and for
    # b < a the pair (b, a) has already passed, so only b >= a is computed.
    # The first failure and its message are the same as over all pairs.
    iotas = [iota_img(a) for a in range(m.r)]
    for name in m.generators:
        if name in frame_forms:
            continue
        dn = d_img(name)
        if not dn.is_zero():
            dd = apply_table_derivation(dn, d_img, m)
            if not dd.is_zero():
                raise InvariantViolation(f"d(d({name})) != 0")
        contractions = [ia(name) for ia in iotas]
        for a, ia in enumerate(iotas):
            ca = contractions[a]
            for b in range(a, m.r):
                cb = contractions[b]
                if ca.is_zero() and cb.is_zero():
                    continue
                anti = add(apply_table_derivation(ca, iotas[b], m),
                           apply_table_derivation(cb, ia, m), m)
                if not anti.is_zero():
                    raise InvariantViolation(f"iota_{a} iota_{b} fails to anticommute on {name!r}")
            if ca.is_zero() and dn.is_zero():
                continue
            cartan = add(apply_table_derivation(ca, d_img, m),
                         apply_table_derivation(dn, ia, m), m)
            if not cartan.is_zero():
                raise InvariantViolation(
                    f"generator {name!r} is not invariant: (d iota_{a} + iota_{a} d) != 0")
    return True
