"""Operations on delta-distribution coefficients.

The delta symbol delta_0^(I)(u) is always attached to the closed arguments
u_1..u_k of a single frame.  Three rewrite families live here:

  * absorption       u_j * delta^(I) -> -I_j * delta^(I - e_j)
  * linear change    delta^(I)(A u) expanded over delta^(J)(u), det(A) > 0
  * Taylor display   delta^(I)(u) -> sum delta^(I+J)(f) dalpha^J / J!

plus the fibre-side construction that recovers the assembled form from a
graded exponential and the Fourier rule
delta_0^(J)(u) = (2 pi)^(-k) int (-i xi)^J exp(-i<xi, u>) dxi.
"""

import itertools
from fractions import Fraction
from math import factorial

from . import linalg
from .errors import InvariantViolation, MissingFibre, NonOrientable, SplittingMissing
from .superalg import (ARG_CLOSED, ARG_MOMENT, FIBRE_COFORM, FIBRE_COORDINATE,
                       DeltaFactor, Element, FormalModel, Generator, Term, _exact, add_all,
                       equivariant_differential, multiply, normal_form)

__all__ = [
    "DeltaFactor", "delta_linear_substitute", "taylor_expand_delta",
    "fourier_fibre_integrate", "with_fibre_coordinates", "multi_indices",
]


def multi_indices(k, max_order):
    """All k-tuples of nonnegative integers with sum <= max_order."""
    for combo in itertools.product(range(max_order + 1), repeat=k):
        if sum(combo) <= max_order:
            yield combo


def delta_linear_substitute(d, a_matrix, m, allow_reversal=False):
    """Expand delta^(I) evaluated at A*u over the delta^(J)(u), |J| = |I|.

    The scalar rule is delta_0(A u) = det(A)^(-1) delta_0(u); derivatives pick
    up one factor of A^(-1) per slot, so the inverse is computed only when d
    has a non-zero derivative order.  det(A) <= 0 raises NonOrientable unless
    allow_reversal is set, in which case |det A| is used (test-only mode for
    the orientation-flip check).  Coefficients are int when integral
    (superalg._exact; derivative terms through normal_form).
    """
    k = len(d.deriv)
    if len(a_matrix) != k or any(len(row) != k for row in a_matrix):
        raise NonOrientable(f"substitution matrix is not {k} x {k}")
    det = linalg.det(a_matrix)
    if det == 0:
        raise NonOrientable("singular frame change")
    if det < 0 and not allow_reversal:
        raise NonOrientable("orientation-reversing frame change (det < 0)")
    scale = _exact(1 / abs(det))
    if k == 0:
        return m.scalar(scale)
    if not any(d.deriv):
        return Element((Term(scale, (0,) * m.r, d, (), ()),))
    b = linalg.inverse(a_matrix)
    combos = {(0,) * k: Fraction(1)}
    for slot in range(k):
        for _ in range(d.deriv[slot]):
            nxt = {}
            for jj, c in combos.items():
                for t in range(k):
                    if b[t][slot] == 0:
                        continue
                    j2 = tuple(e + 1 if i == t else e for i, e in enumerate(jj))
                    nxt[j2] = nxt.get(j2, Fraction(0)) + c * b[t][slot]
            combos = nxt
    terms = tuple(
        Term(scale * c, (0,) * m.r, DeltaFactor(d.frame_id, jj, d.argument), (), ())
        for jj, c in sorted(combos.items()) if c != 0)
    return normal_form(Element(terms), m)


def taylor_expand_delta(e, frame_id, m):
    """Display form: rewrite delta^(I)(u) through the declared split
    u_j = dalpha_j + f_j.  The moment f stays symbolic (argument tag
    "moment"); dalpha powers are cut by the usual degree truncation.  This is
    a reporting form and is rejected by the differential.
    """
    fr = m.frames[frame_id]
    if fr.dalpha is None:
        raise SplittingMissing(f"frame {frame_id!r} declares no (dalpha, f) split")
    others, heads = [], []
    for t in e.terms:
        if t.delta is None or t.delta.frame_id != frame_id:
            others.append(Element((t,)))
        elif t.delta.argument == ARG_MOMENT:
            raise InvariantViolation("element is already in display form")
        else:
            heads.append((Element((Term(t.coeff, t.x_mono, None, t.odd_mono, t.even_mono),)),
                          t.delta.deriv))

    def pieces():
        yield from others
        for jj, dal in _dalpha_powers(fr.dalpha, m.manifold_dim // 2, m):
            fact = 1
            for x in jj:
                fact *= factorial(x)
            for base, i0 in heads:
                deriv = tuple(a + b for a, b in zip(i0, jj))
                delta_el = Element((Term(1, (0,) * m.r,
                                         DeltaFactor(frame_id, deriv, ARG_MOMENT), (), ()),))
                yield multiply(multiply(base, dal, m), delta_el, m).scaled(Fraction(1, fact))

    return add_all(pieces(), m)


def _dalpha_powers(dalpha, bound, m):
    """(J, dalpha_1^J_1 ... dalpha_k^J_k) for every |J| <= bound whose product
    is non-zero, in multi_indices order.

    Each product extends the one above it in the walk by one factor, in the
    same left-to-right order as a product over the whole factor list, so each
    index costs one multiplication and only one partial product per slot is
    alive.  A zero product has only zero extensions; its subtree is skipped.
    """
    def walk(jj, dal, left):
        if len(jj) == len(dalpha):
            yield jj, dal
            return
        s = len(jj)
        for e in range(left + 1):
            if e:
                dal = multiply(dal, dalpha[s], m)
                if dal.is_zero():
                    return
            yield from walk(jj + (e,), dal, left - e)

    return walk((), m.one(), bound)


def with_fibre_coordinates(m, frame_id):
    """Copy of the model extended by fibre coordinates xi^j and coforms dxi^j
    for the frame, with d(xi^j) = dxi^j and all contractions zero."""
    fr = m.frames[frame_id]
    gens = dict(m.generators)
    d_table = dict(m.d_table)
    for j in range(1, fr.rank + 1):
        xi, dxi = _fibre_names(frame_id, j)
        if xi in gens or dxi in gens:
            raise InvariantViolation(f"fibre coordinate names collide in {m.name!r}")
        gens[xi] = Generator(xi, "even", 0, FIBRE_COORDINATE, frame_id, j)
        gens[dxi] = Generator(dxi, "odd", 1, FIBRE_COFORM, frame_id, j)
        d_table[xi] = Element((Term(1, (0,) * m.r, None, (dxi,), ()),))
    return FormalModel(
        name=m.name + "+fibre", manifold_dim=m.manifold_dim + 2 * fr.rank,
        parameters=m.parameters, generators=gens, d_table=d_table,
        iota_table=dict(m.iota_table), frames=dict(m.frames), base=m.base)


def _fibre_names(frame_id, j):
    return f"xi_{frame_id}_{j}", f"dxi_{frame_id}_{j}"


def fourier_fibre_integrate(lambda_model, frame_id):
    """Fibre integral of exp(i D(lambda)) for lambda = -sum xi^j alpha_j.

    D(lambda) splits as P - <xi, u> with P nilpotent; the <xi, u> part is the
    formal phase.  The finite exponential of iP is expanded, the coefficient
    of dxi^1...dxi^k (top fibre degree) extracted, and each xi^J monomial is
    mapped through the Fourier rule onto delta_0^(J)(u).  Powers of i are
    tracked mod 4 and the 2 pi factors cancel against the inverse-rank
    prefactor, so all coefficients stay rational.  Lower fibre-degree terms
    integrate to zero and are dropped.
    """
    m = lambda_model
    fr = m.frames[frame_id]
    k = fr.rank
    if k == 0:
        return m.one()
    xi_names, dxi_names = [], []
    for j in range(1, k + 1):
        xi, dxi = _fibre_names(frame_id, j)
        if xi not in m.generators or dxi not in m.generators:
            raise MissingFibre(
                f"model {m.name!r} lacks fibre coordinates for frame {frame_id!r}")
        xi_names.append(xi)
        dxi_names.append(dxi)

    lam = add_all((multiply(m.gen(xi_names[j]), m.gen(fr.alpha_slots[j]), m).scaled(-1)
                   for j in range(k)), m)
    dlam = equivariant_differential(lam, m)

    u_set = set(fr.u_slots)
    phase_terms, p_terms = [], []
    for t in dlam.terms:
        if any(n in u_set for n, _ in t.even_mono):
            phase_terms.append(t)
        else:
            p_terms.append(t)
    expected_phase = add_all((multiply(m.gen(xi_names[j]), m.gen(fr.u_slots[j]), m).scaled(-1)
                              for j in range(k)), m)
    if normal_form(Element(tuple(phase_terms)), m) != expected_phase:
        raise InvariantViolation(
            "phase part of D(lambda) is not -<xi, u>; model outside the supported calculus")
    p_el = Element(tuple(p_terms))

    dxi_set = set(dxi_names)
    xi_slot = {n: j for j, n in enumerate(xi_names)}
    top = []
    pn = m.one()
    cap = 2 * k + m.manifold_dim + 4
    n = 0
    while not pn.is_zero():
        for t in pn.terms:
            if not dxi_set.issubset(t.odd_mono):
                continue
            inv = 0
            non_dxi = []
            seen_after = 0
            for name in reversed(t.odd_mono):
                if name in dxi_set:
                    inv += seen_after
                else:
                    seen_after += 1
                    non_dxi.append(name)
            non_dxi.reverse()
            sign = -1 if inv % 2 else 1
            jj = [0] * k
            even_rest = []
            for name, exp in t.even_mono:
                if name in xi_slot:
                    jj[xi_slot[name]] = exp
                else:
                    even_rest.append((name, exp))
            ipow = (n + sum(jj) - k) % 4
            if ipow % 2:
                raise InvariantViolation("odd residual power of i in fibre integral")
            sign *= 1 if ipow == 0 else -1
            delta = DeltaFactor(frame_id, tuple(jj), ARG_CLOSED)
            top.append(Term(t.coeff * sign, t.x_mono, delta, tuple(non_dxi), tuple(even_rest)))
        n += 1
        if n > cap:
            raise InvariantViolation("graded exponential failed to terminate")
        pn = multiply(pn, p_el, m).scaled(Fraction(1, n))
    return normal_form(Element(tuple(top)), m)
