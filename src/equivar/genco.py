"""Operations on delta-distribution coefficients.

The delta symbol delta_0^(I)(u) is always attached to the closed arguments
u_1..u_k of a single frame.  Three rewrite families live here:

  * absorption       u_j * delta^(I) -> -I_j * delta^(I - e_j)
  * linear change    delta^(I)(A u) expanded over delta^(J)(u), det(A) > 0
  * Taylor display   delta^(I)(u) -> sum delta^(I+J)(f) dalpha^J / J!

plus the fibre-side construction that recovers the assembled form from a
graded exponential and the Fourier rule
delta_0^(J)(u) = (2 pi)^(-k) int (-i xi)^J exp(-i<xi, u>) dxi:
fourier_fibre_integrate(m, frame_id) takes the model itself and extends it
by the frame's fibre coordinates (with_fibre_coordinates) on every call.

The Taylor display reads u_j = dalpha_j + f_j, the split the frame declares,
and expands each term t delta^(I)(u) of an element as its Taylor series in
dalpha: the Mathai-Quillen reading of a form with generalized coefficients
(Paradan-Vergne, arXiv:0711.3898).  The series is finite because dalpha_j is
a 2-form and degrees above the manifold dimension vanish; its multi-indices
J are walked once by superalg.taylor_fold, heads included, and a model
whose walk would pass MAX_TAYLOR_INDICES stops with OutOfRange first.
"""

import operator
import sys
from fractions import Fraction
from math import comb

from . import linalg
from .errors import InvariantViolation, NonOrientable, OutOfRange, SplittingMissing, shown
from .superalg import (ARG_CLOSED, ARG_MOMENT, PLAIN_FORM, DeltaFactor, Element,
                       FormalModel, Generator, Term, _new_tuple, add, equivariant_differential,
                       fold, graded_exp_pieces, normal_form, taylor_fold)

__all__ = [
    "DeltaFactor", "delta_linear_substitute", "taylor_expand_delta",
    "fourier_fibre_integrate", "with_fibre_coordinates",
]

# most multi-indices J, C(bound + k, k) of them, that one Taylor display may
# walk: every golden (126) and perfbench model (at most 210) stays below it,
# split-rank4 up to dim 29 (1820)
MAX_TAYLOR_INDICES = 2048


def delta_linear_substitute(d, a_matrix, m):
    """Expand delta^(I) evaluated at A*u over the delta^(J)(u), |J| = |I|.

    The scalar rule is delta_0(A u) = det(A)^(-1) delta_0(u); derivatives pick
    up one factor of A^(-1) per slot, so the inverse is computed only when d
    has a non-zero derivative order.  det(A) <= 0 raises NonOrientable.
    The result is a normal form, so at rank 0 it is the scalar 1.  At
    derivative order zero it is the one term det(A)^(-1) delta_0(u), built
    directly (det(A)^(-1) alone at rank 0, where delta_0 of no arguments is
    1): its coefficient is an int when det(A) is 1/n.
    """
    k = len(d.deriv)
    if len(a_matrix) != k or any(len(row) != k for row in a_matrix):
        raise NonOrientable(f"substitution matrix is not {k} x {k}")
    det = linalg.det(a_matrix)
    if det == 0:
        raise NonOrientable("singular frame change")
    if det < 0:
        raise NonOrientable("orientation-reversing frame change (det < 0)")
    if not any(d.deriv):
        p, q = det.numerator, det.denominator
        delta = None if not k and d.argument == ARG_CLOSED else d
        return Element((_new_tuple(Term, (q if p == 1 else Fraction(q, p), delta, (), ())),))
    scale = 1 / det
    b = linalg.inverse(a_matrix)
    combos = {(0,) * k: 1}
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
        Term(scale * c, DeltaFactor(d.frame_id, jj, d.argument), (), ())
        for jj, c in sorted(combos.items()) if c != 0)
    return normal_form(Element(terms), m)


def taylor_expand_delta(e, frame_id, m):
    """Display form: rewrite delta^(I)(u) through the declared split
    u_j = dalpha_j + f_j.  The moment f stays symbolic (argument tag
    "moment"); dalpha powers are cut by the usual degree truncation.  This is
    a reporting form and is rejected by the differential.

    Every term of a split entry is a 2-form (validate_model), so every term
    of dalpha^J has degree 2|J|, and a head term of degree d times dalpha^J
    survives truncation only while d + 2|J| <= dim.  The walk over J stops
    at (dim - d_min) // 2, d_min the least degree of a head: no larger J
    leaves a term.  OutOfRange is raised before the walk when it would visit
    more than MAX_TAYLOR_INDICES multi-indices.  superalg.taylor_fold walks
    the heads times dalpha^J / J! and rekeys each head's delta^(I)(u) to
    delta^(I+J)(f) at the leaf J; the other terms are added unchanged.
    """
    fr = m.frames[frame_id]
    if fr.dalpha is None:
        raise SplittingMissing(f"frame {frame_id!r} declares no (dalpha, f) split")
    rest, heads = [], []
    for t in e.terms:
        delta = t.delta
        if delta is None or delta.frame_id != frame_id:
            rest.append(t)
        elif delta.argument == ARG_MOMENT:
            raise InvariantViolation("element is already in display form")
        else:
            heads.append(t)
    rest = Element(tuple(rest))
    if not heads:
        return normal_form(rest, m)
    bound = (m.manifold_dim - min(map(m.term_degree, heads))) // 2
    indices = comb(bound + fr.rank, fr.rank)
    if indices > MAX_TAYLOR_INDICES:
        try:
            count = str(indices)
        except ValueError:  # past the int-to-str digit limit
            count = f"at least 10^{sys.get_int_max_str_digits()}"
        raise OutOfRange(f"the Taylor display of frame {shown(frame_id)} would walk {count} "
                         f"multi-indices, more than {MAX_TAYLOR_INDICES}")

    def moment(delta, jj):
        return _new_tuple(DeltaFactor, (frame_id, tuple(map(operator.add, delta.deriv, jj)),
                                        ARG_MOMENT))

    display = taylor_fold(Element(tuple(heads)), fr.dalpha, bound, moment, m)
    return add(display, rest, m) if rest.terms else display


def with_fibre_coordinates(m, frame_id):
    """Copy of the model extended by fibre coordinates xi^j and coforms dxi^j
    for the frame, with d(xi^j) = dxi^j and all contractions zero.  They are
    plain forms that carry the frame and slot j, which place dxi^j next to
    alpha_j in the odd order."""
    fr = m.frames[frame_id]
    gens = dict(m.generators)
    d_table = dict(m.d_table)
    for j, (xi, dxi) in enumerate(_fibre_names(m, frame_id), start=1):
        gens[xi] = Generator(xi, "even", 0, PLAIN_FORM, frame_id, j)
        gens[dxi] = Generator(dxi, "odd", 1, PLAIN_FORM, frame_id, j)
        d_table[xi] = Element((Term(1, None, (dxi,), ()),))
    return FormalModel(
        name=m.name + "+fibre", manifold_dim=m.manifold_dim + 2 * fr.rank,
        parameters=m.parameters, generators=gens, d_table=d_table,
        iota_table=dict(m.iota_table), frames=dict(m.frames), base=m.base)


def _fibre_names(m, frame_id):
    """[(xi_<frame>_<j>, dxi_<frame>_<j>)] for the frame's slots j, primed
    until no generator or parameter of m (truncation_degrees) has one."""
    prime = ""
    while True:
        names = [(f"xi_{frame_id}_{j}{prime}", f"dxi_{frame_id}_{j}{prime}")
                 for j in range(1, m.frames[frame_id].rank + 1)]
        if m.truncation_degrees.keys().isdisjoint(sum(names, ())):
            return names
        prime += "'"


def fourier_fibre_integrate(m, frame_id):
    """Fibre integral of exp(i D(lambda)) for lambda = -sum xi^j alpha_j.

    The integral runs in with_fibre_coordinates(m, frame_id), built here.
    D(lambda) splits as P - <xi, u> with P nilpotent; the <xi, u> part is
    the formal phase.  The finite exponential of iP is expanded, the coefficient
    of dxi^1...dxi^k (top fibre degree) extracted, and each xi^J monomial is
    mapped through the Fourier rule onto delta_0^(J)(u).  Powers of i are
    tracked mod 4 and the 2 pi factors cancel against the inverse-rank
    prefactor, so all coefficients stay rational.  Lower fibre-degree terms
    integrate to zero and are dropped.
    """
    names = _fibre_names(m, frame_id)
    m = with_fibre_coordinates(m, frame_id)
    fr = m.frames[frame_id]
    k = fr.rank
    xi_names = [xi for xi, _ in names]
    dxi_names = [dxi for _, dxi in names]

    lam = fold(((m.gen(xi).scaled(-1), m.gen(a)) for xi, a in zip(xi_names, fr.alpha_slots)),
               m)
    dlam = equivariant_differential(lam, m)

    u_set = set(fr.u_slots)
    phase_terms, p_terms = [], []
    for t in dlam.terms:
        if any(n in u_set for n, _ in t.even_mono):
            phase_terms.append(t)
        else:
            p_terms.append(t)
    expected_phase = fold(((m.gen(xi).scaled(-1), m.gen(u))
                           for xi, u in zip(xi_names, fr.u_slots)), m)
    if normal_form(Element(tuple(phase_terms)), m) != expected_phase:
        raise InvariantViolation(
            "phase part of D(lambda) is not -<xi, u>; model outside the supported calculus")
    p_el = Element(tuple(p_terms))

    dxi_set = set(dxi_names)
    xi_slot = {n: j for j, n in enumerate(xi_names)}
    top = []
    for n, pn in enumerate(graded_exp_pieces(p_el, m)):
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
            top.append(Term(t.coeff * sign, delta, tuple(non_dxi), tuple(even_rest)))
    return normal_form(Element(tuple(top)), m)
