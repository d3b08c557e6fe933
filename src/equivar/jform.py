"""Assembly and verification of the canonical closed form of a frame.

For a co-oriented rank-k distribution presented by frame forms
alpha_1..alpha_k with closed arguments u_j, the canonical value is

    J = alpha_k ^ ... ^ alpha_1 * delta_0(u)

in descending slot order; reversing the order flips the sign by
(-1)^(k(k-1)/2).  The empty frame takes the same route: its J is the empty
product times delta_0 of no arguments, which normal form reads as 1.

j_form returns J as a plain Element.  J is fixed by the distribution the
frame presents, so every check of the frame is a function of the model, the
frame id and J: check_closed(m, j), unannihilated_slot(m, frame_id, j) and
frame_change_compare(m, frame_id, j, a_matrix).

A frame trial rebuilds J under a frame change beta = A alpha: the wedge of
the betas times delta_0(A u) is one product of superalg.fold: it starts
from the unit, each beta and the delta part go through the Koszul loop
once, and the result is put in normal form once.  It is
never replaced by det(A), so a wrong Koszul sign or delta scale makes the
comparison fail.  Only the delta part carries a delta factor, which is the
fold's condition.  The frame changes that verify draws are integer matrices
(linalg.random_gl_plus), so the expansion runs in integer arithmetic.
"""

from . import linalg
from .errors import NotPrincipal, NotTransverse, RankDataMissing, shown
from .genco import delta_linear_substitute
from .superalg import (DeltaFactor, Element, Term, _new_tuple, equivariant_differential,
                       fold, multiply, product)


def check_transversality(m, frame_id):
    """None when the moment matrix has full rank k at every sample; else
    raises NotTransverse, whose witness names the first sample that does
    not: {sampleIndex, rank, required, matrix}.

    The rank condition says X -> f_alpha(X) hits every co-direction of the
    frame, which is what makes delta_0(u) well defined as a generalized
    coefficient.  Rank is computed exactly over the rationals.  A frame of
    rank k > 0 with no samples raises RankDataMissing.
    """
    fr = m.frames[frame_id]
    if fr.rank == 0:
        return
    if fr.moment_samples is None:
        raise RankDataMissing(f"frame {shown(frame_id)} declares no moment samples")
    for i, sample in enumerate(fr.moment_samples):
        r = linalg.rank(sample)
        if r != fr.rank:
            raise NotTransverse(f"frame {shown(frame_id)} moment data not full rank: sample "
                                f"{i} has rank {r}, not {fr.rank}",
                                {"sampleIndex": i, "rank": r, "required": fr.rank,
                                 "matrix": [[str(x) for x in row] for row in sample]})


def j_form(m, frame_id):
    """J of the frame, after its transversality check."""
    fr = m.frames[frame_id]
    check_transversality(m, frame_id)
    alphas = [m.gen(name) for name in reversed(fr.alpha_slots)]
    return multiply(product(alphas, m), m.delta(frame_id), m)


def check_closed(m, j):
    return equivariant_differential(j, m).is_zero()


def unannihilated_slot(m, frame_id, j):
    """(a, alpha_a J) for the first slot a (1-based) of the frame whose form
    alpha_a does not multiply J to zero; None when every one does."""
    for a, name in enumerate(m.frames[frame_id].alpha_slots, start=1):
        p = multiply(m.gen(name), j, m)
        if p.terms:
            return a, p
    return None


def transformed_j_form(m, frame_id, a_matrix):
    """J of the frame beta = A alpha, re-expressed in the alpha basis.

    beta_j = sum_l A[j][l] alpha_l, u^beta = A u, and delta_0(A u) is
    rewritten through delta_linear_substitute.  For det(A) > 0 this equals
    j_form exactly; det(A) <= 0 raises NonOrientable.
    """
    fr = m.frames[frame_id]
    d0 = DeltaFactor(frame_id, (0,) * fr.rank)
    delta_part = delta_linear_substitute(d0, a_matrix, m)
    slots = [(name,) for name in fr.alpha_slots]
    factors = [Element(tuple(_new_tuple(Term, (x, None, odd, ()))
                             for odd, x in zip(slots, row) if x))
               for row in reversed(a_matrix)]
    factors.append(delta_part)
    return fold((factors,), m)


def frame_change_compare(m, frame_id, j, a_matrix):
    """True iff the frame change by A (constant, det > 0) preserves J exactly.

    j is the J of the frame (from j_form, which has checked transversality).
    The transformed wedge times delta_0(A u) is compared with j, so J is
    built once per frame, not once per trial.
    """
    return transformed_j_form(m, frame_id, a_matrix) == j


def chern_weil_pair(m, frame_id, poly):
    """Pair the delta class of a principal-connection frame with an invariant
    polynomial: integrating delta_0(X - curvature) against p(X) over the
    parameter space evaluates p on the curvature, truncated by base degree.

    Requires the connection normalization: the split must be declared, k must
    equal the parameter count, and every moment sample must be minus the
    identity (f_j(X) = -X_j).  poly maps exponent tuples over the parameters
    to rational coefficients.
    """
    fr = m.frames[frame_id]
    if fr.dalpha is None:
        raise NotPrincipal(f"frame {shown(frame_id)} declares no curvature split")
    if fr.rank != m.r:
        raise NotPrincipal("frame rank differs from parameter count")
    if fr.moment_samples is None:
        raise RankDataMissing(f"frame {shown(frame_id)} declares no moment samples")
    minus_id = tuple(tuple(-1 if i == j else 0 for j in range(m.r))
                     for i in range(fr.rank))
    for sample in fr.moment_samples:
        if sample != minus_id:
            raise NotPrincipal("moment data is not the connection pairing f(X) = -X")
    products = ([m.scalar(c)] + [fr.dalpha[slot] for slot, e in enumerate(expo) for _ in range(e)]
                for expo, c in poly.items())
    return fold(products, m)
