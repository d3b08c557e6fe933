"""Localization factors for torus fixed-point data.

Evaluation is torus-only: at an isolated fixed point each tangent weight w
contributes the localized Todd factor 1/(1 - t^-w); a fixed circle
contributes the full weight-lattice sum along its direction (split into the
two directed halves of one geometric factor) times its normal factors.
Expansion directions are model data fixed by the transversality geometry,
one per factor: a locus with fewer or more directions than factors raises
MissingExpansionDirection.  The engine validates them downstream through
integer coefficients and the oracle comparisons rather than deriving them
from curvature.  Each contribution's numerator is the dict
{twist: orientation sign}.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import MissingExpansionDirection, ZeroWeight
from .laurent import DenomFactor, RationalCharacter, RCTerm, lattice_comb

ISOLATED_POINT = "isolatedPoint"
CIRCLE = "circle"


class FixedLocusDatum(NamedTuple):
    """Weight data of one fixed locus of the torus action.

    tangent_weights feed localized Todd factors; normal_weights are
    (weight, evaluation) pairs feeding twisted factors 1/(1 - c t^w);
    expansion_directions align with tangent_weights + normal_weights.
    Circle loci carry the lattice direction of the orbit in circle_weight.
    """

    locus_id: str
    locus_type: str
    tangent_weights: tuple = ()
    normal_weights: tuple = ()
    twist_weight: tuple = ()
    circle_weight: tuple | None = None
    expansion_directions: tuple = ()
    orientation_sign: int = 1


def _check_weight(w):
    if all(x == 0 for x in w):
        raise ZeroWeight(f"zero weight in localization data: {w}")
    return tuple(int(x) for x in w)


# ---------------------------------------------------------------------------
# exact truncated series in one scaling variable

def series_inverse(coeffs):
    """Coefficients of 1/f up to the length of coeffs, for the series
    f = sum_i coeffs[i] x^i; ZeroDivisionError when f has no constant term."""
    if coeffs[0] == 0:
        raise ZeroDivisionError("series has no constant term")
    inv = [Fraction(0)] * len(coeffs)
    inv[0] = 1 / coeffs[0]
    for i in range(1, len(coeffs)):
        s = sum(coeffs[j] * inv[i - j] for j in range(1, i + 1))
        inv[i] = -s / coeffs[0]
    return inv


# ---------------------------------------------------------------------------
# fixed-locus assembly

def fixed_point_contribution(datum, nvars):
    """RationalCharacter contribution of one fixed locus.

    Isolated point: sign * t^twist * prod 1/(1 - t^-w) over tangent weights,
    times 1/(1 - c t^w) over normal (weight, eval) pairs.  Circle: the same
    normal structure times the full lattice comb along circle_weight, the
    comb being the delta class of the orbit circle seen on the Fourier side.
    """
    weights = [(tuple(-x for x in _check_weight(w)), Fraction(1))
               for w in datum.tangent_weights]
    weights += [(_check_weight(w), Fraction(c)) for w, c in datum.normal_weights]
    dirs = datum.expansion_directions
    if len(dirs) != len(weights):
        raise MissingExpansionDirection(
            f"locus {datum.locus_id!r}: {len(weights)} factors, {len(dirs)} directions")
    factors = tuple(DenomFactor(w, c, d) for (w, c), d in zip(weights, dirs))
    twist = tuple(int(x) for x in datum.twist_weight) or (0,) * nvars
    rc = RationalCharacter(nvars, (RCTerm({twist: datum.orientation_sign}, factors),))
    if datum.locus_type == CIRCLE:
        if datum.circle_weight is None:
            raise MissingExpansionDirection(
                f"circle locus {datum.locus_id!r} lacks a lattice direction")
        rc = rc * lattice_comb(nvars, _check_weight(datum.circle_weight))
    elif datum.locus_type != ISOLATED_POINT:
        raise MissingExpansionDirection(f"unknown locus type {datum.locus_type!r}")
    return rc


def localize_index(loci, nvars):
    """Sum of the locus contributions as one RationalCharacter.

    Nothing is expanded here: expand_to_degree is the single integrality
    gate, and it raises NonIntegerCoefficients when the supplied data break
    the integer-coefficient contract."""
    rc = RationalCharacter(nvars)
    for datum in loci:
        rc = rc + fixed_point_contribution(datum, nvars)
    return rc
