"""Localization factors for torus fixed-point data.

Evaluation is torus-only: at an isolated fixed point each tangent weight w
contributes the localized Todd factor 1/(1 - t^-w); a circle locus, an
orbit on which J restricts to alpha delta(f(X)), contributes the Fourier
side of that delta class, orbit_comb of the frame's moment sample at the
orbit, times its normal factors.  orbit_comb is the one route to a lattice
comb: one full weight-lattice sum per sample row (split into the two
directed halves of one geometric factor), along the row itself, not its
primitive vector, with the sign flipped so that its first non-zero entry is
positive.  The sign changes no expanded cell, since a comb is symmetric, but
it fixes the terms: on s3-contact it puts the negative half of one circle's
comb and the positive half of the other's over equal denominators with
opposite numerators, which laurent._like_terms cancels before expanding.
Expansion directions are model data fixed by the transversality geometry,
one per factor: a locus with fewer or more directions than factors raises
MissingExpansionDirection.  The engine validates them downstream through
the oracle comparisons rather than deriving them from curvature.  Each
contribution's numerator is the dict {twist: orientation sign}, over factors
that evaluate at the int c = +1 or -1 that the model loader admits.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import MissingExpansionDirection, NonIntegerCoefficients, ZeroWeight, shown
from .laurent import DenomFactor, RationalCharacter, RCTerm, lattice_comb

ISOLATED_POINT = "isolatedPoint"
CIRCLE = "circle"


class FixedLocusDatum(NamedTuple):
    """Weight data of one fixed locus of the torus action.

    tangent_weights feed localized Todd factors; normal_weights are
    (weight, evaluation) pairs feeding twisted factors 1/(1 - c t^w);
    expansion_directions align with tangent_weights + normal_weights.
    A circle locus carries in moment_sample the rows of the frame's moment
    sample that it names, resolved when the model is loaded.
    """

    locus_id: str
    locus_type: str
    tangent_weights: tuple = ()
    normal_weights: tuple = ()
    twist_weight: tuple = ()
    moment_sample: tuple | None = None
    expansion_directions: tuple = ()
    orientation_sign: int = 1


def _check_weight(w):
    """w as a tuple of ints; a zero or fractional w raises, never truncated."""
    if all(x == 0 for x in w):
        raise ZeroWeight(f"zero weight in localization data: ({', '.join(map(str, w))})")
    if any(x.denominator != 1 for x in w):
        raise NonIntegerCoefficients(f"weight ({', '.join(map(str, w))}) is not an integer vector")
    return tuple(int(x) for x in w)


def orbit_comb(rows, nvars):
    """Product of one lattice_comb per row of a moment sample, each along the
    row flipped so that its first non-zero entry is positive (module doc)."""
    rc = RationalCharacter.one(nvars)
    for row in map(_check_weight, rows):
        # of row and -row, the larger tuple has its first non-zero entry positive
        rc = rc * lattice_comb(nvars, max(row, tuple(-x for x in row)))
    return rc


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
    normal structure times orbit_comb of its moment sample, the delta class
    of the orbit seen on the Fourier side.
    """
    weights = [(tuple(-x for x in _check_weight(w)), 1) for w in datum.tangent_weights]
    weights += [(_check_weight(w), c) for w, c in datum.normal_weights]
    dirs = datum.expansion_directions
    if len(dirs) != len(weights):
        raise MissingExpansionDirection(
            f"locus {shown(datum.locus_id)}: {len(weights)} factors, {len(dirs)} directions")
    factors = tuple(DenomFactor(w, c, d) for (w, c), d in zip(weights, dirs))
    twist = datum.twist_weight or (0,) * nvars
    rc = RationalCharacter(nvars, (RCTerm({twist: datum.orientation_sign}, factors),))
    if datum.locus_type == CIRCLE:
        rc = rc * orbit_comb(datum.moment_sample, nvars)
    elif datum.locus_type != ISOLATED_POINT:
        raise MissingExpansionDirection(f"unknown locus type {shown(datum.locus_type)}")
    return rc


def localize_index(loci, nvars):
    """Sum of the locus contributions as one RationalCharacter.  Nothing is
    expanded here; the model loader has admitted only integer data, so every
    expanded coefficient is an int."""
    rc = RationalCharacter(nvars)
    for datum in loci:
        rc = rc + fixed_point_contribution(datum, nvars)
    return rc
