"""Localization factors for torus fixed-point data.

Evaluation is torus-only: at an isolated fixed point each tangent weight w
contributes the localized Todd factor 1/(1 - t^-w); a fixed circle
contributes the full weight-lattice sum along its direction (split into the
two directed halves of one geometric factor) times its normal factors.
Expansion directions are model data fixed by the transversality geometry;
the engine validates them downstream through integer coefficients and the
oracle comparisons rather than deriving them from curvature.

The sinh-quotient function of a root system and the squared A-hat factor are
kept as exact truncated series in one scaling variable; on the curated suite
the A-hat factor is always 1 (flat or trivial normal data), so only that
degenerate case is exercised beyond unit tests.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import MissingExpansionDirection, NotNormal, ZeroWeight
from .laurent import DenomFactor, LaurentPoly, RationalCharacter, RCTerm, lattice_comb

ISOLATED_POINT = "isolatedPoint"
CIRCLE = "circle"


@dataclass(frozen=True)
class SeriesPolicy:
    max_degree: int = 20
    variable_order: tuple = ()


@dataclass(frozen=True)
class FixedLocusDatum:
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


def td_factor(weights, nvars):
    """Localized Todd contribution prod_w 1/(1 - t^-w) at the identity germ.

    The polynomial w-factors of the Todd class cancel against the Euler class
    under localization, leaving only these geometric denominators; directions
    are attached later from the locus data.
    """
    factors = []
    for w in weights:
        w = _check_weight(w)
        factors.append(DenomFactor(tuple(-x for x in w), Fraction(1), None))
    return RationalCharacter.reciprocal(nvars, factors)


def character_eval(h, w):
    """Evaluation of the (rational) torus element h on the weight w."""
    c = Fraction(1)
    for hi, wi in zip(h, w):
        c *= Fraction(hi) ** wi
    return c


def dh_factor(h, normal_weights, nvars):
    """The twisted normal factor prod_w (1 - c_w t^w), c_w = h^w, expanded as
    a Laurent numerator.  NotNormal if a factor vanishes identically."""
    out = LaurentPoly.one(nvars)
    for w in normal_weights:
        w = tuple(int(x) for x in w)
        c = character_eval(h, w)
        if c == 1 and all(x == 0 for x in w):
            raise NotNormal(f"factor (1 - c t^{w}) is identically zero")
        out = out * (LaurentPoly.one(nvars) - LaurentPoly.monomial(w, c))
    return RationalCharacter.from_poly(out)


def dh_denominator_factors(h, normal_weights):
    """The same factors in denominator position, direction unset."""
    factors = []
    for w in normal_weights:
        w = tuple(int(x) for x in w)
        c = character_eval(h, w)
        if c == 1 and all(x == 0 for x in w):
            raise NotNormal(f"factor (1 - c t^{w}) is identically zero")
        factors.append(DenomFactor(w, c, None))
    return tuple(factors)


# ---------------------------------------------------------------------------
# exact truncated series in one scaling variable

class TaylorSeries:
    """Dense rational coefficients c_0..c_n of a series in one variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @classmethod
    def constant(cls, c, order):
        return cls([Fraction(c)] + [Fraction(0)] * order)

    def order(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, TaylorSeries) and self.coeffs == other.coeffs

    def __add__(self, other):
        return TaylorSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        n = min(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                out[i + j] += a * b
        return TaylorSeries(out)

    def inverse(self):
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series has no constant term")
        n = len(self.coeffs)
        inv = [Fraction(0)] * n
        inv[0] = 1 / self.coeffs[0]
        for i in range(1, n):
            s = sum(self.coeffs[j] * inv[i - j] for j in range(1, i + 1))
            inv[i] = -s / self.coeffs[0]
        return TaylorSeries(inv)


def sinh_quotient_series(q, order):
    """(e^{x/2} - e^{-x/2})/x as a series in the scaling variable, where
    x^2 = q * eps^2.  Only even powers of x appear, so q rational keeps the
    coefficients rational even for compact (imaginary) arguments."""
    coeffs = [Fraction(0)] * (order + 1)
    qp = Fraction(1)
    for mm in range(0, order // 2 + 1):
        coeffs[2 * mm] = qp / (Fraction(4) ** mm * factorial(2 * mm + 1))
        qp *= Fraction(q)
    return TaylorSeries(coeffs)


def j_h_function(roots, direction, max_degree=12, compact=True):
    """prod over roots of (e^{a(X)/2} - e^{-a(X)/2})/a(X) along the ray
    X = eps * direction.  compact=True means a(X) = i <a, direction> eps, the
    germ relevant to a compact group, so a(X)^2 = -<a, direction>^2 eps^2.
    Empty root list (abelian case) gives the constant series 1."""
    out = TaylorSeries.constant(1, max_degree)
    for a in roots:
        pair = sum(Fraction(x) * Fraction(y) for x, y in zip(a, direction))
        q = -(pair ** 2) if compact else pair ** 2
        out = out * sinh_quotient_series(q, max_degree)
    return out


def a_hat_squared(weights, direction, max_degree=12, compact=True):
    """det(R/(e^{R/2} - e^{-R/2})) along a ray, for diagonal curvature data.
    Empty weight list (flat or trivial bundle) gives 1, the only case the
    curated suite exercises."""
    out = TaylorSeries.constant(1, max_degree)
    for w in weights:
        pair = sum(Fraction(x) * Fraction(y) for x, y in zip(w, direction))
        q = -(pair ** 2) if compact else pair ** 2
        out = out * sinh_quotient_series(q, max_degree).inverse()
    return out


# ---------------------------------------------------------------------------
# fixed-locus assembly

def fixed_point_contribution(datum, nvars):
    """RationalCharacter contribution of one fixed locus.

    Isolated point: sign * t^twist * prod 1/(1 - t^-w) over tangent weights,
    times 1/(1 - c t^w) over normal (weight, eval) pairs.  Circle: the same
    normal structure times the full lattice comb along circle_weight, the
    comb being the delta class of the orbit circle seen on the Fourier side.
    """
    factors = []
    for w in datum.tangent_weights:
        w = _check_weight(w)
        factors.append(DenomFactor(tuple(-x for x in w), Fraction(1), None))
    for w, c in datum.normal_weights:
        w = _check_weight(w)
        c = Fraction(c)
        factors.append(DenomFactor(tuple(w), c, None))
    dirs = datum.expansion_directions
    if len(dirs) != len(factors):
        raise MissingExpansionDirection(
            f"locus {datum.locus_id!r}: {len(factors)} factors, {len(dirs)} directions")
    factors = tuple(f.directed(d) for f, d in zip(factors, dirs))
    twist = tuple(int(x) for x in datum.twist_weight) or (0,) * nvars
    num = LaurentPoly.monomial(twist, datum.orientation_sign)
    rc = RationalCharacter(nvars, (RCTerm(num, factors),))
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
    rc = RationalCharacter.zero(nvars)
    for datum in loci:
        rc = rc + fixed_point_contribution(datum, nvars)
    return rc
