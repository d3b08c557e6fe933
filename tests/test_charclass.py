"""Characteristic factors and fixed-locus localization."""

from fractions import Fraction

import pytest

from equivar.characters import cp1_sheaf_character_oracle
from equivar.charclass import (
    CIRCLE,
    FixedLocusDatum,
    fixed_point_contribution,
    localize_index,
    orbit_comb,
    series_inverse,
)
from equivar.errors import MissingExpansionDirection, NonIntegerCoefficients, ZeroWeight
from equivar.laurent import (EXPAND_NEGATIVE, EXPAND_POSITIVE, _like_terms, box_dict,
                             expand_box, expand_to_degree)
from equivar.modelfile import load_builtin

F = Fraction


def _dict(expand, rc, radius):
    """The cells of expand(rc, radius) as the dict of the non-zero ones."""
    return box_dict(expand(rc, radius), rc.nvars, radius)


def _todd(weights):
    """The localized Todd factor prod_w 1/(1 - t^-w) of an isolated point
    with tangent weights w, as fixed_point_contribution builds it."""
    datum = FixedLocusDatum(
        locus_id="p", locus_type="isolatedPoint", tangent_weights=weights,
        twist_weight=(0,), expansion_directions=(EXPAND_POSITIVE,) * len(weights))
    return fixed_point_contribution(datum, 1)


def test_td_factor_structure():
    td = _todd(((2,), (3,)))
    assert len(td.terms) == 1
    dens = sorted((f.weight, f.c) for f in td.terms[0].den)
    assert dens == [((-3,), F(1)), ((-2,), F(1))]


def test_td_factor_multiplicative():
    joint = _todd(((2,), (5,)))
    split = _todd(((2,),)) * _todd(((5,),))
    key = lambda rc: sorted((f.weight, f.c, f.direction) for f in rc.terms[0].den)
    assert key(joint) == key(split)
    assert joint.terms[0].num == split.terms[0].num


def test_td_factor_rejects_zero_weight():
    with pytest.raises(ZeroWeight):
        _todd(((0,),))


def test_taylor_series_basics():
    assert series_inverse([F(1), F(-1)] + [F(0)] * 4) == [F(1)] * 6
    with pytest.raises(ZeroDivisionError):
        series_inverse([F(0), F(1)])


def test_fixed_point_contribution_isolated():
    m = load_builtin("cp1-dolbeault")
    north = m.fixed_loci[0]
    box = _dict(expand_box, fixed_point_contribution(north, 1), 6)
    # t / (1 - t^-2) expanded along the tangent weight
    assert box == {(1,): F(1), (-1,): F(1), (-3,): F(1), (-5,): F(1)}


def test_fixed_point_contribution_circle():
    m = load_builtin("s3-contact")
    box = _dict(expand_box, fixed_point_contribution(m.fixed_loci[0], 2), 3)
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert box.get((a, b), F(0)) == (F(1) if b >= 0 else F(0))


def _comb_directions(rc):
    return [(f.weight, f.direction) for t in rc.terms for f in t.den]


def test_orbit_comb_flips_each_row_to_a_positive_first_entry():
    """Each row gives one comb along the row itself, its sign flipped so that
    the first non-zero entry is positive; it is not made primitive."""
    rc = orbit_comb(((F(0), F(-2)), (F(-3), F(1))), 2)
    assert _comb_directions(rc) == [
        ((0, 2), EXPAND_POSITIVE), ((3, -1), EXPAND_POSITIVE),
        ((0, 2), EXPAND_POSITIVE), ((3, -1), EXPAND_NEGATIVE),
        ((0, 2), EXPAND_NEGATIVE), ((3, -1), EXPAND_POSITIVE),
        ((0, 2), EXPAND_NEGATIVE), ((3, -1), EXPAND_NEGATIVE)]
    assert [t.num for t in rc.terms] == [{(0, 0): c} for c in (1, -1, -1, 1)]
    assert all(type(x) is int for f in rc.terms[0].den for x in f.weight)
    # the comb is symmetric: the flip changes no cell
    assert expand_box(rc, 6) == expand_box(orbit_comb(((0, 2), (3, -1)), 2), 6)


def _orbit(rows):
    return FixedLocusDatum("orbit", CIRCLE, moment_sample=rows)


def test_orbit_comb_rejects_a_zero_row():
    with pytest.raises(ZeroWeight, match=r"\(0, 0\)"):
        localize_index((_orbit(((F(1), F(0)), (F(0), F(0)))),), 2)


def test_orbit_comb_rejects_a_fractional_row_instead_of_truncating():
    # s3-contact's sample 1 is the row (-1/2, -1/2), non-zero, which int()
    # would truncate to (0, 0)
    sample = load_builtin("s3-contact").frames["co"].moment_samples[1]
    with pytest.raises(NonIntegerCoefficients, match=r"\(-1/2, -1/2\) is not an integer"):
        localize_index((_orbit(sample),), 2)
    with pytest.raises(NonIntegerCoefficients, match=r"\(3/2, 1\)"):
        localize_index((_orbit(((F(3, 2), F(1)),)),), 2)


def test_s3_contact_circles_cancel_one_term_each():
    """The sign rule of orbit_comb puts the negative half of the first
    circle's comb (over its normal (0,1) positive) and the positive half of
    the second's (over its normal (1,0) negative) over one denominator with
    opposite numerators, so _like_terms leaves two series to walk.  The raw
    rows (-1, 0) and (0, -1) give the same cells but four series."""
    rc = localize_index(load_builtin("s3-contact").fixed_loci, 2)
    assert len(rc.terms) == 4
    assert sum(1 for num, _ in _like_terms(rc.terms) if num) == 2


def test_contribution_requires_directions():
    datum = FixedLocusDatum(
        locus_id="p", locus_type="isolatedPoint", tangent_weights=((2,),),
        normal_weights=(), twist_weight=(0,), moment_sample=None,
        expansion_directions=(), orientation_sign=1)
    with pytest.raises(MissingExpansionDirection):
        fixed_point_contribution(datum, 1)


@pytest.mark.parametrize("locus_type, directions, message", [
    ("isolatedPoint", (), "locus of 3000 characters: 1 factors, 0 directions"),
    ("x" * 3000, (EXPAND_POSITIVE,), "unknown locus type of 3000 characters"),
], ids=["missing-direction", "unknown-type"])
def test_contribution_names_a_long_locus_by_its_length(locus_type, directions, message):
    # a locus id or type from a model file may be thousands of characters
    datum = FixedLocusDatum("p" * 3000, locus_type, tangent_weights=((2,),),
                            twist_weight=(0,), expansion_directions=directions)
    with pytest.raises(MissingExpansionDirection) as e:
        fixed_point_contribution(datum, 1)
    assert str(e.value) == message and len(str(e.value)) < 200


def _cp1_loci(n):
    m = load_builtin("cp1-dolbeault")
    return [d._replace(twist_weight=tuple(n * w for w in d.twist_weight))
            for d in m.fixed_loci]


def test_localize_cp1_line_bundles_match_oracle():
    for n in range(-10, 11):
        rc = localize_index(_cp1_loci(n), 1)
        box = _dict(expand_box, rc, abs(n) + 2)
        expected = {w: v for w, v in cp1_sheaf_character_oracle(n).items() if v}
        got = {w: v for w, v in box.items() if v}
        assert got == expected, n


def test_localize_output_has_integer_coefficients():
    for n in (-7, -1, 0, 4):
        rc = localize_index(_cp1_loci(n), 1)
        coeffs = _dict(expand_to_degree, rc, 12)
        for w in range(-12, 13):
            assert coeffs.get((w,), 0) == int(coeffs.get((w,), 0))
