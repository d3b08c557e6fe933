"""Characteristic factors and fixed-locus localization."""

import dataclasses
from fractions import Fraction

import pytest

from equivar.characters import cp1_sheaf_character_oracle
from equivar.charclass import (
    FixedLocusDatum,
    fixed_point_contribution,
    localize_index,
    series_inverse,
)
from equivar.errors import MissingExpansionDirection, ZeroWeight
from equivar.laurent import EXPAND_POSITIVE, box_dict, expand_box, expand_to_degree
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


def test_contribution_requires_directions():
    datum = FixedLocusDatum(
        locus_id="p", locus_type="isolatedPoint", tangent_weights=((2,),),
        normal_weights=(), twist_weight=(0,), circle_weight=None,
        expansion_directions=(), orientation_sign=1)
    with pytest.raises(MissingExpansionDirection):
        fixed_point_contribution(datum, 1)


def _cp1_loci(n):
    m = load_builtin("cp1-dolbeault")
    return [dataclasses.replace(d, twist_weight=tuple(n * w for w in d.twist_weight))
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
