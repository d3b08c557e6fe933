"""Characteristic factors and fixed-locus localization."""

import dataclasses
import math
from fractions import Fraction

import pytest

from equivar.characters import cp1_sheaf_character_oracle
from equivar.charclass import (
    FixedLocusDatum,
    TaylorSeries,
    a_hat_squared,
    character_eval,
    dh_denominator_factors,
    dh_factor,
    fixed_point_contribution,
    j_h_function,
    localize_index,
    sinh_quotient_series,
    td_factor,
)
from equivar.errors import MissingExpansionDirection, ZeroWeight
from equivar.laurent import expand_box, expand_to_degree, multiplicity
from equivar.modelfile import load_builtin

F = Fraction


def test_td_factor_structure():
    td = td_factor(((2,), (3,)), 1)
    assert len(td.terms) == 1
    dens = sorted((f.weight, f.c) for f in td.terms[0].den)
    assert dens == [((-3,), F(1)), ((-2,), F(1))]


def test_td_factor_multiplicative():
    joint = td_factor(((2,), (5,)), 1)
    split = td_factor(((2,),), 1) * td_factor(((5,),), 1)
    key = lambda rc: sorted((f.weight, f.c) for f in rc.terms[0].den)
    assert key(joint) == key(split)
    assert joint.terms[0].num.coeffs == split.terms[0].num.coeffs


def test_td_factor_rejects_zero_weight():
    with pytest.raises(ZeroWeight):
        td_factor(((0,),), 1)


def test_character_eval():
    assert character_eval((F(2),), (3,)) == 8
    assert character_eval((F(2), F(3)), (1, -1)) == F(2, 3)
    assert character_eval((), ()) == 1


def test_dh_factor_numerator():
    dh = dh_factor((F(-1),), ((1,),), 1)
    assert dh.terms[0].num.coeffs == {(0,): F(1), (1,): F(1)}  # 1 + t


def test_dh_factor_multiplicative():
    h = (F(2),)
    joint = dh_factor(h, ((1,), (-1,)), 1)
    split = dh_factor(h, ((1,),), 1) * dh_factor(h, ((-1,),), 1)
    assert joint.terms[0].num.coeffs == split.terms[0].num.coeffs


def test_dh_denominator_matches_numerator_factors():
    h = (F(3),)
    for f in dh_denominator_factors(h, ((2,), (-1,))):
        assert f.c == character_eval(h, f.weight)
        assert f.direction is None


def test_taylor_series_basics():
    one_minus = TaylorSeries([F(1), F(-1)] + [F(0)] * 4)
    inv = one_minus.inverse()
    assert inv.coeffs == [F(1)] * 6
    assert (one_minus * inv).coeffs[:6] == [F(1), F(0), F(0), F(0), F(0), F(0)]
    unit = TaylorSeries.constant(F(3), 4)
    assert unit.coeffs == [F(3), F(0), F(0), F(0), F(0)]
    assert unit.order() == 4


def test_sinh_quotient_series_coefficients():
    s = sinh_quotient_series(F(1), 4)
    assert s.coeffs == [F(1), F(0), F(1, 24), F(0), F(1, 1920)]
    scaled = sinh_quotient_series(F(-4), 2)
    assert scaled.coeffs[2] == F(-4, 24)


def _sin_quotient_squared(c, order):
    # independent oracle: (sin(c e)/(c e))^2 by exact factorial sums
    half = [F(0)] * (order + 1)
    for m in range(0, order // 2 + 1):
        half[2 * m] = F((-1) ** m) * c ** (2 * m) / math.factorial(2 * m + 1)
    out = [F(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += half[i] * half[j]
    return out


def test_j_h_su2_reproduces_sine_quotient_identity():
    samples = [F(n, d) for n in (1, -1, 2, -3, 5) for d in (1, 2, 3, 7)]
    assert len(samples) == 20
    for c in samples:
        jh = j_h_function(((2,), (-2,)), (c,), max_degree=12)
        assert jh.coeffs[:13] == _sin_quotient_squared(c, 12)


def test_j_h_abelian_is_unit():
    jh = j_h_function((), (F(5),), max_degree=6)
    assert jh.coeffs[0] == 1 and all(c == 0 for c in jh.coeffs[1:])


def test_noncompact_flag_drops_alternation():
    comp = j_h_function(((2,), (-2,)), (F(1),), max_degree=6)
    noncomp = j_h_function(((2,), (-2,)), (F(1),), max_degree=6, compact=False)
    assert [abs(c) for c in comp.coeffs] == [abs(c) for c in noncomp.coeffs]
    assert comp.coeffs[2] == -noncomp.coeffs[2] != 0


def test_a_hat_squared_inverts_j_h():
    for roots in ((), ((2,), (-2,))):
        jh = j_h_function(roots, (F(2, 3),), max_degree=10)
        ah = a_hat_squared(roots, (F(2, 3),), max_degree=10)
        prod = (ah * jh).coeffs[:11]
        assert prod[0] == 1 and all(c == 0 for c in prod[1:])


def test_fixed_point_contribution_isolated():
    m = load_builtin("cp1-dolbeault")
    north = m.fixed_loci[0]
    box = expand_box(fixed_point_contribution(north, 1), 6)
    # t / (1 - t^-2) expanded along the tangent weight
    assert box == {(1,): F(1), (-1,): F(1), (-3,): F(1), (-5,): F(1)}


def test_fixed_point_contribution_circle():
    m = load_builtin("s3-contact")
    box = expand_box(fixed_point_contribution(m.fixed_loci[0], 2), 3)
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
        box = expand_box(rc, abs(n) + 2)
        expected = {w: v for w, v in cp1_sheaf_character_oracle(n).coeffs.items() if v}
        got = {w: v for w, v in box.items() if v}
        assert got == expected, n


def test_localize_output_has_integer_coefficients():
    for n in (-7, -1, 0, 4):
        rc = localize_index(_cp1_loci(n), 1)
        dist = expand_to_degree(rc, 12)
        for w in range(-12, 13):
            assert multiplicity(dist, (w,)) == int(multiplicity(dist, (w,)))
