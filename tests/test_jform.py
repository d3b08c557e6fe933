"""The canonical closed form: construction, closedness, frame independence."""

import dataclasses
import random
from fractions import Fraction

import pytest

from equivar.errors import NonOrientable, NotPrincipal, NotTransverse, RankDataMissing
from equivar.jform import (
    check_closed,
    check_transversality,
    chern_weil_pair,
    frame_change_compare,
    j_form,
    transformed_j_form,
)
from equivar.modelfile import builtin_names, load_builtin
from equivar.randmodels import random_gl_plus, random_model
from equivar.superalg import add, multiply

ALL_BUILTINS = tuple(builtin_names())


def test_transversality_on_builtins():
    for name in ALL_BUILTINS:
        m = load_builtin(name)
        for fid in m.frames:
            ok, witness = check_transversality(m, fid)
            assert ok and witness is None, name


def test_transversality_failure_carries_witness():
    m = load_builtin("t2-on-t2")
    fr = m.frames["tau"]
    bad = dataclasses.replace(fr, moment_samples=(((0, 0), (0, 0)),))
    m2 = dataclasses.replace(m, frames={"tau": bad})
    ok, witness = check_transversality(m2, "tau")
    assert not ok
    assert witness["sampleIndex"] == 0
    assert witness["rank"] == 0 and witness["required"] == 2
    with pytest.raises(NotTransverse) as err:
        j_form(m2, "tau")
    assert err.value.witness == witness


def test_transversality_requires_sample_data():
    m = load_builtin("s1-on-s1")
    fr = dataclasses.replace(m.frames["tau"], moment_samples=None)
    m2 = dataclasses.replace(m, frames={"tau": fr})
    with pytest.raises(RankDataMissing):
        check_transversality(m2, "tau")


def test_j_form_values():
    m = load_builtin("s1-on-s1")
    assert j_form(m, "tau").value == multiply(m.gen("deta"), m.delta("tau"), m)
    m = load_builtin("s3-contact")
    assert j_form(m, "co").value == multiply(m.gen("alpha"), m.delta("co"), m)
    m = load_builtin("cp1-dolbeault")
    assert j_form(m, "triv").value == m.one()


def test_j_form_closed_on_builtins():
    for name in ALL_BUILTINS:
        m = load_builtin(name)
        for fid in m.frames:
            assert check_closed(m, j_form(m, fid)), name


def test_frame_forms_annihilate_j():
    for name in ALL_BUILTINS:
        m = load_builtin(name)
        for fid, fr in m.frames.items():
            jf = j_form(m, fid)
            for a in fr.alpha_slots:
                assert multiply(m.gen(a), jf.value, m).is_zero(), (name, a)


def test_closedness_detects_corruption():
    # a bare frame form is not closed: D(alpha) = u1 != 0
    m = load_builtin("s3-contact")
    assert not check_closed(m, m.gen("alpha"))


def test_dropped_slot_stays_closed_but_fails_annihilation():
    # deta2 delta_0 is still D-closed (u2 delta_0 = 0) yet deta1 no longer
    # annihilates it; closedness alone does not characterize the class.
    m = load_builtin("t2-on-t2")
    partial = multiply(m.gen("deta2"), m.delta("tau"), m)
    assert check_closed(m, partial)
    assert not multiply(m.gen("deta1"), partial, m).is_zero()


def test_frame_change_scalar_and_unipotent():
    m = load_builtin("s1-on-s1")
    assert frame_change_compare(m, j_form(m, "tau"), ((Fraction(5, 3),),))
    m = load_builtin("t2-on-t2")
    jf = j_form(m, "tau")
    assert frame_change_compare(m, jf, ((1, 1), (0, 1)))
    assert frame_change_compare(m, jf, ((0, -1), (1, 0)))  # rotation


def test_frame_change_randomized():
    rng = random.Random(13)
    models = [(load_builtin(n), ) for n in ALL_BUILTINS]
    models.append((random_model(random.Random(0), max_rank=3, with_theta=False),))
    for (m,) in models:
        for fid, fr in m.frames.items():
            jf = j_form(m, fid)
            for _ in range(50):
                assert frame_change_compare(m, jf, random_gl_plus(rng, fr.rank))


def test_orientation_reversal_flips_sign():
    m = load_builtin("t2-on-t2")
    flipped = transformed_j_form(m, "tau", ((-1, 0), (0, 1)), allow_reversal=True)
    assert flipped == -j_form(m, "tau").value
    m1 = load_builtin("s1-on-s1")
    flipped1 = transformed_j_form(m1, "tau", ((-2,),), allow_reversal=True)
    assert flipped1 == -j_form(m1, "tau").value


def test_reversal_requires_explicit_optin():
    m = load_builtin("s1-on-s1")
    with pytest.raises(NonOrientable):
        transformed_j_form(m, "tau", ((-1,),))
    m2 = load_builtin("t2-on-t2")
    with pytest.raises(NonOrientable):
        transformed_j_form(m2, "tau", ((1, 1), (1, 1)))  # singular


def test_chern_weil_pairing_monomials():
    m = load_builtin("hopf")
    assert chern_weil_pair(m, "conn", {(0,): Fraction(1)}) == m.one()
    assert chern_weil_pair(m, "conn", {(1,): Fraction(1)}) == m.gen("Psi")
    # degree 4 exceeds dim 3 on both sides of the pairing
    assert chern_weil_pair(m, "conn", {(2,): Fraction(1)}).is_zero()
    assert multiply(m.gen("Psi"), m.gen("Psi"), m).is_zero()
    mixed = chern_weil_pair(m, "conn", {(0,): Fraction(2), (1,): Fraction(-3)})
    assert mixed == add(m.scalar(2), m.gen("Psi").scaled(-3), m)


def test_chern_weil_needs_principal_data():
    m = random_model(random.Random(3), max_rank=2, with_theta=False, dim_cap=6)
    fid = sorted(m.frames)[0]
    with pytest.raises(NotPrincipal):
        chern_weil_pair(m, fid, {(0,) * m.frames[fid].rank: Fraction(1)})
