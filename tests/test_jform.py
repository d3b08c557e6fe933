"""The canonical closed form: construction, closedness, frame independence."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from equivar import genco, jform, linalg, superalg
from equivar.errors import NonOrientable, NotPrincipal, NotTransverse, RankDataMissing
from equivar.genco import delta_linear_substitute
from equivar.jform import (
    check_closed,
    check_transversality,
    chern_weil_pair,
    frame_change_compare,
    j_form,
    transformed_j_form,
    unannihilated_slot,
)
from equivar.linalg import random_gl_plus
from equivar.modelfile import builtin_names, load_builtin, load_model
from equivar.superalg import (DeltaFactor, Element, Term, add, multiply, normal_form,
                              product)

from random_models import model_with, random_model

ALL_BUILTINS = tuple(builtin_names())
SPLIT_RANK4 = Path(__file__).parent / "golden" / "models" / "split-rank4.json"
FRAMES_RANK6 = Path(__file__).parent / "golden" / "models" / "frames-rank6.json"


def test_transversality_on_builtins():
    for name in ALL_BUILTINS:
        m = load_builtin(name)
        for fid in m.frames:
            ok, witness = check_transversality(m, fid)
            assert ok and witness is None, name


def test_transversality_failure_carries_witness():
    m = load_builtin("t2-on-t2")
    fr = m.frames["tau"]
    bad = fr._replace(moment_samples=(((0, 0), (0, 0)),))
    m2 = model_with(m, frames={"tau": bad})
    ok, witness = check_transversality(m2, "tau")
    assert not ok
    assert witness["sampleIndex"] == 0
    assert witness["rank"] == 0 and witness["required"] == 2
    with pytest.raises(NotTransverse) as err:
        j_form(m2, "tau")
    assert err.value.witness == witness


def test_transversality_requires_sample_data():
    m = load_builtin("s1-on-s1")
    fr = m.frames["tau"]._replace(moment_samples=None)
    m2 = model_with(m, frames={"tau": fr})
    with pytest.raises(RankDataMissing):
        check_transversality(m2, "tau")


def test_j_form_values():
    m = load_builtin("s1-on-s1")
    assert j_form(m, "tau") == multiply(m.gen("deta"), m.delta("tau"), m)
    m = load_builtin("s3-contact")
    assert j_form(m, "co") == multiply(m.gen("alpha"), m.delta("co"), m)
    m = load_builtin("cp1-dolbeault")
    assert j_form(m, "triv") == m.one()


def test_j_form_closed_on_builtins():
    for name in ALL_BUILTINS:
        m = load_builtin(name)
        for fid in m.frames:
            assert check_closed(m, j_form(m, fid)), name


def test_frame_forms_annihilate_j():
    for name in ALL_BUILTINS:
        m = load_builtin(name)
        for fid, fr in m.frames.items():
            j = j_form(m, fid)
            assert unannihilated_slot(m, fid, j) is None, name
            for a in fr.alpha_slots:
                assert multiply(m.gen(a), j, m).is_zero(), (name, a)


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
    assert unannihilated_slot(m, "tau", partial) == (1, multiply(m.gen("deta1"), partial, m))


def test_frame_change_scalar_and_unipotent():
    m = load_builtin("s1-on-s1")
    assert frame_change_compare(m, "tau", j_form(m, "tau"), ((Fraction(5, 3),),))
    m = load_builtin("t2-on-t2")
    j = j_form(m, "tau")
    assert frame_change_compare(m, "tau", j, ((1, 1), (0, 1)))
    assert frame_change_compare(m, "tau", j, ((0, -1), (1, 0)))  # rotation


def test_frame_change_randomized():
    rng = random.Random(13)
    models = [(load_builtin(n), ) for n in ALL_BUILTINS]
    models.append((random_model(random.Random(0), max_rank=3, with_theta=False),))
    for (m,) in models:
        for fid, fr in m.frames.items():
            j = j_form(m, fid)
            for _ in range(50):
                assert frame_change_compare(m, fid, j, random_gl_plus(rng, fr.rank))


def _unsigned_det(monkeypatch):
    """Let a frame change with det A < 0 through: det A reads |det A|, which
    keeps the 1/|det A| scale and raises no NonOrientable."""
    det = linalg.det
    monkeypatch.setattr(genco.linalg, "det", lambda a: abs(det(a)))


def test_orientation_reversal_flips_sign(monkeypatch):
    m = load_builtin("t2-on-t2")
    m1 = load_builtin("s1-on-s1")
    j, j1 = j_form(m, "tau"), j_form(m1, "tau")
    _unsigned_det(monkeypatch)
    flipped = transformed_j_form(m, "tau", ((-1, 0), (0, 1)))
    assert flipped == j.scaled(-1)
    flipped1 = transformed_j_form(m1, "tau", ((-2,),))
    assert flipped1 == j1.scaled(-1)


def test_reversal_requires_explicit_optin():
    """A reversing frame change passes NonOrientable only in a test that
    replaces det by |det| (_unsigned_det); a singular one never does."""
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


def _reference_transformed_j_form(m, frame_id, a_matrix):
    """The frame trial over Fraction entries: betas from the entries of A,
    each put in normal form."""
    fr = m.frames[frame_id]
    k = fr.rank
    a = tuple(tuple(Fraction(x) for x in row) for row in a_matrix)
    betas = [normal_form(Element(tuple(Term(a[row][col], None, (fr.alpha_slots[col],), ())
                                       for col in range(k) if a[row][col] != 0)), m)
             for row in reversed(range(k))]
    d0 = DeltaFactor(frame_id, (0,) * k)
    delta_part = delta_linear_substitute(d0, a, m)
    return multiply(product(betas, m), delta_part, m)


def _models_by_rank(ranks):
    """{k: model} for each k in ranks, from seeded random models; the frame
    of a random model is "fr"."""
    found = {}
    for seed in itertools.count():
        m = random_model(random.Random(seed), max_rank=max(ranks), with_theta=seed % 2 == 0)
        k = m.frames["fr"].rank
        if k in ranks and k not in found:
            found[k] = m
        if len(found) == len(ranks):
            return found


def _nonsingular(k, draw):
    while True:
        a = tuple(tuple(draw() for _ in range(k)) for _ in range(k))
        if linalg.det(a) != 0:
            return a


def _trial_matrices(rng, k):
    """(kind, matrix) pairs: denominators 1/2/3/6, ints only, the identity,
    permutations, and random_gl_plus draws; kind "reversal" marks det < 0."""
    out = []
    for _ in range(3):
        out.append(("gl-plus", random_gl_plus(rng, k)))
        out.append(("dens", _nonsingular(
            k, lambda: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))))))
        out.append(("int", _nonsingular(k, lambda: rng.randint(-3, 3))))
    out.append(("identity", tuple(tuple(int(i == j) for j in range(k)) for i in range(k))))
    perm = list(range(k))
    rng.shuffle(perm)
    out.append(("permutation", tuple(tuple(int(j == perm[i]) for j in range(k))
                                     for i in range(k))))
    return [("reversal" if linalg.det(a) < 0 else kind, a) for kind, a in out]


def test_integer_trial_matches_fraction_reference(monkeypatch):
    rng = random.Random(2024)
    seen = dict.fromkeys(("gl-plus", "dens", "int", "identity", "permutation", "reversal",
                          "den2", "den3", "den6", "int-entries-only"), 0)
    for k, m in sorted(_models_by_rank(set(range(1, 7))).items()):
        j = j_form(m, "fr")
        for kind, a in _trial_matrices(rng, k):
            reversal = kind == "reversal"
            with monkeypatch.context() as patch:
                if reversal:
                    _unsigned_det(patch)
                got = transformed_j_form(m, "fr", a)
                ref = _reference_transformed_j_form(m, "fr", a)
            assert got == ref, (k, kind, a)
            assert [type(t.coeff) for t in got.terms] == [type(t.coeff) for t in ref.terms]
            assert got == (j.scaled(-1) if reversal else j), (k, kind, a)
            seen[kind] += 1
            dens = {Fraction(x).denominator for row in a for x in row}
            for d in (2, 3, 6):
                seen[f"den{d}"] += d in dens
            seen["int-entries-only"] += all(type(x) is int for row in a for x in row)
    assert all(seen.values()), seen


def test_trial_multiplies_k_times_over_int_betas(monkeypatch):
    """Each trial still expands the wedge through the Koszul loop: the
    product starts from the unit's raw items, and each beta and the delta
    part are multiplied on once, k + 1 calls.  The second call's left items
    are the first beta's raw keys: no delta and a one-bit odd mask each;
    every beta coefficient is an int."""
    models = _models_by_rank(set(range(1, 7)))
    js = {k: j_form(m, "fr") for k, m in models.items()}
    operands = []
    real_koszul = superalg._koszul

    def counted(items, b, m):
        operands.append((items, b))
        return real_koszul(items, b, m)

    monkeypatch.setattr(superalg, "_koszul", counted)
    rng = random.Random(8)
    coeff_types = set()
    for k, m in sorted(models.items()):
        for _ in range(6):
            a = random_gl_plus(rng, k)
            operands.clear()
            assert frame_change_compare(m, "fr", js[k], a)
            assert len(operands) == k + 1, (k, a)
            assert operands[0][0] is superalg._UNIT
            first = list(operands[1][0])
            assert first and all(d is None and mask.bit_count() == 1
                                 for (d, mask, even), _ in first)
            assert [mask for (_, mask, _), _ in first] == \
                [1 << m.odd_order[name] for name, x in zip(m.frames["fr"].alpha_slots, a[-1])
                 if x]
            betas = [b for _, b in operands[:-1]]
            delta_part = operands[-1][1]
            assert all(t.delta is None and len(t.odd_mono) == 1 for b in betas for t in b.terms)
            assert [t.delta for t in delta_part.terms] == [DeltaFactor("fr", (0,) * k)]
            coeff_types.update(type(c) for _, c in first)
            coeff_types.update(type(t.coeff) for b in betas for t in b.terms)
    assert coeff_types == {int}


def test_trial_runs_one_elimination_per_draw(monkeypatch):
    """random_gl_plus and delta_linear_substitute both ask for det A.  The
    whole trial runs the elimination once per draw: a draw with det > 0 is
    returned as it is, and one with det < 0 is returned with its first row
    negated, a new matrix whose determinant det already knows."""
    runs = []
    real_bareiss = linalg._bareiss

    def counted(rows):
        runs.append(tuple(rows))
        return real_bareiss(rows)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    rng = random.Random(12)
    seen = dict.fromkeys(("kept", "negated"), 0)
    for k, m in sorted(_models_by_rank(set(range(1, 7))).items()):
        j = j_form(m, "fr")
        for _ in range(6):
            runs.clear()
            a = random_gl_plus(rng, k)
            draws, kept = len(runs), runs[-1] == a
            assert frame_change_compare(m, "fr", j, a)
            assert len(runs) == draws, (k, a)
            seen["kept" if kept else "negated"] += 1
    assert all(seen.values()), seen


def _unsigned(koszul):
    """The Koszul loop with the sign dropped: each raw item is multiplied by
    each right term alone and keeps the plain product of the two
    coefficients.  Only valid where no closed argument meets a delta factor,
    as in a frame trial."""
    def unsigned(items, b, m):
        acc = {}
        for item in items:
            for t2 in b.terms:
                for key in koszul([item], Element((t2,)), m):
                    acc[key] = acc.get(key, 0) + item[1] * t2.coeff
        return acc
    return unsigned


def _unscaled(substitute):
    """delta_linear_substitute without the 1/|det A| scale."""
    def unscaled(d, a_matrix, m):
        return substitute(d, a_matrix, m).scaled(abs(linalg.det(a_matrix)))
    return unscaled


@pytest.mark.parametrize("fault", ("koszul-sign", "det-scale"))
def test_frame_trial_catches_injected_faults(fault, monkeypatch):
    cases = []
    for m in (load_builtin("t2-on-t2"), load_model(SPLIT_RANK4), load_model(FRAMES_RANK6)):
        for fid, fr in sorted(m.frames.items()):
            if fr.rank >= 2:
                cases.append((m, fid, j_form(m, fid), fr.rank))
    assert len(cases) == 3
    rng = random.Random(31)
    draws = [[random_gl_plus(rng, k) for _ in range(10)] for _, _, _, k in cases]
    for (m, fid, j, _), ms in zip(cases, draws):
        assert all(frame_change_compare(m, fid, j, a) for a in ms)
    if fault == "koszul-sign":
        monkeypatch.setattr(superalg, "_koszul", _unsigned(superalg._koszul))
    else:
        monkeypatch.setattr(jform, "delta_linear_substitute",
                            _unscaled(jform.delta_linear_substitute))
    for (m, fid, j, _), ms in zip(cases, draws):
        assert not all(frame_change_compare(m, fid, j, a) for a in ms), m.name
