"""Example pipelines against independent representation-theoretic oracles."""

import pytest

from equivar import characters, jform, laurent
from equivar.characters import (
    EXAMPLES,
    cp1_sheaf_character_oracle,
    cr_monomial_oracle,
    frobenius_multiplicity_oracle,
    hrr_cp1_oracle,
    index_cp1_pipeline,
    index_hopf_pipeline,
    index_s3_contact_pipeline,
    index_torus_zero_op,
    l2_torus_oracle,
    run_pipeline,
    weyl_character_oracle,
)
from equivar.errors import OutOfRange, UnknownExample


def _statuses(rep):
    return {c["check"]: c["status"] for c in rep["results"]}


def test_weyl_oracle_weight_strings():
    assert weyl_character_oracle(0).coeffs == {(0,): 1}
    assert set(weyl_character_oracle(3).coeffs) == {(-3,), (-1,), (1,), (3,)}
    assert all(v == 1 for v in weyl_character_oracle(7).coeffs.values())
    with pytest.raises(OutOfRange):
        weyl_character_oracle(-1)


def test_sheaf_oracle_three_regimes():
    assert cp1_sheaf_character_oracle(4).coeffs == weyl_character_oracle(4).coeffs
    assert cp1_sheaf_character_oracle(-1).coeffs == {}
    neg = cp1_sheaf_character_oracle(-4)
    assert neg.coeffs == {w: -v for w, v in weyl_character_oracle(2).coeffs.items()}


def test_hrr_oracle_is_euler_characteristic():
    for n in range(-8, 11):
        assert hrr_cp1_oracle(n) == n + 1
        total = sum(cp1_sheaf_character_oracle(n).coeffs.values())
        assert total == n + 1


def test_frobenius_oracle_branching_pattern():
    for n in range(-6, 7):
        for m in range(0, 9):
            expected = 1 if abs(n) <= m and (m - n) % 2 == 0 else 0
            assert frobenius_multiplicity_oracle(n, m) == expected
            assert frobenius_multiplicity_oracle(n, m) == \
                frobenius_multiplicity_oracle(-n, m)


def test_cr_oracle_counts_holomorphic_monomials():
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert cr_monomial_oracle(a, b) == (1 if a >= 0 and b >= 0 else 0)


def test_l2_oracle_is_regular_representation():
    assert all(l2_torus_oracle((w,)) == 1 for w in range(-50, 51))
    assert l2_torus_oracle((3, -17)) == 1


def test_torus_zero_pipeline_both_ranks():
    for rank in (1, 2):
        rep = index_torus_zero_op(rank)
        assert all(c["status"] == "pass" for c in rep["results"]), rank


def test_cp1_dolbeault_pipeline_twists():
    for twist in (0, 1, 5, -1, -3):
        rep = index_cp1_pipeline("ETM", twist=twist)
        st = _statuses(rep)
        assert st["sheaf-character-oracle"] == "pass", twist
        assert st["euler-characteristic"] == "pass", twist
        if twist >= 0:
            assert st["highest-weight-character"] == "pass"


def test_cp1_l2_pipeline_reports_branching():
    rep = index_cp1_pipeline("E0")
    st = _statuses(rep)
    assert st["branching-symmetry"] == "pass"
    assert st["branching-pattern"] == "pass"
    assert st["zero-operator-formula-side"] == "skipped-out-of-scope"
    table = {row["irrep"]: row["multiplicity"] for row in rep["branching"]}
    assert table[0] == 1 and table[1] == 0 and table[2] == 1


def test_cp1_l2_pipeline_twisted_branching():
    rep = index_cp1_pipeline("E0", twist=3)
    table = {row["irrep"]: row["multiplicity"] for row in rep["branching"]}
    for m, mult in table.items():
        assert mult == frobenius_multiplicity_oracle(3, m)


def test_hopf_pipeline_multiplicities():
    rep = index_hopf_pipeline()
    assert all(c["status"] == "pass" for c in rep["results"])
    chars = {tuple(row["weight"]): row["coefficient"] for row in rep["characters"]}
    for k in range(-5, 21):
        if (k,) in chars:
            assert chars[(k,)] == k + 1


def test_s3_contact_pipeline():
    rep = index_s3_contact_pipeline()
    assert all(c["status"] == "pass" for c in rep["results"])


def test_s3_contact_expands_once(monkeypatch):
    radii = []
    expand_box = laurent.expand_box

    def counted(rc, radius):
        radii.append(radius)
        return expand_box(rc, radius)

    monkeypatch.setattr(laurent, "expand_box", counted)
    assert run_pipeline("s3-contact")["status"] == "pass"
    assert radii == [20]


def test_hopf_builds_j_once(monkeypatch):
    frames = []
    j_form = jform.j_form

    def counted(m, frame_id):
        frames.append(frame_id)
        return j_form(m, frame_id)

    monkeypatch.setattr(jform, "j_form", counted)
    monkeypatch.setattr(characters, "j_form", counted)
    assert run_pipeline("hopf")["status"] == "pass"
    assert frames == ["conn"]


def test_run_pipeline_dispatch_and_examples():
    assert set(EXAMPLES) == {
        "torus-zero", "cp1-dolbeault", "cp1-l2", "hopf", "s3-contact"}
    for name in EXAMPLES:
        rep = run_pipeline(name)
        assert rep["example"] == name
        assert rep["status"] in ("pass", "fail")
        assert rep["status"] == "pass", name
    with pytest.raises(UnknownExample):
        run_pipeline("moebius")


def test_torus_zero_merges_rank_prefixes():
    rep = run_pipeline("torus-zero")
    checks = [c["check"] for c in rep["results"]]
    assert any(c.startswith("rank1:") for c in checks)
    assert any(c.startswith("rank2:") for c in checks)
