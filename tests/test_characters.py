"""Example pipelines against independent representation-theoretic oracles."""

import json
from fractions import Fraction
from importlib import resources
from itertools import product
from math import factorial

import pytest

from equivar import characters, charclass, jform, laurent, modelfile, superalg
from equivar.charclass import series_inverse
from equivar.characters import EXAMPLES, run_pipeline
from equivar.errors import (InvariantViolation, NonIntegerCoefficients, NotPrincipal,
                            OutOfRange, UnknownExample, UsageError)
from equivar.jform import chern_weil_pair
from equivar.modelfile import model_from_dict
from equivar.oracles import (cp1_sheaf_character_oracle, frobenius_multiplicity_oracle,
                             hrr_cp1_oracle, l2_torus_oracle, s3_contact_character_oracle)
from equivar.report import report_status
from equivar.superalg import add_all, multiply


def _statuses(rep):
    return {c["check"]: c["status"] for c in rep["results"]}


def weyl_character_oracle(n):
    """Torus character of the irreducible representation of the rank-one
    compact group with highest weight n, by weight-basis enumeration."""
    if n < 0:
        raise OutOfRange(f"highest weight must be >= 0, got {n}")
    return {(n - 2 * i,): 1 for i in range(n + 1)}


def test_weyl_oracle_weight_strings():
    assert weyl_character_oracle(0) == {(0,): 1}
    assert set(weyl_character_oracle(3)) == {(-3,), (-1,), (1,), (3,)}
    assert all(v == 1 for v in weyl_character_oracle(7).values())
    with pytest.raises(OutOfRange):
        weyl_character_oracle(-1)


def test_sheaf_oracle_three_regimes():
    assert cp1_sheaf_character_oracle(4) == weyl_character_oracle(4)
    assert cp1_sheaf_character_oracle(-1) == {}
    neg = cp1_sheaf_character_oracle(-4)
    assert neg == {w: -v for w, v in weyl_character_oracle(2).items()}


def test_hrr_oracle_is_euler_characteristic():
    for n in range(-8, 11):
        assert hrr_cp1_oracle(n) == n + 1
        total = sum(cp1_sheaf_character_oracle(n).values())
        assert total == n + 1


def test_frobenius_oracle_branching_pattern():
    for n in range(-6, 7):
        for m in range(0, 9):
            expected = 1 if abs(n) <= m and (m - n) % 2 == 0 else 0
            assert frobenius_multiplicity_oracle(n, m) == expected
            assert frobenius_multiplicity_oracle(n, m) == \
                frobenius_multiplicity_oracle(-n, m)


def test_frobenius_oracle_counts_the_weight_string():
    # the membership test agrees with a count over the enumerated string,
    # negative m included
    for n in range(-30, 31):
        for m in range(-5, 60):
            count = sum(1 for i in range(m + 1) if m - 2 * i == n)
            assert frobenius_multiplicity_oracle(n, m) == count, (n, m)


def _s3_table(radius):
    return {w: c for rect, c in s3_contact_character_oracle(radius) for w in product(*rect)}


def test_cr_oracle_counts_holomorphic_monomials():
    for radius in (0, 1, 3, 7):
        table = _s3_table(radius)
        for a in range(-radius, radius + 1):
            for b in range(-radius, radius + 1):
                want = 1 if a >= 0 and b >= 0 else -1 if a < 0 and b < 0 else 0
                assert table.get((a, b), 0) == want, (radius, a, b)
        assert len(table) == (radius + 1) ** 2 + radius ** 2
        assert 0 not in table.values()


def test_l2_oracle_is_regular_representation():
    assert all(l2_torus_oracle((w,)) == 1 for w in range(-50, 51))
    assert l2_torus_oracle((3, -17)) == 1


def test_torus_zero_pipeline_both_ranks():
    st = _statuses(run_pipeline("torus-zero"))
    assert st == {"rank1:regular-representation-window-50": "pass",
                  "rank2:regular-representation-window-20": "pass"}


def test_torus_zero_formula_side_can_fail(monkeypatch):
    """Lattice combs that keep only their n >= 0 half miss every weight with
    a negative entry, so both regular-representation entries fail."""
    comb = laurent.lattice_comb

    def positive_half(nvars, direction):
        terms = comb(nvars, direction).terms
        return laurent.RationalCharacter(
            nvars, tuple(t for t in terms if t.den[0].direction == laurent.EXPAND_POSITIVE))

    monkeypatch.setattr(charclass, "lattice_comb", positive_half)
    rep = run_pipeline("torus-zero")
    st = _statuses(rep)
    assert st["rank1:regular-representation-window-50"] == "fail"
    assert st["rank2:regular-representation-window-20"] == "fail"
    assert report_status(rep) == "fail"


def test_torus_zero_formula_side_reads_the_frame(monkeypatch):
    """The combs run along the frame's moment rows: a torus model whose
    first coframe weight is doubled expands to the sublattice 2Z x Z, not
    to the regular representation."""
    def doubled(name):
        doc = json.loads(resources.files("equivar.models")
                         .joinpath(f"{name}.json").read_text(encoding="utf-8"))
        for sample in doc["frames"][0]["momentSamples"]:
            sample[0] = [2 * x for x in sample[0]]
        return model_from_dict(doc)

    monkeypatch.setattr(characters, "load_builtin", doubled)
    rep = run_pipeline("torus-zero")
    assert _statuses(rep)["rank2:regular-representation-window-20"] == "fail"
    assert report_status(rep) == "fail"


def test_cp1_dolbeault_pipeline_twists():
    for twist in (0, 1, 5, -1, -3):
        rep = run_pipeline("cp1-dolbeault", twist=twist)
        assert _statuses(rep) == {"sheaf-character-oracle": "pass"}, twist
        rows = {tuple(r["weight"]): r["coefficient"] for r in rep["characters"]}
        assert sum(rows.values()) == hrr_cp1_oracle(twist), twist
        if twist >= 0:
            assert rows == weyl_character_oracle(twist), twist


def test_cp1_l2_pipeline_reports_branching():
    rep = run_pipeline("cp1-l2")
    st = _statuses(rep)
    assert st == {"frobenius-branching-oracle": "pass",
                  "zero-operator-formula-side": "skipped-out-of-scope"}
    table = {row["irrep"]: row["multiplicity"] for row in rep["branching"]}
    assert table[0] == 1 and table[1] == 0 and table[2] == 1


def test_cp1_l2_pipeline_twisted_branching():
    for twist in (3, -4, 25):
        rep = run_pipeline("cp1-l2", twist=twist)
        assert _statuses(rep)["frobenius-branching-oracle"] == "pass", twist
        table = {row["irrep"]: row["multiplicity"] for row in rep["branching"]}
        assert sorted(table) == list(range(21))
        for m, mult in table.items():
            assert mult == frobenius_multiplicity_oracle(twist, m)


def test_cp1_l2_branching_comes_from_the_engine(monkeypatch):
    """The branching rows are read from the localized cp1-dolbeault
    characters.  Without the south pole, the character at twist m is the
    north pole's series t^m + t^(m-2) + ..., which the south pole no longer
    cancels below -m: at weight -3 it gives V_1 the multiplicity 1, so the
    entry fails and its witness names that irrep."""
    localize = characters.localize_index

    def north_only(loci, nvars):
        return localize(loci[:1], nvars)

    monkeypatch.setattr(characters, "localize_index", north_only)
    rep = run_pipeline("cp1-l2", twist=-3)
    entry = next(r for r in rep["results"] if r["check"] == "frobenius-branching-oracle")
    assert entry["status"] == "fail" and report_status(rep) == "fail"
    assert entry["witness"] == {"irreps": [1], "computed": [1], "oracle": [0]}


def test_hopf_pipeline_multiplicities():
    rep = run_pipeline("hopf")
    assert all(c["status"] == "pass" for c in rep["results"])
    chars = {tuple(row["weight"]): row["coefficient"] for row in rep["characters"]}
    for k in range(-5, 21):
        if (k,) in chars:
            assert chars[(k,)] == k + 1


def test_s3_contact_pipeline():
    rep = run_pipeline("s3-contact")
    assert _statuses(rep) == dict.fromkeys(("taylor-display-form", "contact-box-oracle"), "pass")


def test_s3_contact_expands_once(monkeypatch):
    radii = []
    expand_box = laurent.expand_box

    def counted(rc, radius):
        radii.append(radius)
        return expand_box(rc, radius)

    monkeypatch.setattr(laurent, "expand_box", counted)
    assert report_status(run_pipeline("s3-contact")) == "pass"
    assert radii == [20]


def test_hopf_builds_no_j(monkeypatch):
    """hopf reads the curvature pairing only; its J identities are verify's."""
    frames = []
    j_form = jform.j_form

    def counted(m, frame_id):
        frames.append(frame_id)
        return j_form(m, frame_id)

    monkeypatch.setattr(jform, "j_form", counted)
    monkeypatch.setattr(characters, "j_form", counted)
    assert report_status(run_pipeline("hopf")) == "pass"
    assert frames == []


def _ref_graded_exp(e, m):
    pieces = [m.one()]
    n = 0
    while True:
        n += 1
        piece = multiply(pieces[-1], e, m).scaled(Fraction(1, n))
        if piece.is_zero():
            return add_all(pieces, m)
        pieces.append(piece)
        if n > 2 * m.manifold_dim + 4:
            raise InvariantViolation("graded exponential failed to terminate")


def _ref_hopf_multiplicities(m, fid, isotypes):
    """The per-isotype route: a new Chern character exp(k c) for every k."""
    tw = m.base["tangentWeight"]
    vol = m.base["curvatureVolume"]
    half_dim = m.base["dimension"] // 2
    td_series = series_inverse(
        [Fraction((-1) ** j, factorial(j + 1)) for j in range(half_dim + 2)])
    td = add_all((chern_weil_pair(m, fid, {(j,): c * tw ** j})
                  for j, c in enumerate(td_series) if c), m)
    mults = {}
    for k in isotypes:
        ch = _ref_graded_exp(chern_weil_pair(m, fid, {(1,): Fraction(k)}), m)
        density = multiply(td, ch, m)
        mult = vol * characters._even_coefficient(density, "Psi", half_dim)
        if mult.denominator != 1:
            raise NonIntegerCoefficients(f"orbifold multiplicity {mult} at isotype {k}")
        mults[k] = int(mult)
    return mults


def _hopf_variant(manifold_dim=3, **base):
    doc = json.loads(resources.files("equivar").joinpath("models", "hopf.json")
                     .read_text(encoding="utf-8"))
    doc["manifoldDim"] = manifold_dim
    doc["base"].update(base)
    return model_from_dict(doc)


def _outcome(route, m, isotypes):
    try:
        return route(m, "conn", isotypes)
    except NonIntegerCoefficients as e:
        return str(e)


HOPF_VARIANTS = (
    [{"tangentWeight": tw, "curvatureVolume": vol}
     for tw in (1, 2, 3, "1/2") for vol in (1, 2, "1/3")]
    + [{"manifold_dim": 5, "dimension": 4, "curvatureVolume": vol} for vol in (1, 6)])


def test_hopf_polynomial_matches_per_isotype_route():
    window = range(-5, 41)
    integral = non_integral = 0
    degrees = set()
    polynomial = characters.hopf_multiplicities
    for variant in [None] + HOPF_VARIANTS:
        m = modelfile.load_builtin("hopf") if variant is None else _hopf_variant(**variant)
        c = chern_weil_pair(m, "conn", {(1,): 1})
        degrees.add(len(list(superalg.graded_exp_pieces(c, m))) - 1)
        whole = _outcome(polynomial, m, window)
        assert whole == _outcome(_ref_hopf_multiplicities, m, window), variant
        for k in window:
            got = _outcome(polynomial, m, [k])
            assert got == _outcome(_ref_hopf_multiplicities, m, [k]), (variant, k)
            if isinstance(got, dict):
                integral += 1
            else:
                non_integral += 1
                assert got.endswith(f" at isotype {k}")
    assert integral and non_integral
    assert degrees == {1, 2}


def _hopf_doc():
    return json.loads(resources.files("equivar").joinpath("models", "hopf.json")
                      .read_text(encoding="utf-8"))


def test_hopf_multiplicities_do_not_depend_on_the_curvature_name():
    """Renaming the curvature generator, in its declaration, its tables and
    the split, changes no multiplicity."""
    window = range(-5, 41)
    want = characters.hopf_multiplicities(modelfile.load_builtin("hopf"), "conn", window)
    renamed = model_from_dict(json.loads(json.dumps(_hopf_doc()).replace('"Psi"', '"F"')))
    assert "Psi" not in renamed.generators
    assert characters.hopf_multiplicities(renamed, "conn", window) == want
    assert want == {k: k + 1 for k in window}


def test_hopf_curvature_must_be_one_even_generator():
    doc = _hopf_doc()
    doc["generators"].append({"name": "Q", "parity": "even", "formDegree": 2})
    doc["dTable"]["Q"] = "0"
    doc["iotaTable"]["Q"] = ["0"]
    doc["frames"][0]["split"] = ["Psi + Q"]
    with pytest.raises(NotPrincipal) as e:
        characters.hopf_multiplicities(model_from_dict(doc), "conn", range(3))
    assert str(e.value) == ("frame 'conn' has a curvature that is not one term "
                            "in one even generator")


def test_hopf_multiply_calls_independent_of_window(monkeypatch):
    calls = []
    multiply_ = superalg.multiply

    def counted(*args, **kwargs):
        calls.append(1)
        return multiply_(*args, **kwargs)

    # genco multiplies only through fold and taylor_fold
    for mod in (superalg, characters, jform):
        monkeypatch.setattr(mod, "multiply", counted)
    counts = []
    for d in (0, 20, 160):
        calls.clear()
        assert report_status(run_pipeline("hopf", max_degree=d)) == "pass"
        counts.append(len(calls))
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_run_pipeline_dispatch_and_examples():
    assert set(EXAMPLES) == {
        "torus-zero", "cp1-dolbeault", "cp1-l2", "hopf", "s3-contact"}
    for name in EXAMPLES:
        rep = run_pipeline(name)
        assert rep["command"] == "index" and rep["model"] == name
        assert report_status(rep) == "pass", name
    with pytest.raises(UnknownExample):
        run_pipeline("moebius")


@pytest.mark.parametrize("example, arguments, message", [
    ("cp1-l2", {"max_degree": -1}, "--max-degree must be a nonnegative integer, got -1"),
    ("s3-contact", {"max_degree": -3}, "--max-degree must be a nonnegative integer, got -3"),
    ("hopf", {"twist": 3}, "example 'hopf' does not read --twist"),
    ("torus-zero", {"max_degree": 20}, "example 'torus-zero' does not read --max-degree"),
    ("torus-zero", {"twist": 0, "max_degree": -1},
     "example 'torus-zero' does not read --twist or --max-degree"),
], ids=["cp1-l2-negative", "s3-contact-negative", "hopf-twist", "torus-zero-window",
        "torus-zero-both"])
def test_run_pipeline_checks_its_arguments(example, arguments, message):
    # the window and the symbol data a report names are the ones it ran on
    with pytest.raises(UsageError) as err:
        run_pipeline(example, **arguments)
    assert str(err.value) == message
    # an unknown name is reported before its arguments
    with pytest.raises(UnknownExample):
        run_pipeline("moebius", **arguments)


@pytest.mark.parametrize("example, arguments, message", [
    ("cp1-l2", {"max_degree": 2.5}, "--max-degree must be a nonnegative integer, got 2.5"),
    ("hopf", {"max_degree": "20"}, "--max-degree must be a nonnegative integer, got '20'"),
    ("cp1-l2", {"max_degree": True}, "--max-degree must be a nonnegative integer, got True"),
    ("cp1-dolbeault", {"twist": 1.5}, "--twist must be an integer, got 1.5"),
], ids=["float-window", "str-window", "bool-window", "float-twist"])
def test_run_pipeline_takes_only_int_arguments(example, arguments, message):
    # a float or str would escape from inside the example as a TypeError, and
    # True would run as 1 and be written as "maxDegree": true
    with pytest.raises(UsageError) as err:
        run_pipeline(example, **arguments)
    assert str(err.value) == message


def test_torus_zero_merges_rank_prefixes():
    rep = run_pipeline("torus-zero")
    checks = [c["check"] for c in rep["results"]]
    assert any(c.startswith("rank1:") for c in checks)
    assert any(c.startswith("rank2:") for c in checks)


def _flip_direction(locus):
    locus["expansionDirections"] = [
        {"positive": "negative", "negative": "positive"}[d]
        for d in locus["expansionDirections"]]


def _flip_sign(locus):
    locus["orientationSign"] = -locus["orientationSign"]


# fault -> edit of the s3-contact fixed loci
S3_FAULTS = {
    "one-direction-flipped": lambda loci: _flip_direction(loci[0]),
    "one-sign-flipped": lambda loci: _flip_sign(loci[1]),
    "both-signs-flipped": lambda loci: [_flip_sign(lc) for lc in loci],
    "twist-shifted": lambda loci: [lc.update(twistWeight=[1, 1]) for lc in loci],
    "one-locus-dropped": lambda loci: loci.pop(),
}


def _s3_contact_with(monkeypatch, edit):
    doc = json.loads(resources.files("equivar.models")
                     .joinpath("s3-contact.json").read_text(encoding="utf-8"))
    edit(doc["fixedLoci"])
    monkeypatch.setattr(characters, "load_builtin", lambda name: model_from_dict(doc))
    return next(r for r in run_pipeline("s3-contact")["results"]
                if r["check"] == "contact-box-oracle")


@pytest.mark.parametrize("fault", sorted(S3_FAULTS))
def test_contact_box_oracle_catches_injected_faults(fault, monkeypatch):
    entry = _s3_contact_with(monkeypatch, S3_FAULTS[fault])
    assert entry["status"] == "fail"
    witness = entry["witness"]
    assert 0 < len(witness["weights"]) <= 10
    oracle = _s3_table(20)
    assert witness["oracle"] == [oracle.get(w, 0) for w in witness["weights"]]
    assert all(c != o for c, o in zip(witness["computed"], witness["oracle"]))


def test_contact_box_oracle_sees_a_stray_mixed_cone_weight(monkeypatch):
    """Right quadrants and one extra weight on a mixed cone still fail, and
    the witness names that weight."""
    expand = characters.expand_to_degree

    def stray(rc, max_degree):
        cells = expand(rc, max_degree)
        cells[laurent.cell_index((5, -1), max_degree)] = 1
        return cells

    monkeypatch.setattr(characters, "expand_to_degree", stray)
    entry = next(r for r in run_pipeline("s3-contact")["results"]
                 if r["check"] == "contact-box-oracle")
    assert entry["status"] == "fail"
    assert entry["witness"] == {"weights": [(5, -1)], "computed": [1], "oracle": [0]}


def test_contact_box_oracle_passes_in_the_opposite_chamber(monkeypatch):
    # both directions flipped: the other chamber, the same character
    entry = _s3_contact_with(monkeypatch, lambda loci: [_flip_direction(lc) for lc in loci])
    assert entry == {"check": "contact-box-oracle", "status": "pass"}


def test_s3_contact_is_exact_at_small_radii():
    for radius in range(6):
        rep = run_pipeline("s3-contact", max_degree=radius)
        assert report_status(rep) == "pass", radius
        rows = {tuple(r["weight"]): r["coefficient"] for r in rep["characters"]}
        assert rows == _s3_table(min(3, radius)), radius


def _cell(weight, radius):
    """The cell of weight clamped into the box of the radius, whose only
    cell at radius 0 is (0, 0)."""
    return laurent.cell_index(tuple(max(-radius, min(radius, x)) for x in weight), radius)


def _stray_mixed_corner(cells, r):
    cells[_cell((r, -r), r)] += 1


def _missing_cr_corner(cells, r):
    cells[_cell((r, r), r)] = 0


def _wrong_sign(cells, r):
    k = _cell((-1, -1), r)
    cells[k] = -cells[k]


def _extra_outside_quadrant(cells, r):
    # (-1, 0) is one step left of the CR quadrant and above the negative one
    cells[_cell((-1, 0), r)] += 1


def _dict_path_entry(cells, radius):
    """The contact-box-oracle entry by the whole-box dict comparison."""
    coeffs = laurent.box_dict(cells, 2, radius)
    oracle = _s3_table(radius)
    bad = [w for w in sorted(coeffs.keys() | oracle.keys())
           if coeffs.get(w, 0) != oracle.get(w, 0)][:10]
    entry = {"check": "contact-box-oracle", "status": "fail" if bad else "pass"}
    if bad:
        entry["witness"] = {"weights": bad, "computed": [coeffs.get(w, 0) for w in bad],
                            "oracle": [oracle.get(w, 0) for w in bad]}
    return entry


@pytest.mark.parametrize("radius", (0, 1, 2, 30))
@pytest.mark.parametrize("fault", (_stray_mixed_corner, _missing_cr_corner, _wrong_sign,
                                   _extra_outside_quadrant))
def test_contact_box_row_slices_catch_cell_faults(fault, radius, monkeypatch):
    expand = characters.expand_to_degree
    faulty = []

    def expand_with_fault(rc, max_degree):
        cells = expand(rc, max_degree)
        fault(cells, max_degree)
        faulty.append(cells)
        return cells

    monkeypatch.setattr(characters, "expand_to_degree", expand_with_fault)
    entry = next(r for r in run_pipeline("s3-contact", max_degree=radius)["results"]
                 if r["check"] == "contact-box-oracle")
    assert entry["status"] == "fail"
    assert entry == _dict_path_entry(faulty[0], radius)


def test_passing_s3_contact_builds_no_weight_dict(monkeypatch):
    """No weight dict of the box: a passing run makes no box_dict call, since
    its character table is the window that contact-box-oracle compared, read
    through cell_index."""
    calls = []
    box_dict = laurent.box_dict

    def counted(*args):
        calls.append(args[1:])
        return box_dict(*args)

    monkeypatch.setattr(laurent, "box_dict", counted)
    monkeypatch.setattr(characters, "box_dict", counted)
    assert report_status(run_pipeline("s3-contact", max_degree=30)) == "pass"
    assert calls == []
    # a failing check does build it, once, for its witness
    monkeypatch.setattr(characters, "expand_to_degree", lambda rc, d: [0] * (2 * d + 1) ** 2)
    assert report_status(run_pipeline("s3-contact", max_degree=30)) == "fail"
    assert calls == [(2, 30)]


def test_printed_window_is_a_slice_of_the_compared_cells(monkeypatch):
    """A wrong cell inside the printed window fails contact-box-oracle, with
    that weight as its witness, and the printed table shows the wrong value:
    the window is read from the cells that the entry compared, and the
    oracle is asked once."""
    expand, oracle = characters.expand_to_degree, characters.s3_contact_character_oracle
    radii = []

    def negated_at_one_one(rc, max_degree):
        cells = expand(rc, max_degree)
        k = laurent.cell_index((1, 1), max_degree)
        cells[k] = -cells[k]
        return cells

    def counted(radius):
        radii.append(radius)
        return oracle(radius)

    monkeypatch.setattr(characters, "expand_to_degree", negated_at_one_one)
    monkeypatch.setattr(characters, "s3_contact_character_oracle", counted)
    rep = run_pipeline("s3-contact")
    entry, = [r for r in rep["results"] if r["check"] == "contact-box-oracle"]
    assert entry == {"check": "contact-box-oracle", "status": "fail",
                     "witness": {"weights": [(1, 1)], "computed": [-1], "oracle": [1]}}
    rows = {tuple(r["weight"]): r["coefficient"] for r in rep["characters"]}
    assert rows == _s3_table(3) | {(1, 1): -1}
    assert radii == [20]

