"""Acceptance gate: each criterion prints one pass/fail line and is timed."""

import random
import time
from fractions import Fraction

from equivar.characters import (
    cp1_sheaf_character_oracle,
    hrr_cp1_oracle,
    l2_torus_oracle,
    run_pipeline,
)
from equivar.charclass import localize_index
from equivar.genco import fourier_fibre_integrate
from equivar.jform import check_closed, chern_weil_pair, frame_change_compare, j_form
from equivar.laurent import box_dict, expand_box
from equivar.linalg import random_gl_plus
from equivar.modelfile import builtin_names, load_builtin
from equivar.report import report_status
from equivar.superalg import multiply

from random_models import random_model


def _line(name, ok, elapsed=None, budget=None):
    detail = ""
    if budget is not None:
        detail = f"  ({elapsed:.2f}s, budget {budget:.0f}s)"
    print(f"[{'pass' if ok else 'fail'}] {name}{detail}")
    assert ok, name
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s: {elapsed:.2f}s"


def test_c01_closedness():
    t0 = time.time()
    ok = True
    for name in builtin_names():
        m = load_builtin(name)
        for fid in sorted(m.frames):
            ok = ok and check_closed(m, j_form(m, fid))
    for seed in range(100):
        m = random_model(random.Random(seed))
        for fid in sorted(m.frames):
            ok = ok and check_closed(m, j_form(m, fid))
    _line("closedness: D J = 0 on 5 built-ins and 100 random models",
          ok, time.time() - t0, 10.0)


def test_c02_frame_independence():
    t0 = time.time()
    ok = True
    for name in builtin_names():
        m = load_builtin(name)
        for fid, fr in sorted(m.frames.items()):
            rng = random.Random(11)
            j = j_form(m, fid)
            for _ in range(200):
                ok = ok and frame_change_compare(m, fid, j, random_gl_plus(rng, fr.rank))
    _line("frame independence: 200 GL+ changes per model, exact",
          ok, time.time() - t0, 30.0)


def test_c03_fibre_integral_identity():
    t0 = time.time()
    ok = True
    for name in builtin_names():
        m = load_builtin(name)
        for fid in sorted(m.frames):
            ok = ok and fourier_fibre_integrate(m, fid) == j_form(m, fid)
    for seed in range(100):
        m = random_model(random.Random(1000 + seed), max_rank=2,
                         with_theta=False, dim_cap=6)
        for fid in sorted(m.frames):
            ok = ok and fourier_fibre_integrate(m, fid) == j_form(m, fid)
    _line("fibre-integral identity: fourier = j_form on built-ins and "
          "100 random models", ok, time.time() - t0, 30.0)


def test_c04_s1_class():
    m = load_builtin("s1-on-s1")
    expected = multiply(m.gen("deta"), m.delta("tau"), m)
    _line("circle on circle: J is the delta(xi) deta class, exact",
          j_form(m, "tau") == expected)


def test_c05_chern_weil_pairing():
    m = load_builtin("hopf")
    ok = True
    power = m.one()
    for j in range(4):  # monomials of degree <= 3
        ok = ok and chern_weil_pair(m, "conn", {(j,): Fraction(1)}) == power
        power = multiply(power, m.gen("Psi"), m)
    _line("Chern-Weil pairing equals curvature powers up to degree 3", ok)


def test_c06_borel_weil_endpoint():
    t0 = time.time()
    ok = True
    for n in list(range(11)) + [-1]:
        rep = run_pipeline("cp1-dolbeault", twist=n)
        ok = ok and report_status(rep) == "pass"
        rows = {tuple(r["weight"]): r["coefficient"] for r in rep["characters"]}
        expected = {w: int(v) for w, v in cp1_sheaf_character_oracle(n).items()}
        ok = ok and rows == expected
        if n >= 0:
            # the Weyl character of highest weight n: the string n, n-2, .., -n
            ok = ok and expected == {(n - 2 * i,): 1 for i in range(n + 1)}
        else:
            ok = ok and expected == {}
    _line("Borel-Weil endpoint: CP1 pipeline = Weyl characters for n in 0..10, "
          "0 at n = -1", ok, time.time() - t0, 5.0)


def test_c07_locally_free_endpoint():
    t0 = time.time()
    rep = run_pipeline("hopf")
    ok = report_status(rep) == "pass"
    rows = {tuple(r["weight"]): r["coefficient"] for r in rep["characters"]}
    for k in range(21):
        ok = ok and rows.get((k,)) == k + 1 == hrr_cp1_oracle(k)
    _line("locally free endpoint: Hopf multiplicities k+1 for k in 0..20",
          ok, time.time() - t0, 5.0)


def test_c08_l2_induction_endpoint():
    rep = run_pipeline("torus-zero")
    checks = {c["check"]: c["status"] for c in rep["results"]}
    ok = checks["rank1:regular-representation-window-50"] == "pass"
    ok = ok and checks["rank2:regular-representation-window-20"] == "pass"
    ok = ok and report_status(rep) == "pass"
    ok = ok and len(rep["characters"]) == 101
    for row in rep["characters"]:
        ok = ok and row["coefficient"] == l2_torus_oracle(tuple(row["weight"]))
    _line("L2 induction on tori: multiplicity 1 on |w| <= 50 and |w_i| <= 20", ok)


def test_c09_contact_cr_case():
    t0 = time.time()
    rep = run_pipeline("s3-contact", max_degree=20)
    ok = report_status(rep) == "pass"
    m = load_builtin("s3-contact")
    box = box_dict(expand_box(localize_index(m.fixed_loci, 2), 20), 2, 20)
    # CR monomials z1^a z2^b (a, b >= 0) count +1, the first cohomology
    # (a, b <= -1) counts -1, and the mixed cones are empty
    for a in range(-20, 21):
        for b in range(-20, 21):
            want = 1 if a >= 0 and b >= 0 else -1 if a < 0 and b < 0 else 0
            ok = ok and box.get((a, b), Fraction(0)) == want
    ok = ok and all(v.denominator == 1 for v in box.values())
    _line("contact/CR case: the full box of radius 20 matches the monomial "
          "count, integers everywhere", ok, time.time() - t0, 10.0)


def test_c10_integer_sanity():
    ok = True
    for name in ("torus-zero", "cp1-dolbeault", "cp1-l2", "hopf", "s3-contact"):
        rep = run_pipeline(name)
        ok = ok and report_status(rep) == "pass"
        for row in rep.get("characters") or ():
            ok = ok and isinstance(row["coefficient"], int)
        for row in rep.get("branching") or ():
            ok = ok and isinstance(row["multiplicity"], int)
    _line("integer sanity: every pipeline output has integer coefficients", ok)
