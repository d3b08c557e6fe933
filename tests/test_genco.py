"""Delta-coefficient calculus: rewrites, substitution, display form, Fourier."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from equivar import genco, linalg, superalg
from equivar.errors import (
    NonOrientable,
    NotDifferentiable,
    OutOfRange,
    SplittingMissing,
)
from equivar.genco import (
    delta_linear_substitute,
    fourier_fibre_integrate,
    taylor_expand_delta,
    with_fibre_coordinates,
)
from equivar.jform import j_form
from equivar.linalg import random_gl_plus
from equivar.modelfile import load_builtin, load_model, model_from_dict
from equivar.superalg import (
    CLOSED_ARGUMENT,
    EVEN,
    FRAME_FORM,
    ODD,
    DeltaFactor,
    Element,
    FormalModel,
    FrameDecl,
    Generator,
    Term,
    add,
    add_all,
    equivariant_differential,
    multiply,
    normal_form,
    product,
    validate_model,
)

from random_models import model_with, nonzero_rational, random_element, random_model


def multi_indices(k, max_order):
    """All k-tuples of nonnegative integers with sum <= max_order."""
    for combo in itertools.product(range(max_order + 1), repeat=k):
        if sum(combo) <= max_order:
            yield combo


def test_multi_indices():
    assert set(multi_indices(1, 2)) == {(0,), (1,), (2,)}
    assert set(multi_indices(2, 1)) == {(0, 0), (1, 0), (0, 1)}
    assert list(multi_indices(0, 3)) == [()]


def test_rewrite_confluence_order_independent():
    # u-factors may be absorbed in any order; |I| <= 4, k up to 3.
    m3 = random_model(random.Random(0), max_rank=3, with_theta=False)
    cases = [
        (load_builtin("t2-on-t2"), "tau", ("u1", "u2")),
        (m3, "fr", ("u1", "u2", "u3")),
    ]
    rng = random.Random(23)
    for m, fid, us in cases:
        k = len(us)
        for _ in range(40):
            deriv = tuple(rng.randint(0, 4 // k + 1) for _ in range(k))
            powers = [rng.randint(0, 2) for _ in range(k)]
            factors = [m.gen(u, p) for u, p in zip(us, powers) if p]
            base = m.delta(fid, deriv=deriv)
            ordered = product(factors + [base], m)
            rng.shuffle(factors)
            shuffled = product([base] + factors, m)
            assert ordered == shuffled


def _compose(e, a_matrix, m):
    # apply the substitution to every delta factor of an element
    out = Element()
    for t in e.terms:
        sub = delta_linear_substitute(t.delta, a_matrix, m)
        carried = Element((Term(t.coeff, None, t.odd_mono, t.even_mono),))
        out = add(out, multiply(carried, sub, m), m)
    return out


def test_substitute_composition_randomized():
    m3 = random_model(random.Random(0), max_rank=3, with_theta=False)
    cases = [
        (load_builtin("hopf"), "conn", 1),
        (load_builtin("t2-on-t2"), "tau", 2),
        (m3, "fr", 3),
    ]
    rng = random.Random(31)
    for m, fid, k in cases:
        for _ in range(25):
            a = random_gl_plus(rng, k)
            b = random_gl_plus(rng, k)
            ab = tuple(
                tuple(sum(a[i][l] * b[l][j] for l in range(k)) for j in range(k))
                for i in range(k)
            )
            deriv = tuple(rng.randint(0, 2) for _ in range(k))
            d = m.delta(fid, deriv=deriv).terms[0].delta
            assert _compose(delta_linear_substitute(d, a, m), b, m) == \
                delta_linear_substitute(d, ab, m)


def test_substitute_scaling_k1():
    # delta^(n)(c u) = c^-(n+1) delta^(n)(u) for c > 0
    m = load_builtin("hopf")
    for n, c in ((0, Fraction(2)), (1, Fraction(3)), (2, Fraction(1, 2))):
        d = m.delta("conn", deriv=(n,)).terms[0].delta
        got = delta_linear_substitute(d, ((c,),), m)
        assert got == m.delta("conn", deriv=(n,)).scaled(c ** -(n + 1))


def test_substitute_determinant_only_at_order_zero():
    m = load_builtin("t2-on-t2")
    d = m.delta("tau").terms[0].delta
    a = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))  # det 1
    assert delta_linear_substitute(d, a, m) == m.delta("tau")


def _leibniz_det(a):
    k = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(k)):
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        term = Fraction(-1 if inv % 2 else 1)
        for i, p in enumerate(perm):
            term *= a[i][p]
        total += term
    return total


def test_substitute_delta_zero_is_det_scaling_without_inverse(monkeypatch):
    inverses = []
    inverse = linalg.inverse

    def counted(a):
        inverses.append(a)
        return inverse(a)

    monkeypatch.setattr(linalg, "inverse", counted)
    m3 = random_model(random.Random(0), max_rank=3, with_theta=False)
    rng = random.Random(57)
    for m, fid in ((load_builtin("hopf"), "conn"), (load_builtin("t2-on-t2"), "tau"),
                   (m3, "fr")):
        d0 = m.delta(fid).terms[0].delta
        for _ in range(20):
            a = random_gl_plus(rng, m.frames[fid].rank)
            assert delta_linear_substitute(d0, a, m) == \
                m.delta(fid).scaled(1 / _leibniz_det(a))
    assert inverses == []
    # derivative deltas still go through the inverse
    m = load_builtin("hopf")
    for n, c in ((1, Fraction(3)), (2, Fraction(1, 2))):
        d = m.delta("conn", deriv=(n,)).terms[0].delta
        assert delta_linear_substitute(d, ((c,),), m) == \
            m.delta("conn", deriv=(n,)).scaled(c ** -(n + 1))
    assert len(inverses) == 2


def test_substitute_coefficients_are_int_when_integral():
    m = load_builtin("t2-on-t2")
    d0 = m.delta("tau").terms[0].delta
    half = Fraction(1, 2)
    for a in (((1, 0), (0, 1)), ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))):
        (t,) = delta_linear_substitute(d0, a, m).terms
        assert t.coeff == 1 and type(t.coeff) is int
    # 1/|det| = 2 is integral; so are the derivative coefficients through A^-1
    for d in (d0, DeltaFactor("tau", (1, 0)), DeltaFactor("tau", (1, 1))):
        got = delta_linear_substitute(d, ((half, 0), (0, 1)), m)
        assert got.terms and all(type(t.coeff) is int for t in got.terms), d
    (t,) = delta_linear_substitute(d0, ((half, 0), (0, 1)), m).terms
    assert t.coeff == 2
    (t,) = delta_linear_substitute(d0, ((2, 0), (0, 1)), m).terms
    assert t.coeff == half


def test_substitute_rejects_a_matrix_of_the_wrong_shape():
    m = load_builtin("t2-on-t2")
    d = m.delta("tau").terms[0].delta
    for a in (((1, 0),), ((1,), (0,)), ((1, 0), (0, 1), (0, 0))):
        with pytest.raises(NonOrientable, match="^substitution matrix is not 2 x 2$"):
            delta_linear_substitute(d, a, m)


def test_taylor_walk_of_exactly_the_bound_runs():
    """s3-contact's display walks C((dim - 1) // 2 + 1, 1) multi-indices J:
    MAX_TAYLOR_INDICES = 2048 itself at dim 4095, which walks, and 2049 at
    dim 4097, which stops before the walk."""
    doc = json.loads((Path(genco.__file__).parent / "models" / "s3-contact.json")
                     .read_text(encoding="utf-8"))
    doc["manifoldDim"] = 4095
    m = model_from_dict(doc)
    assert len(taylor_expand_delta(j_form(m, "co"), "co", m).terms) == 2048
    doc["manifoldDim"] = 4097
    m = model_from_dict(doc)
    with pytest.raises(OutOfRange, match="would walk 2049 multi-indices, more than 2048$"):
        taylor_expand_delta(j_form(m, "co"), "co", m)


def _pair(e, phi, m):
    """Analytic pairing of a k=1 delta combination against a polynomial.

    phi is a coefficient list; <delta^(n), phi> = (-1)^n n! phi[n].
    """
    total = Fraction(0)
    for t in e.terms:
        assert t.delta is not None and not t.odd_mono and not t.even_mono
        (n,) = t.delta.deriv
        if n < len(phi):
            total += t.coeff * (-1) ** n * math.factorial(n) * phi[n]
    return total


def test_derivative_rule_matches_analytic_pairing():
    # x delta^(n) = -n delta^(n-1) must reproduce <delta^(n), x phi>.
    m = load_builtin("hopf")
    rng = random.Random(41)
    for n in range(5):
        for p in range(4):
            engine = normal_form(
                multiply(m.gen("u1", p) if p else m.one(),
                         m.delta("conn", deriv=(n,)), m), m)
            for _ in range(5):
                phi = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(n + 1)]
                shifted = [Fraction(0)] * p + phi  # x^p phi
                direct = (-1) ** n * math.factorial(n) * (
                    shifted[n] if n < len(shifted) else Fraction(0))
                assert _pair(engine, phi, m) == direct


def test_taylor_display_k1():
    # u = dalpha + f: delta_0(u) -> sum_j delta^(j)(f) dalpha^j / j!
    m = load_builtin("hopf")  # dim 3 keeps j <= 1
    disp = taylor_expand_delta(m.delta("conn"), "conn", m)
    assert len(disp.terms) == 2
    by_deriv = {t.delta.deriv: t for t in disp.terms}
    assert all(t.delta.argument == "moment" for t in disp.terms)
    assert by_deriv[(0,)].even_mono == ()
    assert by_deriv[(1,)].even_mono == (("Psi", 1),)
    assert by_deriv[(1,)].coeff == 1

    deep = model_with(m, manifold_dim=5)  # j <= 2 now
    disp5 = taylor_expand_delta(deep.delta("conn"), "conn", deep)
    by_deriv5 = {t.delta.deriv: t for t in disp5.terms}
    assert by_deriv5[(2,)].even_mono == (("Psi", 2),)
    assert by_deriv5[(2,)].coeff == Fraction(1, 2)


def _taylor_reference(e, fid, m):
    """Display form summed one multi-index at a time, each dalpha power a full
    product: the definition the engine's walk over shared prefixes must match."""
    fr = m.frames[fid]
    terms = []
    for t in e.terms:
        if t.delta is None or t.delta.frame_id != fid:
            terms.append(t)
            continue
        base = Element((t._replace(delta=None),))
        for jj in multi_indices(fr.rank, m.manifold_dim // 2):
            dal = product([fr.dalpha[s] for s in range(fr.rank) for _ in range(jj[s])], m)
            deriv = tuple(a + b for a, b in zip(t.delta.deriv, jj))
            delta = m.delta(fid, deriv, "moment")
            scale = Fraction(1, math.prod(math.factorial(x) for x in jj))
            terms += multiply(multiply(base, dal, m), delta, m).scaled(scale).terms
    return normal_form(Element(tuple(terms)), m)


def test_taylor_display_matches_reference_at_rank_four():
    # rank 4, dim 14: dalpha powers up to total order 7; the bare delta term
    # keeps them all, J cuts those of order 6 and 7 by degree
    m = load_model(Path(__file__).parent / "golden" / "models" / "split-rank4.json")
    two_deltas = add(j_form(m, "co"), m.delta("co", (1, 0, 2, 0)), m)
    mixed = random_element(random.Random(23), m, n_terms=4)
    assert len(two_deltas.terms) == 2
    assert any(t.delta is None for t in mixed.terms)
    for e in (two_deltas, mixed):
        assert taylor_expand_delta(e, "co", m) == _taylor_reference(e, "co", m)


def _split_model(seed, rank, dim, closed_slot=None):
    """Seeded model with a split frame "fr": dalpha_j is a multiple of its own
    curvature F_j, at random plus a multiple of F_1, w0 or th0 th1, or zero;
    th0 and th1 are 1-forms with d th0 = q w0 and constant contractions.
    Entry j = closed_slot, if given and non-zero, also gets u_j F_j (a closed
    argument times a 2-form is a 2-form)."""
    rng = random.Random(seed)
    r = rank + rng.randint(0, 1)
    gens = {}
    for j in range(1, rank + 1):
        gens[f"a{j}"] = Generator(f"a{j}", ODD, 1, FRAME_FORM, "fr", j)
        gens[f"u{j}"] = Generator(f"u{j}", EVEN, 2, CLOSED_ARGUMENT, "fr", j)
        gens[f"F{j}"] = Generator(f"F{j}", EVEN, 2)
    gens["th0"], gens["th1"] = Generator("th0", ODD, 1), Generator("th1", ODD, 1)
    gens["w0"] = Generator("w0", EVEN, 2)
    params = tuple(f"X{a}" for a in range(1, r + 1))
    bare = FormalModel("split", dim, params, gens, {}, {})
    d_table = {"th0": bare.gen("w0").scaled(nonzero_rational(rng, -2, 2, (1, 2)))}
    iota_table = {(th, a): bare.scalar(nonzero_rational(rng, -2, 2, (1, 2)))
                  for th in ("th0", "th1") for a in range(r) if rng.random() < 0.6}
    extras = (bare.gen("F1"), bare.gen("w0"), multiply(bare.gen("th0"), bare.gen("th1"), bare))
    dalpha = []
    for j in range(1, rank + 1):
        entry = bare.gen(f"F{j}").scaled(nonzero_rational(rng, -3, 3, (1, 2)))
        if rng.random() < 0.5:
            entry = add(entry, rng.choice(extras).scaled(nonzero_rational(rng)), bare)
        dalpha.append(entry if j == 1 or rng.random() < 0.85 else Element())
        if j == closed_slot and dalpha[-1].terms:
            dalpha[-1] = add(entry, multiply(bare.gen(f"u{j}"), bare.gen(f"F{j}"), bare), bare)
    sample = tuple(tuple(-1 if a == j else 0 for a in range(r)) for j in range(rank))
    frame = FrameDecl("fr", rank, tuple(f"a{j}" for j in range(1, rank + 1)),
                      tuple(f"u{j}" for j in range(1, rank + 1)), (sample,), tuple(dalpha))
    m = FormalModel("split", dim, params, gens, d_table, iota_table, {"fr": frame})
    validate_model(m)
    return m


def test_taylor_display_matches_reference_on_split_models():
    # heads of degree rank (J), 1 (th0 delta') and 4 (th0 th1 w0 delta''): the
    # walk stops at the bound of the 1-form head, where the reference walks the
    # whole dim // 2 box, and the 4-form head's terms past dim are truncated at
    # the end.  Split entries with a closed-argument term keep it next to the
    # moment delta; a zero entry ends a subtree
    closed_entries = vanishing = 0
    for seed, rank, dim, closed_slot in ((1, 3, 12, None), (2, 3, 15, None), (3, 4, 13, None),
                                         (4, 4, 16, None), (5, 3, 11, 2), (6, 4, 14, 2),
                                         (7, 2, 10, 1)):
        m = _split_model(seed, rank, dim, closed_slot)
        jv = j_form(m, "fr")
        low = multiply(m.gen("th0"), m.delta("fr", (1,) + (0,) * (rank - 1)), m)
        high = product([m.gen("th0"), m.gen("th1"), m.gen("w0"),
                        m.delta("fr", (0,) * (rank - 1) + (2,))], m)
        plain = product([m.gen(m.parameters[0]), m.gen("w0"), m.gen("F1")], m)
        joined = add_all((jv, low, high, plain), m)
        assert any(t.delta is None for t in joined.terms)
        assert len({m.term_degree(t) for t in joined.terms if t.delta is not None}) >= 2
        entries = m.frames["fr"].dalpha
        closed = {f"u{j}" for j in range(1, rank + 1)}
        has_closed = any(n in closed for x in entries for t in x.terms for n, _ in t.even_mono)
        closed_entries += has_closed
        vanishing += any(not x.terms for x in entries)
        for e in (jv, joined, random_element(random.Random(seed), m, n_terms=3)):
            got = taylor_expand_delta(e, "fr", m)
            assert got == _taylor_reference(e, "fr", m), (seed, e)
            if e is jv and has_closed:
                assert any(n in closed for t in got.terms for n, _ in t.even_mono), seed
    assert closed_entries >= 2 and vanishing >= 2, (closed_entries, vanishing)


def test_taylor_display_walks_only_surviving_multi_indices(monkeypatch):
    # no dalpha power of split-rank4 vanishes, so the walk under J, a k-form,
    # reaches every |J| <= (dim - k) // 2 as a leaf: C(b + k, k) multi-indices.
    # J has one delta, so taylor_fold calls rekey once per leaf
    m = load_model(Path(__file__).parent / "golden" / "models" / "split-rank4.json")
    leaves = []
    fold = superalg.taylor_fold

    def counted(heads, xs, bound, rekey, m):
        return fold(heads, xs, bound, lambda d, jj: leaves.append(jj) or rekey(d, jj), m)

    monkeypatch.setattr(genco, "taylor_fold", counted)
    k = m.frames["co"].rank
    b = (m.manifold_dim - k) // 2
    taylor_expand_delta(j_form(m, "co"), "co", m)
    assert leaves == sorted(multi_indices(k, b))
    assert len(leaves) == math.comb(b + k, k) == 126


def test_display_form_is_not_differentiable():
    m = load_builtin("hopf")
    disp = taylor_expand_delta(m.delta("conn"), "conn", m)
    with pytest.raises(NotDifferentiable):
        equivariant_differential(disp, m)


def test_taylor_display_requires_splitting():
    m = random_model(random.Random(3), max_rank=2, with_theta=False, dim_cap=6)
    fid = sorted(m.frames)[0]
    with pytest.raises(SplittingMissing):
        taylor_expand_delta(m.delta(fid), fid, m)
    # a frame id from a model file is named by its length
    long = "f" * 3000
    m2 = model_with(m, frames={**m.frames, long: m.frames[fid]})
    with pytest.raises(SplittingMissing) as e:
        taylor_expand_delta(m2.one(), long, m2)
    assert str(e.value) == "frame of 3000 characters declares no (dalpha, f) split"


def test_fourier_builds_its_own_fibre_coordinates(monkeypatch):
    # the model handed in has no fibre coordinates; the integral extends it
    # once per call, and a model that already has those names gets others
    m = load_builtin("s1-on-s1")
    assert not any(n.startswith("xi_") for n in m.generators)
    calls = []
    real = genco.with_fibre_coordinates

    def counted(model, frame_id):
        calls.append(frame_id)
        return real(model, frame_id)

    monkeypatch.setattr(genco, "with_fibre_coordinates", counted)
    assert fourier_fibre_integrate(m, "tau") == j_form(m, "tau")
    assert calls == ["tau"]
    taken = real(m, "tau")
    assert fourier_fibre_integrate(taken, "tau") == j_form(taken, "tau")
    assert calls == ["tau", "tau"]


def test_fourier_rank_one():
    m = load_builtin("s1-on-s1")
    assert fourier_fibre_integrate(m, "tau") == \
        multiply(m.gen("deta"), m.delta("tau"), m)


def test_fourier_rank_two_sign():
    # canonical storage of deta2 deta1 delta_0 carries the reversal sign
    m = load_builtin("t2-on-t2")
    got = fourier_fibre_integrate(m, "tau")
    expected = product([m.gen("deta1"), m.gen("deta2")], m)
    expected = multiply(expected, m.delta("tau"), m).scaled(-1)
    assert got == expected


def test_fourier_rank_zero_is_unit():
    m = load_builtin("cp1-dolbeault")
    assert fourier_fibre_integrate(m, "triv") == m.one()


def test_fibre_names_must_be_fresh():
    # names that a generator or a parameter already has are primed until
    # none is taken, and dxi^1 still sorts next to alpha_1
    m = load_builtin("s1-on-s1")
    lam = with_fibre_coordinates(m, "tau")
    twice = with_fibre_coordinates(lam, "tau")
    assert twice.generators.keys() - lam.generators.keys() == {"xi_tau_1'", "dxi_tau_1'"}
    assert sorted(twice.odd_order, key=twice.odd_order.get) == ["deta", "dxi_tau_1",
                                                                 "dxi_tau_1'"]
    named = with_fibre_coordinates(model_with(m, parameters=("dxi_tau_1",)), "tau")
    assert named.generators.keys() - m.generators.keys() == {"xi_tau_1'", "dxi_tau_1'"}
    assert sorted(named.odd_order, key=named.odd_order.get) == ["deta", "dxi_tau_1'"]


def test_fourier_equals_j_form_on_builtins():
    for name in ("s1-on-s1", "t2-on-t2", "s3-contact", "hopf", "cp1-dolbeault"):
        m = load_builtin(name)
        for fid in sorted(m.frames):
            assert fourier_fibre_integrate(m, fid) == j_form(m, fid), name
