"""Seeded random models and elements for the property tests.

Models with degree-raising differentials (the theta blocks below) get a
manifold dimension large enough that no product in the tests reaches the
truncation bound: the free truncated algebra satisfies the derivation
identities only when either no image raises degree or nothing is truncated,
because top-degree relations of a genuine manifold are not imposed here.
Frame and inert generators never raise degree, so models built from those
alone may use tight dimensions.
"""

from fractions import Fraction

from equivar import linalg
from equivar.superalg import (CLOSED_ARGUMENT, EVEN, FRAME_FORM, ODD, FormalModel,
                              FrameDecl, Generator, add_all, product, validate_model)


def rational(rng, lo=-4, hi=4, dens=(1, 1, 2, 3)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def nonzero_rational(rng, lo=-4, hi=4, dens=(1, 1, 2, 3)):
    while True:
        q = rational(rng, lo, hi, dens)
        if q != 0:
            return q


def _full_rank_matrix(rng, k, r):
    while True:
        a = tuple(tuple(rational(rng, -3, 3, (1, 1, 2)) for _ in range(r))
                  for _ in range(k))
        if linalg.rank(a) == k:
            return a


_MODEL_FIELDS = ("name", "manifold_dim", "parameters", "generators", "d_table",
                 "iota_table", "frames", "base", "fixed_loci")


def model_with(m, **changes):
    """A new model from m's constructor arguments, with the named ones
    changed; the new model derives its own tables."""
    return FormalModel(**({f: getattr(m, f) for f in _MODEL_FIELDS} | changes))


def random_model(rng, max_rank=3, with_theta=True, dim_cap=None):
    """A consistent random model with one frame of rank <= max_rank.

    Optional blocks: inert closed even generators, and theta pairs
    (d theta = w, iota_a theta = constant) when with_theta is set.  dim_cap
    bounds the manifold dimension for theta-free models; theta models ignore
    it and use a dimension no product can reach.
    """
    k = rng.randint(0, max_rank)
    r = rng.randint(max(1, k), max(2, k))
    gens = {}
    alphas = []
    for j in range(1, k + 1):
        gens[f"a{j}"] = Generator(f"a{j}", ODD, 1, FRAME_FORM, "fr", j)
        gens[f"u{j}"] = Generator(f"u{j}", EVEN, 2, CLOSED_ARGUMENT, "fr", j)
        alphas.append(f"a{j}")
    n_inert = rng.randint(0, 2)
    for i in range(n_inert):
        gens[f"c{i}"] = Generator(f"c{i}", EVEN, 2)
    n_theta = 0
    if with_theta and rng.random() < 0.5:
        n_theta = rng.randint(1, 2)
        for i in range(n_theta):
            gens[f"th{i}"] = Generator(f"th{i}", ODD, 1)
            gens[f"w{i}"] = Generator(f"w{i}", EVEN, 2)

    if n_theta:
        # out of reach of any product in the tests: all odd generators once,
        # even generators up to fourth powers, fibre extension margin
        dim = sum(g.form_degree for g in gens.values() if g.parity == ODD)
        dim += 4 * sum(g.form_degree for g in gens.values()
                       if g.parity == EVEN and g.kind != CLOSED_ARGUMENT)
        dim += 2 * k + 6
    else:
        cap = dim_cap if dim_cap is not None else 6
        dim = rng.randint(max(k, 1), max(cap, k))

    samples = tuple(_full_rank_matrix(rng, k, r) for _ in range(rng.randint(1, 2)))
    frame = FrameDecl("fr", k, tuple(alphas),
                      tuple(f"u{j}" for j in range(1, k + 1)),
                      samples if k else None, None)
    params = tuple(f"X{a}" for a in range(1, r + 1))
    name = f"random-k{k}"
    # the table entries only need the generators; the model is built once below
    bare = FormalModel(name, dim, params, gens, {}, {})

    d_table, iota_table = {}, {}
    for i in range(n_theta):
        d_table[f"th{i}"] = bare.gen(f"w{i}").scaled(nonzero_rational(rng, -2, 2, (1, 2)))
        for a in range(r):
            s = rational(rng, -2, 2, (1, 2))
            if s:
                iota_table[(f"th{i}", a)] = bare.scalar(s)
    m = FormalModel(name, dim, params, gens, d_table, iota_table, {"fr": frame})
    validate_model(m)
    return m


def random_element(rng, m, with_delta=True, n_terms=3, max_exp=2):
    """Random normal-form element; at most one delta factor per term."""
    odd_names = [n for n, g in m.generators.items() if g.parity == ODD]
    even_names = [n for n, g in m.generators.items() if g.parity == EVEN]
    frames = [fid for fid, fr in m.frames.items() if fr.rank > 0]
    terms = []
    for _ in range(n_terms):
        factors = [m.scalar(nonzero_rational(rng))]
        for a in range(m.r):
            e = rng.randint(0, max_exp)
            if e:
                factors.append(m.gen(m.parameters[a], e))
        for nm in odd_names:
            if rng.random() < 0.4:
                factors.append(m.gen(nm))
        for nm in even_names:
            if rng.random() < 0.35:
                factors.append(m.gen(nm, rng.randint(1, max_exp)))
        if with_delta and frames and rng.random() < 0.6:
            fid = rng.choice(frames)
            deriv = tuple(rng.randint(0, 2) for _ in range(m.frames[fid].rank))
            factors.append(m.delta(fid, deriv))
        terms.append(product(factors, m))
    return add_all(terms, m)
