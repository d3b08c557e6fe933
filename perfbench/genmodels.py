"""Seeded model-file generator for the verify workloads.

Each model has one co-orientation frame of rank k over r >= k equivariant
parameters, full-rank moment samples, and optional blocks:

  * inert closed even generators (form degree 2, no table entries);
  * theta pairs: odd th with d(th) = q * w and constant contractions
    iota_a(th) = s_a, where w is a closed even generator;
  * a display split u_j = dalpha_j + f_j, with each dalpha_j a nonzero
    rational multiple of its own closed even curvature generator F_j, so the
    cost of the Taylor display form depends on rank and dimension only.

The generator is self-contained on purpose: it shares no code with the
package's own random models, so workload inputs stay fixed while the package
changes.  The same seed always gives the same document.
"""

import json
import random
from fractions import Fraction

FRAME_ID = "fr"


def _rational(rng, lo, hi, dens):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _nonzero_rational(rng, lo, hi, dens):
    while True:
        q = _rational(rng, lo, hi, dens)
        if q:
            return q


def _literal(q):
    """JSON form of a rational: int when integral, "p/q" string otherwise."""
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _multiple(q, name):
    """'q*name' in the element-expression grammar, with a leading sign."""
    mag = abs(q)
    lit = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
    return ("-" if q < 0 else "") + f"{lit}*{name}"


def matrix_rank(rows):
    """Exact rank of a Fraction matrix by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _full_rank_sample(rng, k, r):
    while True:
        a = [[_rational(rng, -3, 3, (1, 1, 2)) for _ in range(r)] for _ in range(k)]
        if matrix_rank(a) == k:
            return a


def generate_model(seed, rank, dim, split, name):
    """One model document (a dict ready for json.dumps).

    rank and dim fix the frame rank and manifold dimension, split adds the
    display decomposition; the seed draws everything else, including how
    many theta pairs and inert generators (0 to 2 each) the model has.
    """
    if rank < 1 or dim < rank:
        raise ValueError(f"need 1 <= rank <= dim, got rank {rank}, dim {dim}")
    rng = random.Random(seed)
    r = rng.randint(rank, rank + 1)
    params = [f"X{a}" for a in range(1, r + 1)]
    n_inert = rng.randint(0, 2)
    n_theta = rng.randint(0, 2)

    gens = []
    for j in range(1, rank + 1):
        gens.append({"name": f"a{j}", "parity": "odd", "formDegree": 1,
                     "kind": "frameForm", "frame": FRAME_ID, "slot": j})
        gens.append({"name": f"u{j}", "parity": "even", "formDegree": 2,
                     "kind": "closedArgument", "frame": FRAME_ID, "slot": j})
    for i in range(n_inert):
        gens.append({"name": f"c{i}", "parity": "even", "formDegree": 2})
    d_table, iota_table = {}, {}
    for i in range(n_theta):
        gens.append({"name": f"th{i}", "parity": "odd", "formDegree": 1})
        gens.append({"name": f"w{i}", "parity": "even", "formDegree": 2})
        d_table[f"th{i}"] = _multiple(_nonzero_rational(rng, -2, 2, (1, 2)), f"w{i}")
        iota_table[f"th{i}"] = [str(_literal(_rational(rng, -2, 2, (1, 2))))
                                for _ in params]

    frame = {"frameId": FRAME_ID, "rank": rank,
             "slots": [f"a{j}" for j in range(1, rank + 1)],
             "momentSamples": [
                 [[_literal(x) for x in row] for row in _full_rank_sample(rng, rank, r)]
                 for _ in range(rng.randint(1, 2))]}
    if split:
        curv = [f"F{j}" for j in range(1, rank + 1)]
        for n in curv:
            gens.append({"name": n, "parity": "even", "formDegree": 2})
        frame["split"] = [_multiple(_nonzero_rational(rng, -3, 3, (1, 1, 2)), n)
                          for n in curv]

    return {
        "name": name,
        "manifoldDim": dim,
        "parameters": params,
        "generators": gens,
        "dTable": d_table,
        "iotaTable": iota_table,
        "frames": [frame],
    }


def model_json(doc):
    """Canonical text of a model document; equal documents give equal bytes."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
