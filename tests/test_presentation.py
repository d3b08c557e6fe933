"""Presentation invariance: J depends on the distribution and its
co-orientation, not on how a model file names or orders things.

Two relations, over the built-ins, the golden models and seeded random
models, each model read as a model document:

* Renaming every generator (in its declaration, the tables, the frame slots
  and the splits) and shuffling the declarations and table entries changes
  no verify status.  With the names mapped back and each odd monomial sorted
  by name, with the sign of that sort, J and its display are equal term by
  term.
* Permuting a frame's slots by pi moves the slot list, the slot numbers of
  the frame's generators, the moment-sample rows and the split entries
  together.  It changes no verify status, multiplies J by sign(pi) (an odd
  permutation reverses the co-orientation), and permutes each derivative
  tuple of the display's moment deltas by pi.

The relations read only report statuses, j_form and display_value, so they
hold for any kernel that computes the same forms.  The fault tests inject
three faults and check that each one breaks a relation: a name-sorted odd
table and a Koszul sign read from the wrong parity mask change statuses, J
or the display with the presentation; closed arguments given to their frame
in declaration order make a shuffled or permuted variant fail
validate_model's slot check, while the model as written still loads.
"""

import copy
import itertools
import json
import random
import re
import string
from importlib import resources
from pathlib import Path

import pytest

from equivar import modelfile, superalg
from equivar.cli import run_verify
from equivar.errors import EquivarError, NotTransverse
from equivar.jform import j_form
from equivar.modelfile import builtin_names, loads_model
from equivar.report import display_value
from equivar.superalg import CLOSED_ARGUMENT, Element

from random_models import model_with, random_model

GOLDEN_MODELS = Path(__file__).parent / "golden" / "models"
# seeds of random_model with frames of rank 1, 2 and 3, with and without theta pairs
RANDOM_SEEDS = (0, 5, 8, 11)
VARIANTS = 3    # renamings, and as many slot permutations, per model

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _expression(el):
    """el in the model-file expression grammar."""
    if not el.terms:
        return "0"
    return "".join(("-" if c < 0 else "+") + "*".join(
        [str(abs(c)), *odd, *(f"{n}^{e}" for n, e in even)]) for c, _, odd, even in el.terms)


def _random_doc(seed):
    """random_model(Random(seed)) as a model document."""
    m = random_model(random.Random(seed))
    gens = [{"name": g.name, "parity": g.parity, "formDegree": g.form_degree, "kind": g.kind,
             **({"frame": g.frame_id, "slot": g.slot} if g.frame_id else {})}
            for g in m.generators.values()]
    frames = []
    for fr in m.frames.values():
        doc = {"frameId": fr.frame_id, "rank": fr.rank, "slots": list(fr.alpha_slots)}
        if fr.moment_samples:
            doc["momentSamples"] = [[[str(x) for x in row] for row in s]
                                    for s in fr.moment_samples]
        frames.append(doc)
    iota_names = dict.fromkeys(n for n, _ in m.iota_table)
    return {"name": f"random-{seed}", "manifoldDim": m.manifold_dim,
            "parameters": list(m.parameters), "generators": gens,
            "dTable": {n: _expression(el) for n, el in m.d_table.items()},
            "iotaTable": {n: [_expression(m.iota_table.get((n, a), Element()))
                              for a in range(m.r)] for n in iota_names},
            "frames": frames}


def _docs():
    docs = {n: json.loads(resources.files("equivar").joinpath("models", n + ".json")
                          .read_text(encoding="utf-8")) for n in builtin_names()}
    docs |= {p.stem: json.loads(p.read_text(encoding="utf-8"))
             for p in sorted(GOLDEN_MODELS.glob("*.json"))}
    return docs | {f"random-{s}": _random_doc(s) for s in RANDOM_SEEDS}


DOCS = _docs()


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _renamed(doc, rng):
    """(doc with every generator renamed to a random name and its
    declarations and table entries shuffled, {new name: old name})."""
    olds = [g["name"] for g in doc["generators"]]
    news = []
    while len(news) < len(olds):
        n = "".join(rng.choices(string.ascii_letters, k=rng.randint(1, 6)))
        if n not in news and n not in doc["parameters"]:
            news.append(n)
    new_of = dict(zip(olds, news))

    def rename(expr):
        return _NAME.sub(lambda mm: new_of.get(mm.group(), mm.group()), expr)

    out = copy.deepcopy(doc)
    out["generators"] = _shuffled(rng, (dict(g, name=new_of[g["name"]])
                                        for g in doc["generators"]))
    if "dTable" in doc:
        out["dTable"] = {new_of[n]: rename(e) for n, e in _shuffled(rng, doc["dTable"].items())}
    if "iotaTable" in doc:
        out["iotaTable"] = {new_of[n]: list(map(rename, es))
                            for n, es in _shuffled(rng, doc["iotaTable"].items())}
    for fr in out["frames"]:
        fr["slots"] = [new_of[n] for n in fr["slots"]]
        if "split" in fr:
            fr["split"] = list(map(rename, fr["split"]))
    return out, {new: old for old, new in new_of.items()}


def _permuted(doc, frame_id, perm):
    """doc with the slots of the frame permuted: new slot i + 1 is old slot
    perm[i] + 1."""
    out = copy.deepcopy(doc)
    fr = next(f for f in out["frames"] if f["frameId"] == frame_id)
    fr["slots"] = [fr["slots"][p] for p in perm]
    if "split" in fr:
        fr["split"] = [fr["split"][p] for p in perm]
    if "momentSamples" in fr:
        fr["momentSamples"] = [[s[p] for p in perm] for s in fr["momentSamples"]]
    new_slot = {old + 1: new + 1 for new, old in enumerate(perm)}
    for g in out["generators"]:
        if g.get("frame") == frame_id:
            g["slot"] = new_slot[g["slot"]]
    return out


def _sign(perm):
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def _outcome(doc):
    """(the verify statuses, {frame: (J, display)} of its transverse frames)
    of the model doc, or the error that stops its load or verify."""
    try:
        m = loads_model(json.dumps(doc))
        statuses = [(r["check"], r["status"]) for r in run_verify(m)["results"]]
    except EquivarError as e:
        return f"{type(e).__name__}: {e}", {}
    values = {}
    for fid in sorted(m.frames):
        try:
            j = j_form(m, fid)
        except NotTransverse:
            continue
        values[fid] = (j, display_value(m, fid, j))
    return statuses, values


def _canonical(el, old_name, frame_id=None, perm=()):
    """{(delta, odd monomial, even monomial): coeff} of el's terms, each name
    n read as old_name.get(n, n), each odd monomial sorted by name with the
    sign of that sort, and the derivative tuple of each delta on the frame
    read back through the slot permutation perm."""
    out = {}
    for c, delta, odd, even in el.terms:
        odd = [old_name.get(n, n) for n in odd]
        if sum(a > b for a, b in itertools.combinations(odd, 2)) % 2:
            c = -c
        if delta is not None and delta.frame_id == frame_id:
            deriv = [0] * len(perm)
            for new, old in enumerate(perm):
                deriv[old] = delta.deriv[new]
            delta = delta._replace(deriv=tuple(deriv))
        even = tuple(sorted((old_name.get(n, n), e) for n, e in even))
        out[(delta, tuple(sorted(odd)), even)] = c
    return out


def _broken_relations(name, rng):
    """The variants of the model that break a relation, as descriptions."""
    doc = DOCS[name]
    statuses, values = _outcome(doc)
    variants = []
    for _ in range(VARIANTS):
        renamed, old_name = _renamed(doc, rng)
        variants.append(("renamed", renamed, old_name, None, ()))
    for fr in doc["frames"]:
        for _ in range(VARIANTS if fr["rank"] > 1 else 0):
            perm = _shuffled(rng, range(fr["rank"]))
            variants.append((f"slots {perm}", _permuted(doc, fr["frameId"], perm), {},
                             fr["frameId"], perm))
    broken = []
    for what, variant, old_name, frame_id, perm in variants:
        got_statuses, got_values = _outcome(variant)
        if got_statuses != statuses:
            broken.append(f"{name} {what}: statuses {got_statuses}")
            continue
        for fid, pair in values.items():
            sign = _sign(perm) if fid == frame_id else 1
            for label, want, got in zip(("J", "display"), pair, got_values[fid]):
                want = {k: sign * c for k, c in _canonical(want, {}).items()}
                if _canonical(got, old_name, frame_id, perm) != want:
                    broken.append(f"{name} {what}: {label} of frame {fid}")
    return broken


@pytest.mark.parametrize("name", sorted(DOCS))
def test_renaming_and_slot_permutation_change_no_verdict(name):
    assert _broken_relations(name, random.Random(name)) == []


def _name_sorted_odd_table(monkeypatch):
    """The model's odd table holds each odd monomial sorted by name, not by
    odd order."""
    real = superalg._odd_of_mask

    def name_sorted(mask, m):
        odd, degree = real(mask, m)
        m._odd_by_mask[mask] = entry = (tuple(sorted(odd)), degree)
        return entry

    monkeypatch.setattr(superalg, "_odd_of_mask", name_sorted)


def _parity_mask(bits):
    """Bit i set where an odd number of bits lie below i."""
    p = 0
    for i in bits:
        p ^= -2 << i
    return p


def _left_parity_koszul_sign(monkeypatch):
    """The Koszul loop reads each pair's sign from the left item's parity
    mask, the parity of m1 & p1, in place of the right term's, m1 & p2."""
    real = superalg._koszul

    def left_mask(items, b, m):
        acc = {}
        for item in items:
            m1 = item[0][1]
            wrong = m1 & _parity_mask(i for i in range(m1.bit_length()) if m1 >> i & 1)
            for t in b.terms:
                right = m1 & _parity_mask(m.odd_order[g] for g in t.odd_mono)
                flip = (wrong.bit_count() + right.bit_count()) & 1
                for key, c in real((item,), Element((t,)), m).items():
                    acc[key] = acc.get(key, 0) + (-c if flip else c)
        return acc

    monkeypatch.setattr(superalg, "_koszul", left_mask)


def _closed_arguments_in_declaration_order(monkeypatch):
    """The loader gives each frame its closed arguments in declaration order,
    not by their declared slots."""
    real = modelfile.FormalModel

    def declaration_order(name, dim, params, gens, d_table, iota_table, frames=None,
                          base=None, fixed_loci=()):
        m = real(name, dim, params, gens, d_table, iota_table, frames, base, fixed_loci)
        if not frames:
            return m
        return model_with(m, frames={
            fid: fr._replace(u_slots=tuple(g.name for g in gens.values()
                                           if g.kind == CLOSED_ARGUMENT and g.frame_id == fid))
            for fid, fr in frames.items()})

    monkeypatch.setattr(modelfile, "FormalModel", declaration_order)


@pytest.mark.parametrize("fault", (_name_sorted_odd_table, _left_parity_koszul_sign,
                                   _closed_arguments_in_declaration_order),
                         ids=lambda f: f.__name__.strip("_"))
def test_an_injected_fault_breaks_a_relation(fault, monkeypatch):
    fault(monkeypatch)
    assert any(_broken_relations(name, random.Random(name)) for name in sorted(DOCS))
