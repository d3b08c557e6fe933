"""The end-to-end index examples.

Each entry that can pass compares an engine route (localization and
expansion, or the curvature pairing) with an oracle of the oracles module,
which cannot see the engine, except taylor-display-form, which compares the
Taylor display with a hand-built element.  The J identities of a built-in
(closedness, frame annihilation) are checked by verify, not here.  Each
example is one function in _EXAMPLES, listed with the run_pipeline
arguments it reads, which are exactly its parameters, that returns
(results, characters, extra): the entries [{"check", "status", "witness"?}]
(report.entry) with status "pass", "fail" or "skipped-out-of-scope", the
character table [{"weight", "coefficient"}] or None, and the example's own
report keys.  run_pipeline puts them in the report envelope (report.make_report), and
report.report_status reads the status of the whole report from its entries.

A printed character table holds only compared numbers: it is the
{weight: coefficient} dict that an oracle entry compared (_table), or, for
s3-contact, a window sliced from the box cells that contact-box-oracle
compared.  Only a failing entry carries a witness.  An entry that compares
two weight dicts is built by _compared, which names the first 10 weights
where they differ, with both values (_mismatch_witness); cp1-l2's rows are
irreducibles, not weights, and its entry names its first 10 failing
irreducibles the same way.
"""

from fractions import Fraction
from itertools import product as iproduct
from math import factorial, lcm

from .charclass import CIRCLE, FixedLocusDatum, localize_index, series_inverse
from .errors import (NonIntegerCoefficients, NotPrincipal, OutOfRange, UnknownExample,
                     UsageError, shown)
from .genco import taylor_expand_delta
from .jform import chern_weil_pair, j_form
from .laurent import box_dict, cell_index, expand_to_degree
from .modelfile import load_builtin
from .oracles import (cp1_sheaf_character_oracle, frobenius_multiplicity_oracle,
                      hrr_cp1_oracle, l2_torus_oracle, s3_contact_character_oracle)
from .report import entry, make_report, nonzero_witness
from .superalg import ARG_MOMENT, add, graded_exp_pieces, multiply, product


# ---------------------------------------------------------------------------
# comparison

def _table(coeffs):
    """The character table of a compared {weight: coefficient} dict, one row
    per weight in the dict's order (every caller builds it sorted)."""
    return [{"weight": list(w), "coefficient": c} for w, c in coeffs.items()]


def _mismatch_witness(coeffs, oracle):
    """The witness of a failed comparison of two {weight: coefficient} dicts:
    the first 10 weights, in order, where they differ, with both values."""
    bad = [w for w in sorted(coeffs.keys() | oracle.keys())
           if coeffs.get(w, 0) != oracle.get(w, 0)][:10]
    return {"weights": bad, "computed": [coeffs.get(w, 0) for w in bad],
            "oracle": [oracle.get(w, 0) for w in bad]}


def _compared(check, coeffs, oracle):
    """The entry check comparing the {weight: coefficient} dicts coeffs and
    oracle, with their _mismatch_witness when they differ."""
    ok = coeffs == oracle
    return entry(check, ok, None if ok else _mismatch_witness(coeffs, oracle))


# ---------------------------------------------------------------------------
# torus zero operator

def _torus_zero():
    """Index of the zero operator on the torus of rank 1 and of rank 2 acting
    on itself, with the entries of rank l prefixed "rank<l>:".

    Formula side: the delta class of the lattice (the canonical form of the
    full coframe, which verify checks) has as its Fourier side the
    localization of the torus as one orbit locus, orbit_comb of the frame's
    first moment sample (the weights of the torus on the coframe), expanded
    through laurent on the window.  Oracle side: the regular representation
    of the torus, by enumeration.  The character table is the rank-one window.
    """
    results, chars = [], None
    for rank_l, (name, window) in enumerate((("s1-on-s1", 50), ("t2-on-t2", 20)), 1):
        m = load_builtin(name)
        prefix = f"rank{rank_l}:"
        orbit = FixedLocusDatum(name, CIRCLE, moment_sample=m.frames["tau"].moment_samples[0])
        cells = expand_to_degree(localize_index((orbit,), rank_l), window)
        oracle = {w: c for w in iproduct(range(-window, window + 1), repeat=rank_l)
                  if (c := l2_torus_oracle(w))}
        coeffs = box_dict(cells, rank_l, window)
        results.append(_compared(f"{prefix}regular-representation-window-{window}",
                                 coeffs, oracle))
        if chars is None:
            chars = _table(coeffs)
    return results, chars, {}


# ---------------------------------------------------------------------------
# projective line

def _cp1_loci(m, twist):
    """The fixed loci of the cp1-dolbeault model m with every twist weight
    scaled by twist: the localization data of the line bundle O(twist)."""
    return tuple(d._replace(twist_weight=tuple(twist * x for x in d.twist_weight))
                 for d in m.fixed_loci)


def _cp1_dolbeault(twist, max_degree):
    m = load_builtin("cp1-dolbeault")
    radius = max(max_degree, abs(twist) + 2)
    cells = expand_to_degree(localize_index(_cp1_loci(m, twist), 1), radius)
    coeffs = box_dict(cells, 1, radius)
    results = [_compared("sheaf-character-oracle", coeffs, cp1_sheaf_character_oracle(twist))]
    return results, _table(coeffs), {"case": "ETM", "twist": twist}


# the most cells that cp1-l2 expands, over all its rows.  Worst time at
# the cap (Python 3.11, 2-core Intel Xeon): --max-degree 4999 at twist 0,
# 0.23 s for the command, of which the 5000 rows take 0.15-0.17 s, about
# 32 us each at every max-degree from 1000 up.  The golden jobs expand at
# most 63 cells.
MAX_BRANCHING_CELLS = 5_000


def _cp1_l2(twist, max_degree):
    """Branching of the circle character of weight n = twist, induced to the
    rank-one group, over the irreducibles V_0..V_max_degree.

    By Frobenius reciprocity the multiplicity of V_m is the multiplicity of
    the weight n in V_m.  The engine side reads it from the cp1-dolbeault
    character at twist m (Borel-Weil: the sections of O(m) carry V_m),
    localized and expanded on the window of radius |n|; the oracle enumerates
    the weight string of V_m.  Each irreducible is one row of 2|n| + 1 cells;
    past MAX_BRANCHING_CELLS cells in all, OutOfRange before any row.
    """
    n = twist
    cells = (max_degree + 1) * (2 * abs(n) + 1)
    if cells > MAX_BRANCHING_CELLS:
        raise OutOfRange(f"cp1-l2 at twist {shown(n)} and max-degree {shown(max_degree)} "
                         f"would expand {shown(cells)} cells, more than {MAX_BRANCHING_CELLS}")
    m = load_builtin("cp1-dolbeault")
    table, bad = [], []
    for mm in range(max_degree + 1):
        cells = expand_to_degree(localize_index(_cp1_loci(m, mm), 1), abs(n))
        mult = cells[cell_index((n,), abs(n))]
        table.append({"irrep": mm, "multiplicity": mult})
        if mult != frobenius_multiplicity_oracle(n, mm):
            bad.append(mm)
    bad = bad[:10]
    results = [
        entry("frobenius-branching-oracle", not bad, None if not bad else
              {"irreps": bad, "computed": [table[mm]["multiplicity"] for mm in bad],
               "oracle": [frobenius_multiplicity_oracle(n, mm) for mm in bad]}),
        {"check": "zero-operator-formula-side", "status": "skipped-out-of-scope",
         "witness": "the distributional index of the zero operator on the full "
                    "group is reported through branching multiplicities only"},
    ]
    return results, None, {"case": "E0", "twist": n, "branching": table}


# ---------------------------------------------------------------------------
# Hopf fibration

def _even_coefficient(e, name, power):
    target = ((name, power),) if power else ()
    for t in e.terms:
        if t.delta is None and not t.odd_mono and t.even_mono == target:
            return t.coeff
    return Fraction(0)


def hopf_multiplicities(m, fid, isotypes):
    """{k: multiplicity} at each isotype k for the principal-connection frame
    fid of m.

    The multiplicity at k is vol * [Psi^h](Todd * exp(k c)) with c the
    curvature, h half the base dimension and Psi the one even generator that
    c is a multiple of, whatever the model names it (NotPrincipal when c is
    not one such term).  c is even and nilpotent, so
    exp(k c) = sum_j k^j c^j/j! is a finite sum, and pairing with Todd is
    linear: the multiplicity is the polynomial sum_j a_j k^j with
    a_j = vol * [Psi^h](Todd * c^j/j!).  The a_j are computed once and the
    polynomial is evaluated at each k, in order, in ints: scaled once by the
    lcm L of the a_j's denominators, with one divmod by L per isotype.
    """
    tw = m.base["tangentWeight"]
    vol = m.base["curvatureVolume"]
    half_dim = m.base["dimension"] // 2
    # Todd series 1 / sum_j (-x)^j/(j+1)! up to the base nilpotency order
    td_series = series_inverse(
        [Fraction((-1) ** j, factorial(j + 1)) for j in range(half_dim + 2)])
    td = chern_weil_pair(m, fid, {(j,): c * tw ** j for j, c in enumerate(td_series) if c})
    c = chern_weil_pair(m, fid, {(1,): 1})
    t = c.terms[0] if len(c.terms) == 1 else None
    if t is None or t.delta is not None or t.odd_mono or [e for _, e in t.even_mono] != [1]:
        raise NotPrincipal(f"frame {shown(fid)} has a curvature that is not one term "
                           "in one even generator")
    (name, _), = t.even_mono
    coeffs = [vol * _even_coefficient(multiply(td, piece, m), name, half_dim)
              for piece in graded_exp_pieces(c, m)]
    den = lcm(*(a.denominator for a in coeffs))
    scaled = [a.numerator * (den // a.denominator) for a in reversed(coeffs)]
    mults = {}
    for k in isotypes:
        mult = 0
        for b in scaled:
            mult = mult * k + b
        mults[k], rest = divmod(mult, den)
        if rest:
            raise NonIntegerCoefficients(
                f"orbifold multiplicity {Fraction(mult, den)} at isotype {k}")
    return mults


# the most isotypes that hopf evaluates.  Worst time at the cap (Python
# 3.11, 2-core Intel Xeon): --max-degree 99994, 0.18 s and 77 MB.  The
# golden and benchmark jobs reach degree 180.
MAX_HOPF_ISOTYPES = 100_000
_HOPF_LOW = -5


def _hopf(max_degree):
    """Locally free circle action on the total space of the circle bundle
    over the projective line.

    The curvature pairing turns each isotype k into the base index of the
    k-th power line bundle; multiplicities must match the monomial-count
    oracle (k + 1).  The curvature is even and nilpotent, so exp(k c) is a
    finite sum of k^j c^j/j! and each multiplicity is exactly a polynomial
    in k (see hopf_multiplicities): one Chern character per run serves every
    isotype in the window, -5..max_degree: past MAX_HOPF_ISOTYPES isotypes,
    OutOfRange before any work.
    """
    count = max_degree - _HOPF_LOW + 1
    if count > MAX_HOPF_ISOTYPES:
        raise OutOfRange(f"hopf at max-degree {shown(max_degree)} has {shown(count)} isotypes, "
                         f"more than {MAX_HOPF_ISOTYPES}")
    m = load_builtin("hopf")
    isotypes = range(_HOPF_LOW, max_degree + 1)
    coeffs = {(k,): v for k, v in hopf_multiplicities(m, "conn", isotypes).items()}
    oracle = {(k,): hrr_cp1_oracle(k) for k in isotypes}
    results = [_compared("orbifold-multiplicities", coeffs, oracle)]
    return results, _table(coeffs), {"window": [_HOPF_LOW, max_degree]}


# ---------------------------------------------------------------------------
# contact three-sphere

def _s3_contact(max_degree):
    """Two fixed circles of the two-torus action on the three-sphere; each
    contributes its lattice comb times one normal factor.  The expansion must
    equal the monomial-count oracle on the whole box (Atiyah, LNM 401).

    Each row of an oracle quadrant is one slice of the expand_box cells, and
    compares with a run of the quadrant's coefficient.  The quadrants hold
    every non-zero weight of the oracle, so the box matches when every row
    does and the cells hold no more non-zero values than the quadrants have
    weights.  The printed table is the window of radius min(3, max_degree),
    at most 49 cells read through cell_index from the box cells just
    compared: the window lies inside the box, so every printed number has
    been compared with the oracle.  The oracle is called once.  The dict of
    the whole box and the witness are built only on a mismatch."""
    m = load_builtin("s3-contact")
    results = []
    disp = taylor_expand_delta(j_form(m, "co"), "co", m)
    expected_disp = add(
        multiply(m.gen("alpha"), m.delta("co", (0,), ARG_MOMENT), m),
        product([m.gen("alpha"), m.gen("dalpha"), m.delta("co", (1,), ARG_MOMENT)], m),
        m)
    ok = disp == expected_disp
    results.append(entry("taylor-display-form", ok, None if ok else
                         nonzero_witness(add(disp, expected_disp.scaled(-1), m), m)))

    cells = expand_to_degree(localize_index(m.fixed_loci, 2), max_degree)
    quadrants = s3_contact_character_oracle(max_degree)
    ok, size = True, 0
    for (rows, cols), c in quadrants:
        run = [c] * len(cols)
        size += len(rows) * len(cols)
        for a in rows:
            k = cell_index((a, cols.start), max_degree)
            ok = ok and cells[k:k + len(cols)] == run
    ok = ok and len(cells) - cells.count(0) == size
    window = min(3, max_degree)
    span = range(-window, window + 1)
    printed = {w: c for w in iproduct(span, span) if (c := cells[cell_index(w, max_degree)])}
    results.append(entry("contact-box-oracle", ok, None if ok else _mismatch_witness(
        box_dict(cells, 2, max_degree), {w: c for rect, c in quadrants for w in iproduct(*rect)})))
    return results, _table(printed), {}


# ---------------------------------------------------------------------------
# dispatch

# each example's function and the run_pipeline arguments that it reads, by
# the names of its parameters
_EXAMPLES = {
    "torus-zero": (_torus_zero, ()),
    "cp1-dolbeault": (_cp1_dolbeault, ("twist", "max_degree")),
    "cp1-l2": (_cp1_l2, ("twist", "max_degree")),
    "hopf": (_hopf, ("max_degree",)),
    "s3-contact": (_s3_contact, ("max_degree",)),
}
EXAMPLES = tuple(_EXAMPLES)

_DEFAULTS = {"twist": 0, "max_degree": 20}


def run_pipeline(example, **arguments):
    """The index report of one example: its entries, character table and
    own keys in the report envelope, with the window as maxDegree when the
    example reads it.

    arguments holds those of "twist" and "max_degree" that are given; the
    example runs on the _DEFAULTS of the others that it reads.  Raises
    UnknownExample for a name not in EXAMPLES, and UsageError for a given
    argument that the example does not read, that is not an int (bool
    included), or a negative max_degree."""
    if example not in _EXAMPLES:
        raise UnknownExample(f"unknown example {shown(example)}; choose from {list(EXAMPLES)}")
    run, reads = _EXAMPLES[example]
    unread = [f"--{name.replace('_', '-')}" for name in arguments if name not in reads]
    if unread:
        raise UsageError(f"example {example!r} does not read {' or '.join(unread)}")
    for name, value in arguments.items():
        if type(value) is not int or (name == "max_degree" and value < 0):
            kind = "a nonnegative integer" if name == "max_degree" else "an integer"
            raise UsageError(f"--{name.replace('_', '-')} must be {kind}, got {shown(value)}")
    values = {name: arguments.get(name, _DEFAULTS[name]) for name in reads}
    results, characters, extra = run(**values)
    if "max_degree" in values:
        extra = dict(extra, maxDegree=values["max_degree"])
    return make_report("index", example, results, characters, extra)
