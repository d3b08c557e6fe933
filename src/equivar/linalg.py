"""Small exact linear algebra over rational matrices, and the seeded frame
changes behind verify's frame-independence trials.

Matrices are tuples of row tuples with int or Fraction entries.  Sizes stay
tiny (frame ranks, parameter counts and step sets).  One loop, _bareiss,
does every elimination.  It runs fraction-free Bareiss elimination on rows
of Python ints (Bareiss, Math. Comp. 22, 1968), so every intermediate entry
is a minor of its input, each division is exact and no Fraction is built
inside the loop, and returns the rank and the last pivot with the sign of
the row swaps, which is the determinant when the rows are square of full
rank.  _integer_rows feeds it a rational matrix: each row times the lcm of
its denominators, with the product of those row scales, which det divides
out.  Fractions appear only at the boundary: det returns one, rank an int.
inverse is the matrix of cofactors over det, each cofactor a det of its
minor; it runs only for derivative deltas.

random_gl_plus draws the frame changes, integer matrices with entries
uniform on -3..3, and eliminates the integer rows it drew directly, with no
denominators to clear.  It remembers the matrix it returns with its
determinant as a Fraction, negated or not; det reads that memo before it
eliminates, and writes none.  So a frame trial, which asks for the
determinant of its matrix again after the draw, runs the elimination once,
and delta_linear_substitute gets an exact 1/det.  No function here needs
its input converted first.
"""

from fractions import Fraction
from math import lcm


def _integer_rows(a):
    """(integer rows, product of the row scales): row i of a times the lcm
    of its denominators."""
    rows, scale = [], 1
    for row in a:
        den = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return rows, scale


def _bareiss(rows):
    """(rank, signed last pivot) of the integer rows, by Bareiss elimination.
    The list rows is reordered and its rows replaced; no row is changed in
    place.  When the rows are square of full rank, the signed last pivot is
    their determinant.  A row operation runs only on the columns right of
    its pivot, the only ones read again, so the rows from rows[r] on hold
    the columns from `first` on."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    r, sign, prev, first = 0, 1, 1, 0
    for col in range(nc):
        j = col - first
        for piv in range(r, nr):
            if rows[piv][j]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pr = rows[r]
        p = pr[j]
        right = pr[j + 1:]
        for i in range(r + 1, nr):
            row = rows[i]
            f = row[j]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row[j + 1:], right)]
        prev = p
        r += 1
        first = col + 1
        if r == nr:
            break
    return r, sign * prev


def rank(a):
    return _bareiss(_integer_rows(a)[0])[0]


# (matrix, det) of the last matrix random_gl_plus returned (see the module
# docstring).  Keyed by identity: hashing a matrix runs a Python-level
# Fraction.__hash__ per Fraction entry, which costs more than it saves, and a
# tuple of tuples of numbers cannot change.
_last_det = (None, None)


def det(a):
    """det a, as a Fraction: the memo when a is the matrix random_gl_plus
    last returned, else the determinant of a's integer rows over the product
    of the row scales."""
    last, d = _last_det
    if a is last:
        return d
    rows, scale = _integer_rows(a)
    r, pivot = _bareiss(rows)
    return Fraction(pivot, scale) if r == len(a) else Fraction(0)


def inverse(a):
    """Entry (i, j) is (-1)^(i+j) det(a without row j and column i) / det a.
    Each minor is a new list, so it never hits det's memo.  Raises
    ZeroDivisionError when a is singular."""
    d = det(a)
    if not d:
        raise ZeroDivisionError("singular matrix")
    n = len(a)
    return tuple(tuple((-1) ** (i + j) / d * det([r[:i] + r[i + 1:] for r in a[:j] + a[j + 1:]])
                       for j in range(n)) for i in range(n))


def _frame_draw(rng, k):
    """The k x k matrix of k^2 rng.randint(-3, 3) draws, row by row.  Each
    draw is randrange(7), which CPython makes as getrandbits(3), the top 3
    bits of one 32-bit word, until the value is below 7.  getrandbits(32 w)
    gives the next w words, lowest first, so one call per pass draws a word
    for every entry still missing and a rejected 7 costs only its word: the
    same stream, word for word, as the k^2 randint calls."""
    n = k * k
    entries = []
    while len(entries) < n:
        w = n - len(entries)
        top = rng.getrandbits(32 * w).to_bytes(4 * w, "little")[3::4]
        entries += [(b >> 5) - 3 for b in top if b < 0xe0]
    return tuple(tuple(entries[i * k:i * k + k]) for i in range(k))


def random_gl_plus(rng, k):
    """Random k x k integer matrix with positive determinant, entries
    uniform on -3..3.  A draw with det < 0 is returned with its first row
    negated.  det remembers the returned matrix."""
    global _last_det
    while True:
        a = _frame_draw(rng, k)
        r, d = _bareiss(list(a))
        if r < k:
            continue
        if d < 0:
            a, d = (tuple(-x for x in a[0]),) + a[1:], -d
        _last_det = (a, Fraction(d))
        return a
