"""Small exact linear algebra over rational matrices.

Matrices are tuples of row tuples with int or Fraction entries.  Sizes stay
tiny (frame ranks and parameter counts).  det and rank clear denominators
row by row (each row times the lcm of its denominators) and run fraction-free
Bareiss elimination on Python ints (Bareiss, Math. Comp. 22, 1968): every
intermediate entry is a minor of the scaled matrix, so each division is
exact and no Fraction is built inside the loops.  Fractions appear only at
the boundary: det returns one, rank returns an int.  inverse stays
Gauss-Jordan over Fraction; it runs only for derivative deltas, and it
converts its own input, since it divides.  det remembers its result for the
last matrix it was given as a tuple of tuples, so a frame trial, which needs
the determinant of its matrix twice, runs the elimination once.
negate_first_row hands that memo on to the negated copy of the matrix, with
the negated determinant, so a draw turned from det < 0 to det > 0 by a sign
flip runs no second elimination either.

No function here needs its input converted first.  Frame changes stay int
where integral, and the frame trial in jform clears their denominators
itself.
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


def rank(a):
    rows, _ = _integer_rows(a)
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    r, prev = 0, 1
    for col in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        p = pr[col]
        for i in range(r + 1, nr):
            row = rows[i]
            f = row[col]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pr)]
        prev = p
        r += 1
        if r == nr:
            break
    return r


# (matrix, det) of the last matrix of tuple rows given to det (see the module
# docstring).  Keyed by identity: hashing a matrix runs a Python-level
# Fraction.__hash__ per Fraction entry, which costs more than it saves, and a
# tuple of tuples of numbers cannot change.
_last_det = (None, None)


def det(a):
    global _last_det
    last, d = _last_det
    if a is last:
        return d
    d = _bareiss_det(a)
    if a.__class__ is tuple and all(row.__class__ is tuple for row in a):
        _last_det = (a, d)
    return d


def negate_first_row(a):
    """a, a tuple of row tuples, with its first row negated.  When a is the
    matrix det remembers, the copy takes its place with minus its det."""
    global _last_det
    b = (tuple(-x for x in a[0]),) + a[1:]
    last, d = _last_det
    if a is last:
        _last_det = (b, -d)
    return b


def _bareiss_det(a):
    n = len(a)
    if n == 0:
        return Fraction(1)
    rows, scale = _integer_rows(a)
    sign, prev = 1, 1
    for col in range(n - 1):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pr = rows[col]
        p = pr[col]
        for i in range(col + 1, n):
            row = rows[i]
            f = row[col]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pr)]
        prev = p
    return Fraction(sign * rows[n - 1][n - 1], scale)


def inverse(a):
    n = len(a)
    rows = [[Fraction(x) for x in r] + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, r in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        rows[col], rows[piv] = rows[piv], rows[col]
        pr = rows[col]
        f = pr[col]
        rows[col] = [x / f for x in pr]
        pr = rows[col]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                g = rows[i][col]
                rows[i] = [x - g * y for x, y in zip(rows[i], pr)]
    return tuple(tuple(r[n:]) for r in rows)
