"""Small exact linear algebra over Fraction matrices.

Matrices are tuples of row tuples.  Sizes stay tiny (frame ranks and
parameter counts), so plain Gaussian elimination is enough.
"""

from fractions import Fraction


def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def rank(a):
    rows = [list(r) for r in a]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        for i in range(nr):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        r += 1
        if r == nr:
            break
    return r


def det(a):
    n = len(a)
    if n == 0:
        return Fraction(1)
    rows = [list(r) for r in a]
    sign = 1
    d = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        d *= rows[col][col]
        pr = rows[col]
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
    return sign * d


def inverse(a):
    n = len(a)
    rows = [list(r) + [Fraction(1 if i == j else 0) for j in range(n)] for i, r in enumerate(a)]
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
