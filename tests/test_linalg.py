"""Fraction-free det and rank against plain Fraction Gaussian elimination,
and the cofactor inverse against Gauss-Jordan elimination."""

import random
from fractions import Fraction

import pytest

from equivar import linalg
from equivar.linalg import _frame_draw, random_gl_plus


def _reference_rank(a):
    rows = [[Fraction(x) for x in r] for r in a]
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


def _reference_det(a):
    n = len(a)
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(x) for x in r] for r in a]
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


def _random_matrix(rng, nr, nc, seen):
    """Entries in [-5, 5] over denominators 1, 2, 3 (or plain ints), with
    zero rows and columns and duplicated rows mixed in."""
    as_int = rng.random() < 0.25
    dens = (1,) if as_int else rng.choice(((1,), (1, 2), (1, 2, 3), (3,)))
    rows = [[rng.randint(-5, 5) if as_int else Fraction(rng.randint(-5, 5), rng.choice(dens))
             for _ in range(nc)] for _ in range(nr)]
    if nr > 1 and rng.random() < 0.2:
        i, j = rng.sample(range(nr), 2)
        rows[i] = list(rows[j])
        seen["duplicate"] += 1
    if rng.random() < 0.15:
        rows[rng.randrange(nr)] = [0] * nc if as_int else [Fraction(0)] * nc
        seen["zero-row"] += 1
    if rng.random() < 0.15:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = 0 if as_int else Fraction(0)
        seen["zero-column"] += 1
    entries = [x for row in rows for x in row]
    seen["int"] += as_int
    seen["negative"] += any(x < 0 for x in entries)
    for d in (1, 2, 3):
        seen[f"den{d}"] += any(Fraction(x).denominator == d for x in entries)
    return tuple(tuple(row) for row in rows)


def test_det_and_rank_match_fraction_reference():
    rng = random.Random(7)
    seen = dict.fromkeys(("duplicate", "zero-row", "zero-column", "int", "negative",
                          "den1", "den2", "den3", "non-square", "deficient",
                          "singular"), 0)
    sizes = set()
    for _ in range(1200):
        n = rng.randint(1, 6)
        sq = _random_matrix(rng, n, n, seen)
        d = linalg.det(sq)
        assert type(d) is Fraction and d == _reference_det(sq), sq
        r = linalg.rank(sq)
        assert type(r) is int and r == _reference_rank(sq), sq
        seen["singular"] += d == 0
        seen["deficient"] += r < n
        sizes.add(n)
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        seen["non-square"] += nr != nc
        rect = _random_matrix(rng, nr, nc, seen)
        assert linalg.rank(rect) == _reference_rank(rect), rect
    assert sizes == set(range(1, 7))
    assert all(seen.values()), seen


def _reference_pivots(a):
    """(rank, signed product of the pivots) of Fraction Gaussian elimination
    that takes the first non-zero entry at or below the pivot row, as
    _bareiss does: the product of the first i Gaussian pivots is Bareiss'
    i-th pivot."""
    rows = [[Fraction(x) for x in r] for r in a]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    r, sign, prod = 0, 1, Fraction(1)
    for col in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pr = rows[r]
        prod *= pr[col]
        for i in range(r + 1, nr):
            f = rows[i][col] / pr[col]
            rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        r += 1
        if r == nr:
            break
    return r, sign * prod


def test_bareiss_matches_fraction_gauss_on_int_rows():
    """Rank and signed last pivot of _bareiss, which eliminates only the
    columns right of each pivot, against the Fraction reference on random
    rectangular int matrices, zero columns and rows included."""
    rng = random.Random(19)
    seen = dict.fromkeys(("wide", "tall", "square", "zero-column", "zero-row", "deficient",
                          "swapped", "negative-pivot"), 0)
    for _ in range(2400):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        for j in range(nc):
            if rng.random() < 0.15:
                for row in rows:
                    row[j] = 0
        if rng.random() < 0.1:
            rows[rng.randrange(nr)] = [0] * nc
        a = tuple(map(tuple, rows))
        got = linalg._bareiss([list(row) for row in a])
        want = _reference_pivots(a)
        assert got == want and type(got[1]) is int, a
        seen["wide" if nc > nr else "tall" if nr > nc else "square"] += 1
        seen["zero-column"] += any(not any(row[j] for row in a) for j in range(nc))
        seen["zero-row"] += any(not any(row) for row in a)
        seen["deficient"] += got[0] < min(nr, nc)
        first = next((j for j in range(nc) if any(row[j] for row in a)), None)
        seen["swapped"] += first is not None and not a[0][first]
        seen["negative-pivot"] += got[1] < 0
    assert all(seen.values()), seen


def test_det_and_rank_edge_shapes():
    assert linalg.det(()) == 1 and linalg.rank(()) == 0
    assert linalg.det(((0,),)) == 0 and linalg.rank(((0, 0, 0),)) == 0
    assert linalg.det(((Fraction(-2, 3),),)) == Fraction(-2, 3)
    assert linalg.rank(((1, 2), (2, 4), (3, 6))) == 1
    # wide: the loop stops once every row holds a pivot
    assert linalg.rank(((0, 0, 1, 5), (0, 2, 7, 1))) == 2
    assert linalg.rank(((0, 0, 0, 3), (0, 0, 0, -6))) == 1
    # tall: more rows than columns, a pivot found below a zero row
    assert linalg.rank(((0, 0), (0, 0), (0, 4), (Fraction(1, 2), 1))) == 2
    assert linalg.rank(((1,), (2,), (Fraction(-1, 3),))) == 1
    # rank-deficient squares: det is zero whether the elimination runs out
    # of pivots in an early column or only in the last one
    for a in (((0, 1, 2), (0, 3, 4), (0, 5, 6)),
              ((1, 2, 3), (2, 4, 6), (1, 0, 1)),
              ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
              ((Fraction(1, 2), 1), (Fraction(1, 3), Fraction(2, 3)))):
        assert linalg.det(a) == 0 and linalg.rank(a) == len(a) - 1, a
    # each row swap flips the sign
    assert linalg.det(((0, 1), (1, 0))) == -1
    assert linalg.det(((1, 0, 0), (0, 0, 1), (0, 1, 0))) == -1


def _reference_gl_plus(rng, k):
    """random_gl_plus built on randint and the Fraction reference det."""
    if k == 0:
        return ()
    while True:
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(k))
        d = _reference_det(a)
        if d > 0:
            return a
        if d < 0:
            return (tuple(-x for x in a[0]),) + a[1:]


def test_random_gl_plus_draws_unchanged():
    for s in range(51):
        for k in range(7):
            rng, ref = random.Random(s), random.Random(s)
            for _ in range(3):
                assert random_gl_plus(rng, k) == _reference_gl_plus(ref, k), (s, k)
            assert rng.random() == ref.random(), (s, k)


def test_frame_entries_match_randint_on_the_same_stream():
    # _frame_draw takes whole getrandbits words, the reference k^2 randint
    # calls: the same int entries, every one of -3..3, and the same generator
    # state afterwards
    seen = set()
    for s in range(200):
        rng, ref = random.Random(s), random.Random(s)
        for k in (0, 1, 2, 3, 4, 5, 6, 4, 6, 1):
            got = _frame_draw(rng, k)
            want = tuple(tuple(ref.randint(-3, 3) for _ in range(k)) for _ in range(k))
            assert got == want and all(type(x) is int for row in got for x in row), (s, k)
            seen.update(x for row in got for x in row)
        assert rng.getstate() == ref.getstate(), s
    assert seen == set(range(-3, 4))


def test_negated_draw_keeps_the_det_memo(monkeypatch):
    runs = []
    real_bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda rows: runs.append(tuple(rows))
                        or real_bareiss(rows))
    rng = random.Random(5)
    while True:
        runs.clear()
        b = random_gl_plus(rng, 2)
        a = runs[-1]
        if a != b:
            break
    # the draw a had det < 0 and came back with its first row negated
    assert b == (tuple(-x for x in a[0]),) + a[1:]
    d = _reference_det(b)
    assert d > 0 and len(runs) == 1
    assert linalg.det(b) == d and len(runs) == 1
    # a matrix det does not remember gets no entry, and leaves the memo alone
    c = (b[0],) + b[1:]
    assert linalg.det(c) == d and len(runs) == 2
    assert linalg.det(a) == -d and len(runs) == 3
    assert linalg.det(b) == d and len(runs) == 3


def _reference_inverse(a):
    """Gauss-Jordan elimination over Fraction on the augmented matrix."""
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


def test_inverse_matches_gauss_jordan_reference():
    rng = random.Random(31)
    seen = dict.fromkeys(("duplicate", "zero-row", "zero-column", "int", "negative",
                          "den1", "den2", "den3", "singular"), 0)
    inverted = set()
    for _ in range(400):
        k = rng.randint(0, 6)
        a = _random_matrix(rng, k, k, seen) if k else ()
        if _reference_det(a) == 0:
            seen["singular"] += 1
            with pytest.raises(ZeroDivisionError):
                linalg.inverse(a)
            continue
        b = linalg.inverse(a)
        assert b == _reference_inverse(a), a
        assert all(type(x) is Fraction for row in b for x in row), a
        inverted.add(k)
    assert inverted == set(range(7))
    assert all(seen.values()), seen


def test_inverse_takes_int_and_fraction_entries():
    half = Fraction(1, 2)
    for a in (((half, 2), (-3, 4)), [[half, Fraction(2)], [Fraction(-3), 4]]):
        assert linalg.inverse(a) == ((half, Fraction(-1, 4)), (Fraction(3, 8), Fraction(1, 16)))


def test_det_remembers_only_matrices_of_tuple_rows():
    a = ((1, 2), (3, 4))
    assert linalg.det(a) == -2 and linalg.det(a) == -2
    for rows in ([[1, 2], [3, 4]], ([1, 2], [3, 4])):
        assert linalg.det(rows) == -2
        rows[0][0] = 5
        assert linalg.det(rows) == 14
