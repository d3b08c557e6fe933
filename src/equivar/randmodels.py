"""Seeded random frame changes: the draws behind verify's frame-independence
trials."""

from fractions import Fraction

from . import linalg


# the non-integral values of Fraction(randint(-3, 3), choice((1, 1, 2))), built once
_HALVES = {n: Fraction(n, 2) for n in (-3, -1, 1, 3)}


def _frame_entry(rng):
    """The draw of Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))), as an
    int when integral and else as a shared Fraction.  randint(-3, 3) and
    choice((1, 1, 2)) are randrange(7) and randrange(3), which CPython draws
    as getrandbits(3) until the value is below 7 and getrandbits(2) until it
    is below 3; the loops below make the same draws and give the same values,
    through fewer calls."""
    getrandbits = rng.getrandbits
    n = getrandbits(3)
    while n == 7:
        n = getrandbits(3)
    s = getrandbits(2)
    while s == 3:
        s = getrandbits(2)
    n -= 3
    if s < 2:
        return n
    return _HALVES.get(n, n // 2)


def random_gl_plus(rng, k):
    """Random k x k rational matrix with positive determinant; an entry is
    an int when it is integral."""
    if k == 0:
        return ()
    while True:
        a = tuple(tuple(_frame_entry(rng) for _ in range(k)) for _ in range(k))
        d = linalg.det(a)
        if d > 0:
            return a
        if d < 0:
            return linalg.negate_first_row(a)
