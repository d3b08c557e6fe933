"""Representation-theoretic oracles for the index examples.

Every oracle works by direct weight enumeration (monomial bases, branching
counts) and imports nothing from the package: no localization, expansion or
form algebra can reach it, so an entry that compares the engine with an
oracle compares two independent computations.  The module may import only
from fractions, itertools and math, and only characters imports it
(tests/test_no_dead_code.py guards both).
"""


def cp1_sheaf_character_oracle(n):
    """Virtual torus character of the degree-n line bundle cohomology on the
    projective line, by monomial enumeration.

    Sections: x^a y^b with a, b >= 0, a + b = n, torus weight a - b.  First
    cohomology (two-chart cover): x^a y^b with a, b <= -1, a + b = n.  With
    b = n - a, the first range is a = 0..n and the second a = n+1..-1; at most
    one of them is non-empty.
    """
    sections = {(a - (n - a),): 1 for a in range(0, n + 1)}
    first = {(a - (n - a),): -1 for a in range(n + 1, 0)}
    return sections | first


def hrr_cp1_oracle(n):
    """Euler characteristic of the degree-n line bundle on the projective
    line, by the same monomial counts (comes out to n + 1): the sections
    a = 0..n less the first cohomology a = n+1..-1."""
    return len(range(0, n + 1)) - len(range(n + 1, 0))


def frobenius_multiplicity_oracle(n, m):
    """Multiplicity of the torus weight n in the highest-weight-m irreducible,
    by enumerating the weight string m, m-2, .., -m (none for m < 0)."""
    return sum(1 for i in range(m + 1) if m - 2 * i == n)


def s3_contact_character_oracle(radius):
    """Torus character of the tangential Cauchy-Riemann complex of the
    three-sphere on the box |a|, |b| <= radius, by monomial enumeration, one
    quadrant at a time: ((range of a, range of b), coefficient) pairs, the
    quadrant being the rectangle of those ranges, +1 for each CR monomial
    z1^a z2^b (a, b >= 0) and -1 for each monomial of the first cohomology
    (a, b <= -1).  Every other weight of the box, on the mixed cones, has
    coefficient 0."""
    pos, neg = range(radius + 1), range(-radius, 0)
    return (((pos, pos), 1), ((neg, neg), -1))


def l2_torus_oracle(w):
    """Multiplicity of any character in the regular representation of a torus."""
    return 1
