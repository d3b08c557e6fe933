"""Symbolic equivariant differential forms with delta-distribution
coefficients, and exact equivariant index pipelines over torus actions.

The core objects are finitely presented graded-commutative algebras
(FormalModel) whose elements may carry one delta-derivative factor evaluated
on the closed arguments of a co-orientation frame.  The canonical closed
form of a frame, its verification (closedness, frame independence, the
Fourier fibre-integral identity), and fixed-point index evaluation against
independent representation-theoretic oracles are all exact over the
rationals.
"""

# perfbench/tests/test_bench_spans.py reads the traced add as equivar.add
from .superalg import add  # noqa: F401

__version__ = "0.1.0"
