"""conngerm: exact local models for germs of connection moduli.

Exact-arithmetic building blocks (multivariate polynomials, Groebner
bases, truncated Laurent series) supporting local computations around a
degenerate connection: quadratic obstruction maps and their invariant
quotients, cohomological dimension counts, stability verdicts, rewriting
in rings of one-variable differential operators, and order-by-order
verification that a deformation family glues.
"""

__version__ = "0.1.0"
