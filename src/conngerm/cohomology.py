"""Cohomology bookkeeping for rank-2 bundles on genus-1 curves.

Three layers of exact integer arithmetic:

* Riemann-Roch on a genus-1 curve for line bundles (chi = deg, Serre
  duality, and the special role of the trivial bundle at degree 0),
  extended to formal sums and extensions by dimension chases through
  long exact sequences.  Boundary ranks of connecting maps are inputs:
  they encode geometric facts (e.g. a Bockstein being an isomorphism)
  that are not computable from numerical data alone.

* Hypercohomology dimensions of a two-term complex C0 -> C1 from the
  dimensions of H^i(Cj) and the ranks of the induced maps d1 on H^0 and
  H^1, via the associated long exact sequence.

* The rank of the commutator map B -> AB - BA on a given subspace of
  2x2 matrices, by exact Gaussian elimination; this is the d1 that
  feeds the hypercohomology computation for concrete connections.

Plus the fiber-dimension formulas for the forgetful map from the moduli
space of connections to the moduli space of bundles, and the classical
existence criterion for holomorphic connections.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import mat2
from .poly import to_fraction


@dataclass(frozen=True)
class CohDims:
    h0: int
    h1: int

    @property
    def chi(self):
        return self.h0 - self.h1

    def __add__(self, other):
        return CohDims(self.h0 + other.h0, self.h1 + other.h1)


def rr_line(degree, trivial=False):
    """Cohomology of a line bundle on a genus-1 curve.

    deg > 0: (deg, 0); deg < 0: (0, -deg); deg = 0: (1, 1) for the
    trivial bundle, (0, 0) for a nontrivial degree-0 bundle.
    """
    if degree > 0:
        return CohDims(degree, 0)
    if degree < 0:
        return CohDims(0, -degree)
    return CohDims(1, 1) if trivial else CohDims(0, 0)


@dataclass(frozen=True)
class Leaf:
    degree: int
    trivial: bool = False


@dataclass(frozen=True)
class Extension:
    left: object
    right: object
    boundary_rank: int


@dataclass(frozen=True)
class Sum:
    parts: tuple

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))


def chase(descriptor):
    """Dimension chase through a descriptor tree.

    Leaf -> rr_line.  Sum -> componentwise sum.  Extension(L, R, b):
    the long exact sequence of 0 -> L -> ? -> R -> 0 with connecting
    map of rank b gives h0 = h0(L) + h0(R) - b, h1 = h1(L) + h1(R) - b.
    Euler characteristics add regardless of b.
    """
    if isinstance(descriptor, Leaf):
        return rr_line(descriptor.degree, descriptor.trivial)
    if isinstance(descriptor, Sum):
        return sum(map(chase, descriptor.parts), CohDims(0, 0))
    if isinstance(descriptor, Extension):
        left = chase(descriptor.left)
        right = chase(descriptor.right)
        b = descriptor.boundary_rank
        if not 0 <= b <= min(right.h0, left.h1):
            raise ValueError(
                f"boundary rank {b} exceeds min(h0(right), h1(left)) = "
                f"{min(right.h0, left.h1)}"
            )
        return CohDims(left.h0 + right.h0 - b, left.h1 + right.h1 - b)
    raise TypeError(f"not a descriptor: {descriptor!r}")


@dataclass(frozen=True)
class HyperCohInput:
    """Dimensions feeding the two-term hypercohomology sequence.

    h00, h01: dims of H^0, H^1 of the degree-0 term; h10, h11: the same
    for the degree-1 term; r0, r1: ranks of the induced d1 on H^0 and H^1.
    """

    h00: int
    h01: int
    h10: int
    h11: int
    r0: int
    r1: int

    def __post_init__(self):
        for name in ("h00", "h01", "h10", "h11", "r0", "r1"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer")
        if self.r0 > min(self.h00, self.h10):
            raise ValueError("r0 exceeds min(h00, h10)")
        if self.r1 > min(self.h01, self.h11):
            raise ValueError("r1 exceeds min(h01, h11)")


def hypercoh_dims(inp):
    """(H0, H1, H2) of the two-term complex from the long exact sequence:

    H0 = ker d1 on H^0;  H1 = coker d1 on H^0 plus ker d1 on H^1;
    H2 = coker d1 on H^1.
    """
    h0 = inp.h00 - inp.r0
    h1 = (inp.h10 - inp.r0) + (inp.h01 - inp.r1)
    h2 = inp.h11 - inp.r1
    if h0 < 0 or h1 < 0 or h2 < 0:
        raise ValueError("inconsistent input: negative dimension")
    return (h0, h1, h2)


# -- commutator ranks ----------------------------------------------------


M2_BASIS = (
    ((1, 0), (0, 0)),
    ((0, 1), (0, 0)),
    ((0, 0), (1, 0)),
    ((0, 0), (0, 1)),
)

UPPER_TRIANGULAR_BASIS = (
    ((1, 0), (0, 0)),
    ((0, 1), (0, 0)),
    ((0, 0), (0, 1)),
)


def rank_exact(rows):
    """Rank of a matrix given as a list of rows of Fractions, by
    fraction-free-enough Gaussian elimination (exact pivots)."""
    m = [list(map(to_fraction, row)) for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def d1_rank(a, domain=M2_BASIS):
    """Rank of B -> AB - BA on the span of the domain basis.

    a: 2x2 matrix of rationals; domain: basis of a subspace of 2x2
    matrices (defaults to all of M2).
    """
    a = mat2.map_entries(to_fraction, a)
    if rank_exact([mat2.entries(b) for b in domain]) < len(domain):
        raise ValueError("domain basis is linearly dependent")
    return rank_exact([mat2.entries(mat2.commutator(a, b)) for b in domain])


# -- moduli-space formulas ----------------------------------------------


def fiber_dimension(r, g, deg_d):
    """Dimension of the fiber of the forgetful map (connections -> bundles)
    over a stable bundle: r^2*(g-1) + 1 for an empty divisor, and
    r^2*(g-1+deg D) for deg D > 0."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    if deg_d < 0:
        raise ValueError("divisor degree must be >= 0")
    if g < 1:
        raise ValueError("genus 0 is outside the structure theorem's hypotheses")
    if deg_d == 0:
        return r * r * (g - 1) + 1
    return r * r * (g - 1 + deg_d)


def connection_exists(r, d, deg_d, semistable):
    """Existence of a compatible connection with poles on a divisor of
    degree deg_d: always for deg_d > 0; for an empty divisor exactly the
    degree-0 semistable bundles carry holomorphic connections."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    if deg_d < 0:
        raise ValueError("divisor degree must be >= 0")
    if deg_d > 0:
        return True
    return d == 0 and bool(semistable)
