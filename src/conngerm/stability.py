"""Hilbert-polynomial stability calculus for sheaves on polarized curves.

A coherent sheaf of rank r and degree d on a smooth projective curve of
genus g with a polarization of degree h has Hilbert polynomial

    P(m) = r*h*m + d + r*(1 - g),

a degree-1 polynomial recorded in the alpha-normalization
P(m) = sum_i alpha_i m^i / i!.  Stability is decided by comparing
reduced Hilbert polynomials (divide by the leading alpha) under the
eventual "for m >> 0" order, which on polynomials is lexicographic
comparison of coefficients from the top degree down.  Slope stability
compares mu = d/r directly.

Sub-objects are caller-supplied: the library never enumerates subsheaves.
Verdicts are therefore always relative to the supplied test family, and
the comparison deliberately includes every supplied proper sub-object so
that the implication chain

    mu-stable => stable => semistable => mu-semistable

holds uniformly on arbitrary input families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .poly import _signed_sum, to_fraction

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class HilbertPoly:
    """P(m) = sum alphas[i] * m^i / i!, exact rational alphas.

    Trailing zero alphas are trimmed; the zero polynomial has alphas ().
    For a nonzero sheaf the leading alpha (the multiplicity) is positive.
    """

    alphas: tuple

    def __init__(self, alphas):
        alphas = [to_fraction(a) for a in alphas]
        while alphas and not alphas[-1]:
            alphas.pop()
        object.__setattr__(self, "alphas", tuple(alphas))

    def __bool__(self):
        return bool(self.alphas)

    def _coeffs(self):
        """(i, alphas[i] / i!) for each degree i: the coefficient of m^i."""
        return [(i, a / factorial(i)) for i, a in enumerate(self.alphas)]

    def evaluate(self, m):
        m = to_fraction(m)
        return sum((c * m**i for i, c in self._coeffs()), Fraction(0))

    def __str__(self):
        return _signed_sum(
            (c, [f"m^{i}" if i > 1 else "m"] if i else [])
            for i, c in reversed(self._coeffs()) if c
        )


def hilbert_poly_curve(rank, degree, g, h):
    """Hilbert polynomial of a rank/degree sheaf on a genus-g curve
    polarized in degree h: P(m) = r*h*m + d + r*(1-g)."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if h < 1:
        raise ValueError("polarization degree must be >= 1")
    if g < 0:
        raise ValueError("genus must be >= 0")
    return HilbertPoly([to_fraction(degree) + rank * (1 - g), Fraction(rank * h)])


def reduced_poly(p):
    """Divide by the leading alpha so the top coefficient becomes 1."""
    if not p:
        raise ValueError("cannot reduce the zero polynomial")
    lead = p.alphas[-1]
    return HilbertPoly([a / lead for a in p.alphas])


def _cmp_fr(a, b):
    return LT if a < b else GT if a > b else EQ


def lex_compare(f, g):
    """Eventual comparison f(m) vs g(m) for m >> 0: lexicographic on
    alpha coefficients from the highest degree down, which is tuple order
    on the reversed alphas padded to one length.  Returns LT/EQ/GT."""
    n = max(len(f.alphas), len(g.alphas))
    fa, ga = ((0,) * (n - len(p.alphas)) + p.alphas[::-1] for p in (f, g))
    return _cmp_fr(fa, ga)


@dataclass(frozen=True)
class SheafNumerics:
    """Numerical data of a sheaf on a polarized curve."""

    rank: int
    degree: Fraction
    genus: int
    h: int

    def __post_init__(self):
        object.__setattr__(self, "degree", to_fraction(self.degree))
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    @property
    def slope(self):
        return self.degree / self.rank

    def hilbert_poly(self):
        return hilbert_poly_curve(self.rank, self.degree, self.genus, self.h)


@dataclass(frozen=True)
class StabilityVerdict:
    """Paired verdicts: Hilbert-polynomial based and slope based.

    Each verdict is one of "stable", "strictly-semistable", "semistable",
    "unstable".  The bare "semistable" only occurs for an empty sub-object
    list, flagged by ``vacuous`` (nothing was actually compared).  The
    witness is the index of the first violating (unstable) or equalizing
    (strictly-semistable) sub-object.
    """

    hilbert: str
    hilbert_witness: int | None
    slope: str
    slope_witness: int | None
    vacuous: bool


def _classify(comparisons):
    """comparisons: list of LT/EQ/GT of sub vs ambient."""
    for verdict, c in (("unstable", GT), ("strictly-semistable", EQ)):
        if c in comparisons:
            return verdict, comparisons.index(c)
    return "stable", None


def stability_verdict(ambient, subobjects):
    """Classify ambient against the supplied proper sub-objects.

    ambient and each sub-object: SheafNumerics (the Hilbert polynomial
    is derived from it).  An empty list yields the vacuous "semistable"
    verdict: no comparison was available, so strictness is unknown.
    """
    for f in subobjects:
        if not 0 < f.rank <= ambient.rank:
            raise ValueError("sub-object rank out of range")
    if not subobjects:
        return StabilityVerdict("semistable", None, "semistable", None, True)
    p_e = reduced_poly(ambient.hilbert_poly())
    hil = [lex_compare(reduced_poly(f.hilbert_poly()), p_e) for f in subobjects]
    slo = [_cmp_fr(f.slope, ambient.slope) for f in subobjects]
    hv, hw = _classify(hil)
    sv, sw = _classify(slo)
    return StabilityVerdict(hv, hw, sv, sw, False)


@dataclass(frozen=True)
class ChainReport:
    """Flags for the stability implication chain on the supplied data."""

    mu_stable: bool
    stable: bool
    semistable: bool
    mu_semistable: bool
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def implication_chain_check(ambient, subobjects):
    """Evaluate mu-stable => stable => semistable => mu-semistable.

    The four flags are computed independently from the comparisons; any
    broken implication is reported as a violation (an internal
    inconsistency: on curve data with a common polarization the chain
    must hold).
    """
    verdict = stability_verdict(ambient, subobjects)
    mu_st = verdict.slope == "stable"
    st = verdict.hilbert == "stable"
    ss = verdict.hilbert in ("stable", "strictly-semistable", "semistable")
    mu_ss = verdict.slope in ("stable", "strictly-semistable", "semistable")
    violations = []
    if mu_st and not st:
        violations.append("mu-stable but not stable")
    if st and not ss:
        violations.append("stable but not semistable")
    if ss and not mu_ss:
        violations.append("semistable but not mu-semistable")
    return ChainReport(mu_st, st, ss, mu_ss, tuple(violations))
