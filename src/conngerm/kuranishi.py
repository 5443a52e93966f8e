"""Quadratic obstruction of a rank-2 local moduli germ, and its quotient.

The germ is coordinatized by a pair of 2x2 matrices

    T = [[x0 + x, x12], [x21, x0 - x]],   Y = [[y0 + y, y12], [y21, y0 - y]]

(x0, y0 are the trace parts; the six remaining coordinates are the
traceless parts).  The quadratic obstruction is the commutator [T, Y],
whose entries are the three quadrics

    q1 = x12*y21 - x21*y12,  q2 = 2*x*y12 - 2*x12*y,  q3 = 2*x21*y - 2*y21*x

arranged as [[q1, q2], [q3, -q1]]; the trace parts drop out.  The zero
locus of (q1, q2, q3) is the cone of proportional pairs of traceless
matrices (the affine cone over a Segre embedding of P2 x P1), of
dimension 4 -- evidenced here by exact point counts p^4 + p^3 - p over
small prime fields.

The adjoint quotient is captured by the invariants

    z = Tr(T0*Y0),  z1 = Tr(T0^2),  z2 = Tr(Y0^2)

(traceless parts), which satisfy z^2 - z1*z2 = q1^2 + q2*q3: on the
zero locus the image is the quadric cone z^2 = z1*z2.  The fiber of the
invariant map over (z1, z2) with z1*z2 != 0 holds exactly two closed
orbits of commuting pairs, distinguished by the sign of z; one orbit
otherwise.  Restricting the cone relation modulo z2 leaves z^2: the
degenerate fiber is a double plane, multiplicity 2.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import mat2
from .poly import (MonomialOrder, MPoly, buchberger, int_from_text, normal_form,
                   to_coeff, to_fraction)

COORDS = ("x0", "x", "x12", "x21", "y0", "y", "y12", "y21")
DEFAULT_ORDER = MonomialOrder("degrevlex", COORDS)
LEX_ORDER = MonomialOrder("lex", COORDS)

ENUM_BUDGET_ENV = "CONNGERM_ENUM_BUDGET"
_MAX_PRIME = 13

HALF = Fraction(1, 2)


def _gen(name):
    return MPoly.gen(COORDS, name)


@dataclass(frozen=True)
class MatPair:
    """A pair of 2x2 matrices; entries are MPoly or Fraction values."""

    T: tuple
    Y: tuple

    @classmethod
    def from_coords(cls, x0=0, x=0, x12=0, x21=0, y0=0, y=0, y12=0, y21=0):
        """The pair at the given coordinates, rationals or polynomials."""
        f = to_coeff
        return cls(
            mat2.mat(f(x0) + f(x), f(x12), f(x21), f(x0) - f(x)),
            mat2.mat(f(y0) + f(y), f(y12), f(y21), f(y0) - f(y)),
        )

    def traceless_coords(self):
        """Recover (x, x12, x21, y, y12, y21) from the entries."""
        t, y = self.T, self.Y
        return {
            "x": (t[0][0] - t[1][1]) * HALF,
            "x12": t[0][1],
            "x21": t[1][0],
            "y": (y[0][0] - y[1][1]) * HALF,
            "y12": y[0][1],
            "y21": y[1][0],
        }


def symbolic_pair():
    """The pair (T, Y) in the eight coordinate generators."""
    return MatPair.from_coords(**{n: _gen(n) for n in COORDS})


@dataclass(frozen=True)
class QuadricSystem:
    q1: MPoly
    q2: MPoly
    q3: MPoly

    def as_list(self):
        return [self.q1, self.q2, self.q3]


def quadrics():
    """The three obstruction quadrics in the eight-variable ring."""
    x, x12, x21 = _gen("x"), _gen("x12"), _gen("x21")
    y, y12, y21 = _gen("y"), _gen("y12"), _gen("y21")
    return QuadricSystem(
        x12 * y21 - x21 * y12,
        2 * x * y12 - 2 * x12 * y,
        2 * x21 * y - 2 * y21 * x,
    )


@functools.cache
def groebner_basis():
    """The reduced degrevlex Groebner basis of (q1, q2, q3), computed once.

    The quadrics are the 2x2 minors of [[x, x12, x21], [y, y12, y21]] up
    to units, and the maximal minors of a generic matrix form a universal
    Groebner basis (Sturmfels & Zelevinsky 1993), so this is those three
    minors made monic; Buchberger stays the reference that derives it.
    """
    return tuple(buchberger(quadrics().as_list(), DEFAULT_ORDER))


@dataclass(frozen=True)
class Ob2Result:
    commutator: tuple
    q_values: tuple


def ob2(pair):
    """Commutator [T, Y] together with the values of the quadrics at the
    pair's traceless coordinates.  The commutator always equals
    [[q1, q2], [q3, -q1]] at those coordinates; this is asserted."""
    comm = mat2.commutator(pair.T, pair.Y)
    qs = quadrics()
    vals = pair.traceless_coords()
    q_values = tuple(q.evaluate(vals) for q in qs.as_list())
    q1v, q2v, q3v = q_values
    expected = mat2.mat(q1v, q2v, q3v, -q1v)
    if any(a != b for a, b in zip(mat2.entries(comm), mat2.entries(expected))):
        raise AssertionError("commutator does not match the quadric display")
    return Ob2Result(comm, q_values)


# -- the Segre cone ------------------------------------------------------


@dataclass(frozen=True)
class SegrePoint:
    s: tuple
    t: tuple
    q_values: tuple
    on_locus: bool


def segre_check(xi, lam):
    """Map (xi, lam) to the proportional pair (s, t) = (lam0*xi, lam1*xi)
    and evaluate the quadrics there; they must vanish.

    Accepts rational or symbolic (MPoly) inputs.
    """
    xi = tuple(map(to_coeff, xi))
    lam = tuple(map(to_coeff, lam))
    if len(xi) != 3 or len(lam) != 2:
        raise ValueError("need a 3-vector xi and a 2-vector lam")
    s = tuple(lam[0] * c for c in xi)
    t = tuple(lam[1] * c for c in xi)
    vals = {"x": s[0], "x12": s[1], "x21": s[2], "y": t[0], "y12": t[1], "y21": t[2]}
    q_values = tuple(q.evaluate(vals) for q in quadrics().as_list())
    on_locus = all(not q for q in q_values)
    return SegrePoint(s, t, q_values, on_locus)


def segre_check_symbolic():
    """segre_check with xi, lam fully symbolic: the quadrics must vanish
    identically as polynomials in (xi, lam)."""
    names = ("xi0", "xi1", "xi2", "lam0", "lam1")
    g = [MPoly.gen(names, n) for n in names]
    return segre_check(g[:3], g[3:])


def closed_form_count(p):
    """Count of proportional pairs (s, t) over F_p: a nonzero s (p^3 - 1
    choices) pairs with t in its line (p choices), plus s = 0 with t
    free (p^3); total p^4 + p^3 - p."""
    return p**4 + p**3 - p


def _is_prime(n):
    if n < 2:
        return False
    return all(n % k for k in range(2, int(math.isqrt(n)) + 1))


def _enum_budget():
    """The cap on p^6 that CONNGERM_ENUM_BUDGET sets, 13^6 when unset.
    Anything but a nonnegative integer is a ValueError naming the
    variable."""
    text = os.environ.get(ENUM_BUDGET_ENV)
    if text is None:
        return _MAX_PRIME**6
    try:
        budget = int_from_text(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(
            f"{ENUM_BUDGET_ENV} must be a nonnegative integer, got {text!r}"
        )
    return budget


_INDEX_PAIRS = ((0, 1), (0, 2), (1, 2))


def _rank_mod_p(m, p):
    """Rank over F_p of a 3x3 integer matrix given as three rows: 3 if
    the determinant is nonzero mod p, else 2 if some 2x2 minor is, else
    1 if some entry is, else 0."""
    (a, b, c), (d, e, f), (g, h, i) = m
    if (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p:
        return 3
    for r1, r2 in _INDEX_PAIRS:
        u, v = m[r1], m[r2]
        for c1, c2 in _INDEX_PAIRS:
            if (u[c1] * v[c2] - u[c2] * v[c1]) % p:
                return 2
    return 1 if any(x % p for row in m for x in row) else 0


def count_points_mod_p(p):
    """Exact count of common zeros of the quadric system over F_p,
    fibre by fibre over s = (x, x12, x21).

    The locus is counted as the rank-<=1 locus of the 2x3 matrix
    [[x, x12, x21], [y, y12, y21]] (all three 2x2 minors vanish).  Over
    any field of odd characteristic this is literally {q1 = q2 = q3 = 0}
    since the q's are the minors up to the unit factors 2 and -2; the
    minor form is the characteristic-free statement of the same locus,
    and is what the closed form p^4 + p^3 - p counts (in characteristic
    2 the raw coefficient-2 quadrics would degenerate instead).

    For fixed s the minors are linear in t = (y, y12, y21), with
    coefficient rows (-x12, x, 0), (-x21, 0, x), (0, -x21, x12), so the
    fibre over s holds p^(3 - r) points, r the rank of that matrix over
    F_p.  Summing over the p^3 values of s counts all p^6 pairs (s, t)
    in O(p^3) steps.  The budget still caps p^6, the size of the space
    the count covers.
    """
    if p <= _MAX_PRIME and not _is_prime(p):  # trial division only below the cap
        raise ValueError(f"{p} is not prime")
    budget = _enum_budget()
    if p > _MAX_PRIME:  # p^6 itself may be too long to print
        raise ValueError(
            f"enumeration budget exceeded: primes above {_MAX_PRIME} are not enumerated"
        )
    if p**6 > budget:
        raise ValueError(f"enumeration budget exceeded: p^6 = {p**6} > {budget}")
    fp = range(p)
    count = 0
    for x, x12, x21 in product(fp, fp, fp):
        m = ((-x12, x, 0), (-x21, 0, x), (0, -x21, x12))
        count += p ** (3 - _rank_mod_p(m, p))
    return count


# -- invariants and orbits ------------------------------------------------


@dataclass(frozen=True)
class InvariantPoint:
    z: object
    z1: object
    z2: object

    def as_tuple(self):
        return (self.z, self.z1, self.z2)


def _traceless_part(m):
    s = mat2.trace(m) * HALF
    return mat2.mat(m[0][0] - s, m[0][1], m[1][0], m[1][1] - s)


def psi(pair):
    """The invariant triple (Tr(T0*Y0), Tr(T0^2), Tr(Y0^2)) computed on
    the traceless parts; trace coordinates never contribute."""
    t0 = _traceless_part(pair.T)
    y0 = _traceless_part(pair.Y)
    return InvariantPoint(
        mat2.trace(mat2.mul(t0, y0)),
        mat2.trace(mat2.mul(t0, t0)),
        mat2.trace(mat2.mul(y0, y0)),
    )


@dataclass(frozen=True)
class RelationCertificate:
    """Two independent proofs that z^2 - z1*z2 = q1^2 + q2*q3 on the germ.

    identity_holds: the two sides agree after full expansion.
    normal_form_zero: z^2 - z1*z2 reduces to 0 modulo a Groebner basis
    of the quadric ideal.  Both must be True; the constructor path
    raises if either fails.
    """

    identity_holds: bool
    normal_form_zero: bool
    lhs: MPoly
    rhs: MPoly
    basis: tuple
    invariants: InvariantPoint


def relation_certificate():
    pair = symbolic_pair()
    inv = psi(pair)
    z, z1, z2 = inv.as_tuple()
    qs = quadrics()
    lhs = z * z - z1 * z2
    rhs = qs.q1 * qs.q1 + qs.q2 * qs.q3
    identity_holds = lhs == rhs
    basis = groebner_basis()
    nf = normal_form(lhs, basis, DEFAULT_ORDER)
    normal_form_zero = not nf
    if not (identity_holds and normal_form_zero):
        raise RuntimeError(
            "internal inconsistency: the cone relation failed "
            f"(identity: {identity_holds}, normal form: {normal_form_zero})"
        )
    return RelationCertificate(
        identity_holds, normal_form_zero, lhs, rhs, basis, inv
    )


# -- orbit representatives over declared quadratic extensions -------------

SQRT_VARS = ("r1", "r2")
SQRT_ORDER = MonomialOrder("lex", SQRT_VARS)


def _exact_sqrt(q):
    """Rational square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sqrt_reduce(p, c1, c2):
    """Reduce an MPoly in (r1, r2) by the rules r1^2 -> c1, r2^2 -> c2: its
    normal form modulo r1^2 - c1 and r2^2 - c2, a Groebner basis because
    the two leading monomials are coprime."""
    r1, r2 = (MPoly.gen(SQRT_VARS, n) for n in SQRT_VARS)
    return normal_form(p, [r1 * r1 - c1, r2 * r2 - c2], SQRT_ORDER)


@dataclass(frozen=True)
class OrbitSeparation:
    """Closed-orbit representatives in the invariant fiber over (z1, z2).

    Entries of the representatives are MPoly values in the symbols
    (r1, r2); ``extension`` lists the reduction rules r_i^2 -> value for
    whichever square roots were not rational (empty when everything is
    rational, in which case the symbols simply do not occur).
    z_values are the reduced z-invariants of the representatives.
    """

    count: int
    representatives: tuple
    extension: tuple
    z_values: tuple


def orbit_separation(z1, z2):
    """Representatives of closed orbits of commuting traceless pairs with
    Tr(T^2) = z1, Tr(Y^2) = z2: two (signs of z) when z1*z2 != 0, one
    otherwise.  Diagonal normal forms need sqrt(z1/2) and sqrt(z2/2);
    irrational roots are adjoined symbolically as r1, r2."""
    z1, z2 = to_fraction(z1), to_fraction(z2)
    c1, c2 = z1 * HALF, z2 * HALF
    zero = MPoly.zero(SQRT_VARS)
    extension = []

    def root_expr(c, symbol):
        r = _exact_sqrt(c)
        if r is not None:
            return MPoly.const(SQRT_VARS, r)
        extension.append((symbol, c))
        return MPoly.gen(SQRT_VARS, symbol)

    a = root_expr(c1, "r1") if c1 else zero
    b = root_expr(c2, "r2") if c2 else zero
    diag_t = mat2.mat(a, zero, zero, -a)

    def reduced_psi(pair):
        inv = psi(pair)
        return tuple(sqrt_reduce(v, c1, c2) for v in inv.as_tuple())

    signs = (1, -1) if c1 and c2 else (1,)
    reps = [MatPair(diag_t, mat2.mat(s * b, zero, zero, -s * b)) for s in signs]

    z_values = []
    for rep in reps:
        comm = mat2.commutator(rep.T, rep.Y)
        if any(sqrt_reduce(e, c1, c2) for e in mat2.entries(comm)):
            raise AssertionError("representative pair fails to commute")
        zv, z1v, z2v = reduced_psi(rep)
        if z1v != MPoly.const(SQRT_VARS, z1) or z2v != MPoly.const(SQRT_VARS, z2):
            raise AssertionError("representative has wrong invariants")
        if sqrt_reduce(zv * zv, c1, c2) != MPoly.const(SQRT_VARS, z1 * z2):
            raise AssertionError("representative violates the cone relation")
        z_values.append(zv)
    return OrbitSeparation(len(reps), tuple(reps), tuple(extension), tuple(z_values))


# -- the degenerate fiber of the cone -------------------------------------

CONE_VARS = ("z", "z1", "z2")


@dataclass(frozen=True)
class FiberRestriction:
    cone: MPoly
    restricted_along: tuple
    generators: tuple
    multiplicity: int
    reduced_fiber: str


def cone_polynomial():
    z, z1, z2 = (MPoly.gen(CONE_VARS, n) for n in CONE_VARS)
    return z * z - z1 * z2


def fiber_multiplicity(along="z2"):
    """Restrict the cone relation modulo one of the rulings (z2 by
    default, z1 for the symmetry check) and the trace direction y0.

    The restricted generator is z^2: the degenerate fiber is the plane
    {z = z2 = y0 = 0} taken with multiplicity deg_z(z^2) = 2.
    """
    if along not in ("z1", "z2"):
        raise ValueError("restriction must be along z1 or z2")
    cone = cone_polynomial()
    restricted = cone.subs({along: 0})
    multiplicity = restricted.degree_in("z")
    return FiberRestriction(
        cone=cone,
        restricted_along=(along, "y0"),
        generators=(restricted,),
        multiplicity=multiplicity,
        reduced_fiber=f"z = {along} = y0 = 0",
    )
