"""Order-by-order verification that the moduli germ's obstructions stop
at the quadratic ones.

Setting: a rank-2 bundle on an elliptic curve is trivialized on two
charts (a punctured neighborhood of the origin and the complement),
and a deformation of the trivial connection pair is written on the
overlap as a transition cocycle together with connection matrices

    G = e^{Y/z} = sum_j (Y/z)^j / j!,      A_gamma = T - phi_gamma * Y,

where T, Y are the symbolic coordinate matrices of the germ (see
kuranishi), and phi_alpha, phi_beta are the two branches of a 0-cochain
whose difference is the Cech cocycle dz/z^2: phi_beta is built from the
Weierstrass elliptic series, phi_alpha = phi_beta - z^{-2} is regular
at the origin.  The compatibility condition is the congruence

    dG = G*A_beta - A_alpha*G   modulo (q1, q2, q3) + m^{K+1}

per deformation degree k <= K, where m is the maximal ideal of the
coordinate ring and the q's are the quadratic obstructions.  Degrees are
tracked separately (G_j = z^{-j} P_j with P_j a polynomial matrix) so
each multiplication by Y/z costs exactly one order of z-reliability and
the bookkeeping stays sharp.  The residual at each degree is a sum of
scalar Laurent weights times polynomial matrices (see congruence_check).
Reduction modulo a Groebner basis of the quadric ideal is linear, so it
runs once per entry and class of proportional weight vectors, not once
per z-exponent, and must give 0 within the reliable z-range.

The Weierstrass coefficients are generated from the second-order ODE
(p'' = 6 p^2 - g2/2, which pins the recurrence below) and validated
against the independent first-order ODE (p')^2 = 4 p^3 - g2 p - g3
before use; generation and validation routes are genuinely different.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import mat2
from .kuranishi import COORDS, DEFAULT_ORDER, groebner_basis, symbolic_pair
from .poly import MPoly, normal_form, to_fraction
from .series import TruncationExhausted, TruncLaurent

ZVAR = "z"
SAFETY_MARGIN = 4  # one z-order per deformation degree, plus the pole of phi
MAX_TRUNC = 64  # the series work grows faster than linearly in the truncation


@dataclass(frozen=True)
class WeierstrassSeries:
    g2: Fraction
    g3: Fraction
    trunc: int
    series: TruncLaurent


def wp_series(g2, g3, n):
    """Weierstrass elliptic series z^{-2} + sum a_k z^{2k}, truncated at n.

    Recurrence (from p'' = 6 p^2 - g2/2):
        a_1 = g2/20,  a_2 = g3/28,
        a_k = 3 * sum_{j=1}^{k-2} a_j a_{k-1-j} / ((2k+3)(k-2))  for k >= 3.
    The result is validated against the first-order ODE residual before
    being returned.
    """
    if n < 4:
        raise ValueError("truncation order must be at least 4")
    if n > MAX_TRUNC:
        raise ValueError(f"truncation order {n} exceeds the cap {MAX_TRUNC}")
    g2, g3 = to_fraction(g2), to_fraction(g3)
    a = {1: g2 / 20, 2: g3 / 28}
    kmax = (n - 1) // 2
    for k in range(3, kmax + 1):
        conv = sum(a[j] * a[k - 1 - j] for j in range(1, k - 1))
        a[k] = 3 * conv / ((2 * k + 3) * (k - 2))
    series = TruncLaurent(ZVAR, {-2: 1, **{2 * k: c for k, c in a.items()}}, n)
    wp = WeierstrassSeries(g2, g3, n, series)
    residual = ode_residual(wp)
    if not residual.is_zero_shown():
        raise AssertionError("Weierstrass series failed the ODE residual check")
    return wp


def ode_residual(wp):
    """(p')^2 - 4 p^3 + g2 p + g3, reliable through trunc - 4."""
    p = wp.series
    dp = p.diff()
    return dp * dp - 4 * (p * p * p) + wp.g2 * p + wp.g3


@dataclass(frozen=True)
class PhiCochain:
    """The two branches of the 0-cochain splitting the cocycle dz/z^k."""

    phi_alpha: TruncLaurent
    phi_beta: TruncLaurent


def phi_cochain(k, wp):
    """phi_beta = ((-1)^k/(k-1)!) * p^{(k-2)}; phi_alpha = phi_beta - z^{-k}.

    The principal part of p^{(k-2)} is (-1)^{k-2}(k-1)! z^{-k}, so the
    scaling makes phi_beta's principal part exactly z^{-k} and phi_alpha
    is regular at the origin; this is asserted.
    """
    if k < 2:
        raise ValueError("the elliptic construction needs k >= 2")
    if k > wp.trunc:
        raise TruncationExhausted(
            f"cochain order {k} exceeds the series reliability {wp.trunc}"
        )
    beta = wp.series
    for _ in range(k - 2):
        beta = beta.diff()
    beta = beta.scale(Fraction((-1) ** k, math.factorial(k - 1)))
    alpha = beta - TruncLaurent.monomial(ZVAR, -k, 1)
    if any(e < 0 for e in alpha.coeffs):
        raise AssertionError("phi_alpha fails to be regular at the origin")
    return PhiCochain(alpha, beta)


# -- the deformation cocycle ----------------------------------------------


@dataclass(frozen=True)
class Connection:
    """One chart's connection matrix T - phi*Y, kept factored: T and Y are
    polynomial matrices, phi is the chart's scalar Laurent series."""

    T: tuple
    Y: tuple
    phi: TruncLaurent


@dataclass(frozen=True)
class DeformationCocycle:
    """Graded transition data of the deformed connection pair.

    G[j] is the degree-j slice of e^{Y/z} (a 2x2 matrix of exact Laurent
    monomials z^{-j} with polynomial matrix coefficients, reduced modulo
    the quadric ideal); A_alpha and A_beta are the degree-1 connections
    on the two charts, as ``Connection`` values; basis is the Groebner
    basis used for all reductions.
    """

    K: int
    N: int
    G: tuple
    A_alpha: Connection
    A_beta: Connection
    basis: tuple


def build_cocycle(K, N, wp):
    """Assemble G = sum_{j<=K} (Y/z)^j / j! and A_gamma = T - phi_gamma,2 * Y.

    N is the z-truncation; it must leave room for K divisions by z on
    top of the order-2 pole of the cochain (N >= K + 4), and the
    underlying Weierstrass series must be reliable through N.
    """
    if K < 1:
        raise ValueError("deformation order must be at least 1")
    if N < K + SAFETY_MARGIN:
        raise TruncationExhausted(
            f"z-truncation {N} leaves no safety margin at order {K}; "
            f"need at least {K + SAFETY_MARGIN}"
        )
    if wp.trunc < N:
        raise TruncationExhausted(
            f"Weierstrass series reliable through {wp.trunc} < requested {N}"
        )
    pair = symbolic_pair()
    basis = groebner_basis()
    phi2 = phi_cochain(2, wp)

    one = MPoly.const(COORDS, 1)
    zero = MPoly.zero(COORDS)
    g_slices = [mat2.identity(
        TruncLaurent.const(ZVAR, one), TruncLaurent.zero(ZVAR)
    )]
    y_power = mat2.identity(one, zero)
    fact = 1
    for j in range(1, K + 1):
        y_power = mat2.map_entries(
            lambda c: normal_form(c, basis, DEFAULT_ORDER),
            mat2.mul(y_power, pair.Y),
        )
        fact *= j
        inv_fact = Fraction(1, fact)
        g_slices.append(
            mat2.map_entries(
                lambda c: TruncLaurent(ZVAR, {-j: c * inv_fact}), y_power
            )
        )

    a_alpha = Connection(pair.T, pair.Y, phi2.phi_alpha.truncate(N))
    a_beta = Connection(pair.T, pair.Y, phi2.phi_beta.truncate(N))
    return DeformationCocycle(K, N, tuple(g_slices), a_alpha, a_beta, basis)


@dataclass(frozen=True)
class DegreeResidual:
    degree: int
    ok: bool
    reliable_through: int | None
    first_failure: str | None


@dataclass(frozen=True)
class CongruenceReport:
    ok: bool
    degrees: tuple

    def first_failure(self):
        for d in self.degrees:
            if not d.ok:
                return d.first_failure
        return None


def congruence_check(cocycle, K):
    """Per-degree residual of dG = G*A_beta - A_alpha*G mod the ideal.

    At deformation degree k the only contribution of the degree-1
    connection matrices is through the degree-(k-1) slice of G, so with
    G_j = z^{-j} P_j and A_gamma = T_gamma - phi_gamma Y_gamma

        R_k = d(G_k) - (G_{k-1}*A_beta - A_alpha*G_{k-1})
            = (-k z^{-k-1}) P_k + z^{1-k} (T_alpha P - P T_beta)
              + (z^{1-k} phi_beta) P Y_beta - (z^{1-k} phi_alpha) Y_alpha P

    with P = P_{k-1}: scalar weights, computed by series arithmetic,
    times polynomial matrices.  The congruence holds iff every
    z-coefficient of every entry of R_k reduces to 0 modulo the Groebner
    basis of (q1, q2, q3).  Reduction is linear, so exponents whose
    weight vectors are proportional share one reduced combination; only
    the coefficient a failure reports is scaled out.  The report
    records, per degree, the z-range through which the residual is
    reliably known and the first surviving term if any.
    """
    if K > cocycle.K:
        raise ValueError(f"cocycle was built at order {cocycle.K} < {K}")
    alpha, beta = cocycle.A_alpha, cocycle.A_beta
    zero = MPoly.zero(COORDS)
    p = _slice_matrix(cocycle.G[0], 0, zero)
    degrees = []
    for k in range(1, K + 1):
        p_k = _slice_matrix(cocycle.G[k], k, zero)
        terms = [(TruncLaurent.monomial(ZVAR, -k).diff(), p_k)]
        if any(mat2.entries(p)):  # an exact-zero slice adds no term, no truncation
            shift = TruncLaurent.monomial(ZVAR, 1 - k)
            terms += [
                (shift, mat2.sub(mat2.mul(alpha.T, p), mat2.mul(p, beta.T))),
                (shift * beta.phi, mat2.mul(p, beta.Y)),
                (-(shift * alpha.phi), mat2.mul(alpha.Y, p)),
            ]
        degrees.append(_degree_residual(k, terms, cocycle.basis))
        p = p_k
    return CongruenceReport(all(d.ok for d in degrees), tuple(degrees))


def _slice_matrix(g_slice, j, zero):
    """P_j: the polynomial matrix of the slice G_j = z^{-j} P_j."""
    return mat2.map_entries(lambda s: s.coeffs.get(-j, zero), g_slice)


def _degree_residual(k, terms, basis):
    """Reduce the residual sum_t w_t * M_t of the (weight, matrix) terms.

    The residual is known below the least weight truncation.  Exponents
    are grouped by their weight vector scaled to lead with 1; per entry,
    each group's combination is reduced once, and the first entry with
    a surviving group reports its lowest surviving exponent.
    """
    weights = [w for w, _ in terms]
    reliable = min((w.trunc for w in weights if w.trunc is not None), default=None)
    groups = {}  # weight vector scaled to lead with 1 -> [(exponent, scale)]
    for e in sorted(set().union(*(w.coeffs for w in weights))):
        if reliable is not None and e >= reliable:
            continue
        vector = [w.coeffs.get(e, 0) for w in weights]
        lead = next(c for c in vector if c)
        groups.setdefault(tuple(c / lead for c in vector), []).append((e, lead))
    failure = None
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        survivors = []
        for key, members in groups.items():
            parts = [m[i][j] if c == 1 else m[i][j] * c
                     for c, (_, m) in zip(key, terms) if c]
            reduced = normal_form(sum(parts[1:], parts[0]), basis, DEFAULT_ORDER)
            if reduced:
                survivors.append((*members[0], reduced))
        if survivors:
            e, lead, reduced = min(survivors, key=lambda s: s[0])
            failure = f"degree {k}, entry ({i},{j}), z^{e}: {reduced * lead}"
            break
    return DegreeResidual(k, failure is None, reliable, failure)


def commutes_mod_ideal():
    """Normal form of every entry of [T, Y] modulo the quadric basis is 0:
    the coordinate matrices commute exactly on the obstruction locus."""
    pair = symbolic_pair()
    basis = groebner_basis()
    comm = mat2.commutator(pair.T, pair.Y)
    return all(
        not normal_form(entry, basis, DEFAULT_ORDER)
        for entry in mat2.entries(comm)
    )
