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
coordinate ring and the q's are the quadratic obstructions.  The
residual at each degree is a matrix of Laurent series with polynomial
coefficients; reducing every coefficient modulo a Groebner basis of the
quadric ideal must give 0 identically within the reliable z-range.
Degrees are tracked separately (G_j carries the exact monomial z^{-j})
so each multiplication by Y/z costs exactly one order of z-reliability
and the bookkeeping stays sharp.

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

    k: int
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
    return PhiCochain(k, alpha, beta)


# -- the deformation cocycle ----------------------------------------------


@dataclass(frozen=True)
class DeformationCocycle:
    """Graded transition data of the deformed connection pair.

    G[j] is the degree-j slice of e^{Y/z} (a 2x2 matrix of exact Laurent
    monomials z^{-j} with polynomial matrix coefficients, reduced modulo
    the quadric ideal); A_alpha and A_beta are the degree-1 connection
    matrices on the two charts; basis is the Groebner basis used for
    all reductions.
    """

    K: int
    N: int
    wp: WeierstrassSeries
    G: tuple
    A_alpha: tuple
    A_beta: tuple
    basis: tuple


def _reduce_matrix(m, basis):
    return mat2.map_entries(
        lambda s: s.map_coeffs(lambda c: normal_form(c, basis, DEFAULT_ORDER)), m
    )


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

    def connection(phi):
        return mat2.sub(
            mat2.map_entries(lambda t: TruncLaurent.const(ZVAR, t), pair.T),
            mat2.map_entries(phi.truncate(N).scale, pair.Y),
        )

    a_alpha = connection(phi2.phi_alpha)
    a_beta = connection(phi2.phi_beta)
    return DeformationCocycle(
        K, N, wp, tuple(g_slices), a_alpha, a_beta, basis
    )


@dataclass(frozen=True)
class DegreeResidual:
    degree: int
    ok: bool
    reliable_through: int | None
    first_failure: str | None


@dataclass(frozen=True)
class CongruenceReport:
    K: int
    N: int
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
    connection matrices is through the degree-(k-1) slice of G, so

        R_k = d(G_k) - (G_{k-1}*A_beta - A_alpha*G_{k-1}),

    and the congruence holds iff every z-coefficient of every entry of
    R_k reduces to 0 modulo the Groebner basis of (q1, q2, q3).  The
    report records, per degree, the z-range through which the residual
    is reliably known and the first surviving term if any.
    """
    if K > cocycle.K:
        raise ValueError(f"cocycle was built at order {cocycle.K} < {K}")
    basis = cocycle.basis
    degrees = []
    for k in range(1, K + 1):
        d_g = mat2.map_entries(lambda s: s.diff(), cocycle.G[k])
        g_prev = cocycle.G[k - 1]
        rhs = mat2.sub(
            mat2.mul(g_prev, cocycle.A_beta), mat2.mul(cocycle.A_alpha, g_prev)
        )
        residual = _reduce_matrix(mat2.sub(d_g, rhs), basis)
        truncs = [s.trunc for s in mat2.entries(residual) if s.trunc is not None]
        reliable = min(truncs, default=None)
        failure = None
        for n, entry in enumerate(mat2.entries(residual)):
            if not entry.is_zero_shown():
                e = min(entry.coeffs)
                failure = (f"degree {k}, entry ({n // 2},{n % 2}), "
                           f"z^{e}: {entry.coeffs[e]}")
                break
        degrees.append(DegreeResidual(k, failure is None, reliable, failure))
    return CongruenceReport(K, cocycle.N, all(d.ok for d in degrees), tuple(degrees))


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
