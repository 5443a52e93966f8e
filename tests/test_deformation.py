"""Order-by-order glueing congruence.  The elliptic expansion is
validated against its defining differential equation, and the first two
degree residuals are re-derived by hand with the generic matrix and
series primitives, independent of the cocycle builder."""

import dataclasses
import random
from fractions import Fraction

import pytest

from conngerm.deformation import (
    SAFETY_MARGIN,
    DegreeResidual,
    build_cocycle,
    commutes_mod_ideal,
    congruence_check,
    ode_residual,
    phi_cochain,
    wp_series,
)
from conngerm.kuranishi import DEFAULT_ORDER, groebner_basis, quadrics, symbolic_pair
from conngerm.mat2 import commutator, entries, map_entries, mat, mul, sub
from conngerm.poly import normal_form
from conngerm.series import TruncationExhausted, TruncLaurent

rng = random.Random(1414)
F = Fraction


def test_wp_series_known_coefficients():
    wp = wp_series(F(4), F(0), 10)
    s = wp.series
    assert s.coeff(-2) == 1
    assert s.coeff(0) == 0 and s.coeff(1) == 0
    assert s.coeff(2) == F(1, 5)
    assert s.coeff(4) == 0
    assert s.coeff(6) == F(1, 75)
    wp2 = wp_series(F(20), F(28), 8)
    assert wp2.series.coeff(2) == 1
    assert wp2.series.coeff(4) == 1


def test_wp_series_only_even_exponents():
    wp = wp_series(F(3), F(7), 13)
    assert all(k == -2 or (k > 0 and k % 2 == 0) for k in wp.series.coeffs)


def test_wp_series_validation():
    with pytest.raises(ValueError):
        wp_series(F(4), F(0), 3)


def test_ode_residual_zero_random():
    # (p')^2 - 4p^3 + g2 p + g3 vanishes through the reliable window;
    # this recurrence-free identity is the independent check
    for _ in range(50):
        g2 = F(rng.randint(-9, 9), rng.randint(1, 6))
        g3 = F(rng.randint(-9, 9), rng.randint(1, 6))
        wp = wp_series(g2, g3, rng.randint(6, 14))
        assert ode_residual(wp).is_zero_shown()


def test_phi_cochain_principal_parts():
    wp = wp_series(F(4), F(0), 12)
    for k in range(2, 7):
        cochain = phi_cochain(k, wp)
        diff = cochain.phi_beta - cochain.phi_alpha
        assert diff.coeffs == {-k: F(1)}
        assert all(e >= 0 for e in cochain.phi_alpha.coeffs)


def test_phi_cochain_validation():
    wp = wp_series(F(4), F(0), 8)
    with pytest.raises(ValueError):
        phi_cochain(1, wp)
    with pytest.raises(TruncationExhausted):
        phi_cochain(9, wp)


def test_build_cocycle_structure():
    wp = wp_series(F(4), F(0), 9)
    coc = build_cocycle(2, 9, wp)
    assert coc.K == 2 and coc.N == 9
    assert len(coc.G) == 3
    one = coc.G[0][0][0]
    assert one.coeff(0) == 1 and one.trunc is None
    assert coc.G[0][0][1].is_zero_shown()
    pair = symbolic_pair()
    # degree-1 slice is Y / z exactly
    for i in range(2):
        for j in range(2):
            entry = coc.G[1][i][j]
            assert entry.coeffs == ({-1: pair.Y[i][j]} if pair.Y[i][j] else {})


def test_build_cocycle_validation():
    wp = wp_series(F(4), F(0), 12)
    with pytest.raises(ValueError):
        build_cocycle(0, 12, wp)
    with pytest.raises(TruncationExhausted):
        build_cocycle(2, 5, wp)  # below the safety margin K + 4
    with pytest.raises(TruncationExhausted):
        build_cocycle(4, 14, wp)  # series window too small
    assert SAFETY_MARGIN == 4


def _series_matrices(wp):
    pair = symbolic_pair()
    ph2 = phi_cochain(2, wp)
    T = map_entries(lambda e: TruncLaurent.const("z", e), pair.T)

    def connection(phi):
        return sub(T, map_entries(phi.scale, pair.Y))

    return pair, pair.Y, connection(ph2.phi_alpha), connection(ph2.phi_beta)


def test_degree_one_residual_vanishes_by_hand():
    wp = wp_series(F(4), F(0), 12)
    pair, Y, A_alpha, A_beta = _series_matrices(wp)
    G0 = mat(
        TruncLaurent.const("z", 1), TruncLaurent.zero("z"),
        TruncLaurent.zero("z"), TruncLaurent.const("z", 1),
    )
    G1 = map_entries(lambda e: TruncLaurent("z", {-1: e}), Y)
    residual = sub(
        map_entries(lambda e: e.diff(), G1),
        sub(mul(G0, A_beta), mul(A_alpha, G0)),
    )
    for i in range(2):
        for j in range(2):
            assert residual[i][j].is_zero_shown()


def test_degree_two_residual_is_commutator_over_z():
    """Raw degree-2 residual (no ideal reduction) equals [T, Y] / z,
    whose entries are exactly the obstruction quadrics; reducing those
    modulo the quadric ideal kills the residual."""
    wp = wp_series(F(4), F(0), 12)
    pair, Y, A_alpha, A_beta = _series_matrices(wp)
    G1 = map_entries(lambda e: TruncLaurent("z", {-1: e}), Y)
    y_sq = mul(pair.Y, pair.Y)
    G2 = map_entries(lambda e: TruncLaurent("z", {-2: e * F(1, 2)}), y_sq)
    residual = sub(
        map_entries(lambda e: e.diff(), G2),
        sub(mul(G1, A_beta), mul(A_alpha, G1)),
    )
    comm = commutator(pair.T, pair.Y)
    gb = groebner_basis()
    for i in range(2):
        for j in range(2):
            expected = TruncLaurent("z", {-1: comm[i][j]})
            entry = residual[i][j]
            assert entry.agrees_through(expected, entry.trunc - 1)
            reduced = entry.map_coeffs(
                lambda c: normal_form(c, gb, DEFAULT_ORDER) if c else c
            )
            assert reduced.is_zero_shown()


def test_congruence_orders_1_through_4():
    wp = wp_series(F(4), F(0), 14)
    for k in (1, 2, 3, 4):
        report = congruence_check(build_cocycle(k, 14, wp), k)
        assert report.ok
        assert report.first_failure() is None
        assert [d.degree for d in report.degrees] == list(range(1, k + 1))
        for d in report.degrees:
            assert d.reliable_through == 14 - d.degree + 1


def test_congruence_random_parameters():
    g2 = F(rng.randint(-9, 9), rng.randint(1, 5))
    g3 = F(rng.randint(-9, 9), rng.randint(1, 5))
    wp = wp_series(g2, g3, 12)
    report = congruence_check(build_cocycle(3, 12, wp), 3)
    assert report.ok


def test_congruence_rejects_order_beyond_cocycle():
    wp = wp_series(F(4), F(0), 10)
    coc = build_cocycle(2, 10, wp)
    with pytest.raises(ValueError):
        congruence_check(coc, 3)


def test_congruence_detects_tampering():
    # swapping the two chart connections breaks glueing at degree 1
    wp = wp_series(F(4), F(0), 10)
    coc = build_cocycle(2, 10, wp)
    bad = dataclasses.replace(coc, A_alpha=coc.A_beta, A_beta=coc.A_alpha)
    report = congruence_check(bad, 2)
    assert not report.ok
    assert "degree 1" in report.first_failure()


def test_commutes_mod_ideal():
    assert commutes_mod_ideal()


# -- oracle: the residual expanded as products of series matrices ---------


def _expanded_check(coc, K):
    """The DegreeResidual tuple the long way: expand each connection to a
    matrix of Laurent series with polynomial coefficients, multiply the
    series matrices, and reduce every z-coefficient of every entry."""

    def expand(conn):
        T = map_entries(lambda t: TruncLaurent.const("z", t), conn.T)
        return sub(T, map_entries(conn.phi.scale, conn.Y))

    A_alpha, A_beta = expand(coc.A_alpha), expand(coc.A_beta)
    degrees = []
    for k in range(1, K + 1):
        G_prev = coc.G[k - 1]
        residual = sub(
            map_entries(lambda s: s.diff(), coc.G[k]),
            sub(mul(G_prev, A_beta), mul(A_alpha, G_prev)),
        )
        flat = [s.map_coeffs(lambda c: normal_form(c, coc.basis, DEFAULT_ORDER))
                for s in entries(residual)]
        reliable = min((s.trunc for s in flat if s.trunc is not None), default=None)
        failure = None
        for n, s in enumerate(flat):
            if not s.is_zero_shown():
                e = min(s.coeffs)
                failure = f"degree {k}, entry ({n // 2},{n % 2}), z^{e}: {s.coeffs[e]}"
                break
        degrees.append(DegreeResidual(k, failure is None, reliable, failure))
    return tuple(degrees)


def _seeded_curves(seed, n):
    """(g2, g3, z-truncation) triples; the first is the curve g2 = g3 = 0."""
    r = random.Random(seed)

    def frac():
        return F(r.randint(-9, 9), r.randint(1, 6))

    return [(F(0), F(0), 10)] + [(frac(), frac(), r.randint(10, 14)) for _ in range(n)]


@pytest.mark.parametrize("g2, g3, N", _seeded_curves(2207, 5))
def test_factored_residual_matches_expanded_oracle(g2, g3, N):
    coc = build_cocycle(6, N, wp_series(g2, g3, N))
    report = congruence_check(coc, 6)
    assert report.degrees == _expanded_check(coc, 6)
    assert report.ok


def test_factored_residual_matches_oracle_on_swapped_connections():
    coc = build_cocycle(6, 11, wp_series(F(-3, 2), F(5, 4), 11))
    bad = dataclasses.replace(coc, A_alpha=coc.A_beta, A_beta=coc.A_alpha)
    report = congruence_check(bad, 6)
    assert report.degrees == _expanded_check(bad, 6)
    assert not any(d.ok for d in report.degrees)


def test_factored_residual_matches_oracle_on_perturbed_ideals():
    coc = build_cocycle(4, 9, wp_series(F(4), F(0), 9))
    q = quadrics()
    dropped = dataclasses.replace(coc, basis=(q.q1, q.q3))
    report = congruence_check(dropped, 4)
    assert report.degrees == _expanded_check(dropped, 4)
    assert report.degrees[0].ok
    assert report.first_failure() == "degree 2, entry (0,1), z^-1: 2*x*y12 - 2*x12*y"
    # the same ideal from generators that are not a Groebner basis
    mixed = dataclasses.replace(coc, basis=(q.q1, 3 * q.q2 + q.q3, q.q3))
    report = congruence_check(mixed, 4)
    assert report.degrees == _expanded_check(mixed, 4)
    assert report.ok


def test_factored_residual_matches_oracle_on_a_tampered_chart_series():
    # a doubled phi_alpha known to a shorter z-range: the failure comes
    # from the regular part, where many exponents share one weight class,
    # and the two charts' truncations differ
    coc = build_cocycle(4, 10, wp_series(F(3), F(1, 2), 10))
    alpha = dataclasses.replace(coc.A_alpha, phi=coc.A_alpha.phi.scale(2).truncate(8))
    bad = dataclasses.replace(coc, A_alpha=alpha)
    report = congruence_check(bad, 4)
    assert report.degrees == _expanded_check(bad, 4)
    assert not report.ok
