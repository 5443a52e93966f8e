"""Quadratic obstruction map, its zero locus, and the invariant-theory
quotient.  Point counts get an independent brute-force oracle, the
symbolic identities get independent expansions, and orbit counts are
classified over a seeded batch of rational fibers."""

import random
from fractions import Fraction
from itertools import product

import pytest

from conngerm import kuranishi
from conngerm.deformation import build_cocycle, wp_series
from conngerm.kuranishi import (
    COORDS,
    DEFAULT_ORDER,
    LEX_ORDER,
    MatPair,
    SQRT_VARS,
    closed_form_count,
    cone_polynomial,
    count_points_mod_p,
    fiber_multiplicity,
    groebner_basis,
    ob2,
    orbit_separation,
    psi,
    quadrics,
    relation_certificate,
    segre_check,
    segre_check_symbolic,
    sqrt_reduce,
    symbolic_pair,
)
from conngerm.mat2 import commutator, mat
from conngerm.poly import MPoly, buchberger, is_groebner, normal_form, ring

rng = random.Random(60617)

X0, X, X12, X21, Y0, Y, Y12, Y21 = ring(COORDS)


def test_quadrics_exact_forms():
    q1, q2, q3 = quadrics().as_list()
    assert q1 == X12 * Y21 - X21 * Y12
    assert q2 == 2 * X * Y12 - 2 * X12 * Y
    assert q3 == 2 * X21 * Y - 2 * Y21 * X


def test_ob2_symbolic_commutator_matches_quadrics():
    result = ob2(symbolic_pair())
    q1, q2, q3 = quadrics().as_list()
    assert result.commutator == mat(q1, q2, q3, -q1)
    for e in (q1, q2, q3):
        assert not e.involves("x0") and not e.involves("y0")


def test_ob2_independent_expansion():
    # recompute [T, Y] with the generic matrix helpers, no shortcuts
    pair = symbolic_pair()
    assert commutator(pair.T, pair.Y) == ob2(symbolic_pair()).commutator


def test_ob2_at_rational_points():
    pair = MatPair.from_coords(x12=Fraction(1), y21=Fraction(1))
    result = ob2(pair)
    assert result.q_values == (Fraction(1), Fraction(0), Fraction(0))
    assert result.commutator == mat(
        Fraction(1), Fraction(0), Fraction(0), Fraction(-1)
    )
    # trace coordinates never influence the commutator
    shifted = MatPair.from_coords(
        x0=Fraction(7), y0=Fraction(-3), x12=Fraction(1), y21=Fraction(1)
    )
    assert ob2(shifted).q_values == result.q_values


def test_ob2_random_against_evaluation():
    q1, q2, q3 = quadrics().as_list()
    for _ in range(200):
        vals = {c: Fraction(rng.randint(-5, 5)) for c in COORDS}
        pair = MatPair.from_coords(**vals)
        result = ob2(pair)
        assert result.q_values == tuple(q.evaluate(vals) for q in (q1, q2, q3))


def test_normal_form_under_both_orders():
    # under lex, x*y12 reduces modulo the middle quadric to x12*y
    _, q2, _ = quadrics().as_list()
    assert normal_form(X * Y12, [q2], LEX_ORDER) == X12 * Y
    # under degrevlex the leading term flips, so the mirror reduction holds
    assert normal_form(X12 * Y, [q2], DEFAULT_ORDER) == X * Y12


def test_groebner_basis_of_quadrics():
    gb = groebner_basis()
    assert is_groebner(gb, DEFAULT_ORDER)
    for q in quadrics().as_list():
        assert normal_form(q, gb, DEFAULT_ORDER) == MPoly.zero(COORDS)


def test_segre_parametrization_symbolic():
    point = segre_check_symbolic()
    assert point.on_locus
    assert all(q == MPoly.zero(q.variables) for q in point.q_values)


def test_segre_parametrization_random():
    for _ in range(100):
        xi = [Fraction(rng.randint(-6, 6)) for _ in range(3)]
        lam = [Fraction(rng.randint(-6, 6)) for _ in range(2)]
        point = segre_check(xi, lam)
        assert point.on_locus
        assert point.s == tuple(lam[0] * v for v in xi)
        assert point.t == tuple(lam[1] * v for v in xi)


def test_closed_form():
    for p in (2, 3, 5, 7):
        assert closed_form_count(p) == p**4 + p**3 - p


def test_point_counts_match_closed_form():
    assert count_points_mod_p(2) == 22
    assert count_points_mod_p(3) == 105
    assert count_points_mod_p(5) == 745


def brute_force_literal_quadrics(p):
    """Count zeros of the quadrics as written, coefficient 2 included.
    In odd characteristic this is the same locus as the rank condition;
    at p = 2 the factor 2 kills two of the three equations."""
    n = 0
    for x in range(p):
        for x12 in range(p):
            for x21 in range(p):
                for y in range(p):
                    for y12 in range(p):
                        for y21 in range(p):
                            if (
                                (x12 * y21 - x21 * y12) % p == 0
                                and (2 * x * y12 - 2 * x12 * y) % p == 0
                                and (2 * x21 * y - 2 * y21 * x) % p == 0
                            ):
                                n += 1
    return n


def test_literal_quadrics_agree_at_odd_primes():
    assert brute_force_literal_quadrics(3) == count_points_mod_p(3)
    assert brute_force_literal_quadrics(5) == count_points_mod_p(5)


def test_literal_quadrics_degenerate_at_two():
    # the locus itself has 22 points over F_2; the written equations
    # lose information there, which is why counting uses the minors
    assert count_points_mod_p(2) == 22
    assert brute_force_literal_quadrics(2) == 40


def test_count_validation_and_budget():
    with pytest.raises(ValueError):
        count_points_mod_p(4)
    with pytest.raises(ValueError):
        count_points_mod_p(17)


def test_psi_values():
    inv = psi(MatPair.from_coords(x=Fraction(1), y=Fraction(1)))
    assert (inv.z, inv.z1, inv.z2) == (2, 2, 2)
    inv2 = psi(MatPair.from_coords(x12=Fraction(1), y21=Fraction(1)))
    assert (inv2.z, inv2.z1, inv2.z2) == (1, 0, 0)


def _mat_mul(p, q):
    return tuple(
        tuple(sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def test_psi_conjugation_invariance():
    for _ in range(200):
        vals = {c: Fraction(rng.randint(-4, 4)) for c in COORDS}
        pair = MatPair.from_coords(**vals)
        while True:
            a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
            det = a * d - b * c
            if det != 0:
                break
        g = ((a, b), (c, d))
        ginv = ((d / det, -b / det), (-c / det, a / det))
        conj = MatPair(
            _mat_mul(_mat_mul(g, pair.T), ginv),
            _mat_mul(_mat_mul(g, pair.Y), ginv),
        )
        assert psi(conj).as_tuple() == psi(pair).as_tuple()


def test_psi_lands_on_cone_iff_commuting():
    on = psi(MatPair.from_coords(x=Fraction(2), y=Fraction(-3)))
    assert on.z * on.z == on.z1 * on.z2
    off = psi(MatPair.from_coords(x=Fraction(1), y12=Fraction(1), y21=Fraction(1)))
    assert off.z * off.z != off.z1 * off.z2


def test_relation_certificate_two_routes():
    cert = relation_certificate()
    assert cert.identity_holds
    assert cert.normal_form_zero
    assert cert.lhs == cert.rhs
    assert is_groebner(cert.basis, DEFAULT_ORDER)
    # one more independent expansion of the certificate identity
    q1, q2, q3 = quadrics().as_list()
    inv_z, inv_z1, inv_z2 = cert.invariants.as_tuple()
    assert inv_z * inv_z - inv_z1 * inv_z2 == q1 * q1 + q2 * q3


def test_sqrt_reduce():
    R1 = MPoly.gen(SQRT_VARS, "r1")
    R2 = MPoly.gen(SQRT_VARS, "r2")
    p = R1**3 * R2**2 + R2
    out = sqrt_reduce(p, Fraction(2), Fraction(5))
    assert out == 10 * R1 + R2
    # squares of the symbols disappear entirely
    assert not sqrt_reduce(R1**2, Fraction(-1), Fraction(3)).involves("r1")


def test_orbit_separation_rational_square_case():
    sep = orbit_separation(Fraction(2), Fraction(2))
    assert sep.count == 2
    assert sep.extension == ()
    zs = [z.const_value() for z in sep.z_values]
    assert zs == [Fraction(2), Fraction(-2)]


def test_orbit_separation_symbolic_case():
    sep = orbit_separation(Fraction(1), Fraction(1))
    assert sep.count == 2
    assert [s for s, _ in sep.extension] == ["r1", "r2"]
    assert [c for _, c in sep.extension] == [Fraction(1, 2), Fraction(1, 2)]
    z0, z1v = sep.z_values
    assert z0 == -z1v and z0 != MPoly.zero(SQRT_VARS)


def test_orbit_separation_negative_radicand():
    sep = orbit_separation(Fraction(-2), Fraction(-2))
    assert sep.count == 2
    assert [c for _, c in sep.extension] == [Fraction(-1), Fraction(-1)]


def test_orbit_separation_boundary():
    assert orbit_separation(Fraction(0), Fraction(5)).count == 1
    assert orbit_separation(Fraction(3), Fraction(0)).count == 1
    assert orbit_separation(Fraction(0), Fraction(0)).count == 1


def test_orbit_classification_seeded_batch():
    values = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(40)]
    values += [Fraction(0)] * 10
    rng.shuffle(values)
    pairs = [(values[i], values[-1 - i]) for i in range(25)]
    for z1, z2 in pairs:
        sep = orbit_separation(z1, z2)
        expected = 2 if z1 * z2 != 0 else 1
        assert sep.count == expected, (z1, z2)
        if sep.count == 2:
            assert sep.z_values[0] == -sep.z_values[1]
            assert sep.z_values[0] != MPoly.zero(SQRT_VARS)


def test_cone_polynomial_and_fiber():
    cone = cone_polynomial()
    Zc, Z1, Z2 = ring(("z", "z1", "z2"))
    assert cone == Zc**2 - Z1 * Z2
    restriction = fiber_multiplicity("z2")
    assert restriction.multiplicity == 2
    assert [str(g) for g in restriction.generators] == ["z^2"]
    assert restriction.reduced_fiber == "z = z2 = y0 = 0"
    other = fiber_multiplicity("z1")
    assert other.multiplicity == 2
    with pytest.raises(ValueError):
        fiber_multiplicity("z")


def test_one_quadric_basis():
    gb = groebner_basis()
    assert groebner_basis() is gb
    assert build_cocycle(1, 5, wp_series(4, 0, 5)).basis is gb
    assert relation_certificate().basis is gb
    assert list(gb) == buchberger(quadrics().as_list(), DEFAULT_ORDER)
    # the maximal minors of [[x, x12, x21], [y, y12, y21]], made monic
    minors = [X * Y12 - X12 * Y, X * Y21 - X21 * Y, X12 * Y21 - X21 * Y12]
    monic = {m * (1 / DEFAULT_ORDER.leading(m)[1]) for m in minors}
    assert set(gb) == monic and len(gb) == 3


def enumerate_points(p):
    """The p^6 walk over all pairs (s, t): the rank-<=1 locus of
    [[x, x12, x21], [y, y12, y21]], tested minor by minor."""
    fp = range(p)
    count = 0
    for x, x12, x21, y, y12, y21 in product(fp, repeat=6):
        if (
            (x * y12 - x12 * y) % p == 0
            and (x * y21 - x21 * y) % p == 0
            and (x12 * y21 - x21 * y12) % p == 0
        ):
            count += 1
    return count


def test_fibred_count_matches_enumeration():
    for p in (2, 3, 5, 7):
        assert count_points_mod_p(p) == enumerate_points(p), p


def gauss_rank_mod_p(m, p):
    """Rank over F_p by plain row reduction with modular inverses."""
    rows = [[x % p for x in row] for row in m]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, 3) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(3):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def random_matrix_of_rank(r, p, rng):
    """A 3x3 integer matrix of rank r over F_p: a product of random 3xr
    and rx3 factors, redrawn until the oracle confirms the rank, with
    entries shifted by random multiples of p (negative ones included)."""
    while True:
        a = [[rng.randrange(p) for _ in range(r)] for _ in range(3)]
        b = [[rng.randrange(p) for _ in range(3)] for _ in range(r)]
        m = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(3)]
             for i in range(3)]
        if gauss_rank_mod_p(m, p) == r:
            return tuple(tuple(x + p * rng.randint(-3, 3) for x in row)
                         for row in m)


def test_rank_mod_p_matches_gaussian_elimination():
    rng = random.Random(4242)
    for p in (2, 3, 5, 13):
        for r in range(4):
            for _ in range(25):
                m = random_matrix_of_rank(r, p, rng)
                assert kuranishi._rank_mod_p(m, p) == r, (m, p)
        for _ in range(200):
            m = tuple(tuple(rng.randint(-2 * p, 2 * p) for _ in range(3))
                      for _ in range(3))
            assert kuranishi._rank_mod_p(m, p) == gauss_rank_mod_p(m, p), (m, p)


def test_count_refuses_a_huge_prime_before_trial_division(monkeypatch):
    def no_trial_division_above_cap(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(kuranishi, "_is_prime", no_trial_division_above_cap)
    for p in (2**61 - 1, 17, 15):
        with pytest.raises(ValueError, match="enumeration budget exceeded"):
            count_points_mod_p(p)
