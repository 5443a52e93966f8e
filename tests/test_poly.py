"""Exact polynomial layer: ring axioms, monomial orders, division,
Buchberger.  Random identities run against an evaluation oracle, so a
bug has to fool exact arithmetic at many rational points to slip by."""

import random
from fractions import Fraction

import pytest

from conngerm.poly import (
    MonomialOrder,
    MPoly,
    buchberger,
    is_groebner,
    normal_form,
    ring,
    s_polynomial,
)

VARS = ("x", "y", "z")
X, Y, Z = ring(VARS)
rng = random.Random(20260816)


def rand_fraction():
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def rand_poly(nterms=4, maxdeg=3):
    p = MPoly.zero(VARS)
    for _ in range(nterms):
        exp = tuple(rng.randint(0, maxdeg) for _ in VARS)
        p = p + MPoly(VARS, {exp: rand_fraction()})
    return p


def rand_point():
    return {v: rand_fraction() for v in VARS}


def test_constructor_drops_zeros_and_validates():
    p = MPoly(VARS, {(1, 0, 0): Fraction(0), (0, 1, 0): 2})
    assert p == 2 * Y
    assert p.coeff((1, 0, 0)) == 0
    with pytest.raises(ValueError):
        MPoly(VARS, {(1, 0): 1})


def test_ring_axioms_random():
    for _ in range(1000):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == MPoly.zero(VARS)
        assert a * MPoly.const(VARS, 1) == a


def test_products_against_evaluation_oracle():
    for _ in range(300):
        a, b = rand_poly(), rand_poly()
        pt = rand_point()
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


def test_pow_matches_repeated_multiplication():
    p = X + 2 * Y - Z
    q = MPoly.const(VARS, 1)
    for k in range(6):
        assert p**k == q
        q = q * p


def test_derivative_leibniz():
    for _ in range(200):
        a, b = rand_poly(), rand_poly()
        da, db = a.derivative("x"), b.derivative("x")
        assert (a * b).derivative("x") == da * b + a * db


def test_degree_and_involves():
    p = X * Y**2 + Z
    assert p.degree() == 3
    assert p.degree_in("y") == 2
    assert p.involves("z") and not (X * Y).involves("z")
    assert MPoly.zero(VARS).degree() == -1


def test_evaluate_missing_variable_raises():
    with pytest.raises(KeyError):
        (X + Y).evaluate({"x": 1})


def test_subs_partial():
    p = X * Y + Z
    q = p.subs({"x": MPoly.const(VARS, 2)})
    assert q == 2 * Y + Z


def test_str_deterministic():
    p = 3 * X * Y**2 - Fraction(1, 2) * Z
    assert str(p) == "3*x*y^2 - 1/2*z"
    assert str(MPoly.zero(VARS)) == "0"


def test_lex_order_properties():
    order = MonomialOrder("lex", VARS)
    exps = [tuple(rng.randint(0, 4) for _ in VARS) for _ in range(60)]
    one = (0, 0, 0)
    for _ in range(1000):
        a, b, c = rng.choice(exps), rng.choice(exps), rng.choice(exps)
        ka, kb = order.key(a), order.key(b)
        # total order: exactly one of <, ==, > holds, and == iff equal
        assert (ka < kb) + (ka == kb) + (ka > kb) == 1
        assert (ka == kb) == (a == b)
        # multiplicative: comparing a,b is stable under adding c
        ac = tuple(i + j for i, j in zip(a, c))
        bc = tuple(i + j for i, j in zip(b, c))
        assert (ka < kb) == (order.key(ac) < order.key(bc))
        # 1 is minimal
        if a != one:
            assert order.key(one) < ka


def test_degrevlex_order_properties():
    order = MonomialOrder("degrevlex", VARS)
    for _ in range(1000):
        a = tuple(rng.randint(0, 4) for _ in VARS)
        b = tuple(rng.randint(0, 4) for _ in VARS)
        if sum(a) != sum(b):
            # degree dominates
            assert (order.key(a) < order.key(b)) == (sum(a) < sum(b))
        c = tuple(rng.randint(0, 3) for _ in VARS)
        ac = tuple(i + j for i, j in zip(a, c))
        bc = tuple(i + j for i, j in zip(b, c))
        assert (order.key(a) < order.key(b)) == (order.key(ac) < order.key(bc))


def test_degrevlex_tiebreak():
    # among degree-2 monomials in x,y,z: x^2 > xy > y^2 > xz > yz > z^2
    order = MonomialOrder("degrevlex", VARS)
    ranked = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [order.key(e) for e in ranked]
    assert keys == sorted(keys, reverse=True)


def test_leading_term():
    order = MonomialOrder("lex", VARS)
    p = X + Y**5
    exp, coeff = order.leading(p)
    assert exp == (1, 0, 0) and coeff == 1


def test_normal_form_is_reduced_and_exact():
    order = MonomialOrder("lex", VARS)
    basis = [X**2 - Y, X * Y - Z]
    for _ in range(200):
        f = rand_poly()
        r = normal_form(f, basis, order)
        # no leading monomial of the basis divides any monomial of r
        for exp in r.terms:
            for g in basis:
                gexp, _ = order.leading(g)
                assert not all(i >= j for i, j in zip(exp, gexp))
        assert normal_form(r, basis, order) == r


def test_normal_form_membership():
    order = MonomialOrder("lex", VARS)
    basis = [X - Y, Y - Z]
    f = (X - Y) * rand_poly() + (Y - Z) * rand_poly()
    assert normal_form(f, basis, order) == MPoly.zero(VARS)


def test_normal_form_rejects_bad_input():
    order = MonomialOrder("lex", VARS)
    with pytest.raises(ValueError):
        normal_form(X, [], order)
    with pytest.raises(ValueError):
        normal_form(X, [MPoly.zero(VARS)], order)


def test_s_polynomial_cancels_leads():
    order = MonomialOrder("degrevlex", VARS)
    f = X**2 + Y
    g = X * Y + Z
    s = s_polynomial(f, g, order)
    fexp, _ = order.leading(f)
    gexp, _ = order.leading(g)
    lcm = tuple(max(i, j) for i, j in zip(fexp, gexp))
    sexp, _ = order.leading(s)
    assert order.key(sexp) < order.key(lcm)


def test_buchberger_katsura_like_system():
    order = MonomialOrder("degrevlex", VARS)
    gens = [X + 2 * Y + 2 * Z - 1, X**2 + 2 * Y**2 + 2 * Z**2 - X]
    gb = buchberger(gens, order)
    assert is_groebner(gb, order)
    for g in gens:
        assert normal_form(g, gb, order) == MPoly.zero(VARS)


def test_buchberger_output_canonical():
    order = MonomialOrder("degrevlex", VARS)
    gens = [X**2 - Y, X * Y - Z, Y**2 - X * Z]
    gb1 = buchberger(gens, order)
    gb2 = buchberger(list(reversed(gens)), order)
    assert gb1 == gb2
    for g in gb1:
        _, c = order.leading(g)
        assert c == 1
    keys = [order.key(order.leading(g)[0]) for g in gb1]
    assert keys == sorted(keys)


def test_buchberger_random_spolys_reduce():
    order = MonomialOrder("degrevlex", VARS)
    for _ in range(20):
        gens = [rand_poly(3, 2) for _ in range(3)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        gb = buchberger(gens, order)
        assert is_groebner(gb, order)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                s = s_polynomial(gb[i], gb[j], order)
                assert normal_form(s, gb, order) == MPoly.zero(VARS)


def test_is_groebner_detects_incomplete_basis():
    order = MonomialOrder("lex", VARS)
    assert not is_groebner([X**2 - Y, X * Y - Z], order)


@pytest.mark.parametrize(
    "exp, error",
    [
        ((-1,), ValueError),
        ((1.5,), TypeError),
        ((True,), TypeError),
        ((Fraction(1),), TypeError),
    ],
)
def test_constructor_rejects_non_polynomial_exponents(exp, error):
    with pytest.raises(error):
        MPoly(("x",), {exp: 1})
    with pytest.raises(error):
        MPoly(VARS, {(0, 0) + exp: 1})


@pytest.mark.parametrize("kind", ["lex", "degrevlex"])
def test_descending_key_reverses_key(kind):
    order = MonomialOrder(kind, VARS)
    local = random.Random(31)
    exps = list({tuple(local.randint(0, 4) for _ in VARS) for _ in range(200)})
    by_key = sorted(exps, key=order.key, reverse=True)
    assert sorted(exps, key=order.descending_key) == by_key


def _assert_clean(r):
    """The module invariant that ``MPoly._trusted`` relies on."""
    n = len(r.variables)
    assert isinstance(r.variables, tuple)
    for exp, c in r.terms.items():
        assert type(exp) is tuple and len(exp) == n
        assert all(type(e) is int and e >= 0 for e in exp)
        assert type(c) is Fraction and c != 0
    assert MPoly(r.variables, r.terms) == r


@pytest.mark.parametrize("nvars", [3, 8])
def test_arithmetic_results_satisfy_invariant(nvars):
    local = random.Random(7000 + nvars)
    names = tuple(f"v{i}" for i in range(nvars))
    order = MonomialOrder("degrevlex", names)

    def rand_coeff():
        return Fraction(local.randint(-6, 6), local.randint(1, 5))

    def rpoly(nterms, maxdeg):
        terms = {}
        for _ in range(nterms):
            exp = tuple(local.randint(0, maxdeg) if local.random() < 0.5 else 0
                        for _ in names)
            terms[exp] = rand_coeff()
        return MPoly(names, terms)

    def rquadric():
        # three quadratic terms: a nontrivial, non-unit ideal in any nvars
        terms = {}
        for _ in range(3):
            exp = [0] * nvars
            for _ in range(2):
                exp[local.randrange(nvars)] += 1
            terms[tuple(exp)] = rand_coeff()
        return MPoly(names, terms)

    for _ in range(40):
        a, b = rpoly(5, 3), rpoly(5, 3)
        results = (
            a + b, a - b, -a, a - a, a * b, (a + b) * (a - b), a**3,
            a * 0, a * Fraction(2, 3), a.derivative(names[0]),
            a.derivative(names[-1]),
        )
        for r in results:
            _assert_clean(r)
    for _ in range(4):
        gens = [rquadric() for _ in range(3)]
        _assert_clean(s_polynomial(gens[0], gens[1], order))
        gb = buchberger(gens, order)
        assert len(gb) > 1
        for g in gb:
            _assert_clean(g)
        for _ in range(5):
            _assert_clean(normal_form(rpoly(6, 3), gb, order))
