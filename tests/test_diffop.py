import random
from fractions import Fraction

import pytest

from conngerm.diffop import (
    DiffOp,
    DiffOpParseError,
    LambdaVariant,
    filtration_order,
    lambda_membership,
    normalize,
    parse_diffop,
    render,
    z_gen,
    z_power,
)
from conngerm.poly import MPoly

rng = random.Random(31)
Z = z_gen()


def rand_zpoly(maxdeg=4):
    terms = {
        (k,): Fraction(rng.randint(-4, 4))
        for k in range(maxdeg + 1)
        if rng.random() < 0.5
    }
    return MPoly(("z",), terms)


def rand_op(maxorder=3):
    return DiffOp({k: rand_zpoly() for k in range(maxorder + 1)})


def apply_op(op, f):
    """Independent action of an operator on a polynomial in z."""
    out = MPoly.zero(("z",))
    for k, coeff in op.coeffs.items():
        g = f
        for _ in range(k):
            g = g.derivative("z")
        out = out + coeff * g
    return out


def test_commutation_rule():
    # the ring's defining relation, stated as a normal form
    result = DiffOp.d() * DiffOp.coefficient(Z)
    assert result == DiffOp({1: Z, 0: MPoly.const(("z",), 1)})
    assert render(result) == "z*d + 1"


def test_d_z_minus_z_d_is_one():
    d = DiffOp.d()
    zop = DiffOp.coefficient(Z)
    assert d * zop - zop * d == DiffOp.one()


def test_weighted_generator_square():
    gen = DiffOp.coefficient(z_power(2)) * DiffOp.d()
    sq = gen * gen
    assert render(sq) == "z^4*d^2 + 2*z^3*d"
    assert sq.order() == 2


def test_normalize_folds_letters():
    assert normalize(["d", Z]) == DiffOp.d() * DiffOp.coefficient(Z)
    assert normalize([Fraction(3)]) == DiffOp.one() * 3
    assert normalize([]) == DiffOp.one()


def test_multiplication_matches_action_oracle():
    for _ in range(500):
        a, b = rand_op(2), rand_op(2)
        f = rand_zpoly(3)
        assert apply_op(a * b, f) == apply_op(a, apply_op(b, f))


def test_associativity_random():
    for _ in range(500):
        a, b, c = rand_op(2), rand_op(2), rand_op(2)
        assert (a * b) * c == a * (b * c)


def test_order_filtration():
    a, b = rand_op(2), rand_op(3)
    if a.coeffs.get(2) and b.coeffs.get(3):
        assert filtration_order(a * b) == 5
    assert DiffOp.zero().order() == float("-inf")


def test_parse_round_trip():
    for text in ("d", "z", "z^3*d + z^2", "(z^2*d)^2", "2*d^2 - 3*z*d + 1",
                 "-d", "z*(d + 1)"):
        op = parse_diffop(text)
        assert parse_diffop(render(op)) == op


def test_parse_errors_carry_position():
    with pytest.raises(DiffOpParseError) as err:
        parse_diffop("z^")
    assert err.value.position == 2
    with pytest.raises(DiffOpParseError):
        parse_diffop("z +")
    with pytest.raises(DiffOpParseError):
        parse_diffop("(z*d")
    with pytest.raises(DiffOpParseError):
        parse_diffop("z d")
    with pytest.raises(DiffOpParseError):
        parse_diffop("")
    with pytest.raises(DiffOpParseError):
        parse_diffop("w*d")


def test_variant_validation():
    with pytest.raises(ValueError):
        LambdaVariant("meromorphic", 0)
    with pytest.raises(ValueError):
        LambdaVariant("logarithmic", 2)
    with pytest.raises(ValueError):
        LambdaVariant("nonsense")
    assert LambdaVariant("logarithmic").pole_mult == 1


def test_membership_full_ring_is_everything():
    with pytest.raises(ValueError):
        lambda_membership(DiffOp.d(), LambdaVariant("full"))


def test_membership_positive_cases():
    var2 = LambdaVariant("meromorphic", 2)
    ok = lambda_membership(parse_diffop("z^4*d^2 + 2*z^3*d"), var2)
    assert ok.member and ok.failing_order is None
    assert ok.certificate_str() == "(z^2*d)^2"
    log = lambda_membership(parse_diffop("z*d"), LambdaVariant("logarithmic"))
    assert log.member


def test_membership_negative_cases():
    var2 = LambdaVariant("meromorphic", 2)
    bad = lambda_membership(parse_diffop("z*d"), var2)
    assert not bad.member and bad.failing_order == 1
    assert bad.certificate is None
    bad2 = lambda_membership(parse_diffop("z^3*d^2"), var2)
    assert not bad2.member and bad2.failing_order == 2


def test_membership_soundness_random():
    """Random words in the generators must be recognized, and the
    certificate must rebuild the input exactly (the library asserts the
    reconstruction internally; we re-check membership flags here)."""
    for d in (1, 2, 3):
        variant = LambdaVariant("meromorphic", d) if d > 1 else LambdaVariant("logarithmic")
        gen = DiffOp.coefficient(z_power(d)) * DiffOp.d()
        for _ in range(100):
            op = DiffOp.one() * Fraction(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4)):
                step = rng.choice(("gen", "fn"))
                if step == "gen":
                    op = gen * op
                else:
                    op = DiffOp.coefficient(rand_zpoly(2)) * op
            result = lambda_membership(op, variant)
            assert result.member, render(op)


def test_membership_closure_under_products():
    # surplus powers only accumulate, so products of members are members
    var3 = LambdaVariant("meromorphic", 3)
    gen = DiffOp.coefficient(z_power(3)) * DiffOp.d()
    a = gen * gen + DiffOp.coefficient(rand_zpoly(2))
    b = gen + DiffOp.one()
    for op in (a * b, b * a, a * a):
        assert lambda_membership(op, var3).member


def test_render_style():
    op = DiffOp({2: z_power(4), 1: 2 * z_power(3)})
    assert render(op) == "z^4*d^2 + 2*z^3*d"
    assert render(DiffOp.zero()) == "0"
    assert render(-DiffOp.d()) == "-d"
    assert render(DiffOp.one() * Fraction(1, 2)) == "1/2"


def test_left_multiplication_by_a_polynomial_keeps_the_order():
    d = DiffOp.d()
    assert render(Z * d) == render(DiffOp.coefficient(Z) * d) == "z*d"
    assert render(d * Z) == "z*d + 1"
    assert render(2 * d) == render(d * 2) == "2*d"
    assert render(Fraction(1, 2) * d) == "1/2*d"
