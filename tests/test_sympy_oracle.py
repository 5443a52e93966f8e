"""Differential oracle: reduced Groebner bases and normal forms against
the locally installed sympy.  sympy is a test-only reference; the
package itself never imports it."""

import random
from fractions import Fraction

import pytest

from conngerm.poly import MonomialOrder, MPoly, buchberger, normal_form

sympy = pytest.importorskip("sympy")

VARS = ("x", "y", "z")
ORDER = MonomialOrder("degrevlex", VARS)
SYMS = sympy.symbols(VARS)


def _rand_poly(rng, nterms, maxdeg):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, maxdeg) for _ in VARS)
        terms[exp] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return MPoly(VARS, terms)


def _to_sympy(p):
    terms = {e: sympy.Rational(c.numerator, c.denominator)
             for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *SYMS, domain="QQ")


def _from_sympy(p):
    p = sympy.Poly(p, *SYMS, domain="QQ")
    return MPoly(VARS, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})


def _monic(p):
    _, c = ORDER.leading(p)
    return p * (1 / c)


def _canonical(basis):
    monic = [_monic(g) for g in basis]
    return sorted(monic, key=lambda g: ORDER.key(ORDER.leading(g)[0]))


@pytest.mark.parametrize("seed", range(8))
def test_groebner_and_normal_form_match_sympy(seed):
    rng = random.Random(9100 + seed)
    gens = [g for g in (_rand_poly(rng, 3, 2) for _ in range(3)) if g]
    ours = buchberger(gens, ORDER)
    ref = sympy.groebner([_to_sympy(g) for g in gens], *SYMS,
                         order="grevlex", domain="QQ")
    ref_basis = [_from_sympy(g) for g in ref.exprs]
    assert _canonical(ours) == _canonical(ref_basis)
    ref_polys = [_to_sympy(g) for g in ref_basis]
    for _ in range(3):
        probe = _rand_poly(rng, 6, 3)
        _, rem = sympy.reduced(_to_sympy(probe), ref_polys, *SYMS,
                               order="grevlex", domain="QQ")
        assert normal_form(probe, ours, ORDER) == _from_sympy(rem)
