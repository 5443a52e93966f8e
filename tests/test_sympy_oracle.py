"""Differential oracle: reduced Groebner bases, normal forms and exact
matrix ranks against the locally installed sympy.  sympy is a test-only reference; the
package itself never imports it."""

import random
from fractions import Fraction

import pytest

from conngerm.cohomology import rank_exact
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


def _rand_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)]


@pytest.mark.parametrize("seed", range(6))
def test_rank_exact_matches_sympy(seed):
    rng = random.Random(7300 + seed)
    for _ in range(8):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        # a product through an inner dimension below min(rows, cols) is
        # rank-deficient; a plain draw is usually of full rank
        inner = rng.randint(0, min(rows, cols))
        a, b = _rand_matrix(rng, rows, inner), _rand_matrix(rng, inner, cols)
        deficient = [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
                      for j in range(cols)] for i in range(rows)]
        for m in (deficient, _rand_matrix(rng, rows, cols)):
            ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                 for x in row] for row in m]).rank()
            assert rank_exact(m) == ref
