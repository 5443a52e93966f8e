"""Singularities of the Kuranishi germ, read off Groebner bases.

The germ is the quadric cone {q1 = q2 = q3 = 0}; its quotient is the
image cone w^2 = w1*w2.  Four oracles tie those facts to the bases the
package computes: the Hilbert function of the quadric ideal, the
elimination ideal of the invariant map, the Jacobian criterion, and the
sl2-invariants of the cone's ring degree by degree.
Every polynomial here is written out from the formulas in the
``kuranishi`` module docstring, not taken from ``quadrics()`` or
``psi()``.
"""

from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from conngerm.cohomology import rank_exact
from conngerm.kuranishi import COORDS, DEFAULT_ORDER, groebner_basis
from conngerm.poly import MonomialOrder, MPoly, buchberger, normal_form, ring

TRACELESS = ("x", "x12", "x21", "y", "y12", "y21")


def by_hand(x, x12, x21, y, y12, y21):
    """(q1, q2, q3) and the invariants (z, z1, z2) of the traceless parts
    T0 = [[x, x12], [x21, -x]] and Y0 = [[y, y12], [y21, -y]]."""
    q = (x12 * y21 - x21 * y12, 2 * x * y12 - 2 * x12 * y, 2 * x21 * y - 2 * y21 * x)
    z = 2 * x * y + x12 * y21 + x21 * y12  # Tr(T0*Y0)
    z1 = 2 * x * x + 2 * x12 * x21  # Tr(T0^2)
    z2 = 2 * y * y + 2 * y12 * y21  # Tr(Y0^2)
    return q, (z, z1, z2)


def _divides(d, e):
    return all(a <= b for a, b in zip(d, e))


def _hand_basis():
    x0, x, x12, x21, y0, y, y12, y21 = ring(COORDS)
    q, _ = by_hand(x, x12, x21, y, y12, y21)
    return buchberger(list(q), DEFAULT_ORDER)


def _standard_monomials(basis, d, variables=range(len(COORDS))):
    """Exponents of the degree-d monomials in the given coordinates that
    no leading monomial of basis divides."""
    leads = [DEFAULT_ORDER.leading(g)[0] for g in basis]
    out = []
    for picks in combinations_with_replacement(variables, d):
        e = tuple(picks.count(i) for i in range(len(COORDS)))
        if not any(_divides(lead, e) for lead in leads):
            out.append(e)
    return out


@pytest.mark.parametrize("basis", [groebner_basis, _hand_basis], ids=["package", "by-hand"])
def test_hilbert_function_of_the_quadric_cone(basis):
    """The traceless part is the 2x3 rank <= 1 determinantal variety
    (dimension 4, degree 3); with the two free trace coordinates the
    Hilbert series is (1 + 2t)/(1 - t)^6."""
    counts = [len(_standard_monomials(basis(), d)) for d in range(6)]
    assert counts == [comb(d + 5, 5) + 2 * comb(d + 4, 5) for d in range(6)]
    assert counts == [1, 8, 33, 98, 238, 504]


def test_elimination_leaves_only_the_cone_relation():
    """Eliminating the traceless coordinates from (q, w - z, w1 - z1,
    w2 - z2) leaves exactly w^2 - w1*w2: the invariant image of the
    germ satisfies no other relation."""
    names = TRACELESS + ("w", "w1", "w2")
    *coords, w, w1, w2 = ring(names)
    q, (z, z1, z2) = by_hand(*coords)
    order = MonomialOrder("lex", names)
    basis = buchberger([*q, w - z, w1 - z1, w2 - z2], order)
    free = [g for g in basis if not any(g.involves(v) for v in TRACELESS)]
    assert free == [w * w - w1 * w2]


def test_cone_is_singular_only_at_the_origin():
    """Adding the 2x2 minors of the Jacobian of (q1, q2, q3) cuts the
    cone down to the origin: every traceless coordinate squared lies in
    the ideal, so the germ (and its image, an A1 cone) is singular at
    the origin only."""
    coords = ring(TRACELESS)
    q, _ = by_hand(*coords)
    jacobian = [[qi.derivative(v) for v in TRACELESS] for qi in q]
    minors = [jacobian[i][k] * jacobian[j][m] - jacobian[i][m] * jacobian[j][k]
              for i, j in combinations(range(3), 2)
              for k, m in combinations(range(len(TRACELESS)), 2)]
    minors = [f for f in minors if f]
    assert len(minors) == 39
    order = MonomialOrder("degrevlex", TRACELESS)
    basis = buchberger([*q, *minors], order)
    assert all(not normal_form(c * c, basis, order) for c in coords)
    assert normal_form(coords[0], basis, order)  # the cone is not a point


def _sl2_derivations(gens):
    """ad E, ad F and ad H as maps from coordinate names to images, read
    off [E, T0] = [[x21, -2x], [0, -x21]], [F, T0] = [[-x12, 0], [2x, x12]]
    and [H, T0] = [[0, 2x12], [-2x21, 0]], and the same for Y0.  The
    trace coordinates x0, y0 are fixed."""
    e, f, h = {}, {}, {}
    for s, s12, s21 in (("x", "x12", "x21"), ("y", "y12", "y21")):
        v, v12, v21 = gens[s], gens[s12], gens[s21]
        e.update({s: v21, s12: -2 * v})
        f.update({s: -v12, s21: 2 * v})
        h.update({s12: 2 * v12, s21: -2 * v21})
    return e, f, h


def _weight(e):
    """The H-weight of a monomial: x12, y12 weigh 2, x21, y21 weigh -2."""
    w = dict(zip(COORDS, e))
    return 2 * (w["x12"] + w["y12"] - w["x21"] - w["y21"])


def test_invariants_of_the_cone_are_generated_by_z_z1_z2():
    """The Luna-slice quotient, degree by degree: sl2 acts on the cone's
    ring by derivations, and its degree-d invariants are the kernel of
    the three derivations on the degree-d standard monomials in the
    traceless coordinates.  They number 1, 0, 3, 0, 5, 0, 7 for d = 0..6,
    the Hilbert function of C[z, z1, z2]/(z^2 - z1*z2) with generators
    in degree 2, and the products of z, z1, z2 span them."""
    basis = groebner_basis()
    gens = dict(zip(COORDS, ring(COORDS)))
    derivations = _sl2_derivations(gens)
    zero = MPoly.zero(COORDS)

    def apply(derivation, p):
        return normal_form(sum((image * p.derivative(name)
                                for name, image in derivation.items()), zero),
                           basis, DEFAULT_ORDER)

    _, (z, z1, z2) = by_hand(*(gens[v] for v in TRACELESS))
    traceless = [COORDS.index(v) for v in TRACELESS]
    sizes, invariants = [], []
    for d in range(7):
        standard = _standard_monomials(basis, d, traceless)
        sizes.append(len(standard))

        def vector(p):
            assert p.terms.keys() <= set(standard)
            return [p.terms.get(e, 0) for e in standard]

        # one row per monomial, grouped by its H-weight; the groups meet
        # disjoint columns, so the rank of the stack is the sum of theirs
        blocks = {}
        for e in standard:
            monomial = MPoly(COORDS, {e: 1})
            row = [c for D in derivations for c in vector(apply(D, monomial))]
            blocks.setdefault(_weight(e), []).append(row)
        supports = [sorted({j for row in rows for j, c in enumerate(row) if c})
                    for rows in blocks.values()]
        assert sum(map(len, supports)) == len(set().union(*supports))
        rank = sum(rank_exact([[row[j] for j in cols] for row in rows])
                   for rows, cols in zip(blocks.values(), supports))
        invariants.append(len(standard) - rank)
        if d % 2:
            continue
        products = [z**a * z1**b * z2**(d // 2 - a - b)
                    for a in range(d // 2 + 1) for b in range(d // 2 + 1 - a)]
        assert len(products) == comb(d // 2 + 2, 2)
        assert all(not apply(D, p) for D in derivations for p in products)
        span = [vector(normal_form(p, basis, DEFAULT_ORDER)) for p in products]
        assert rank_exact(span) == invariants[d], d
    assert sizes == [1, 6, 18, 40, 75, 126, 196]
    assert invariants == [1, 0, 3, 0, 5, 0, 7]
