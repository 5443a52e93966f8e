"""Singularities of the Kuranishi germ, read off Groebner bases.

The germ is the quadric cone {q1 = q2 = q3 = 0}; its quotient is the
image cone w^2 = w1*w2.  Three oracles tie those facts to the bases the
package computes: the Hilbert function of the quadric ideal, the
elimination ideal of the invariant map, and the Jacobian criterion.
Every polynomial here is written out from the formulas in the
``kuranishi`` module docstring, not taken from ``quadrics()`` or
``psi()``.
"""

from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from conngerm.kuranishi import COORDS, DEFAULT_ORDER, groebner_basis
from conngerm.poly import MonomialOrder, buchberger, normal_form, ring

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


@pytest.mark.parametrize("basis", [groebner_basis, _hand_basis], ids=["package", "by-hand"])
def test_hilbert_function_of_the_quadric_cone(basis):
    """The traceless part is the 2x3 rank <= 1 determinantal variety
    (dimension 4, degree 3); with the two free trace coordinates the
    Hilbert series is (1 + 2t)/(1 - t)^6."""
    leads = [DEFAULT_ORDER.leading(g)[0] for g in basis()]
    n = len(COORDS)
    counts = []
    for d in range(6):
        standard = 0
        for picks in combinations_with_replacement(range(n), d):
            e = tuple(picks.count(i) for i in range(n))
            standard += not any(_divides(lead, e) for lead in leads)
        counts.append(standard)
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
