"""Dimension chases on a genus-1 curve, hypercohomology strips, and the
fiber-dimension formulas.  Chases are checked against line-bundle facts
and an additivity oracle for the Euler characteristic."""

import random
from fractions import Fraction

import pytest

from conngerm.cohomology import (
    M2_BASIS,
    UPPER_TRIANGULAR_BASIS,
    CohDims,
    Extension,
    HyperCohInput,
    Leaf,
    Sum,
    chase,
    connection_exists,
    d1_rank,
    fiber_dimension,
    hypercoh_dims,
    rr_line,
)

rng = random.Random(9229)


def test_rr_line_table():
    assert rr_line(3) == CohDims(3, 0)
    assert rr_line(1) == CohDims(1, 0)
    assert rr_line(-2) == CohDims(0, 2)
    assert rr_line(0, trivial=True) == CohDims(1, 1)
    assert rr_line(0, trivial=False) == CohDims(0, 0)


def test_rr_line_euler():
    for d in range(-6, 7):
        for triv in (False, True):
            if d != 0 and triv:
                continue
            c = rr_line(d, triv)
            assert c.chi == d


def test_chase_leaves_and_sums():
    assert chase(Leaf(2)) == CohDims(2, 0)
    assert chase(Sum([Leaf(1), Leaf(2), Leaf(-1)])) == CohDims(3, 1)


def test_chase_extension_examples():
    assert chase(Extension(Leaf(1), Leaf(2), 0)) == CohDims(3, 0)
    assert chase(Extension(Leaf(2), Leaf(3), 0)) == CohDims(5, 0)
    nested = Extension(
        Extension(Leaf(1), Leaf(2), 0), Extension(Leaf(2), Leaf(3), 0), 0
    )
    assert chase(nested) == CohDims(8, 0)
    assert chase(Extension(Leaf(-1), Leaf(0, trivial=True), 1)) == CohDims(0, 1)


def test_chase_boundary_rank_bounds():
    # boundary maps h0(right) into h1(left)
    with pytest.raises(ValueError):
        chase(Extension(Leaf(1), Leaf(2), 1))  # h1(left) = 0
    with pytest.raises(ValueError):
        chase(Extension(Leaf(-1), Leaf(-2), 1))  # h0(right) = 0
    with pytest.raises(ValueError):
        chase(Extension(Leaf(-1), Leaf(0, trivial=True), 2))


def rand_descriptor(depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.4:
        d = rng.randint(-4, 4)
        return Leaf(d, trivial=(d == 0 and rng.random() < 0.5))
    if roll < 0.7:
        left = rand_descriptor(depth + 1)
        right = rand_descriptor(depth + 1)
        bound = min(chase(right).h0, chase(left).h1)
        return Extension(left, right, rng.randint(0, bound))
    return Sum([rand_descriptor(depth + 1) for _ in range(rng.randint(1, 3))])


def leaves_of(desc):
    if isinstance(desc, Leaf):
        return [desc]
    if isinstance(desc, Extension):
        return leaves_of(desc.left) + leaves_of(desc.right)
    return [x for p in desc.parts for x in leaves_of(p)]


def test_euler_additivity_random():
    """chi ignores the boundary ranks entirely: it is the sum of the
    leaf degrees, except that nontrivial degree-0 leaves contribute 0
    on both sides."""
    for _ in range(500):
        desc = rand_descriptor()
        c = chase(desc)
        assert c.chi == sum(rr_line(l.degree, l.trivial).chi for l in leaves_of(desc))
        assert c.h0 >= 0 and c.h1 >= 0


def test_hypercoh_instances():
    assert hypercoh_dims(HyperCohInput(4, 4, 4, 4, 0, 0)) == (4, 8, 4)
    assert hypercoh_dims(HyperCohInput(4, 4, 4, 4, 2, 2)) == (2, 4, 2)
    assert hypercoh_dims(HyperCohInput(3, 3, 3, 3, 2, 2)) == (1, 2, 1)
    assert hypercoh_dims(HyperCohInput(1, 1, 8, 0, 0, 0)) == (1, 9, 0)
    assert hypercoh_dims(HyperCohInput(3, 3, 8, 0, 2, 0)) == (1, 9, 0)
    assert hypercoh_dims(HyperCohInput(3, 3, 8, 0, 1, 0)) == (2, 10, 0)


def test_hypercoh_validation():
    with pytest.raises(ValueError):
        HyperCohInput(1, 1, 1, 1, 2, 0)  # r0 > min(h00, h10)
    with pytest.raises(ValueError):
        HyperCohInput(1, 1, 1, 1, 0, 2)
    with pytest.raises(ValueError):
        HyperCohInput(-1, 0, 0, 0, 0, 0)


def test_hypercoh_euler_is_rank_independent():
    for _ in range(500):
        h00, h01, h10, h11 = (rng.randint(0, 6) for _ in range(4))
        r0 = rng.randint(0, min(h00, h10))
        r1 = rng.randint(0, min(h01, h11))
        H0, H1, H2 = hypercoh_dims(HyperCohInput(h00, h01, h10, h11, r0, r1))
        assert H0 - H1 + H2 == (h00 - h01) - (h10 - h11)


def test_d1_rank_values():
    zero = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    assert d1_rank(zero) == 0
    diag = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    assert d1_rank(diag) == 2
    nilp = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    assert d1_rank(nilp) == 2
    ident = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert d1_rank(ident) == 0
    assert d1_rank(diag, UPPER_TRIANGULAR_BASIS) == 1


def test_d1_rank_rejects_dependent_domain():
    a = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        d1_rank(a, (M2_BASIS[0], M2_BASIS[0]))


def _conj(g, ginv, m):
    def mul(p, q):
        return tuple(
            tuple(sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    return mul(mul(g, m), ginv)


def rand_sl2():
    while True:
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        det = a * d - b * c
        if det != 0:
            g = ((a, b), (c, d))
            ginv = ((d / det, -b / det), (-c / det, a / det))
            return g, ginv


def test_d1_rank_conjugation_invariant():
    for _ in range(200):
        m = tuple(
            tuple(Fraction(rng.randint(-4, 4)) for _ in range(2)) for _ in range(2)
        )
        g, ginv = rand_sl2()
        assert d1_rank(m) == d1_rank(_conj(g, ginv, m))


def test_fiber_dimension_formulas():
    assert fiber_dimension(2, 1, 2) == 8
    assert fiber_dimension(1, 1, 0) == 1
    assert fiber_dimension(2, 2, 0) == 5
    for r in range(1, 5):
        for g in range(1, 4):
            assert fiber_dimension(r, g, 0) == r * r * (g - 1) + 1
            for degd in range(1, 4):
                assert fiber_dimension(r, g, degd) == r * r * (g - 1 + degd)


def test_fiber_dimension_validation():
    with pytest.raises(ValueError):
        fiber_dimension(0, 1, 1)
    with pytest.raises(ValueError):
        fiber_dimension(2, 0, 1)
    with pytest.raises(ValueError):
        fiber_dimension(2, 1, -1)


def test_connection_exists():
    assert connection_exists(2, 3, 2, False)
    assert connection_exists(2, 0, 1, False)
    assert not connection_exists(2, 1, 0, True)
    assert connection_exists(2, 0, 0, True)
    assert not connection_exists(2, 0, 0, False)


def test_d1_rank_rejects_float_entries():
    with pytest.raises(TypeError):
        d1_rank(((0.1, 0), (0, 0.5)))
