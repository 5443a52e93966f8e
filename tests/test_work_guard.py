"""Deterministic work guard for the exact core.  Arithmetic results are
built through the trusted constructor, so the validating
``MPoly.__init__`` runs only where outside input enters.  Counting its
calls (never timing anything) pins that property: a regression back to
re-validating every result fails here on any machine."""

from fractions import Fraction

import pytest

from conngerm import kuranishi, poly
from conngerm.deformation import build_cocycle, congruence_check, wp_series
from conngerm.kuranishi import COORDS, DEFAULT_ORDER, groebner_basis
from conngerm.poly import MPoly, ring


@pytest.fixture
def init_calls(monkeypatch):
    count = [0]
    original = MPoly.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(MPoly, "__init__", counting)
    return count


def test_normal_form_builds_no_validated_polynomials(init_calls):
    basis = groebner_basis()
    x, x12, x21, y, y12 = (
        MPoly.gen(COORDS, n) for n in ("x", "x12", "x21", "y", "y12")
    )
    # the first is already reduced (every term moves to the remainder);
    # the second needs reduction steps by all three leading monomials
    cases = (((x + y12 + 1) ** 6, False), ((x12 + x21 + y + y12 + 1) ** 4, True))
    for f, reduces in cases:
        init_calls[0] = 0
        r = poly.normal_form(f, basis, DEFAULT_ORDER)
        assert init_calls[0] == 0
        assert (r != f) == reduces
        assert poly.normal_form(r, basis, DEFAULT_ORDER) == r
        assert not poly.normal_form(f - r, basis, DEFAULT_ORDER)


def test_arithmetic_on_polynomials_builds_no_validated_polynomials(init_calls):
    x, y, z = ring("x,y,z")
    a = (x + 2 * y - z) ** 3
    b = Fraction(1, 3) * x * z + y**2
    init_calls[0] = 0
    results = [a * b, a + b, a - b, -a, a.derivative("y")]
    assert init_calls[0] == 0
    assert all(results)


def test_congruence_check_validation_budget(init_calls):
    wp = wp_series(4, 0, 10)
    cocycle = build_cocycle(6, 10, wp)
    init_calls[0] = 0
    assert congruence_check(cocycle, 6).ok
    assert init_calls[0] <= 160


def test_point_count_walks_p_cubed_fibres(monkeypatch):
    calls = [0]
    original = kuranishi._rank_mod_p

    def counting(m, p):
        calls[0] += 1
        return original(m, p)

    monkeypatch.setattr(kuranishi, "_rank_mod_p", counting)
    assert kuranishi.count_points_mod_p(13) == 13**4 + 13**3 - 13
    assert calls[0] == 13**3


@pytest.mark.parametrize("n, most", [(1, 1), (2, 2), (6, 4), (8, 4)])
def test_power_squares_only_while_bits_remain(monkeypatch, n, most):
    calls = [0]
    original = MPoly.__mul__

    def counting(self, other):
        calls[0] += 1
        return original(self, other)

    x, y = ring("x,y")
    base = x + 2 * y + 1
    expected = MPoly.const(base.variables, 1)
    for _ in range(n):
        expected = expected * base
    monkeypatch.setattr(MPoly, "__mul__", counting)
    assert base**n == expected
    assert calls[0] <= most


def test_congruence_check_work_does_not_grow_with_the_z_truncation(monkeypatch):
    calls = [0]
    original = MPoly.__mul__

    def counting(self, other):
        calls[0] += 1
        return original(self, other)

    cocycles = [build_cocycle(6, n, wp_series(4, 0, n)) for n in (10, 24)]
    monkeypatch.setattr(MPoly, "__mul__", counting)
    counts = []
    for cocycle in cocycles:
        calls[0] = 0
        assert congruence_check(cocycle, 6).ok
        counts.append(calls[0])
    assert counts[0] == counts[1] <= 240
