"""The shared sparse-sum rules against the code they replaced.

Polynomials, Laurent series and differential operators print through
one signed-sum renderer and add through one term merge; orbit
representatives reduce by ``normal_form``, and ``MPoly.subs`` is an
evaluation.  The references below are the former per-class
implementations, kept verbatim apart from being module-level functions
(and the series printer reading the reference polynomial printer), so
every rendering and reduction is compared with the old rules on seeded
inputs."""

import random
from fractions import Fraction

import pytest

from conngerm.diffop import DiffOp, render
from conngerm.kuranishi import SQRT_VARS, sqrt_reduce
from conngerm.poly import MPoly
from conngerm.series import TruncLaurent

rng = random.Random(1313)
VARS = ("x", "y", "z")
ZVARS = ("z",)
ZGEN = MPoly.gen(ZVARS, "z")


# -- the former printers --------------------------------------------------


def ref_mpoly_term_str(self, exp, c):
    factors = []
    mag = abs(c)
    for name, e in zip(self.variables, exp):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    if not factors or mag != 1:
        factors.insert(0, str(mag))
    return "*".join(factors)


def ref_mpoly_str(self):
    if not self.terms:
        return "0"
    # graded-lex descending: stable across runs and platforms
    exps = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
    out = []
    for i, exp in enumerate(exps):
        c = self.terms[exp]
        body = ref_mpoly_term_str(self, exp, c)
        if i == 0:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out)


def ref_render(op):
    if not op.coeffs:
        return "0"
    items = []
    for k in sorted(op.coeffs, reverse=True):
        f = op.coeffs[k]
        for exp in sorted(f.terms):
            items.append((k, exp[0], f.terms[exp]))
    out = []
    for i, (k, j, c) in enumerate(items):
        body = ref_term_body(k, j, c)
        if i == 0:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out)


def ref_term_body(k, j, c):
    factors = []
    if j == 1:
        factors.append("z")
    elif j > 1:
        factors.append(f"z^{j}")
    if k == 1:
        factors.append("d")
    elif k > 1:
        factors.append(f"d^{k}")
    mag = abs(c)
    if not factors or mag != 1:
        factors.insert(0, str(mag))
    return "*".join(factors)


def ref_series_term_str(self, k, c):
    cstr = ref_mpoly_str(c) if isinstance(c, MPoly) else str(c)
    if isinstance(c, MPoly) and (" " in cstr or cstr.startswith("-")):
        cstr = f"({cstr})"
    if k == 0:
        return cstr
    zpow = self.var if k == 1 else f"{self.var}^{k}"
    if cstr == "1":
        return zpow
    if cstr == "-1":
        return f"-{zpow}"
    return f"{cstr}*{zpow}"


def ref_series_str(self):
    parts = [ref_series_term_str(self, k, self.coeffs[k]) for k in sorted(self.coeffs)]
    body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
    if self.trunc is not None:
        body += f" + O({self.var}^{self.trunc})"
    return body


# -- the former reduction and substitution ------------------------------


def ref_sqrt_reduce(p, c1, c2):
    result = MPoly.zero(SQRT_VARS)
    for (e1, e2), c in p.terms.items():
        q1d, m1 = divmod(e1, 2)
        q2d, m2 = divmod(e2, 2)
        coeff = c * (c1**q1d) * (c2**q2d)
        result = result + MPoly(SQRT_VARS, {(m1, m2): coeff})
    return result


def ref_subs(self, values):
    result = MPoly.zero(self.variables)
    gens = {v: MPoly.gen(self.variables, v) for v in self.variables}
    for exp, c in self.terms.items():
        part = MPoly.const(self.variables, c)
        for i, e in enumerate(exp):
            if e:
                name = self.variables[i]
                base = values.get(name, gens[name])
                if not isinstance(base, MPoly):
                    base = MPoly.const(self.variables, base)
                part = part * base ** e
        result = result + part
    return result


# -- seeded inputs ----------------------------------------------------------


def rat():
    if rng.random() < 0.35:
        return Fraction(rng.choice((1, -1)))
    return Fraction(rng.choice([n for n in range(-7, 8) if n]), rng.randint(1, 5))


def rand_poly(variables=VARS, terms=None, max_exp=3):
    n = rng.randint(0, 4) if terms is None else terms
    return MPoly(
        variables,
        {tuple(rng.randint(0, max_exp) for _ in variables): rat() for _ in range(n)},
    )


def series_coeff():
    """A Fraction, or an MPoly that is a signed constant, one term of
    either sign, or a compound polynomial."""
    r = rng.random()
    if r < 0.4:
        return rat()
    if r < 0.55:
        return MPoly.const(VARS, rng.choice((1, -1, Fraction(-1, 2))))
    if r < 0.7:
        return rand_poly(terms=1)
    return rand_poly(terms=rng.randint(2, 3))


def rand_series():
    trunc = rng.choice((None, rng.randint(-2, 6)))
    coeffs = {rng.randint(-4, 6): series_coeff() for _ in range(rng.randint(0, 5))}
    return TruncLaurent("z", coeffs, trunc)


def rand_op():
    return DiffOp(
        {rng.randint(0, 4): rand_poly(ZVARS, rng.randint(0, 3), 4)
         for _ in range(rng.randint(0, 3))}
    )


def stored_values(x):
    return list((x.terms if isinstance(x, MPoly) else x.coeffs).values())


# -- tests ------------------------------------------------------------------------


def test_printers_match_the_former_printers():
    one, minus_one, minus_half = (MPoly.const(VARS, c) for c in (1, -1, Fraction(-1, 2)))
    signed = TruncLaurent(
        "z", {-2: minus_half, 0: minus_one, 1: minus_one, 2: one, 3: -1}, 4
    )
    assert str(signed) == "(-1/2)*z^-2 + (-1) + (-1)*z + z^2 - z^3 + O(z^4)"
    polys = [MPoly.zero(VARS), one, minus_one, minus_half]
    polys += [rand_poly() for _ in range(300)]
    ops = [DiffOp.zero(), DiffOp.one(), -DiffOp.d(), DiffOp.coefficient(-ZGEN)]
    ops += [rand_op() for _ in range(300)]
    series = [TruncLaurent.zero("z"), TruncLaurent.zero("z", 3), signed]
    series += [rand_series() for _ in range(300)]
    for p in polys:
        assert str(p) == ref_mpoly_str(p)
    for op in ops:
        assert render(op) == str(op) == ref_render(op)
    for s in series:
        assert str(s) == ref_series_str(s)


@pytest.mark.parametrize("make", [rand_poly, rand_series, rand_op])
def test_difference_is_sum_with_negation_and_stores_no_zero(make):
    for _ in range(150):
        a, b = make(), make()
        if rng.random() < 0.2:
            b = -a if rng.random() < 0.5 else a  # sums that cancel entirely
        diff, total = a - b, a + b
        assert diff == a + (-b)
        assert a - a == a + (-a)
        for result in (diff, total, a - a):
            assert all(stored_values(result))


def test_series_merge_mixes_fraction_and_polynomial_coefficients():
    x = MPoly.gen(VARS, "x")
    a = TruncLaurent("z", {0: Fraction(2), 1: x, 3: Fraction(1, 3)}, 5)
    b = TruncLaurent("z", {0: MPoly.const(VARS, 2), 1: x, 4: Fraction(1)})
    assert (a - b).coeffs == {3: Fraction(1, 3), 4: Fraction(-1)}
    assert (a - b).trunc == 5
    assert (a + b).coeffs == {0: MPoly.const(VARS, 4), 1: 2 * x,
                              3: Fraction(1, 3), 4: Fraction(1)}


def test_sqrt_reduce_matches_the_rule_based_reduction():
    constants = (Fraction(0), Fraction(-1), Fraction(-3), Fraction(2, 7),
                 Fraction(-5, 3), Fraction(4))
    for _ in range(200):
        p = rand_poly(SQRT_VARS, rng.randint(0, 6), 6)
        c1, c2 = rng.choice(constants), rng.choice(constants)
        got = sqrt_reduce(p, c1, c2)
        assert got == ref_sqrt_reduce(p, c1, c2)
        assert all(e1 < 2 and e2 < 2 for e1, e2 in got.terms)


def test_subs_matches_the_former_substitution():
    for _ in range(200):
        p = rand_poly()
        values = {v: rat() if rng.random() < 0.5 else rand_poly(terms=2, max_exp=1)
                  for v in rng.sample(VARS, rng.randint(0, 3))}
        assert p.subs(values) == ref_subs(p, values)


def test_subs_rejects_a_float_value():
    x, y = MPoly.gen(VARS, "x"), MPoly.gen(VARS, "y")
    for value in (0.5, 0.0):
        with pytest.raises(TypeError):
            (x * y + 1).subs({"x": value})
