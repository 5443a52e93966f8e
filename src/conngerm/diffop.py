"""Differential-operator rewriting in one variable, with subalgebra
membership tests for operators generated by constrained vector fields.

Operators live in the Weyl algebra Q[z]<d> with the single relation
d*f = f*d + f' (so d*z - z*d = 1).  Normal form: all coefficients moved
left of the powers of d, i.e. L = sum_k f_k(z) d^k.  Products are
computed by the Leibniz expansion

    (f d^a)(g d^b) = sum_j C(a,j) * f * g^(j) * d^(a+b-j).

Filtration: Lambda_i = operators of d-order <= i; the order of a product
is the sum of orders whenever both leading coefficients are nonzero.

Membership criterion.  Fix d >= 1 and let W be the subalgebra generated
by the polynomial coefficients and the single field w = z^d*d (poles of
multiplicity d; d = 1 is the logarithmic case, fields preserving the
ideal (z)).  Write S = { sum_k f_k d^k : z^(k*d) divides f_k for all k }.

* S is closed under products: for f d^a and g d^b with z^(a*d) | f and
  z^(b*d) | g, each Leibniz term has coefficient f*g^(j), divisible by
  z^(a*d + b*d - j); the required bound for order a+b-j is (a+b-j)*d,
  and the surplus is j*(d-1) >= 0.  Hence W is contained in S.
* Conversely every element of S is reached greedily: if z^(k*d) | f_k at
  the top order k, subtracting (f_k / z^(k*d)) * w^k kills the top term
  (w^k = z^(k*d) d^k + lower order) and the remainder stays in S, since
  S is closed under subtraction and contains both operands.  Recursing
  downward terminates at order 0 with an explicit certificate
  L = sum_k c_k * w^k, c_k polynomial.

So membership in W is decided coefficient-by-coefficient in linear time,
and a positive answer always comes with a certificate that normalizes
back to the input.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .poly import MPoly, _merge, _signed_sum, _wrap

ZVARS = ("z",)
NEG_INF = float("-inf")
MAX_DEGREE = 64  # d-order plus z-degree of an operator read from text


def z_const(c):
    return MPoly.const(ZVARS, c)

def z_gen():
    return MPoly.gen(ZVARS, "z")

def z_power(k):
    return MPoly(ZVARS, {(k,): 1})


class DiffOp:
    """Normal-form operator: map from d-power k >= 0 to a nonzero
    coefficient polynomial in z.  A coefficient is an MPoly in ("z",)
    or a rational, which ``to_fraction`` admits."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for k, f in (coeffs or {}).items():
            if not isinstance(k, int) or k < 0:
                raise ValueError("d-powers must be nonnegative integers")
            if not isinstance(f, MPoly):
                f = z_const(f)
            elif f.variables != ZVARS:
                raise ValueError(f"coefficient in {f.variables}, expected {ZVARS}")
            if f:
                clean[k] = f
        self.coeffs = clean

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({0: z_const(1)})

    @classmethod
    def d(cls):
        return cls({1: z_const(1)})

    @classmethod
    def coefficient(cls, f):
        return cls({0: f})

    def _coerce(self, other):
        if isinstance(other, DiffOp):
            return other
        try:
            return DiffOp({0: other})
        except TypeError:
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DiffOp(_merge(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return DiffOp({k: -f for k, f in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DiffOp(_merge(self.coeffs, other.coeffs, subtract=True))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        coeffs = {}
        get = coeffs.get
        for a, f in self.coeffs.items():
            for b, g in other.coeffs.items():
                gj = g
                for j in range(a + 1):
                    if not gj:
                        break
                    c = f * gj
                    if j:
                        c = c * math.comb(a, j)
                    k = a + b - j
                    s = get(k)
                    coeffs[k] = c if s is None else s + c
                    gj = gj.derivative("z")
        return DiffOp(coeffs)

    def __rmul__(self, other):  # other * self: the ring is not commutative
        other = self._coerce(other)
        return NotImplemented if other is None else other * self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = DiffOp.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def order(self):
        """Filtration order: top d-power, -inf for the zero operator."""
        return max(self.coeffs) if self.coeffs else NEG_INF

    def coeff(self, k):
        return self.coeffs.get(k, z_const(0))

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"DiffOp({render(self)})"


def normalize(letters):
    """Fold a raw word (list of letters) into normal form.

    Letters are "d", polynomials in z, or plain rationals; the word is
    their noncommutative product read left to right.
    """
    result = DiffOp.one()
    for letter in letters:
        if isinstance(letter, str):
            if letter != "d":
                raise ValueError(f"unknown letter {letter!r}")
            result = result * DiffOp.d()
        else:
            result = result * letter
    return result


def filtration_order(a):
    return a.order()


@dataclass(frozen=True)
class LambdaVariant:
    """Which subalgebra of operators is meant.

    kind: "meromorphic" (fields vanishing on the divisor d*[z=0],
    generated by z^pole_mult * d) or "logarithmic" (fields preserving the
    ideal (z), generated by z*d).
    """

    kind: str
    pole_mult: int = 1

    def __post_init__(self):
        if self.kind not in ("meromorphic", "logarithmic"):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == "meromorphic" and self.pole_mult < 1:
            raise ValueError("meromorphic variant needs pole multiplicity >= 1")
        if self.kind == "logarithmic" and self.pole_mult != 1:
            raise ValueError("logarithmic variant has pole multiplicity 1")


@dataclass(frozen=True)
class Membership:
    """Outcome of a membership test, with certificate when positive.

    certificate is a tuple of (cofactor polynomial, power) pairs meaning
    sum cofactor * (z^d * d)^power; it normalizes back to the input.
    """

    member: bool
    variant: LambdaVariant
    certificate: tuple | None
    failing_order: int | None

    def certificate_str(self):
        if not self.member:
            return None
        d = self.variant.pole_mult
        gen = "z*d" if d == 1 else f"z^{d}*d"
        parts = []
        for cof, k in self.certificate:
            cstr = str(cof)
            factors = [] if k and cstr == "1" else [_wrap(cstr)]
            if k:
                factors.append(f"({gen})" if k == 1 else f"({gen})^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"


def _poly_valuation(f):
    return min(e[0] for e in f.terms)


def _shift_down(f, m):
    return MPoly(ZVARS, {(e[0] - m,): c for e, c in f.terms.items()})


def lambda_membership(a, variant):
    """Decide membership of a normalized operator in the subalgebra
    generated by the coefficients and z^d*d (see module docstring).

    Greedy top-down elimination; returns a Membership whose certificate,
    when present, has been verified by renormalization.
    """
    d = variant.pole_mult
    remainder = a
    certificate = []
    while remainder and remainder.order() >= 1:
        k = remainder.order()
        f = remainder.coeff(k)
        if _poly_valuation(f) < k * d:
            return Membership(False, variant, None, k)
        cof = _shift_down(f, k * d)
        certificate.append((cof, k))
        generator_power = DiffOp({1: z_power(d)}) ** k
        remainder = remainder - DiffOp.coefficient(cof) * generator_power
    if remainder:
        certificate.append((remainder.coeff(0), 0))
    result = Membership(True, variant, tuple(certificate), None)
    # soundness: the certificate must reproduce the input exactly
    rebuilt = DiffOp.zero()
    for cof, k in result.certificate:
        rebuilt = rebuilt + DiffOp.coefficient(cof) * DiffOp({1: z_power(d)}) ** k
    if rebuilt != a:
        raise AssertionError("membership certificate failed to verify")
    return result


# -- printing -----------------------------------------------------------


def render(op):
    """Bit-exact normal-form printing: monomial terms sorted by
    descending d-order, then ascending z-degree."""
    return _signed_sum(
        (c, [n if e == 1 else f"{n}^{e}" for n, e in (("z", j), ("d", k)) if e])
        for k in sorted(op.coeffs, reverse=True)
        for (j,), c in sorted(op.coeffs[k].terms.items())
    )


# -- parsing ------------------------------------------------------------


def _degree(op):
    """The largest j + k over the terms z^j d^k, 0 for the zero operator.
    The degree of a product is the sum of the degrees."""
    return max((k + f.degree() for k, f in op.coeffs.items()), default=0)


class DiffOpParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# whitespace, an ASCII integer, a symbol, or any other character; the
# last group makes every character match something, so none is skipped
_TOKEN = re.compile(r"\s+|([0-9]+)|([-dz+*^()])|(.)", re.DOTALL)


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        digits, symbol, other = m.groups()
        i = m.start()
        if digits:
            try:
                tokens.append(("int", int(digits), i))
            except ValueError:  # past the int-string digit limit
                raise DiffOpParseError(
                    f"integer literal of {len(digits)} digits is too long", i
                ) from None
        elif symbol:
            tokens.append((symbol, symbol, i))
        elif other:
            raise DiffOpParseError(f"unexpected character {other!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


def _check_degree(degree, pos):
    if degree > MAX_DEGREE:
        raise DiffOpParseError(
            f"operator degree {degree} exceeds the cap {MAX_DEGREE}", pos
        )


class _Parser:
    """Recursive descent for: expr := term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := atom ('^' int)?;
    atom := 'd' | 'z' | int | '(' expr ')' | '-' atom.

    Each product and power is refused before it is computed if its
    degree would pass MAX_DEGREE; a power counts each factor as at least
    degree 1, so a constant's exponent is capped too."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise DiffOpParseError(f"expected {kind!r}, got {tok[0]!r}", tok[2])
        return tok

    def expr(self):
        result = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self):
        result = self.factor()
        while self.peek() == "*":
            pos = self.next()[2]
            rhs = self.factor()
            _check_degree(_degree(result) + _degree(rhs), pos)
            result = result * rhs
        return result

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            pos = self.next()[2]
            n = self.expect("int")[1]
            _check_degree(n * max(_degree(base), 1), pos)
            base = base**n
        return base

    def atom(self):
        kind, value, pos = self.next()
        if kind == "d":
            return DiffOp.d()
        if kind == "z":
            return DiffOp.coefficient(z_gen())
        if kind == "int":
            return DiffOp.coefficient(z_const(value))
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "-":
            return -self.atom()
        raise DiffOpParseError(f"unexpected token {kind!r}", pos)


def parse_diffop(text):
    """Parse the tiny infix grammar (tokens: d, z, ASCII integers,
    + - * ^ and parentheses) into a normalized operator."""
    parser = _Parser(_tokenize(text))
    try:
        result = parser.expr()
    except RecursionError:
        raise DiffOpParseError(
            "expression nested too deeply", parser.tokens[parser.pos - 1][2]
        ) from None
    end = parser.next()
    if end[0] != "end":
        raise DiffOpParseError(f"trailing input {end[0]!r}", end[2])
    return result
