"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are stored sparsely as a map from exponent tuples to nonzero
Fraction coefficients, relative to a fixed ordered tuple of variable
names.  This is the coefficient substrate for the rest of the package:
quadric ideals, commutator identities, Laurent-series coefficients,
differential-operator coefficients.

Monomial orders are lex and degrevlex, with variable priority given by
the order's variable tuple.  Multivariate division (``normal_form``) and
Buchberger's algorithm provide ideal-membership tests for the small
determinantal-type ideals that occur here (at most eight variables,
quadratic generators), so no external computer-algebra system is needed.

Invariant.  Every MPoly holds a clean term dict: tuple keys of length
len(variables) whose entries are nonnegative ints, and nonzero Fraction
values.  The public constructor ``MPoly(variables, terms)`` is the one
place that establishes it from arbitrary input.  Arithmetic inside this
module keeps it by construction and wraps its results with
``MPoly._trusted``, which neither copies nor checks; anything passed to
``_trusted`` must already be clean.

Two rules are shared by every sparse sum in the package (polynomials
here, Laurent series and differential operators elsewhere): ``_merge``
adds or subtracts two term dicts, and ``_signed_sum`` prints
(coefficient, factors) pairs in the one signed-sum text format, with
``_wrap`` making a printed polynomial one factor.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub

_COEFF_TYPES = (int, Fraction)


def to_fraction(x):
    """x as a Fraction; only an int or a Fraction is a rational here, so a
    float, a string or anything else is a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def to_coeff(x):
    """x itself when it is an MPoly, else ``to_fraction(x)``."""
    return x if isinstance(x, MPoly) else to_fraction(x)


def _to_exponent(exp, n):
    exp = tuple(exp)
    if len(exp) != n:
        raise ValueError(f"exponent {exp} does not match {n} variables")
    for e in exp:
        if isinstance(e, bool) or not isinstance(e, int):
            raise TypeError(
                f"exponent entries must be integers, got {type(e).__name__}"
            )
        if e < 0:
            raise ValueError(f"exponent {exp} has a negative entry")
    return exp


class MonomialOrder:
    """A total, multiplicative, well-founded order on monomials.

    kind is "lex" or "degrevlex"; variable priority follows the given
    variable tuple.  ``key`` maps an exponent tuple to a sort key whose
    maximum picks the leading term.
    """

    __slots__ = ("kind", "variables")

    def __init__(self, kind, variables):
        if kind not in ("lex", "degrevlex"):
            raise ValueError(f"unknown monomial order kind: {kind!r}")
        self.kind = kind
        self.variables = tuple(variables)

    def key(self, exponent):
        e = tuple(exponent)
        if self.kind == "lex":
            return e
        # degrevlex: higher total degree wins; ties broken by the
        # smallest last-variable share (reversed, negated exponents).
        return (sum(e), tuple(map(neg, reversed(e))))

    def descending_key(self, exponent):
        """Sort key that puts larger monomials first: sorting ascending
        by it gives descending ``key`` order.  A min-heap key."""
        e = tuple(exponent)
        if self.kind == "lex":
            return tuple(map(neg, e))
        return (-sum(e), e[::-1])

    def leading(self, poly):
        """Leading (exponent, coefficient) of a nonzero polynomial."""
        if not poly.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(poly.terms, key=self.key)
        return exp, poly.terms[exp]

    def __repr__(self):
        return f"MonomialOrder({self.kind!r}, {self.variables!r})"


class MPoly:
    """Multivariate polynomial with exact rational coefficients.

    terms maps exponent tuples (one nonnegative int per variable) to
    nonzero Fraction coefficients.  Instances are immutable by
    convention: no method mutates ``self`` after construction.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        n = len(self.variables)
        clean = {}
        for exp, c in (terms or {}).items():
            exp = _to_exponent(exp, n)
            c = to_fraction(c)
            if c:
                s = clean.get(exp)
                s = c if s is None else s + c
                if s:
                    clean[exp] = s
                else:
                    del clean[exp]
        self.terms = clean

    @classmethod
    def _trusted(cls, variables, terms):
        """Wrap a term dict that already satisfies the module invariant;
        ``variables`` must be a tuple.  Nothing is checked or copied."""
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c):
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def gen(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exp: Fraction(1)})

    # -- ring structure -----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.variables != self.variables:
                raise ValueError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return other
        if isinstance(other, _COEFF_TYPES):
            return MPoly.const(self.variables, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly._trusted(self.variables, _merge(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return MPoly._trusted(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly._trusted(
            self.variables, _merge(self.terms, other.terms, subtract=True)
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _COEFF_TYPES):
            c = to_fraction(other)
            terms = {e: v * c for e, v in self.terms.items()} if c else {}
            return MPoly._trusted(self.variables, terms)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        get = terms.get
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                exp = tuple(map(add, e1, e2))
                s = get(exp)
                terms[exp] = c1 * c2 if s is None else s + c1 * c2
        return MPoly._trusted(
            self.variables, {e: c for e, c in terms.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MPoly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, _COEFF_TYPES):
            other = MPoly.const(self.variables, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries ------------------------------------------------------

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        i = self.variables.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coeff(self, exponent):
        return self.terms.get(tuple(exponent), Fraction(0))

    def involves(self, name):
        i = self.variables.index(name)
        return any(e[i] for e in self.terms)

    def is_const(self):
        return all(not any(e) for e in self.terms)

    def const_value(self):
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        zero = (0,) * len(self.variables)
        return self.terms.get(zero, Fraction(0))

    # -- calculus and substitution -------------------------------------

    def derivative(self, name):
        i = self.variables.index(name)
        terms = {}
        for exp, c in self.terms.items():
            if exp[i]:
                new = list(exp)
                new[i] -= 1
                terms[tuple(new)] = c * exp[i]
        return MPoly._trusted(self.variables, terms)

    def evaluate(self, values):
        """Fully evaluate; values maps every occurring variable name to a
        Fraction/int or to an element of another (duck-typed) ring."""
        total = Fraction(0)
        for exp, c in self.terms.items():
            part = c
            for i, e in enumerate(exp):
                if e:
                    name = self.variables[i]
                    if name not in values:
                        raise KeyError(f"no value supplied for {name!r}")
                    part = part * values[name] ** e
            total = part + total
        return total

    def subs(self, values):
        """Partial substitution; unsubstituted variables stay symbolic.
        Values may be scalars or polynomials in the same ring."""
        gens = {v: MPoly.gen(self.variables, v) for v in self.variables}
        return MPoly.zero(self.variables) + self.evaluate({**gens, **values})

    # -- printing ------------------------------------------------------

    def __str__(self):
        # graded-lex descending: stable across runs and platforms
        exps = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        return _signed_sum(
            (self.terms[exp], [n if e == 1 else f"{n}^{e}"
                               for n, e in zip(self.variables, exp) if e])
            for exp in exps
        )

    def __repr__(self):
        return f"MPoly({str(self)})"


def _merge(a, b, subtract=False):
    """The term dict a + b, or a - b, as a new dict with zero sums dropped.
    It reads only +, -, unary - and truth of the values, so Fraction,
    MPoly and mixed coefficients merge alike."""
    terms = dict(a)
    get = terms.get
    for k, c in b.items():
        s = get(k)
        if s is None:
            terms[k] = -c if subtract else c
        else:
            s = s - c if subtract else s + c
            if s:
                terms[k] = s
            else:
                del terms[k]
    return terms


def _signed_sum(terms):
    """Print (coefficient, factor strings) pairs as one signed sum, "0" when
    there are none.  A term writes its coefficient's magnitude unless that
    is 1 and factors follow; the first term takes a bare "-", each later
    one "+ " or "- "."""
    out = []
    for c, factors in terms:
        mag = abs(c)
        body = "*".join([str(mag), *factors] if mag != 1 or not factors else factors)
        if out:
            out.append(("+ " if c > 0 else "- ") + body)
        else:
            out.append(body if c > 0 else "-" + body)
    return " ".join(out) if out else "0"


def _wrap(text):
    """A printed polynomial as one factor: parenthesized at a space or a sign."""
    return f"({text})" if " " in text or text.startswith("-") else text


def ring(names):
    """Generators of a polynomial ring: ring("x,y") -> (x, y)."""
    if isinstance(names, str):
        names = tuple(n.strip() for n in names.split(","))
    else:
        names = tuple(names)
    return tuple(MPoly.gen(names, n) for n in names)


# -- division and Groebner bases ---------------------------------------


def _monomial_divides(d, e):
    return all(map(le, d, e))


def _monomial_lcm(d, e):
    return tuple(map(max, d, e))


def _monomial_mul_poly(exp, c, p):
    terms = {tuple(map(add, exp, e)): c * pc for e, pc in p.terms.items()}
    return MPoly._trusted(p.variables, terms)


def normal_form(f, basis, order):
    """Remainder of f under multivariate division by basis.

    Every term of the remainder is divisible by no leading monomial of
    the basis.  When basis is a Groebner basis, the remainder is the
    canonical representative of f modulo the ideal, and f lies in the
    ideal iff the remainder is zero.
    """
    basis = [g for g in basis if g]
    if not basis:
        raise ValueError("basis must contain a nonzero polynomial")
    _check_variables(basis, f.variables)
    return _divide(f, [_division_form(g, order) for g in basis], order)


def _check_variables(polys, variables):
    if any(g.variables != variables for g in polys):
        raise ValueError("basis/argument variable mismatch")


def _division_form(g, order):
    """What a division step by the nonzero g reads: its leading exponent,
    its leading coefficient and its other terms."""
    gexp, gc = order.leading(g)
    return gexp, gc, [(e, c) for e, c in g.terms.items() if e != gexp]


def _divide(f, divisors, order):
    """The remainder of f by divisors given in ``_division_form``.

    The division runs on one mutable term dict: each step removes the
    leading term and either subtracts the matching multiple of a
    divisor's tail in place or moves the term to the remainder.  A heap
    finds the leading term.  Every term a step adds is smaller than the
    term it removed, so an exponent never returns once it has been
    handled, and a heap entry whose term has since cancelled is skipped.
    """
    rank = order.descending_key
    p = dict(f.terms)
    get = p.get
    heap = [(rank(e), e) for e in p]
    heapify(heap)
    remainder = {}
    while heap:
        exp = heappop(heap)[1]
        c = p.pop(exp, None)
        if c is None:
            continue  # cancelled after it was queued
        for gexp, gc, tail in divisors:
            if _monomial_divides(gexp, exp):
                # the leading terms cancel exactly; subtract the tail
                q = tuple(map(sub, exp, gexp))
                m = c / gc
                for e, tc in tail:
                    e = tuple(map(add, q, e))
                    s = get(e)
                    if s is None:
                        p[e] = -m * tc
                        heappush(heap, (rank(e), e))
                    else:
                        s -= m * tc
                        if s:
                            p[e] = s
                        else:
                            del p[e]
                break
        else:
            remainder[exp] = c
    return MPoly._trusted(f.variables, remainder)


def s_polynomial(f, g, order):
    fe, fc = order.leading(f)
    ge, gc = order.leading(g)
    lcm = _monomial_lcm(fe, ge)
    return _monomial_mul_poly(
        tuple(map(sub, lcm, fe)), 1 / fc, f
    ) - _monomial_mul_poly(tuple(map(sub, lcm, ge)), 1 / gc, g)


def _monic(f, order):
    _, c = order.leading(f)
    return f * (1 / c)


def buchberger(generators, order):
    """Reduced monic Groebner basis of the ideal the generators span.

    Plain Buchberger with first-found pair selection and the product
    criterion (coprime leading monomials are skipped).  Termination is
    Dickson's lemma.  Adequate for the ideals in scope: few variables,
    low degree.  The output is inter-reduced, monic, and sorted by
    leading monomial, so it is canonical for the given order.

    Each basis element's division form is computed once, when the
    element joins, and every later pair test and reduction reads it.
    """
    basis = [_monic(g, order) for g in generators if g]
    if not basis:
        raise ValueError("no nonzero generators")
    _check_variables(basis, basis[0].variables)
    forms = [_division_form(g, order) for g in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        ei, ej = forms[i][0], forms[j][0]
        if _monomial_lcm(ei, ej) == tuple(a + b for a, b in zip(ei, ej)):
            continue  # product criterion: coprime leads never yield new elements
        r = _divide(s_polynomial(basis[i], basis[j], order), forms, order)
        if r:
            g = _monic(r, order)
            basis.append(g)
            forms.append(_division_form(g, order))
            k = len(basis) - 1
            pairs.extend((i2, k) for i2 in range(k))
    return _reduce_basis(basis, forms, order)


def _reduce_basis(basis, forms, order):
    leads = [form[0] for form in forms]
    # minimal: drop any element whose lead is divisible by another's lead
    minimal = [
        i for i, ge in enumerate(leads)
        if not any(
            _monomial_divides(he, ge)
            for j, he in enumerate(leads)
            if j != i and (j < i or he != ge)
        )
    ]
    # reduced: tail-reduce every element against the others.  No other
    # lead divides an element's lead, so its monic leading term survives
    # and the remainder is monic with the same lead.
    reduced = [
        (leads[i], _divide(basis[i], [forms[j] for j in minimal if j != i], order))
        for i in minimal
    ]
    reduced.sort(key=lambda item: order.key(item[0]))
    return [g for _, g in reduced]


def is_groebner(basis, order):
    """Check the Buchberger criterion: all S-polynomials reduce to 0."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], order)
            if s and normal_form(s, basis, order):
                return False
    return True
