"""Truncated Laurent series in one variable with exact coefficients.

A series is a sparse map from integer exponents (possibly negative) to
coefficients, together with a truncation bound ``trunc``: coefficients
at exponents >= trunc are unknown.  ``trunc=None`` means the series is
exact.  Coefficients are Fractions or MPoly values; the two mix freely.

Reliability is tracked through arithmetic.  A product is reliable up to
min(trunc_a + val_b, trunc_b + val_a), the usual bookkeeping for series
with poles: multiplying by z^{-1} costs one order of reliability.
Asking for a coefficient beyond the reliable range raises
TruncationExhausted instead of silently returning 0.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import MPoly, _merge, _signed_sum, _wrap, to_coeff


class TruncationExhausted(Exception):
    """Requested data lies beyond the reliable truncation range."""


def _is_scalar(c):
    return isinstance(c, (int, Fraction, MPoly))


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class TruncLaurent:
    """Laurent series known exactly below the exponent ``trunc``."""

    __slots__ = ("var", "coeffs", "trunc")

    def __init__(self, var, coeffs=None, trunc=None):
        self.var = var
        self.trunc = trunc
        clean = {}
        for k, c in (coeffs or {}).items():
            if not isinstance(k, int):
                raise TypeError("exponents must be integers")
            if trunc is not None and k >= trunc:
                continue
            c = to_coeff(c)
            if c:
                clean[k] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, var, trunc=None):
        return cls(var, {}, trunc)

    @classmethod
    def const(cls, var, c, trunc=None):
        return cls(var, {0: c}, trunc)

    @classmethod
    def monomial(cls, var, k, c=1, trunc=None):
        return cls(var, {k: c}, trunc)

    # -- structure -----------------------------------------------------

    def valuation(self):
        """Lowest exponent carrying a nonzero coefficient.

        Returns None (meaning +infinity) for the exact zero series; for a
        series whose stored part is zero but which is only known up to
        trunc, returns trunc (the valuation is at least that).
        """
        if self.coeffs:
            return min(self.coeffs)
        return self.trunc  # None when exact zero

    def is_zero_shown(self):
        """True when every reliably-known coefficient is zero."""
        return not self.coeffs

    def coeff(self, k):
        if self.trunc is not None and k >= self.trunc:
            raise TruncationExhausted(
                f"coefficient of {self.var}^{k} requested, but the series "
                f"is only reliable below {self.var}^{self.trunc}"
            )
        return self.coeffs.get(k, Fraction(0))

    def truncate(self, new_trunc):
        return TruncLaurent(self.var, self.coeffs, _min_trunc(self.trunc, new_trunc))

    def shift(self, k):
        """Multiply by var^k (exact operation)."""
        t = None if self.trunc is None else self.trunc + k
        return TruncLaurent(self.var, {e + k: c for e, c in self.coeffs.items()}, t)

    def agrees_through(self, other, bound):
        """Coefficient-wise equality strictly below ``bound``; both
        operands must be reliable that far."""
        for s in (self, other):
            if s.trunc is not None and s.trunc < bound:
                raise TruncationExhausted(
                    f"comparison through {bound} needs reliability {bound}, "
                    f"have {s.trunc}"
                )
        return all(k >= bound for k in (self - other).coeffs)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncLaurent):
            if other.var != self.var:
                raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
            return other
        if _is_scalar(other):
            return TruncLaurent.const(self.var, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        t = _min_trunc(self.trunc, other.trunc)
        return TruncLaurent(self.var, _merge(self.coeffs, other.coeffs), t)

    __radd__ = __add__

    def __neg__(self):
        return TruncLaurent(
            self.var, {k: -c for k, c in self.coeffs.items()}, self.trunc
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        t = _min_trunc(self.trunc, other.trunc)
        coeffs = _merge(self.coeffs, other.coeffs, subtract=True)
        return TruncLaurent(self.var, coeffs, t)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.trunc is None and not self.coeffs:
            return TruncLaurent.zero(self.var)  # exact zero annihilates
        if other.trunc is None and not other.coeffs:
            return TruncLaurent.zero(self.var)
        va, vb = self.valuation(), other.valuation()  # both finite here
        t = None
        if self.trunc is not None:
            t = self.trunc + vb
        if other.trunc is not None:
            t = _min_trunc(t, other.trunc + va)
        coeffs = {}
        get = coeffs.get
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                if t is not None and k >= t:
                    continue
                s = get(k)
                coeffs[k] = c1 * c2 if s is None else s + c1 * c2
        return TruncLaurent(self.var, coeffs, t)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = TruncLaurent.const(self.var, Fraction(1))
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c):
        """Multiply every coefficient by a scalar or MPoly (exact)."""
        return self.map_coeffs(lambda v: v * c)

    def diff(self):
        """d/dz: z^k -> k z^{k-1}; costs one order of reliability."""
        t = None if self.trunc is None else self.trunc - 1
        coeffs = {}
        for k, c in self.coeffs.items():
            if k:
                coeffs[k - 1] = c * k
        return TruncLaurent(self.var, coeffs, t)

    def map_coeffs(self, fn):
        """Apply fn to every stored coefficient; the constructor drops zeros."""
        return TruncLaurent(self.var, {k: fn(c) for k, c in self.coeffs.items()},
                            self.trunc)

    # -- equality and printing -------------------------------------------

    def __eq__(self, other):
        if _is_scalar(other):
            other = TruncLaurent.const(self.var, other)
        if not isinstance(other, TruncLaurent):
            return NotImplemented
        return (
            self.var == other.var
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __bool__(self):
        return bool(self.coeffs)

    def _term(self, k, c):
        """(coefficient, factors) of c*var^k for ``_signed_sum``.  A
        polynomial coefficient is one ``_wrap`` factor, left out when it
        is 1."""
        factors = [self.var if k == 1 else f"{self.var}^{k}"] if k else []
        if isinstance(c, MPoly):
            cstr = str(c)
            if cstr != "1":
                factors.insert(0, _wrap(cstr))
            c = 1
        return c, factors

    def __str__(self):
        body = _signed_sum(self._term(k, self.coeffs[k]) for k in sorted(self.coeffs))
        if self.trunc is not None:
            body += f" + O({self.var}^{self.trunc})"
        return body

    def __repr__(self):
        return f"TruncLaurent({str(self)})"

