"""2x2 matrix helpers over any ring whose elements support + - *.

Matrices are immutable 2x2 tuples of tuples.  Entries may be Fractions,
MPoly values, or TruncLaurent series; the functions only use ring
operations, so the same code serves symbolic and numeric callers.
"""

from __future__ import annotations


def mat(a, b, c, d):
    return ((a, b), (c, d))


def identity(one, zero):
    return ((one, zero), (zero, one))


def sub(m, n):
    return tuple(
        tuple(m[i][j] - n[i][j] for j in range(2)) for i in range(2)
    )


def mul(m, n):
    return tuple(
        tuple(
            m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in range(2)
        )
        for i in range(2)
    )


def trace(m):
    return m[0][0] + m[1][1]


def commutator(m, n):
    return sub(mul(m, n), mul(n, m))


def entries(m):
    yield from (m[0][0], m[0][1], m[1][0], m[1][1])


def map_entries(fn, m):
    return tuple(tuple(fn(m[i][j]) for j in range(2)) for i in range(2))
