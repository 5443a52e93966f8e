"""Independent reference arithmetic for checking benchmark answers.

Nothing here imports conngerm.  Polynomials are plain dicts: exponent
tuple -> Fraction for Q[x,y,z], and degree -> Fraction for Q[z].  The
Groebner routine uses normal pair selection, a different strategy from
the package's first-found selection, so a defect in the package cannot
hide behind a shared code path.
"""

from fractions import Fraction


def _add_into(acc, key, c):
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


# -- Q[x1..xn] under degrevlex ----------------------------------------------


def degrevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def leading(p):
    e = max(p, key=degrevlex_key)
    return e, p[e]


def divides(d, e):
    return all(a <= b for a, b in zip(d, e))


def monic(p):
    _, c = leading(p)
    return {e: v / c for e, v in p.items()}


def reduce(f, basis):
    """Remainder of f under full division by basis (dict polynomials)."""
    p = dict(f)
    rem = {}
    leads = [leading(g) for g in basis]
    while p:
        e, c = leading(p)
        for g, (ge, gc) in zip(basis, leads):
            if divides(ge, e):
                q = tuple(a - b for a, b in zip(e, ge))
                m = c / gc
                for ge2, gc2 in g.items():
                    _add_into(p, tuple(a + b for a, b in zip(q, ge2)), -m * gc2)
                break
        else:
            rem[e] = c
            del p[e]
    return rem


def _spoly(f, g):
    (fe, fc), (ge, gc) = leading(f), leading(g)
    lcm = tuple(map(max, fe, ge))
    out = {}
    for p, pe, pc, sign in ((f, fe, fc, 1), (g, ge, gc, -1)):
        u = tuple(a - b for a, b in zip(lcm, pe))
        for e, c in p.items():
            _add_into(out, tuple(a + b for a, b in zip(u, e)), sign * c / pc)
    return out


def reduced_groebner(gens):
    """Reduced monic degrevlex Groebner basis, as a set of frozen term sets."""
    basis = [monic(g) for g in gens if g]
    leads = [leading(g)[0] for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    def pair_lcm(ij):
        return degrevlex_key(tuple(map(max, leads[ij[0]], leads[ij[1]])))

    while pairs:
        i, j = min(pairs, key=pair_lcm)
        pairs.discard((i, j))
        if all(not (a and b) for a, b in zip(leads[i], leads[j])):
            continue  # coprime leading monomials
        r = reduce(_spoly(basis[i], basis[j]), basis)
        if r:
            basis.append(monic(r))
            leads.append(leading(r)[0])
            k = len(basis) - 1
            pairs.update((k, m) for m in range(k))
    minimal = []
    for g, ge in zip(basis, leads):
        if not any(divides(he, ge) for _, he in minimal):
            minimal = [(h, he) for h, he in minimal if not divides(ge, he)]
            minimal.append((g, ge))
    minimal = [g for g, _ in minimal]
    out = set()
    for i, g in enumerate(minimal):
        r = reduce(g, minimal[:i] + minimal[i + 1:])
        out.add(frozenset(monic(r).items()))
    return out


def is_interreduced(basis):
    """Monic, and no term of any element is divisible by another's lead."""
    leads = [leading(g) for g in basis]
    if any(c != 1 for _, c in leads):
        return False
    return not any(
        divides(leads[j][0], e)
        for i, g in enumerate(basis)
        for j in range(len(basis))
        if j != i
        for e in g
    )


# -- Q[z] and the action of operators sum_k f_k(z) d^k -----------------------


def zmul(p, q):
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            _add_into(out, a + b, c * d)
    return out


def zadd(p, q):
    out = dict(p)
    for k, c in q.items():
        _add_into(out, k, c)
    return out


def zderiv(p):
    return {k - 1: c * k for k, c in p.items() if k}


def apply_op(op, p):
    """Action of {k: f_k} (f_k dict polynomials in z) on p."""
    out = {}
    for k, f in op.items():
        g = p
        for _ in range(k):
            g = zderiv(g)
        out = zadd(out, zmul(f, g))
    return out


def apply_vector_field_power(a, b, k, p):
    """(z^a * d + z^b)^k applied to p, one factor at a time."""
    for _ in range(k):
        p = zadd({e + a: c for e, c in zderiv(p).items()},
                 {e + b: c for e, c in p.items()})
    return p


def apply_certificate(cert, pole_mult, p):
    """sum_j cof_j * (z^m * d)^j applied to p; cert holds (cof, j) pairs."""
    out = {}
    for cof, j in cert:
        g = p
        for _ in range(j):
            g = {e + pole_mult: c for e, c in zderiv(g).items()}
        out = zadd(out, zmul(cof, g))
    return out


def rand_zpoly(rng, maxdeg):
    p = {}
    for k in range(maxdeg + 1):
        if rng.random() < 0.6:
            _add_into(p, k, Fraction(rng.randint(-4, 4)))
    return p or {0: Fraction(1)}


def points_on_segre_cone(p):
    """Closed form for the rank <= 1 locus of 2x3 matrices over F_p."""
    return p**4 + p**3 - p
