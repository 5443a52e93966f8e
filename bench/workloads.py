"""Seeded inputs, operations and answer checks for the three workloads.

A workload is an endless stream of decks.  A deck is a short list of
operations with a fixed mix of kinds; the seed draws the order and the
free parameters.  Runs always stop at a deck boundary, so every run
measures the same mix and the percentiles sit inside one class of
operation rather than on the edge between two (see README.md).

Each operation is an ``Op``: ``run()`` makes one call into the package
and is the only thing timed; ``check(result)`` returns None or a
message and runs outside the timed span, against oracles that do not
call the timed function.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles
from conngerm import cli, deformation, diffop, poly, scenarios


@dataclass
class Op:
    kind: str
    key: tuple  # the full input; equal keys mean a repeated input
    run: Callable
    check: Callable


def small_rational(rng):
    """Nonzero rational with |numerator| <= 6 and denominator <= 5, the
    coefficient range of the package's own random tests."""
    return Fraction(rng.choice([n for n in range(-6, 7) if n]), rng.randint(1, 5))


def _rat_arg(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# -- deform-glue ---------------------------------------------------------------


def _deform_op(g2, g3, K):
    def run():
        wp = deformation.wp_series(g2, g3, K + 4)
        cocycle = deformation.build_cocycle(K, K + 4, wp)
        return deformation.congruence_check(cocycle, K)

    def check(report):
        if not report.ok:
            return f"deform g2={g2} g3={g3}: congruence failed: {report.first_failure()}"
        degrees = tuple(d.degree for d in report.degrees)
        if degrees != tuple(range(1, K + 1)) or not all(d.ok for d in report.degrees):
            return f"deform g2={g2} g3={g3}: degrees {degrees}, expected 1..{K}"
        return None

    return Op("deform", ("deform", g2, g3, K), run, check)


def deform_glue(rng, smoke):
    """Alternate the README curve (g2, g3) = (4, 0) with a seeded one."""
    K = 4 if smoke else 16
    while True:
        yield [_deform_op(Fraction(4), Fraction(0), K),
               _deform_op(small_rational(rng), small_rational(rng), K)]


# -- algebra-random --------------------------------------------------------------

XYZ = ("x", "y", "z")
DEGREVLEX = poly.MonomialOrder("degrevlex", XYZ)


def _ideal_shapes(n):
    """Monomial supports of n three-generator ideals, drawn as
    tests/test_poly.py's rand_poly(3, 2) draws them (three exponents in
    0..2 per generator, duplicates merged).  The shapes are fixed; the
    seed draws the coefficients, so every run sees the same spread of
    Groebner difficulty."""
    rng = random.Random(1988)
    shapes = []
    while len(shapes) < n:
        gens = [sorted({tuple(rng.randint(0, 2) for _ in XYZ) for _ in range(3)})
                for _ in range(3)]
        if all(any(sum(e) for e in g) for g in gens):
            shapes.append(gens)
    return shapes


SHAPES = _ideal_shapes(12)


def _dict_poly(rng, shape):
    return {e: small_rational(rng) for e in shape}


def _groebner_op(rng, shape):
    gens = [_dict_poly(rng, s) for s in shape]
    probes = [{tuple(rng.randint(0, 3) for _ in XYZ): small_rational(rng)
               for _ in range(4)} for _ in range(3)]

    def run():
        basis = poly.buchberger([poly.MPoly(XYZ, g) for g in gens], DEGREVLEX)
        return basis, [poly.normal_form(poly.MPoly(XYZ, q), basis, DEGREVLEX)
                       for q in probes]

    def check(result):
        basis, forms = result
        got = [dict(g.terms) for g in basis]
        if not oracles.is_interreduced(got):
            return "buchberger: basis is not monic and inter-reduced"
        if any(oracles.reduce(g, got) for g in gens):
            return "buchberger: a generator does not reduce to 0"
        if {frozenset(g.items()) for g in got} != oracles.reduced_groebner(gens):
            return "buchberger: basis differs from the reference reduced basis"
        for q, nf in zip(probes, forms):
            if dict(nf.terms) != oracles.reduce(q, got):
                return "normal_form: remainder differs from the reference"
        return None

    key = ("groebner", tuple(tuple(sorted(g.items())) for g in gens))
    return Op("groebner", key, run, check)


def _zpoly_mpoly(p):
    return poly.MPoly(("z",), {(k,): c for k, c in p.items()})


def _op_dict(op):
    return {k: {e[0]: c for e, c in f.terms.items()} for k, f in op.coeffs.items()}


def _diffop_product_op(rng):
    factors = [{k: oracles.rand_zpoly(rng, 4) for k in range(4)} for _ in range(3)]
    tests = [oracles.rand_zpoly(rng, 8) for _ in range(2)]

    def run():
        a, b, c = (diffop.DiffOp({k: _zpoly_mpoly(f) for k, f in op.items()})
                   for op in factors)
        return a * b * c

    def check(product):
        prod = _op_dict(product)
        for p in tests:
            want = p
            for op in reversed(factors):
                want = oracles.apply_op(op, want)
            if oracles.apply_op(prod, p) != want:
                return "DiffOp product: action differs from composing the factors"
        return None

    key = ("diffop-product", repr(factors))
    return Op("diffop-product", key, run, check)


def _membership_op(rng):
    a, b, k, m = rng.randint(0, 3), rng.randint(0, 3), rng.randint(2, 5), rng.randint(1, 3)
    text = f"(z^{a}*d + z^{b})^{k}"
    test = oracles.rand_zpoly(rng, 8)

    def run():
        op = diffop.parse_diffop(text)
        return diffop.lambda_membership(op, diffop.LambdaVariant("meromorphic", m))

    def check(result):
        # z^a*d lies in the algebra generated by z^m*d iff a >= m; otherwise
        # the top coefficient z^(a*k) of the k-th power fails at order k.
        if result.member != (a >= m):
            return f"membership {text} pole {m}: member={result.member}"
        if not result.member:
            return None if result.failing_order == k else (
                f"membership {text} pole {m}: failing order {result.failing_order}")
        cert = [({e[0]: c for e, c in cof.terms.items()}, j)
                for cof, j in result.certificate]
        if (oracles.apply_certificate(cert, m, test)
                != oracles.apply_vector_field_power(a, b, k, test)):
            return f"membership {text} pole {m}: certificate acts differently"
        return None

    return Op("membership", ("membership", text, m), run, check)


def algebra_random(rng, smoke):
    """One Groebner, one DiffOp product and one membership op per ideal
    shape, shapes in seeded order."""
    shapes = [SHAPES[2], SHAPES[11]] if smoke else SHAPES  # two of the cheapest
    while True:
        deck = []
        for shape in rng.sample(shapes, len(shapes)):
            deck += [_groebner_op(rng, shape), _diffop_product_op(rng),
                     _membership_op(rng)]
        yield deck


# -- cli-mix ---------------------------------------------------------------------

COORD_NAMES = ("x0", "x", "x12", "x21", "y0", "y", "y12", "y21")
COHOMOLOGY = ("most_degenerate.json", "mildly_degenerate.json",
              "fiber_dims.json", "bielliptic_stable.json")
STABILITY = ("stability_chain.json", "bielliptic_unstable_rank1.json",
             "bielliptic_unstable_rank2.json")


def _cli_op(argv, extra_check=None):
    argv = tuple(argv)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as e:  # argparse rejects bad flags this way
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        label = " ".join(argv)
        if code != 0:
            return f"conngerm {label}: exit {code}: {err.strip()[-200:]}"
        try:
            doc = json.loads(out)
        except ValueError:
            return f"conngerm {label}: stdout is not one JSON object"
        if not isinstance(doc, dict) or doc.get("pass") is not True:
            return f"conngerm {label}: report does not pass"
        return extra_check(doc) if extra_check else None

    return Op("cli " + " ".join(argv[:2]), ("cli",) + argv, run, check)


def _count_op(p):
    def check(doc):
        count = doc["checks"][0]["computed"]["count"]
        want = oracles.points_on_segre_cone(p)
        return None if count == want else f"count --prime {p}: {count} != {want}"

    return _cli_op(["kuranishi", "count", "--prime", str(p)], check)


def _member_op(a, b, k, m):
    def check(doc):
        member = doc["checks"][0]["computed"]["member"]
        return None if member == (a >= m) else f"diffop member: member={member}"

    return _cli_op(["diffop", "member", f"(z^{a}*d + z^{b})^{k}", "--pole-mult", str(m)],
                   check)


def _coords(rng):
    names = rng.sample(COORD_NAMES, rng.randint(1, 4))
    return ",".join(f"{n}={_rat_arg(small_rational(rng))}" for n in names)


def _list_value(rng):
    # argparse reads "-3/2" as a flag, so list values are whole when negative
    if rng.random() < 0.5:
        return str(rng.randint(-5, 5))
    return f"{rng.randint(1, 6)}/{rng.randint(1, 5)}"


def _normalize_expr(rng):
    def factor():
        return (f"({rng.randint(1, 4)}*z^{rng.randint(0, 3)}*d^{rng.randint(0, 2)}"
                f" {rng.choice('+-')} {rng.randint(1, 4)}*z^{rng.randint(0, 3)})")
    return "*".join(factor() for _ in range(rng.randint(2, 3)))


def cli_mix(rng, smoke):
    """50 commands per deck; see README.md for why the counts are these."""
    data = scenarios.bundled_dir()
    while True:
        deck = [_cli_op(["run-all"])]
        primes = (3, 5) if smoke else (3, 5, 7, 11, 11, 11, 11, 11, 13, 13)
        deck += [_count_op(p) for p in primes]
        deck += [_cli_op(["kuranishi", "ob2"]) for _ in range(2)]
        deck += [_cli_op(["kuranishi", "ob2", "--coords", _coords(rng)])
                 for _ in range(3)]
        deck += [_cli_op(["kuranishi", "segre", "--xi"]
                         + [_list_value(rng) for _ in range(3)]
                         + ["--lam"] + [_list_value(rng) for _ in range(2)])
                 for _ in range(5)]
        deck += [_cli_op(["git", "psi", "--coords", _coords(rng)]) for _ in range(3)]
        deck += [_cli_op(["git", "orbits", f"--z1={_rat_arg(small_rational(rng))}",
                          f"--z2={_rat_arg(small_rational(rng))}"]) for _ in range(3)]
        deck += [_cli_op(["git", "fiber", "--along", z]) for z in ("z1", "z2")]
        orders = (2, 3) if smoke else (2, 3, 4, 5, 6)
        deck += [_cli_op(["deform", "--order", str(k),
                          f"--g2={_rat_arg(small_rational(rng))}",
                          f"--g3={_rat_arg(small_rational(rng))}"]) for k in orders]
        deck += [_cli_op(["diffop", "normalize", _normalize_expr(rng)])
                 for _ in range(4)]
        deck += [_member_op(rng.randint(0, 3), rng.randint(0, 3), rng.randint(2, 4),
                            rng.randint(1, 3)) for _ in range(5)]
        deck += [_cli_op(["cohomology", "--scenario", str(data / f)]) for f in COHOMOLOGY]
        deck += [_cli_op(["stability", "--scenario", str(data / f)]) for f in STABILITY]
        rng.shuffle(deck)
        yield deck


WORKLOADS = {
    "deform-glue": deform_glue,
    "algebra-random": algebra_random,
    "cli-mix": cli_mix,
}
