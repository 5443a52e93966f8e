"""Scenario files and reports: the data layer behind the CLI.

A scenario is a JSON document:

    {
      "version": 1,
      "name": "most_degenerate",
      "kind": "cohomology",
      "checks": [
        {"op": "hypercoh_dims",
         "args": {"h00": 4, "h01": 4, "h10": 4, "h11": 4, "r0": 0, "r1": 0},
         "expect": {"H0": 4, "H1": 8, "H2": 4},
         "cite": "split bundle, vanishing differentials"},
        ...
      ]
    }

Files are read as UTF-8.  Exactness rules: every number is an integer or
a rational written as the string "p/q"; floats are rejected at parse
time, and an integer or rational given as text (a CLI flag) is ASCII
digits with an optional sign.  ``kind`` names the scenario's home module
family; every operation name is unique across families, and a check
names it alone or as "family.op", so one scenario can bundle the handful
of facts that belong to one geometric situation.  Each operation
declares its arguments once, in its ``@_handler`` registration: a
decoder per name, plus a default when the argument is optional.  A
missing, unknown or ill-typed argument raises ScenarioError naming its
path (e.g. ``checks[0].args.variant``); args are decoded when a check
runs, so a scenario with bad values still loads.  A handler returns
domain values: a result dataclass, or a dict of them where it renames,
drops or adds a key.  ``canonical`` encodes that result once, a
dataclass as the object of its fields; the report and the comparison
with ``expect`` both read that encoding, and the comparison is exact
equality.  Reports are deterministic: two runs of one scenario produce
byte-identical JSON (timing lives outside the serialized report).
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from pathlib import Path

from . import cohomology, deformation, diffop, kuranishi, mat2, stability
from .kuranishi import MatPair
from .poly import INT_PATTERN, MPoly
from .series import TruncationExhausted, TruncLaurent

SCENARIO_VERSION = 1
MAX_EXPECT_DEPTH = 64  # bundled expects nest 6 values deep


class ScenarioError(Exception):
    """Malformed scenario input: parse failure, schema or precondition
    violation.  Maps to CLI exit code 2."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at {position})"
        super().__init__(message)


def _reject_float(_):
    raise ScenarioError("floats are forbidden in scenario files; "
                        "write rationals as \"p/q\" strings")


def parse_json_exact(text):
    try:
        return json.loads(
            text, parse_float=_reject_float, parse_constant=_reject_float
        )
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"JSON parse error: {e.msg}", f"line {e.lineno} column {e.colno}"
        ) from e
    except (ValueError, RecursionError) as e:
        # an integer literal past the int-string digit limit, or nesting
        # deeper than the decoder's recursion limit
        raise ScenarioError(f"JSON parse error: {e}") from e


# -- value decoding -------------------------------------------------------
#
# A decoder takes (value, path) and returns the decoded value, or raises
# ScenarioError at that path.  A spec maps each field of an object to its
# decoder, or to (decoder, default) when the field is optional.


_RATIONAL = re.compile(INT_PATTERN + r"(/[0-9]+)?")


def _rat(v, path):
    """A rational from a scenario file or a CLI flag: an int, or a string
    [+-]digits[/digits], so that no short string names a huge number."""
    if isinstance(v, bool):
        raise ScenarioError(f"expected a rational, got a boolean", path)
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        if not _RATIONAL.fullmatch(v):
            raise ScenarioError(f"bad rational {v!r}: write an integer or \"p/q\"", path)
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise ScenarioError(f"bad rational {v!r}: {e}", path)
    raise ScenarioError(f"expected a rational, got {type(v).__name__}", path)


def _int(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"expected an integer, got {v!r}", path)
    return v


def _bool(v, path):
    if not isinstance(v, bool):
        raise ScenarioError(f"expected a boolean, got {v!r}", path)
    return v


def _str(v, path):
    if not isinstance(v, str):
        raise ScenarioError(f"expected a string, got {v!r}", path)
    return v


def _dict(v, path):
    if not isinstance(v, dict):
        raise ScenarioError(f"expected an object, got {type(v).__name__}", path)
    return v


def _list(v, path):
    if not isinstance(v, list):
        raise ScenarioError(f"expected a list, got {type(v).__name__}", path)
    return v


def _fields(spec, v, path):
    """Decode the object v against spec into a dict of decoded fields.
    Unknown keys, missing required fields and ill-typed values are
    ScenarioErrors naming their path."""
    d = _dict(v, path)
    extra = set(d) - set(spec)
    if extra:
        raise ScenarioError(f"unknown keys {sorted(extra)}", path)
    out = {}
    for name, entry in spec.items():
        decode, *default = entry if isinstance(entry, tuple) else (entry,)
        if name in d:
            out[name] = decode(d[name], f"{path}.{name}")
        elif default:
            out[name] = default[0]
        else:
            raise ScenarioError(f"missing field {name!r}", path)
    return out


def _list_of(decode):
    def decode_list(v, path):
        return [decode(x, f"{path}[{i}]") for i, x in enumerate(_list(v, path))]

    return decode_list


def _optional(decode):
    """decode, letting an explicit null through as None."""
    return lambda v, path: None if v is None else decode(v, path)


def _record(cls, **spec):
    """Decoder of an object whose decoded fields build cls(**fields); a
    value the constructor rejects is malformed input at the object."""

    def decode(v, path):
        fields = _fields(spec, v, path)
        try:
            return cls(**fields)
        except ValueError as e:
            raise ScenarioError(str(e), path)

    return decode


def _matrix2(v, path):
    rows = _list(v, path)
    if len(rows) != 2 or any(len(_list(r, path)) != 2 for r in rows):
        raise ScenarioError("expected a 2x2 matrix", path)
    return tuple(
        tuple(_rat(rows[i][j], f"{path}[{i}][{j}]") for j in range(2))
        for i in range(2)
    )


def _domain(v, path):
    if v == "m2":
        return cohomology.M2_BASIS
    if v == "upper":
        return cohomology.UPPER_TRIANGULAR_BASIS
    return tuple(_list_of(_matrix2)(v, path))


def _descriptor(v, path):
    d = _dict(v, path)
    if len(d) != 1 or next(iter(d)) not in _DESCRIPTORS:
        raise ScenarioError(
            "descriptor must be exactly one of {\"leaf\": ...}, {\"ext\": ...}, "
            "{\"sum\": [...]}", path
        )
    [(key, body)] = d.items()
    return _DESCRIPTORS[key](body, f"{path}.{key}")


_DESCRIPTORS = {
    "leaf": _record(cohomology.Leaf, degree=_int, trivial=(_bool, False)),
    "ext": _record(cohomology.Extension, left=_descriptor, right=_descriptor,
                   boundary_rank=_int),
    "sum": lambda v, path: cohomology.Sum(_list_of(_descriptor)(v, path)),
}

_SHEAF = {"rank": _int, "degree": _rat, "genus": _int, "h": _int}
_numerics = _record(stability.SheafNumerics, **_SHEAF)
_coords = _record(MatPair.from_coords, **dict.fromkeys(kuranishi.COORDS, (_rat, 0)))
_variant = _record(diffop.LambdaVariant, kind=_str, pole_mult=(_int, 1))


def _operator(v, path):
    try:
        return diffop.parse_diffop(_str(v, path))
    except diffop.DiffOpParseError as e:
        raise ScenarioError(str(e), path)


# -- value encoding -------------------------------------------------------


def canonical(v):
    """Canonical JSON-ready form: Fractions become ints or "p/q" strings,
    symbolic values become their deterministic string rendering, and a
    dataclass instance becomes the object of its fields."""
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    if isinstance(v, MPoly):
        return canonical(v.const_value()) if v.is_const() else str(v)
    if isinstance(v, TruncLaurent):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [canonical(x) for x in v]
    if isinstance(v, dict):
        return {str(k): canonical(x) for k, x in v.items()}
    if is_dataclass(v) and not isinstance(v, type):
        return {f.name: canonical(getattr(v, f.name)) for f in fields(v)}
    raise TypeError(f"cannot encode {type(v).__name__}")


# -- operation handlers ---------------------------------------------------

_HANDLERS = {}  # op name -> (family, handler)


def _handler(family, op, **spec):
    """Register fn as the operation op, unique across families, with its
    argument spec.  The registered handler decodes a check's args against
    the spec and calls fn with the decoded values as keywords."""
    if op in _HANDLERS:
        raise ValueError(f"operation {op!r} is already registered")

    def deco(fn):
        _HANDLERS[op] = family, lambda args, path: fn(**_fields(spec, args, path))
        return fn

    return deco


def _dims(dims):
    return {**vars(dims), "chi": dims.chi}


@_handler("cohomology", "rr_line", degree=_int, trivial=(_bool, False))
def _h_rr_line(degree, trivial):
    return _dims(cohomology.rr_line(degree, trivial))


@_handler("cohomology", "chase", descriptor=_descriptor)
def _h_chase(descriptor):
    return _dims(cohomology.chase(descriptor))


@_handler("cohomology", "hypercoh_dims",
          **dict.fromkeys(("h00", "h01", "h10", "h11", "r0", "r1"), _int))
def _h_hypercoh(**dims):
    h0, h1, h2 = cohomology.hypercoh_dims(cohomology.HyperCohInput(**dims))
    return {"H0": h0, "H1": h1, "H2": h2}


@_handler("cohomology", "d1_rank",
          matrix=_matrix2, domain=(_domain, cohomology.M2_BASIS))
def _h_d1_rank(matrix, domain):
    return {"rank": cohomology.d1_rank(matrix, domain)}


@_handler("cohomology", "fiber_dimension", r=_int, g=_int, degD=_int)
def _h_fiber_dimension(r, g, degD):
    return {"dimension": cohomology.fiber_dimension(r, g, degD)}


@_handler("cohomology", "connection_exists",
          r=_int, d=_int, degD=_int, semistable=_bool)
def _h_connection_exists(r, d, degD, semistable):
    return {"exists": cohomology.connection_exists(r, d, degD, semistable)}


def _ob2(result):
    return {"commutator": result.commutator, "q": result.q_values}


@_handler("kuranishi", "ob2_symbolic")
def _h_ob2_symbolic():
    result = kuranishi.ob2(kuranishi.symbolic_pair())
    involves_trace = any(
        e.involves("x0") or e.involves("y0") for e in mat2.entries(result.commutator)
    )
    return {**_ob2(result), "involves_trace_vars": involves_trace}


@_handler("kuranishi", "ob2_at", coords=_coords)
def _h_ob2_at(coords):
    return _ob2(kuranishi.ob2(coords))


@_handler("kuranishi", "segre", xi=(_list_of(_rat), None),
          lam=(_list_of(_rat), None), symbolic=(_bool, False))
def _h_segre(xi, lam, symbolic):
    if symbolic:
        return kuranishi.segre_check_symbolic()
    if xi is None or lam is None:
        raise ValueError("segre needs both xi and lam, or symbolic: true")
    return kuranishi.segre_check(xi, lam)


@_handler("kuranishi", "count_points", prime=_int)
def _h_count_points(prime):
    return {
        "prime": prime,
        "count": kuranishi.count_points_mod_p(prime),
        "closed_form": kuranishi.closed_form_count(prime),
    }


@_handler("kuranishi", "relation_certificate")
def _h_relation_certificate():
    cert = kuranishi.relation_certificate()
    return {
        "identity_holds": cert.identity_holds,
        "normal_form_zero": cert.normal_form_zero,
        "lhs": cert.lhs,
        "rhs": cert.rhs,
        "certificate": "z^2 - z1*z2 = q1^2 + q2*q3",
        "basis": cert.basis,
    }


@_handler("git", "psi", coords=_coords)
def _h_psi(coords):
    inv = kuranishi.psi(coords)
    return {**vars(inv), "on_cone": inv.z * inv.z == inv.z1 * inv.z2}


@_handler("git", "orbits", z1=_rat, z2=_rat)
def _h_orbits(z1, z2):
    return kuranishi.orbit_separation(z1, z2)


@_handler("git", "fiber", along=(_str, "z2"))
def _h_fiber(along):
    return kuranishi.fiber_multiplicity(along)


@_handler("deform", "congruence", order=_int, ztrunc=_int, g2=_rat, g3=_rat)
def _h_congruence(order, ztrunc, g2, g3):
    wp = deformation.wp_series(g2, g3, ztrunc)
    cocycle = deformation.build_cocycle(order, ztrunc, wp)
    report = deformation.congruence_check(cocycle, order)
    return {
        "order": order,
        "ztrunc": ztrunc,
        "ok": report.ok,
        "degrees": [
            {
                "degree": d.degree,
                "ok": d.ok,
                "reliable_through": d.reliable_through,
            }
            for d in report.degrees
        ],
        "first_failure": report.first_failure(),
    }


@_handler("deform", "wp_coeffs",
          g2=_rat, g3=_rat, ztrunc=_int, exponents=_list_of(_int))
def _h_wp_coeffs(g2, g3, ztrunc, exponents):
    wp = deformation.wp_series(g2, g3, ztrunc)
    return {"coeffs": {e: wp.series.coeff(e) for e in exponents}}


@_handler("deform", "phi_cochain", k=_int, g2=_rat, g3=_rat, ztrunc=_int)
def _h_phi_cochain(k, g2, g3, ztrunc):
    cochain = deformation.phi_cochain(k, deformation.wp_series(g2, g3, ztrunc))
    diff = cochain.phi_beta - cochain.phi_alpha
    return {
        "k": k,
        "difference": diff,
        "difference_is_single_pole": diff.coeffs == {-k: Fraction(1)},
        "alpha_regular": all(e >= 0 for e in cochain.phi_alpha.coeffs),
    }


@_handler("diffop", "normalize", expr=_operator)
def _h_normalize(expr):
    order = expr.order()
    return {
        "normal_form": diffop.render(expr),
        "order": None if order == diffop.NEG_INF else order,
    }


@_handler("diffop", "membership", expr=_operator, variant=_variant)
def _h_membership(expr, variant):
    result = diffop.lambda_membership(expr, variant)
    return {
        "member": result.member,
        "certificate": result.certificate_str(),
        "failing_order": result.failing_order,
    }


@_handler("stability", "verdict", E=_numerics, subs=_list_of(_numerics))
def _h_verdict(E, subs):
    return stability.stability_verdict(E, subs)


@_handler("stability", "chain", E=_numerics, subs=_list_of(_numerics))
def _h_chain(E, subs):
    report = stability.implication_chain_check(E, subs)
    return {**vars(report), "ok": report.ok}


@_handler("stability", "hilbert_poly", **_SHEAF)
def _h_hilbert_poly(rank, degree, genus, h):
    p = stability.hilbert_poly_curve(rank, degree, genus, h)
    return {
        "poly": str(p),
        "reduced": str(stability.reduced_poly(p)),
        "alphas": p.alphas,
    }


def resolve_op(op, path):
    """The handler of op, named alone or as "family.op"."""
    family, dot, name = op.rpartition(".")
    entry = _HANDLERS.get(name)
    if entry is None or (dot and entry[0] != family):
        raise ScenarioError(f"unknown operation {op!r}", path)
    return entry[1]


# -- scenario and report objects ------------------------------------------


@dataclass(frozen=True)
class Check:
    op: str
    args: dict
    expect: dict | None = None
    cite: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    checks: tuple


_SCENARIO = {"version": (_int, 0), "name": (_str, ""), "kind": (_str, ""),
             "checks": (_list, [])}
_CHECK = {"op": (_str, ""), "args": (_dict, {}), "expect": (_optional(_dict), None),
          "cite": (_optional(_str), None), "note": (_optional(_str), None)}


def scenario_from_obj(obj, source="<memory>"):
    doc = _fields(_SCENARIO, obj, source)
    if doc["version"] != SCENARIO_VERSION:
        raise ScenarioError(
            f"unsupported scenario version {doc['version']}", source + ".version"
        )
    if not doc["name"]:
        raise ScenarioError("scenario needs a nonempty name", source + ".name")
    kind = doc["kind"]
    kinds = sorted({family for family, _ in _HANDLERS.values()})
    if kind not in kinds:
        raise ScenarioError(
            f"kind must be one of {', '.join(kinds)}; got {kind!r}",
            source + ".kind",
        )
    if not doc["checks"]:
        raise ScenarioError("scenario needs at least one check", source + ".checks")
    checks = []
    for i, c in enumerate(doc["checks"]):
        path = f"{source}.checks[{i}]"
        c = _fields(_CHECK, c, path)
        resolve_op(c["op"], path + ".op")  # fail fast on unknown ops
        checks.append(Check(**c))
    return Scenario(doc["name"], kind, tuple(checks))


def load_scenario(path):
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise ScenarioError(f"cannot read {p}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise ScenarioError(f"cannot read {p}: not UTF-8 (byte {e.start}: {e.reason})")
    return scenario_from_obj(parse_json_exact(text), source=p.name)


@dataclass(frozen=True)
class CheckResult:
    op: str
    args: dict
    computed: dict
    expected: dict | None
    passed: bool
    mismatches: tuple
    cite: str | None
    note: str | None


@dataclass(frozen=True)
class Report:
    scenario: str
    kind: str
    passed: bool
    checks: tuple
    error: str | None = None
    elapsed: float = field(default=0.0, compare=False)

    def to_obj(self):
        obj = {
            "scenario": self.scenario,
            "kind": self.kind,
            "pass": self.passed,
            "checks": [
                {
                    "op": c.op,
                    "args": c.args,
                    "computed": c.computed,
                    "expected": c.expected,
                    "pass": c.passed,
                    "mismatches": list(c.mismatches),
                    "cite": c.cite,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }
        if self.error is not None:
            obj["error"] = self.error
        return obj

    def to_json(self):
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"


def report_from_obj(obj):
    checks = tuple(
        CheckResult(
            c["op"],
            c["args"],
            c["computed"],
            c["expected"],
            c["pass"],
            tuple(c["mismatches"]),
            c["cite"],
            c["note"],
        )
        for c in obj.get("checks", [])
    )
    return Report(
        obj["scenario"], obj["kind"], obj["pass"], checks, obj.get("error")
    )


def report_from_json(text):
    return report_from_obj(parse_json_exact(text))


def _compare(computed, expect, path):
    """Exact comparison of expected keys against computed values, both
    already in canonical encoding.  Returns a list of mismatch
    descriptions."""
    mismatches = []
    for key, want in expect.items():
        if key not in computed:
            mismatches.append(f"{path}.{key}: no such output")
            continue
        got = computed[key]
        if isinstance(want, dict) and isinstance(got, dict):
            mismatches.extend(_compare(got, want, f"{path}.{key}"))
        elif got != want:
            mismatches.append(f"{path}.{key}: expected {want!r}, got {got!r}")
    return mismatches


def _check_depth(v):
    """Raise RecursionError when v nests values more than MAX_EXPECT_DEPTH
    levels deep, counting level by level without recursion."""
    level, depth = [v], 0
    while level:
        level = [x for c in level if isinstance(c, (dict, list))
                 for x in (c.values() if isinstance(c, dict) else c)]
        depth += 1
    if depth > MAX_EXPECT_DEPTH:
        raise RecursionError(f"nesting deeper than {MAX_EXPECT_DEPTH} levels")


def run_scenario_obj(scenario):
    start = time.perf_counter()
    results = []
    for i, check in enumerate(scenario.checks):
        path = f"checks[{i}]"
        handler = resolve_op(check.op, path + ".op")
        # decoding the args, the handler and encoding the expect and the
        # result may each recurse as deep as the input nests; the expect,
        # which the report carries, is capped first at one fixed depth
        try:
            result = handler(check.args, path + ".args")
            _check_depth(check.expect)
            expected = canonical(check.expect)
        except (ValueError, TypeError, KeyError, TruncationExhausted,
                RecursionError) as e:
            raise ScenarioError(f"{type(e).__name__}: {e}", path)
        try:
            computed = canonical(result)
            json.dumps(computed)  # the report must be able to carry it
        except (ValueError, RecursionError) as e:  # a huge integer, deep nesting
            raise ScenarioError(f"result cannot be encoded: {e}", path)
        mismatches = tuple(_compare(computed, expected or {}, path + ".expect"))
        results.append(
            CheckResult(
                check.op, check.args, computed, expected, not mismatches,
                mismatches, check.cite, check.note,
            )
        )
    elapsed = time.perf_counter() - start
    passed = all(r.passed for r in results)
    return Report(scenario.name, scenario.kind, passed, tuple(results),
                  None, elapsed)


def run_scenario(path):
    return run_scenario_obj(load_scenario(path))


@dataclass(frozen=True)
class AggregateReport:
    passed: bool
    reports: tuple
    warning: str | None = None
    elapsed: float = field(default=0.0, compare=False)

    def to_obj(self):
        obj = {
            "pass": self.passed,
            "scenarios": [r.to_obj() for r in self.reports],
        }
        if self.warning is not None:
            obj["warning"] = self.warning
        return obj

    def to_json(self):
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"


def run_all(directory):
    """Run every *.json scenario in the directory, isolating failures:
    a broken file fails its own entry without stopping the suite."""
    start = time.perf_counter()
    d = Path(directory)
    if not d.is_dir():
        raise ScenarioError(f"not a directory: {d}")
    files = sorted(d.glob("*.json"), key=lambda p: p.name)
    if not files:
        return AggregateReport(
            True, (), f"no scenario files in {d}", time.perf_counter() - start
        )
    reports = []
    for f in files:
        try:
            reports.append(run_scenario(f))
        except ScenarioError as e:
            reports.append(Report(f.name, "error", False, (), str(e)))
    reports.sort(key=lambda r: r.scenario)
    return AggregateReport(
        all(r.passed for r in reports), tuple(reports), None,
        time.perf_counter() - start,
    )


def bundled_dir():
    return Path(__file__).parent / "data"
