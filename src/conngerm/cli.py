"""Command-line front end.

Every command funnels through the scenario engine, so the JSON printed
on stdout is the same deterministic report format whether the request
came from a scenario file or from command-line flags.  Human-readable
summaries, citations, and timing go to stderr; stdout carries nothing
but the report.

Exit codes: 0 all checks passed, 1 at least one expected value did not
match, 2 malformed input (bad JSON, bad flags, failed preconditions).
"""

from __future__ import annotations

import argparse
import sys

from . import scenarios as sc
from .deformation import SAFETY_MARGIN
from .poly import int_from_text
from .scenarios import Check, Scenario, ScenarioError


def _flag(parse):
    """An argparse type reading with parse; a refused value exits 2."""
    def read(text):
        try:
            return parse(text)
        except (ScenarioError, ValueError) as e:
            raise argparse.ArgumentTypeError(str(e))
    return read


# a rational flag is an int or "p/q", as in a scenario file
_rational = _flag(lambda text: sc.canonical(sc._rat(text, None)))
_integer = _flag(int_from_text)


def _coords(text):
    """Parse "x=1,y12=-3/2" into an argument dict."""
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"coordinate {part!r} is not of the form name=value"
            )
        name, _, value = part.partition("=")
        out[name.strip()] = _rational(value.strip())
    return out


def _summarize(report):
    status = "pass" if report.passed else "FAIL"
    print(
        f"{report.scenario} ({report.kind}): {len(report.checks)} checks, "
        f"{status} [{report.elapsed:.3f}s]",
        file=sys.stderr,
    )
    for c in report.checks:
        mark = "ok  " if c.passed else "FAIL"
        cite = f"  -- {c.cite}" if c.cite else ""
        print(f"  [{mark}] {c.op}{cite}", file=sys.stderr)
        if c.note:
            print(f"         note: {c.note}", file=sys.stderr)
        for m in c.mismatches:
            print(f"         mismatch: {m}", file=sys.stderr)
    if report.error:
        print(f"  error: {report.error}", file=sys.stderr)


def _emit(report):
    sys.stdout.write(report.to_json())
    _summarize(report)
    return 0 if report.passed else 1


# -- subcommand implementations -------------------------------------------


def _cmd_run_all(ns):
    directory = ns.directory if ns.directory else sc.bundled_dir()
    agg = sc.run_all(directory)
    sys.stdout.write(agg.to_json())
    if agg.warning:
        print(f"warning: {agg.warning}", file=sys.stderr)
    for r in agg.reports:
        _summarize(r)
    total = len(agg.reports)
    good = sum(1 for r in agg.reports if r.passed)
    print(
        f"{good}/{total} scenarios passed [{agg.elapsed:.3f}s]",
        file=sys.stderr,
    )
    return 0 if agg.passed else 1


# (command, action) -> the one check it runs, as (op, args, expect).  A flag
# left unset is left out of args, so the op's own argument spec decides
# whether it was required.
_ACTIONS = {
    ("kuranishi", "ob2"): lambda ns: (
        ("ob2_at", {"coords": ns.coords}, None) if ns.coords
        else ("ob2_symbolic", {}, {"involves_trace_vars": False})
    ),
    ("kuranishi", "segre"): lambda ns: (
        "segre",
        {"xi": ns.xi, "lam": ns.lam} if ns.xi or ns.lam else {"symbolic": True},
        {"on_locus": True},
    ),
    ("kuranishi", "count"): lambda ns: ("count_points", {"prime": ns.prime}, None),
    ("git", "psi"): lambda ns: ("psi", {"coords": ns.coords}, None),
    ("git", "orbits"): lambda ns: ("orbits", {"z1": ns.z1, "z2": ns.z2}, None),
    ("git", "fiber"): lambda ns: ("fiber", {"along": ns.along}, None),
    ("deform", None): lambda ns: (
        "congruence",
        {"order": ns.order,
         "ztrunc": ns.order + SAFETY_MARGIN if ns.ztrunc is None else ns.ztrunc,
         "g2": ns.g2, "g3": ns.g3},
        {"ok": True},
    ),
    ("diffop", "normalize"): lambda ns: ("normalize", {"expr": ns.expr}, None),
    ("diffop", "member"): lambda ns: (
        "membership",
        {"expr": ns.expr,
         "variant": {"kind": "logarithmic"} if ns.logarithmic
         else {"kind": "meromorphic", "pole_mult": ns.pole_mult}},
        None,
    ),
}


def _cmd_action(ns):
    op, args, expect = _ACTIONS[ns.command, ns.action](ns)
    args = {k: v for k, v in args.items() if v is not None}
    scenario = Scenario(f"cli:{ns.action or ns.command}", ns.command,
                        (Check(op, args, expect),))
    return _emit(sc.run_scenario_obj(scenario))


def _cmd_scenario_of_kind(kind):
    def run(ns):
        scenario = sc.load_scenario(ns.scenario)
        if kind is not None and scenario.kind != kind:
            raise ScenarioError(
                f"scenario {scenario.name!r} has kind {scenario.kind!r}; "
                f"this command runs {kind!r} scenarios"
            )
        return _emit(sc.run_scenario_obj(scenario))

    return run


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conngerm",
        description="Exact local models for germs of connection moduli.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("run", help="run one scenario file")
    p.add_argument("scenario", metavar="file")
    p.set_defaults(func=_cmd_scenario_of_kind(None))

    p = subs.add_parser(
        "run-all",
        help="run every scenario in a directory (default: bundled suite)",
    )
    p.add_argument("directory", nargs="?", default=None)
    p.set_defaults(func=_cmd_run_all)

    p = subs.add_parser("kuranishi", help="obstruction map computations")
    p.add_argument("action", choices=("ob2", "segre", "count"))
    p.add_argument("--coords", type=_coords, default=None,
                   help="point as name=value pairs, e.g. x=1,y12=-3/2")
    p.add_argument("--xi", type=_rational, nargs=3, default=None,
                   metavar="Q", help="three rationals for the conic direction")
    p.add_argument("--lam", type=_rational, nargs=2, default=None,
                   metavar="Q", help="two rationals for the line direction")
    p.add_argument("--prime", type=_integer, default=None)
    p.set_defaults(func=_cmd_action)

    p = subs.add_parser("git", help="invariants and quotient geometry")
    p.add_argument("action", choices=("psi", "orbits", "fiber"))
    p.add_argument("--coords", type=_coords, default=None)
    p.add_argument("--z1", type=_rational, default=None)
    p.add_argument("--z2", type=_rational, default=None)
    p.add_argument("--along", choices=("z1", "z2"), default="z2")
    p.set_defaults(func=_cmd_action)

    p = subs.add_parser(
        "deform", help="order-by-order glueing congruence check"
    )
    p.add_argument("--order", type=_integer, required=True)
    p.add_argument("--ztrunc", type=_integer, default=None,
                   help=f"series truncation (default: order + {SAFETY_MARGIN})")
    p.add_argument("--g2", type=_rational, default=4)
    p.add_argument("--g3", type=_rational, default=0)
    p.set_defaults(func=_cmd_action, action=None)

    p = subs.add_parser("cohomology", help="run a cohomology scenario")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_scenario_of_kind("cohomology"))

    p = subs.add_parser(
        "stability",
        help="run a stability scenario",
        description="Run a stability scenario file. Verdicts are always "
        "relative to the subobject family the scenario supplies; no "
        "enumeration of subsheaves is attempted.",
    )
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_scenario_of_kind("stability"))

    p = subs.add_parser("diffop", help="operator rewriting and membership")
    p.add_argument("action", choices=("normalize", "member"))
    p.add_argument("expr", help="operator expression, e.g. \"(z^2*d)^2\"")
    p.add_argument("--pole-mult", type=_integer, default=1, dest="pole_mult")
    p.add_argument("--logarithmic", action="store_true")
    p.set_defaults(func=_cmd_action)

    return parser


def _expression_behind_dashes(argv):
    """argv with a diffop expression that starts with "-" moved behind
    "--".  argparse reads such a word ("-z*d") as an unknown flag; behind
    "--" it is the positional it was meant to be.  Flags, -h and a
    negative number (a --pole-mult value) stay where they are."""
    if argv[:1] != ["diffop"] or "--" in argv:
        return argv
    for i, word in enumerate(argv[1:], 1):
        if (word.startswith("-") and not word.startswith(("--", "-h"))
                and not word[1:].isdigit()):
            return argv[:i] + argv[i + 1:] + ["--", word]
    return argv


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = parser.parse_args(_expression_behind_dashes(argv))
    try:
        return ns.func(ns)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
