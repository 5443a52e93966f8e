"""Outside-in per-layer tracing of the package, from the benchmark's side.

``Tracer.install()`` replaces each public function or method named in
``SPANS`` with a wrapper that counts calls and accumulates self time
(its span minus the spans of wrapped functions it called).  Every alias
is rebound too: names imported into other modules (``deformation.
normal_form``, ``kuranishi.buchberger``, the package's re-exports) and
class-level aliases such as ``__radd__ = __add__``.  Nothing in the
package changes on disk; install only in a process that is traced for
its whole life.
"""

import importlib
import sys
import time

# (module, attribute, metric prefix)
SPANS = (
    ("poly", "MPoly.__init__", "poly.MPoly.init"),
    ("poly", "MPoly.__add__", "poly.MPoly.add"),
    ("poly", "MPoly.__sub__", "poly.MPoly.sub"),
    ("poly", "MPoly.__mul__", "poly.MPoly.mul"),
    ("poly", "MPoly.derivative", "poly.MPoly.derivative"),
    ("poly", "normal_form", "poly.normal_form"),
    ("poly", "MonomialOrder.leading", "poly.MonomialOrder.leading"),
    ("poly", "buchberger", "poly.buchberger"),
    ("poly", "s_polynomial", "poly.s_polynomial"),
    ("series", "TruncLaurent.__mul__", "series.TruncLaurent.mul"),
    ("series", "TruncLaurent.__add__", "series.TruncLaurent.add"),
    ("series", "TruncLaurent.diff", "series.TruncLaurent.diff"),
    ("series", "TruncLaurent.scale", "series.TruncLaurent.scale"),
    ("series", "TruncLaurent.map_coeffs", "series.TruncLaurent.map_coeffs"),
    ("mat2", "mul", "mat2.mul"),
    ("deformation", "wp_series", "deformation.wp_series"),
    ("deformation", "phi_cochain", "deformation.phi_cochain"),
    ("deformation", "build_cocycle", "deformation.build_cocycle"),
    ("deformation", "congruence_check", "deformation.congruence_check"),
    ("diffop", "DiffOp.__mul__", "diffop.DiffOp.mul"),
    ("diffop", "DiffOp.__pow__", "diffop.DiffOp.pow"),
    ("diffop", "parse_diffop", "diffop.parse_diffop"),
    ("diffop", "lambda_membership", "diffop.lambda_membership"),
    ("kuranishi", "count_points_mod_p", "kuranishi.count_points_mod_p"),
    ("kuranishi", "ob2", "kuranishi.ob2"),
    ("kuranishi", "segre_check", "kuranishi.segre_check"),
    ("kuranishi", "psi", "kuranishi.psi"),
    ("kuranishi", "orbit_separation", "kuranishi.orbit_separation"),
    ("kuranishi", "relation_certificate", "kuranishi.relation_certificate"),
    ("cohomology", "d1_rank", "cohomology.d1_rank"),
    ("cohomology", "rank_exact", "cohomology.rank_exact"),
    ("cohomology", "hypercoh_dims", "cohomology.hypercoh_dims"),
    ("cohomology", "chase", "cohomology.chase"),
    ("stability", "stability_verdict", "stability.stability_verdict"),
    ("stability", "implication_chain_check", "stability.implication_chain_check"),
    ("scenarios", "parse_json_exact", "scenarios.parse_json_exact"),
    ("scenarios", "scenario_from_obj", "scenarios.scenario_from_obj"),
    ("scenarios", "run_scenario_obj", "scenarios.run_scenario_obj"),
    ("scenarios", "run_all", "scenarios.run_all"),
    ("cli", "main", "cli.main"),
)

BUCHBERGER = "poly.buchberger"


def _group(*prefixes):
    return tuple(name for _, _, name in SPANS if name.startswith(prefixes))


_MPOLY_ARITH = ("poly.MPoly.init", "poly.MPoly.add", "poly.MPoly.sub", "poly.MPoly.mul")
_REDUCTION = ("poly.normal_form", "poly.MonomialOrder.leading")

# Spans that must report calls > 0 on each workload: the layers the
# README's table says that workload should move.  A binding the tracer
# missed would read 0 and fail this check instead of passing silently.
MOVES = {
    "deform-glue": _MPOLY_ARITH + _REDUCTION + _group("series.", "mat2.", "deformation."),
    "algebra-random": _MPOLY_ARITH + ("poly.MPoly.derivative",) + _REDUCTION
    + (BUCHBERGER, "poly.s_polynomial") + _group("diffop."),
    "cli-mix": _group("kuranishi.", "cohomology.", "stability.", "scenarios.", "cli."),
}

EXTRA_METRICS = (
    ("poly.normal_form.max_coeff_bits", "bits", "lower"),
    ("poly.spair_useful_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def metric_specs():
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for _, _, name in SPANS:
        specs += [(name + ".calls", "count", "lower"), (name + ".self_s", "s", "lower")]
    return specs + list(EXTRA_METRICS)


def _bits(c):
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for _, _, name in SPANS}
        self.self_s = {name: 0.0 for _, _, name in SPANS}
        self.rebound = {}
        self.max_coeff_bits = 0
        self.spairs_reduced = 0
        self.spairs_useful = 0
        self._stack = []  # [span name, time spent in wrapped children]
        self._last_spoly = None

    def install(self):
        modules = {m: importlib.import_module("conngerm." + m) for m, _, _ in SPANS}
        holders = _holders()
        for module, attr, name in SPANS:
            owner = modules[module]
            *path, fname = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[fname]
            wrapper = self._wrap(name, original)
            n = 0
            for h in holders:
                for key, value in list(vars(h).items()):
                    if value is original:
                        setattr(h, key, wrapper)
                        n += 1
            self.rebound[name] = n

    def _wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        hook = {"poly.normal_form": self._after_normal_form,
                "poly.s_polynomial": self._after_s_polynomial}.get(name)

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, result)
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = fn.__doc__
        return span

    def _after_s_polynomial(self, args, result):
        if any(frame[0] == BUCHBERGER for frame in self._stack):
            self._last_spoly = result

    def _after_normal_form(self, args, result):
        f = args[0]
        bits = max((_bits(c) for p in (f, result) for c in p.terms.values()), default=0)
        self.max_coeff_bits = max(self.max_coeff_bits, bits)
        if f is self._last_spoly:  # an S-pair reduced inside buchberger
            self._last_spoly = None
            self.spairs_reduced += 1
            self.spairs_useful += bool(result)

    def missing(self, workload):
        """Spans that should move on this workload but were never called."""
        return [name for name in MOVES[workload] if not self.calls[name]]

    def metrics(self):
        out = {}
        for _, _, name in SPANS:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out["poly.normal_form.max_coeff_bits"] = self.max_coeff_bits
        out["poly.spair_useful_ratio"] = (
            self.spairs_useful / self.spairs_reduced if self.spairs_reduced else 0.0)
        return out


def _holders():
    """Every loaded conngerm module, and every class defined in one."""
    mods = [m for n, m in list(sys.modules.items())
            if n == "conngerm" or n.startswith("conngerm.")]
    holders, seen = [], set()
    for m in mods:
        for obj in [m] + [v for v in vars(m).values() if isinstance(v, type)]:
            if id(obj) not in seen and (obj is m or obj.__module__.startswith("conngerm")):
                seen.add(id(obj))
                holders.append(obj)
    return holders
