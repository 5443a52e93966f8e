"""One workload in one fresh process: a single client, no threads.

Run by run.py, not by hand:

    python3 bench/worker.py --workload W --seed N (--seconds S | --decks D)
                            [--trace] [--smoke]

With --seconds it times whole decks until the operations have taken S
seconds; with --decks it runs exactly D decks (the traced runs, so that
call counts repeat exactly for a seed).  Every answer is checked right
after its call, outside the timed span.  The last stdout line is one
JSON object.
"""

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

from workloads import WORKLOADS

MAX_ERRORS = 5
CAL_NOMINAL_S = 0.013  # the calibration task's time at reference speed
CAL_EVERY_S = 0.5  # recalibrate after this much timed work


def _calibration_task():
    # A sparse product of two polynomials with multi-digit rational
    # coefficients, held as dicts keyed by exponent tuples: the interpreter
    # work the package does most, but none of the package's code, so no
    # change to the package can move it.
    a = {(i % 5, i % 3, i % 4): Fraction(i * 7919 % 1000 - 500, i % 97 + 1) ** 3
         for i in range(60)}
    product = {}
    for e1, c1 in a.items():
        for e2, c2 in a.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            product[e] = product.get(e, 0) + c1 * c2
    return product


def calibrate():
    """Mean time of three runs of the calibration task: how fast the
    machine runs interpreter code right now."""
    t0 = time.perf_counter()
    for _ in range(3):
        _calibration_task()
    return (time.perf_counter() - t0) / 3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    window = ap.add_mutually_exclusive_group(required=True)
    window.add_argument("--seconds", type=float)
    window.add_argument("--decks", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ns = ap.parse_args()

    import conngerm

    make = WORKLOADS[ns.workload]
    errors = []
    # Warm up on a separate stream so lazy set-up is done before timing and
    # the measured inputs are not run twice.
    warm = next(make(random.Random(f"warm-{ns.seed}"), ns.smoke))
    warm = list({op.kind: op for op in reversed(warm)}.values())
    for op in warm:
        problem = op.check(op.run())
        if problem:
            errors.append("warm-up " + problem)
    gc.collect()

    tracer = None
    if ns.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    decks = make(random.Random(ns.seed), ns.smoke)
    latencies, scales, seen = [], [], set()
    attempted, failed, repeated = len(warm), len(errors), 0
    busy = 0.0
    n_decks = 0
    clock = time.perf_counter
    cals = [calibrate()]
    while (busy < ns.seconds) if ns.decks is None else (n_decks < ns.decks):
        deck_latencies, since_cal = [], 0.0
        deck = next(decks)
        for op in deck:
            attempted += 1
            repeated += op.key in seen
            seen.add(op.key)
            t0 = clock()
            try:
                result = op.run()
            except Exception as e:  # a crash is a failed operation, not a dead run
                dt = clock() - t0
                problem = f"{op.kind}: {type(e).__name__}: {e}"
            else:
                dt = clock() - t0
                problem = op.check(result)
            deck_latencies.append(dt)
            since_cal += dt
            if problem:
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append(problem)
            # Start every operation from the garbage-collector state a fresh
            # command has, so a full collection lands inside the operation
            # that caused it rather than wherever the counters happen to be.
            gc.collect()
            if since_cal >= CAL_EVERY_S or len(deck_latencies) == len(deck):
                cals.append(calibrate())
                since_cal = 0.0
        # The shared machine switches between speeds up to 1.8x apart, often
        # several times a second.  Rescale the deck by the mean speed of the
        # calibrations taken on either side of and during it.
        scale = CAL_NOMINAL_S / statistics.mean(cals)
        busy += sum(deck_latencies)
        latencies += [dt * scale for dt in deck_latencies]
        scales.append(scale)
        cals = cals[-1:]
        n_decks += 1

    out = {
        "conngerm_file": conngerm.__file__,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "decks": n_decks,
        "busy_s": busy,
        "busy_ref_s": sum(latencies),
        "speed_scale": statistics.median(scales),
        "repeat_share": repeated / (attempted - len(warm)),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["missing_spans"] = tracer.missing(ns.workload)
        out["rebound"] = tracer.rebound
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
