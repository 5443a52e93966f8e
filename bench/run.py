"""The conngerm benchmark: one command, three seeded closed-loop workloads.

    python3 bench/run.py --workload deform-glue --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from the repository root; the package is imported from ./src, so
nothing needs installing.  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer ones, each line as "name value unit".  The
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}.  Exit 0 when every answer checked out, 1 when one did not,
2 when the package or a worker could not be run.  README.md says what
each workload and metric is for.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("deform-glue", "algebra-random", "cli-mix")
END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
SETUP_SPAWNS = 16
TRACE_DECKS = 3
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run: no package, or a worker died."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_samples(n):
    """Wall times of n fresh interpreters each running `import conngerm`."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import conngerm"], env=_env(),
                              cwd=ROOT, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"import conngerm failed: {proc.stderr.decode()[-300:]}")
    return times


def run_worker(workload, seed, seconds=None, decks=None, trace=False, smoke=False):
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds)] if decks is None else ["--decks", str(decks)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker timed out after {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    out = json.loads(lines[-1])
    if not Path(out["conngerm_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"conngerm was imported from {out['conngerm_file']}, not {SRC}")
    return out


def measure(workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (result object, human-readable lines)."""
    if not trace:
        # The first spawn writes the bytecode cache, which a user pays once
        # per install, so it is not timed.  Half the timed spawns come after
        # the worker, so one slow spell on the machine cannot set the median.
        setup = setup_samples(1 + SETUP_SPAWNS // 2)[1:]
        w = run_worker(workload, seed, seconds=seconds, smoke=smoke)
        setup += setup_samples(SETUP_SPAWNS // 2)
        values = {name: w[name] for name, _ in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        runs, missing = [w], []
    else:
        from tracer import metric_specs
        plain = run_worker(workload, seed, decks=TRACE_DECKS, smoke=smoke)
        w = run_worker(workload, seed, decks=TRACE_DECKS, trace=True, smoke=smoke)
        values = dict(w["layers"],
                      **{"trace.overhead_ratio": w["busy_ref_s"] / plain["busy_ref_s"]})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in metric_specs()}
        runs, missing = [plain, w], w["missing_spans"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines = [f"workload {workload} seed {seed} trace {int(trace)}: "
             f"{w['attempted']} ops in {w['decks']} decks, {w['busy_s']:.2f} s busy"]
    lines += [f"  {name:44s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  {'fail_ratio':44s} {failed / attempted:.6g} ({failed}/{attempted})")
    meta = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "src_lines": _src_lines(), "repeat_share": round(w["repeat_share"], 4),
            "speed_scale": round(w["speed_scale"], 4)}
    if trace:
        meta["names_rebound"] = sum(w["rebound"].values())
    lines.append("meta " + json.dumps(meta))
    errors = [e for r in runs for e in r["errors"]]
    if missing:
        errors.append("spans never called on a workload they should move: "
                      + ", ".join(missing))
    lines += [f"  ERROR {e}" for e in errors]
    result = {"correct": not failed and not missing, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def smoke():
    """Every workload at a tiny size, untraced and traced: each metric
    present, nothing failed, every expected span called."""
    from tracer import metric_specs
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"] for m in spec["end_to_end"]},
            True: {m["name"] for m in spec["per_layer"]}}
    if want[True] != {name for name, _, _ in metric_specs()}:
        raise BenchError("BENCHMARK.json per_layer differs from tracer.metric_specs()")
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, lines = measure(workload, 1, 0.5, trace, smoke=True)
            print("\n".join(lines))
            if set(result["metrics"]) != want[trace] or not result["correct"]:
                ok = False
                print(f"SMOKE FAIL {workload} trace {int(trace)}")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at a tiny size and check the output")
    ns = ap.parse_args()
    if not (SRC / "conngerm" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'conngerm'}; run from a conngerm checkout",
              file=sys.stderr)
        return 2
    try:
        if ns.smoke:
            return smoke()
        if ns.workload is None:
            ap.error("--workload is required unless --smoke is given")
        result, lines = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
