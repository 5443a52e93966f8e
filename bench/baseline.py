"""One-off check against the hand-timed baseline in ROADMAP.md.

    python3 bench/baseline.py

Times `conngerm deform --order K` (ztrunc = K + 4) for K = 12, 16, 20,
24 and `conngerm kuranishi count --prime 13`, each an in-process call
to cli.main, median of three.  Prints raw wall seconds next to the
hand baseline, and the same times rescaled to reference speed the way
the workers rescale theirs (see worker.calibrate).
"""

import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conngerm import cli  # noqa: E402
from worker import CAL_NOMINAL_S, calibrate  # noqa: E402

BASELINE = (
    (["deform", "--order", "12"], 0.35),
    (["deform", "--order", "16"], 1.1),
    (["deform", "--order", "20"], 2.4),
    (["deform", "--order", "24"], 5.2),
    (["kuranishi", "count", "--prime", "13"], 0.29),
)


def timed(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"conngerm {' '.join(argv)} exited {code}")
    return dt


def main():
    print(f"{'command':32s} {'hand':>7s} {'raw':>7s} {'scaled':>7s}")
    for argv, hand in BASELINE:
        raw, scaled = [], []
        for _ in range(3):
            before = calibrate()
            dt = timed(argv)
            scale = CAL_NOMINAL_S / ((before + calibrate()) / 2)
            raw.append(dt)
            scaled.append(dt * scale)
        print(f"{' '.join(argv):32s} {hand:7.2f} {statistics.median(raw):7.2f} "
              f"{statistics.median(scaled):7.2f}")


if __name__ == "__main__":
    main()
