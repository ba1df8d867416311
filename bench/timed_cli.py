"""Run `waring` as `python -m waring.cli` would, between two calibration timings.

Usage: python timed_cli.py ITERATIONS REPORT_PATH ARG...

The calibration loop (tracing.calibration_loop) runs just before and just
after the command in the same process, so its speed is the host's speed
while the command ran. REPORT_PATH receives the seconds per loop iteration
of both timings and the seconds the two loops took; the exit code is the
command's.
"""

import json
import runpy
import sys
import time

from tracing import calibration_loop


def main() -> None:
    iterations, report = int(sys.argv[1]), sys.argv[2]
    argv = sys.argv[3:]
    start = time.perf_counter()
    before = calibration_loop(iterations)
    spent = time.perf_counter() - start
    sys.argv = ["waring", *argv]
    code = 0
    try:
        runpy.run_module("waring.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    start = time.perf_counter()
    after = calibration_loop(iterations)
    spent += time.perf_counter() - start
    with open(report, "w") as fh:
        json.dump({"calibration_s_per_iteration": [before, after], "calibration_s": spent}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
