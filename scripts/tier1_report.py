#!/usr/bin/env python3
"""Time the tier-1 test suite in one or more checkouts and write a report.

Each ``LABEL=ROOT`` argument names the root of a checkout.  The script runs
CI's tier-1 command (``COMMAND``, in ROOT with ``PYTHONPATH=ROOT/src``)
``RUNS`` times per checkout, alternating between the checkouts so that
drifts in machine load hit all of them alike, and times each run from
outside.  The report (median and quartiles of the wall time in s, each
run's pass count and pytest's own time, the Python version, the machine
and each checkout's git commit) goes to ``--out`` as JSON.

Usage, from the root of a checkout:
    python3 scripts/tier1_report.py parent=../parent change=.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

from startup_report import commit, cpu_model

#: CI's tier-1 step, after the interpreter
COMMAND = ("-X", "dev", "-W", "error", "-m", "pytest", "-q", "--continue-on-collection-errors")
#: suite runs per checkout
RUNS = 5


def parse_summary(output: str) -> tuple:
    """(passed, seconds) from pytest's closing line, such as
    ``1 failed, 1328 passed in 27.31s``; ValueError without one."""
    lines = output.strip().splitlines()
    found = re.search(r" in ([0-9.]+)s\b", lines[-1]) if lines else None
    if found is None:
        raise ValueError(f"no pytest summary line in {output[-200:]!r}")
    passed = re.search(r"\b([0-9]+) passed\b", lines[-1])
    return (int(passed.group(1)) if passed else 0), float(found.group(1))


def run_suite(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *COMMAND], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    passed, seconds = parse_summary(proc.stdout)
    return {"wall_s": round(wall, 3), "pytest_s": seconds, "passed": passed,
            "exit": proc.returncode}


def summary(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles([run["wall_s"] for run in runs], n=4,
                                          method="inclusive")
    return {"median_s": round(median, 3), "q1_s": round(q1, 3), "q3_s": round(q3, 3),
            "iqr_s": round(q3 - q1, 3), "passed": sorted({run["passed"] for run in runs}),
            "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=ROOT")
    parser.add_argument("--out", default="BENCH_tier1.json")
    args = parser.parse_args(argv)
    checkouts = [checkout.split("=", 1) for checkout in args.checkouts]
    if any(len(checkout) != 2 or not all(checkout) for checkout in checkouts):
        parser.error("each checkout is LABEL=ROOT")
    runs = {label: [] for label, _ in checkouts}
    for index in range(RUNS):
        for label, root in checkouts:
            runs[label].append(run_suite(root))
            print(f"run {index + 1}/{RUNS} {label}: {runs[label][-1]}", flush=True)
    report = {
        "measure": "wall time of CI's tier-1 command, python " + " ".join(COMMAND)
                   + ", timed from outside the interpreter",
        "unit": "s",
        "runs": RUNS,
        "python": platform.python_version(),
        "machine": {"arch": platform.machine(), "cpus": os.cpu_count(), "cpu": cpu_model()},
        "checkouts": [{"label": label, **commit(root), **summary(runs[label])}
                      for label, root in checkouts],
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for checkout in report["checkouts"]:
        print(f"{checkout['label']}: median {checkout['median_s']:.2f} s "
              f"(IQR {checkout['q1_s']:.2f}-{checkout['q3_s']:.2f}), "
              f"passed {checkout['passed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
