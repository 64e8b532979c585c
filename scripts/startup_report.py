#!/usr/bin/env python3
"""Time ``import wand_gibbs.cli`` in fresh interpreters and write a report.

Each ``LABEL=SRC`` argument names a source tree (the directory that holds
the ``wand_gibbs`` package).  The script starts ``RUNS`` fresh
interpreters per tree, alternating between the trees so that drifts in
machine load hit all of them alike, and times the import inside each
child.  The report (median and quartiles in ms, the Python version, the
machine and each tree's git commit) goes to ``--out`` as JSON.

Usage, from the root of a source checkout:
    python3 scripts/startup_report.py parent=../parent/src change=src
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

#: run in each child; prints the import time in ms
CHILD = ("import time; start = time.perf_counter(); import wand_gibbs.cli; "
         "print((time.perf_counter() - start) * 1e3)")
#: fresh interpreters per tree
RUNS = 30


def time_import(src: str) -> float:
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                         text=True, check=True).stdout
    return float(out)


def commit(src: str) -> dict:
    def git(*argv):
        proc = subprocess.run(["git", "-C", src, *argv], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    return {"commit": head, "dirty": None if head is None else bool(git("status", "--porcelain", "."))}


def summary(samples: list) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": round(median, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3),
            "iqr_ms": round(q3 - q1, 3), "samples_ms": [round(s, 3) for s in samples]}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC")
    parser.add_argument("--out", default="BENCH_startup.json")
    args = parser.parse_args(argv)
    trees = [tree.split("=", 1) for tree in args.trees]
    if any(len(tree) != 2 for tree in trees):
        parser.error("each tree is LABEL=SRC")
    for _, src in trees:
        time_import(src)  # compile the tree's bytecode cache outside the timed runs
    samples = {label: [] for label, _ in trees}
    for _ in range(RUNS):
        for label, src in trees:
            samples[label].append(time_import(src))
    report = {
        "measure": "import wand_gibbs.cli in a fresh interpreter, timed inside the child",
        "unit": "ms",
        "runs": RUNS,
        "python": platform.python_version(),
        "machine": {"arch": platform.machine(), "cpus": os.cpu_count(), "cpu": cpu_model()},
        "trees": [{"label": label, **commit(src), **summary(samples[label])}
                  for label, src in trees],
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for tree in report["trees"]:
        print(f"{tree['label']}: median {tree['median_ms']:.2f} ms "
              f"(IQR {tree['q1_ms']:.2f}-{tree['q3_ms']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
