#!/usr/bin/env python3
"""Measure two checkouts in alternating pairs and write every pair.

PARENT and CHANGE are the roots of two checkouts.  Each seed of FIRST-LAST
is one pair: MEASURE runs once in each, the parent first on odd seeds.
MEASURE is one of three kinds:

- a workload of ``benchmark/run.py``, run with ``--seed SEED --trace 0`` for
  the ``run_seconds`` of ``BENCHMARK.json``: its end-to-end metrics and
  provenance (git commit, sha256 of the package); with ``--trace``, ``--trace
  1`` runs give the per-layer metrics instead, under ``MEASURE --trace 1``;
- ``startup``: ``import wand_gibbs.cli`` in a fresh interpreter with
  ``PYTHONPATH=ROOT/src``, timed inside the child (``import_ms``), after
  one untimed import per checkout that compiles its bytecode;
- ``tier1``: CI's tier-1 command (``TIER1``) in ROOT, timed from outside
  (``wall_s``), with pytest's own time (``pytest_s``), the pass count and
  the exit code.  Runs of these two keep their checkout's git commit.

The runs go under MEASURE in ``--out``, next to a summary per metric:
each side's median and quartiles, and the pairs in which the change is
better.  Other measures already in the file are kept.

Usage, from the root of a checkout:
    python3 scripts/pairs_report.py scan-k3 61-70 ../parent .
    python3 scripts/pairs_report.py startup 1-30 ../parent .
    python3 scripts/pairs_report.py tier1 1-10 ../parent .
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIDES = ("parent", "change")
#: run in each startup child; prints the import time in ms
CHILD = ("import time; start = time.perf_counter(); import wand_gibbs.cli; "
         "print((time.perf_counter() - start) * 1e3)")
#: CI's tier-1 step, after the interpreter
TIER1 = ("-X", "dev", "-W", "error", "-m", "pytest", "-q", "--continue-on-collection-errors")
#: the metrics of the two measures that are not benchmark workloads, with their directions
OWN_METRICS = {"startup": {"import_ms": "lower"},
               "tier1": {"wall_s": "lower", "pytest_s": "lower"}}


def cpu_model() -> str | None:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return None
    return next((line.split(":", 1)[1].strip() for line in text.splitlines()
                 if line.startswith("model name")), None)


def commit(root: str) -> dict:
    """The checkout's git commit, and whether its tracked files differ from it."""
    def git(*argv):
        proc = subprocess.run(["git", "-C", root, *argv], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    dirty = None if head is None else bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"commit": head, "dirty": dirty}


def parse_summary(output: str) -> tuple:
    """(passed, seconds) from pytest's closing line, such as
    ``1 failed, 1328 passed in 27.31s``; ValueError without one."""
    lines = output.strip().splitlines()
    found = re.search(r" in ([0-9.]+)s\b", lines[-1]) if lines else None
    if found is None:
        raise ValueError(f"no pytest summary line in {output[-200:]!r}")
    passed = re.search(r"\b([0-9]+) passed\b", lines[-1])
    return (int(passed.group(1)) if passed else 0), float(found.group(1))


def python(root: str, *argv: str, check: bool = False) -> subprocess.CompletedProcess:
    """The interpreter with ``argv`` in ``root``, with ``PYTHONPATH=root/src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    return subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True,
                          text=True, check=check)


def run_once(measure: str, root: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of ``measure`` in ``root``: its metrics plus provenance."""
    if measure == "startup":
        out = python(root, "-c", CHILD, check=True).stdout
        return {**commit(root), "metrics": {"import_ms": float(out)}}
    if measure == "tier1":
        start = time.perf_counter()
        proc = python(root, *TIER1)
        wall = time.perf_counter() - start
        passed, pytest_s = parse_summary(proc.stdout)
        return {**commit(root), "passed": passed, "exit": proc.returncode,
                "metrics": {"wall_s": round(wall, 3), "pytest_s": pytest_s}}
    argv = [sys.executable, "benchmark/run.py", "--workload", measure, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    lines = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    result = json.loads(lines[-1])
    info = json.loads(next(line for line in lines if line.startswith("provenance "))
                      .split(" ", 1)[1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "git_commit": info["git_commit"],
            "src_sha256": info["src_sha256"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarize(pairs: list, directions: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change wins."""
    summary = {}
    for name, better in directions.items():
        sign = 1 if better == "higher" else -1
        row = {"better": better}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(
                [pair[side]["metrics"][name] for pair in pairs], n=4, method="inclusive")
            row[side] = {"median": median, "q1": q1, "q3": q3}
        row["change_better_pairs"] = sum(
            sign * (pair["change"]["metrics"][name] - pair["parent"]["metrics"][name]) > 0
            for pair in pairs)
        row["pairs"] = len(pairs)
        summary[name] = row
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("measure", metavar="MEASURE", help="a workload, startup or tier1")
    parser.add_argument("seeds", metavar="FIRST-LAST")
    parser.add_argument("parent", metavar="PARENT")
    parser.add_argument("change", metavar="CHANGE")
    parser.add_argument("--out", default="BENCH_pairs.json")
    parser.add_argument("--trace", action="store_true",
                        help="traced workload runs, which report the per-layer metrics")
    args = parser.parse_args(argv)
    try:
        first, last = (int(part) for part in args.seeds.split("-"))
    except ValueError:
        parser.error("seeds are FIRST-LAST, two integers")
    if last <= first:
        parser.error("a summary needs at least two pairs: FIRST < LAST")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "benchmark"))
    from workloads import WORKLOADS  # the names that benchmark/run.py accepts
    if args.measure in OWN_METRICS:
        if args.trace:
            parser.error(f"--trace applies to a benchmark workload, not to {args.measure}")
        directions = OWN_METRICS[args.measure]
    elif args.measure in WORKLOADS:
        directions = {metric["name"]: metric["better"]
                      for metric in spec["per_layer" if args.trace else "end_to_end"]}
    else:
        parser.error(f"unknown MEASURE {args.measure!r}")
    shown = next(iter(directions))
    roots = {"parent": args.parent, "change": args.change}
    if args.measure == "startup":
        for root in roots.values():
            python(root, "-c", CHILD, check=True)  # compiles the bytecode, untimed

    pairs = []
    for seed in range(first, last + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(args.measure, roots[side], seed, spec["run_seconds"], args.trace)
        pairs.append(pair)
        print(f"seed {seed}: " + ", ".join(
            f"{side} {shown} {pair[side]['metrics'][shown]:.6g}" for side in SIDES), flush=True)

    out = Path(args.out)
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {
        "measure": "benchmark/run.py --trace 0 (--trace 1 under 'WORKLOAD --trace 1'); "
                   "startup: import wand_gibbs.cli, timed in a fresh interpreter; tier1: python "
                   + " ".join(TIER1) + ", timed from outside; parent and change alternating",
        "python": platform.python_version(),
        "machine": {"arch": platform.machine(), "cpus": os.cpu_count(), "cpu": cpu_model()},
        "workloads": {}}
    key = args.measure + (" --trace 1" if args.trace else "")
    entry = {"summary": summarize(pairs, directions), "pairs": pairs}
    report["workloads"][key] = entry if args.measure in OWN_METRICS else {
        "run_seconds": spec["run_seconds"], **entry}
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, row in entry["summary"].items():
        print(f"{name}: parent {row['parent']['median']:.4g} -> change {row['change']['median']:.4g}"
              f", change better in {row['change_better_pairs']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
