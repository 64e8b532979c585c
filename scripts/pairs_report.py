#!/usr/bin/env python3
"""Run the benchmark in two checkouts, alternating, and write every pair.

PARENT and CHANGE are the roots of two checkouts.  Each seed of SEEDS
(``FIRST-LAST``) is one pair: ``benchmark/run.py --workload WORKLOAD
--seed SEED --trace 0`` runs once in each checkout, for the
``run_seconds`` of ``BENCHMARK.json``, the parent first on odd seeds and
the change first on even ones.  Each run's end-to-end metrics and
provenance (git commit, sha256 of ``src/wand_gibbs``) go under WORKLOAD
in ``--out``, next to a summary per metric: median and quartiles of each
side and the number of pairs in which the change is better, in the
direction ``BENCHMARK.json`` names.  Other workloads already in the file
are kept.  With ``--trace`` every run is ``--trace 1`` instead, which
reports the per-layer metrics of ``BENCHMARK.json`` in place of the
end-to-end ones, and the record is stored as ``WORKLOAD --trace 1``.

Usage, from the root of a checkout:
    python3 scripts/pairs_report.py scan-k3 61-70 ../parent .
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from startup_report import cpu_model

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run in ``root``: its last-line JSON plus provenance."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
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
    parser.add_argument("workload")
    parser.add_argument("seeds", metavar="FIRST-LAST")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", default="BENCH_pairs.json")
    parser.add_argument("--trace", action="store_true",
                        help="traced runs, which report the per-layer metrics")
    args = parser.parse_args(argv)
    try:
        first, last = (int(part) for part in args.seeds.split("-"))
    except ValueError:
        parser.error("seeds are FIRST-LAST, two integers")
    if last <= first:
        parser.error("a summary needs at least two pairs: FIRST < LAST")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    directions = {metric["name"]: metric["better"]
                  for metric in spec["per_layer" if args.trace else "end_to_end"]}
    shown = next(iter(directions))
    roots = {"parent": args.parent, "change": args.change}

    pairs = []
    for seed in range(first, last + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed, seconds, args.trace)
        pairs.append(pair)
        print(f"seed {seed}: " + ", ".join(
            f"{side} {shown} {pair[side]['metrics'][shown]:.6g}" for side in SIDES))

    out = Path(args.out)
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {
        "measure": "benchmark/run.py --trace 0 (--trace 1 under 'WORKLOAD --trace 1'), "
                   "parent and change alternating per seed",
        "python": platform.python_version(),
        "machine": {"arch": platform.machine(), "cpus": os.cpu_count(), "cpu": cpu_model()},
        "workloads": {}}
    key = args.workload + (" --trace 1" if args.trace else "")
    report["workloads"][key] = {"run_seconds": seconds, "summary": summarize(pairs, directions),
                                "pairs": pairs}
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, row in report["workloads"][key]["summary"].items():
        print(f"{name}: parent {row['parent']['median']:.4g} -> change "
              f"{row['change']['median']:.4g}, change better in "
              f"{row['change_better_pairs']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
