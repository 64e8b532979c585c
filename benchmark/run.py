"""wand-gibbs benchmark: seeded CLI workloads, checked answers, traced layers.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload scan-k3 --seed 1 --seconds 30 --trace 0

One client runs a closed loop in this process: each operation is one
``wand_gibbs.cli.main(argv)`` call and starts when the previous one
returned.  Every answer is checked against ``reference``; an exception that
escapes ``main`` fails all answers of its operation and the run goes on.
One untimed operation warms the loop up first.  Every time is the wall time
rescaled to a reference machine speed by a kernel timed around and during it
(see ``speed``); the printed notes give the plain wall-clock values too.

With ``--trace 0`` the run prints the end-to-end metrics: goodput (correct
answers per second of time inside ``main``, median over complete passes),
median and tail operation time, the failed share of answers, peak resident
memory, and ``setup_s``, the median time from starting a fresh interpreter
until ``wand_gibbs.cli`` is imported.  With ``--trace 1`` the first half of
the time runs untraced and the second half with every public function of
the library wrapped (see ``spans``), and the run prints per-layer metrics:
self times per operation, call counts per answer, layer shares of self
time, import times from ``-X importtime`` and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller report
(provenance, sample counts) and, when tracing, all spans are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference as ref
from spans import TRACED_MODULES, Tracer
from speed import SpeedProbe
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: fresh interpreters timed per run for setup_s
SETUP_SAMPLES = 15
SETUP_CHILD = "import time, wand_gibbs.cli; print(time.monotonic())"
IMPORTTIME_SAMPLES = 5

#: the tail percentile keeps at least this many samples beyond it
TAIL_BEYOND = 10

#: the end-to-end metrics, in the order BENCHMARK.json lists them
END_TO_END = ("goodput_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "setup_s")

LIBRARY_MODULES = ("__init__", "model", "rootfind", "solver", "chain", "extremality",
                   "oracle", "scan", "svgplot", "cli")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _spawn(args: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)


def time_setup_wall() -> float:
    """Seconds from starting an interpreter until wand_gibbs.cli is imported.

    CLOCK_MONOTONIC is system-wide, so the child's reading after the import
    is comparable with the parent's reading before the start."""
    start = time.monotonic()
    return float(_spawn(["-c", SETUP_CHILD]).stdout) - start


class SetupSampler:
    """Times SETUP_SAMPLES fresh interpreters spread evenly over the run.

    Machine speed drifts over seconds, so samples taken between operations
    across the whole run see the same conditions the operations see, and
    each is rescaled like an operation.  ``times`` are rescaled, ``walls``
    are plain wall times."""

    def __init__(self, speed: SpeedProbe):
        self.speed = speed
        self.times, self.walls = [], []

    def sample_until(self, fraction: float):
        while len(self.times) < SETUP_SAMPLES * min(1.0, fraction):
            wall = time_setup_wall()
            self.walls.append(wall)
            self.times.append(self.speed.scale_since_last(wall))


def measure_imports(samples: int) -> dict:
    """Median import milliseconds from ``python -X importtime``.

    ``cli.import_ms`` sums the cumulative times of the top-level entries the
    statement ``import wand_gibbs.cli`` produces (the package, then cli);
    ``import.<module>.self_ms`` is each wand_gibbs module's own time."""
    runs = []
    for _ in range(samples):
        stderr = _spawn(["-X", "importtime", "-c", "import wand_gibbs.cli"]).stderr
        total, own = 0.0, {}
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            package = name.strip()
            if not package.startswith("wand_gibbs"):
                continue
            if name.startswith(" wand_gibbs"):
                total += float(cumulative_us)
            own[package] = float(self_us) / 1000.0
        runs.append((total / 1000.0, own))
    out = {"cli.import_ms": statistics.median(total for total, _ in runs)}
    for module in LIBRARY_MODULES:
        package = "wand_gibbs" if module == "__init__" else f"wand_gibbs.{module}"
        out[f"import.{package}.self_ms"] = statistics.median(own.get(package, 0.0) for _, own in runs)
    return out


def import_cli():
    sys.path.insert(0, str(SRC))
    import wand_gibbs.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "wand_gibbs":
        raise ImportError(f"wand_gibbs imported from {cli.__file__}, not from {SRC}")
    return cli


def run_loop(cli, workload, ops, seconds: float, speed: SpeedProbe,
             tracer: Tracer | None = None, sampler: SetupSampler | None = None) -> list:
    """Closed loop for ``seconds``: one record per operation.

    A record's ``seconds`` is the operation's rescaled time, ``wall`` its
    wall time."""
    records = []
    start = time.perf_counter()
    while (spent := time.perf_counter() - start) < seconds:
        if sampler is not None:
            sampler.sample_until(spent / seconds)
        op = next(ops)
        if tracer is not None:
            tracer.op = len(records)
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                speed.measure() as timing:
            try:
                code = cli.main(list(op.argv))
            except Exception as exc:  # counted as a failed operation, run goes on
                code, error = None, f"{type(exc).__name__}: {exc}"
        failed = op.answers if error else workload.check(op, code, out.getvalue())
        records.append({"op": op, "seconds": timing.seconds, "wall": timing.wall, "code": code,
                        "error": error, "failed": failed})
    if sampler is not None:
        sampler.sample_until(1.0)
    return records


def goodput(records: list, key: str = "seconds") -> tuple:
    """(median correct answers per second over complete passes, passes used);
    ``key`` picks rescaled ("seconds") or wall ("wall") times."""
    passes = {}
    for record in records:
        passes.setdefault(record["op"].pass_index, []).append(record)
    complete = [group for group in passes.values()
                if len(group) == group[0]["op"].pass_size] or [records]
    rates = [
        sum(r["op"].answers - r["failed"] for r in group) / sum(r[key] for r in group)
        for group in complete
    ]
    return statistics.median(rates), len(rates)


def tail(durations: list) -> tuple:
    """(value, percentile, samples beyond): the highest order statistic with
    TAIL_BEYOND samples above it; the median when there are too few samples."""
    ordered = sorted(durations)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND
    if index < n // 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def end_to_end(records: list, sampler: SetupSampler) -> tuple:
    durations = [r["seconds"] for r in records]
    walls = [r["wall"] for r in records]
    attempted = sum(r["op"].answers for r in records)
    failed = sum(r["failed"] for r in records)
    rate, passes = goodput(records)
    tail_value, percentile, beyond = tail(durations)
    metrics = {
        "goodput_per_s": (rate, "1/s", f"median of {passes} complete passes; wall clock "
                          f"{goodput(records, 'wall')[0]:.6g}"),
        "op_p50_ms": (1000.0 * statistics.median(durations), "ms",
                      f"n={len(durations)}; wall clock {1000.0 * statistics.median(walls):.6g}"),
        "op_tail_ms": (1000.0 * tail_value, "ms",
                       f"p{percentile:.1f} of n={len(durations)}, {beyond} beyond; wall clock "
                       f"{1000.0 * tail(walls)[0]:.6g}"),
        "fail_ratio": (failed / attempted, "ratio", f"{failed} of {attempted} answers"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "whole run"),
        "setup_s": (statistics.median(sampler.times), "s",
                    f"median of {len(sampler.times)} fresh interpreters; wall clock "
                    f"{statistics.median(sampler.walls):.6g}"),
    }
    return metrics, attempted, failed


def _note_hooks() -> dict:
    def asymmetric_miss(result, arguments):
        params = arguments["params"]
        expected = ref.expected_count(params.k, params.theta)
        return None if expected is None else int(len(result) != expected - 1)

    def enumerated(result, arguments):
        tree = arguments["tree"]
        return len(result), (tree.k, tree.depth, tree.full_root)

    return {
        "solver.find_asymmetric": asymmetric_miss,
        "oracle.enumerate_admissible": enumerated,
        "rootfind.sign_change_brackets": lambda result, arguments: arguments["points"],
    }


def per_layer(records: list, summary: dict, overhead: float, imports: dict) -> dict:
    ops = len(records)
    answers = sum(r["op"].answers for r in records)
    total_s = sum(summary["cli.main"]["durations"])

    def entry(name):
        return summary[name]

    def self_ms(*names):
        return (1000.0 * sum(entry(n)["self_s"] for n in names) / ops, "ms", "self time per op")

    def per_answer(value, what):
        return (value / answers, "count", f"{what} per answer, {answers} answers")

    def p50_of(name, scale, unit):
        durations = entry(name)["durations"]
        return (scale * statistics.median(durations) if durations else 0.0, unit,
                f"n={len(durations)}")

    def per_threshold(gap, pair):
        pairs = entry(pair)["calls"]
        return (entry(gap)["calls"] / (2 * pairs) if pairs else 0.0, "count",
                f"{entry(gap)['calls']} evaluations, {pairs} pairs")

    def share(*names):
        return (sum(entry(n)["self_s"] for n in names) / total_s, "ratio", "of traced op time")

    asym_notes = entry("solver.find_asymmetric")["notes"]
    enumerations = entry("oracle.enumerate_admissible")["notes"]
    trees = {tree for _, tree in enumerations}
    metrics = {
        "solver.find_asymmetric.self_ms": self_ms("solver.find_asymmetric"),
        "solver.find_asymmetric.calls_per_answer":
            per_answer(entry("solver.find_asymmetric")["calls"], "calls"),
        "solver.find_asymmetric.p50_us": p50_of("solver.find_asymmetric", 1e6, "us"),
        "solver.find_asymmetric.miss_ratio":
            (sum(asym_notes) / len(asym_notes) if asym_notes else 0.0, "ratio",
             f"{len(asym_notes)} checked calls"),
        "solver.find_asymmetric.self_share": share("solver.find_asymmetric"),
        "solver.solve_symmetric.self_ms": self_ms("solver.solve_symmetric"),
        "solver.solve_symmetric.calls_per_answer":
            per_answer(entry("solver.solve_symmetric")["calls"], "calls"),
        "solver.solve_symmetric.errors_per_answer":
            per_answer(entry("solver.solve_symmetric")["errors"], "raised calls"),
        "solver.solve_symmetric.self_share": share("solver.solve_symmetric"),
        "solver.tisgm_set.p50_us": p50_of("solver.tisgm_set", 1e6, "us"),
        "chain.spectrum.self_ms": self_ms("chain.spectrum", "chain.transition_matrix"),
        "chain.ks_gap.evals_per_threshold": per_threshold("chain.ks_gap", "chain.ks_threshold_pair"),
        "chain.ks_threshold_pair.p50_ms": p50_of("chain.ks_threshold_pair", 1e3, "ms"),
        "extremality.msw_gap.evals_per_threshold":
            per_threshold("extremality.msw_gap", "extremality.msw_threshold_pair"),
        "extremality.msw_threshold_pair.p50_ms":
            p50_of("extremality.msw_threshold_pair", 1e3, "ms"),
        "rootfind.sign_change_brackets.points_per_answer":
            per_answer(sum(entry("rootfind.sign_change_brackets")["notes"]), "grid points"),
        "rootfind.bisect.calls_per_answer": per_answer(entry("rootfind.bisect")["calls"], "calls"),
        "scan.scan_row.p50_us": p50_of("scan.scan_row", 1e6, "us"),
        "scan.scan_row.self_ms": self_ms("scan.scan_row"),
        "oracle.enumerate_admissible.self_ms": self_ms("oracle.enumerate_admissible"),
        "oracle.enumerate_admissible.configs_per_call":
            (sum(n for n, _ in enumerations) / len(enumerations) if enumerations else 0.0,
             "count", f"{len(enumerations)} calls"),
        "oracle.enumerate_admissible.repeat_ratio":
            (len(enumerations) / len(trees) if trees else 0.0, "ratio",
             f"{len(enumerations)} calls, {len(trees)} distinct trees"),
        "oracle.finite_volume_measure.self_ms": self_ms("oracle.finite_volume_measure"),
        "oracle.check_consistency.p50_ms": p50_of("oracle.check_consistency", 1e3, "ms"),
        "cli.main.self_ms": self_ms(*[n for n in summary if n.startswith("cli.")]),
    }
    for module in TRACED_MODULES:
        metrics[f"{module}.self_share"] = share(*[n for n in summary if n.startswith(module + ".")])
    for name, value in imports.items():
        metrics[name] = (value, "ms", f"median of {IMPORTTIME_SAMPLES} fresh interpreters")
    metrics["trace.overhead_ratio"] = (overhead, "ratio", "untraced / traced goodput")
    return metrics


def provenance(args, workload) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True, timeout=30).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "wand_gibbs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wand_gibbs" / "cli.py").is_file():
        print(f"error: no wand_gibbs sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # untimed: compiles bytecode into the checkout, as installing the package does
    _spawn(["-c", SETUP_CHILD])
    cli = import_cli()
    ops = workload.ops(args.seed)
    # untimed warm-up on a copy of the stream, so the timed inputs are unchanged
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(Exception):
            cli.main(list(next(workload.ops(args.seed)).argv))
    speed = SpeedProbe()
    if args.trace:
        imports = measure_imports(IMPORTTIME_SAMPLES)
    else:
        sampler = SetupSampler(speed)

    tracer = None
    if args.trace:
        plain = run_loop(cli, workload, ops, args.seconds / 2, speed)
        tracer = Tracer(_note_hooks())
        tracer.install()
        try:
            records = run_loop(cli, workload, ops, args.seconds / 2, speed, tracer)
        finally:
            tracer.remove()
        overhead = goodput(plain)[0] / goodput(records)[0]
        metrics = per_layer(records, tracer.summary(), overhead, imports)
        attempted = sum(r["op"].answers for r in plain + records)
        failed = sum(r["failed"] for r in plain + records)
    else:
        records = run_loop(cli, workload, ops, args.seconds, speed, sampler=sampler)
        metrics, attempted, failed = end_to_end(records, sampler)

    info = provenance(args, workload)
    errors = sorted({r["error"] for r in records if r["error"]})
    print(f"workload {workload.name}: {workload.why}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:50s} {value:14.6g} {unit:6s} ({note})")
    if errors:
        print(f"  exceptions escaping main: {errors[:5]}")
    print("provenance " + json.dumps(info))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {"provenance": info, "attempted": attempted, "failed": failed, "errors": errors,
              "metrics": {name: {"value": v, "unit": u, "note": n}
                          for name, (v, u, n) in metrics.items()},
              "probe_s": speed.probes,
              "ops": [{"pass": r["op"].pass_index, "seconds": r["seconds"], "wall": r["wall"],
                       "answers": r["op"].answers, "failed": r["failed"]} for r in records]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.csv.gz")

    names = list(metrics) if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
