"""Command-line front end: solve, scan, thresholds, verify, plot.

Exit codes are a stable contract: 0 success, 2 usage error, 3 solver
failure (including any arithmetic error), 4 I/O failure, 5 verification
failure.  The environment variable WAND_GIBBS_TOL overrides the default
1e-12 residual acceptance (for exploration only).  JSON output follows the
schema printed by --help.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .model import DEFAULT_RESIDUAL_TOL, ModelParams, tree_order
from .solver import (
    SolverError,
    boundary_law,
    tisgm_set,
    solve_symmetric,
)
from .chain import transition_matrix, spectrum, ks_threshold_pair
from .extremality import certificate_cells
from .oracle import cayley_tree, check_consistency
from .rootfind import NoBracketError
from .scan import (
    CLASS_SOLVER_ERROR,
    CSV_COLUMNS,
    classify,
    format_value,
    scan_rows,
    theta_grid,
)
from .svgplot import regime_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_VERIFY = 5

#: consistency-defect thresholds used by the verify command
VERIFY_PASS_DEFECT = 1e-10
VERIFY_PERTURBED_DEFECT = 1e-6

JSON_SCHEMAS = {
    "solve": {
        "type": "object",
        "required": ["command", "k", "theta", "theta_cr", "tisgm_count", "laws"],
        "properties": {
            "command": {"const": "solve"},
            "k": {"type": "integer", "minimum": 2},
            "theta": {"type": "number", "exclusiveMinimum": 0},
            "theta_cr": {"type": "number"},
            "tisgm_count": {"type": "integer"},
            "laws": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["kind", "z1", "z2", "residual", "s1", "s2",
                                 "lambda2", "ks_value", "classification"],
                    "properties": {
                        "kind": {"enum": ["symmetric", "asymmetric"]},
                        "z1": {"type": "number"},
                        "z2": {"type": "number"},
                        "residual": {"type": "number"},
                        "s1": {"type": "number"},
                        "s2": {"type": "number"},
                        "lambda2": {"type": "number"},
                        "ks_value": {"type": "number"},
                        "kappa": {"type": ["number", "null"]},
                        "gamma": {"type": ["number", "null"]},
                        "product": {"type": ["number", "null"]},
                        "classification": {"type": "string"},
                    },
                },
            },
        },
    },
    "scan": {
        "type": "object",
        "required": ["command", "k", "rows"],
        "properties": {
            "command": {"const": "scan"},
            "k": {"type": "integer", "minimum": 2},
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": list(CSV_COLUMNS),
                    "properties": {
                        "theta": {"type": "number"},
                        "z_sym": {"type": ["number", "null"]},
                        "z_asym_1": {"type": ["number", "null"]},
                        "z_asym_2": {"type": ["number", "null"]},
                        "tisgm_count": {"enum": [1, 3, None]},
                        "s1": {"type": ["number", "null"]},
                        "s2": {"type": ["number", "null"]},
                        "lambda2": {"type": ["number", "null"]},
                        "ks_value": {"type": ["number", "null"]},
                        "kappa": {"type": ["number", "null"]},
                        "gamma": {"type": ["number", "null"]},
                        "product": {"type": ["number", "null"]},
                        "classification": {
                            "enum": ["nonextremal-KS", "extremal-MSW", "undetermined",
                                     "solver-error"]
                        },
                    },
                },
            },
        },
    },
    "thresholds": {
        "type": "object",
        "required": ["command", "k", "criterion", "certified"],
        "properties": {
            "command": {"const": "thresholds"},
            "k": {"type": "integer", "minimum": 2},
            "criterion": {"enum": ["ks", "msw", "both"]},
            "certified": {"type": "boolean"},
            "ks": {"type": ["object", "null"]},
            "msw": {"type": ["object", "null"]},
            "agreement": {"type": ["number", "null"]},
        },
    },
}


class UsageError(ValueError):
    """Invalid flag combination or parameter domain."""


class CliIOError(OSError):
    """Unreadable input or unwritable output."""


class VerificationError(RuntimeError):
    """An oracle consistency check violated its expected bound."""


def _residual_tol() -> float:
    raw = os.environ.get("WAND_GIBBS_TOL")
    if raw is None:
        return DEFAULT_RESIDUAL_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise UsageError(f"WAND_GIBBS_TOL must be a number, got {raw!r}") from exc
    if not (math.isfinite(tol) and tol > 0.0):
        raise UsageError(f"WAND_GIBBS_TOL must be positive and finite, got {raw!r}")
    return tol


def _params(k: int, theta: float) -> ModelParams:
    try:
        return ModelParams(k, theta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliIOError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: str | None, columns, records):
    """Write ``records``, mappings keyed by ``columns``, as CSV under a
    header row, every cell through ``format_value``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([format_value(record[col]) for col in columns] for record in records)
    _write_text(path, buffer.getvalue())


def _law_report(law, params, tol, symmetric: bool) -> dict:
    rep = spectrum(transition_matrix(law, params.theta), params.k)
    doc = {
        "kind": "symmetric" if symmetric else "asymmetric",
        "z1": law.z1,
        "z2": law.z2,
        "residual": law.residual,
        "certified": law.certified(tol),
        "s1": rep.s1,
        "s2": rep.s2,
        "lambda2": rep.lambda2,
        "ks_value": rep.ks_value,
        "kappa": None,
        "gamma": None,
        "product": None,
    }
    if symmetric:
        doc["kappa"], doc["gamma"], doc["product"] = certificate_cells(rep)
        doc["classification"] = classify(rep.ks_value)
    else:
        # no extremality statement exists for the asymmetric pair at k >= 3
        doc["classification"] = "no-claim"
    return doc


def cmd_solve(args) -> int:
    params = _params(args.k, args.theta)
    tol = _residual_tol()
    solutions = tisgm_set(params, tol)
    laws = [_law_report(solutions.symmetric, params, tol, symmetric=True)]
    laws.extend(_law_report(law, params, tol, symmetric=False) for law in solutions.asymmetric)
    doc = {
        "command": "solve",
        "k": params.k,
        "theta": params.theta,
        "theta_cr": solutions.theta_cr,
        "tisgm_count": solutions.count,
        "residual_tol": tol,
        "laws": laws,
    }
    if args.format == "json":
        _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    else:
        columns = ("kind", "z1", "z2", "residual", "theta_cr", "s1", "s2",
                   "lambda2", "ks_value", "kappa", "gamma", "product", "classification")
        _write_csv(args.out, columns, (dict(law, theta_cr=solutions.theta_cr) for law in laws))
    return EXIT_OK


def cmd_scan(args) -> int:
    tree_order(args.k)
    try:
        thetas = theta_grid(args.theta_min, args.theta_max, args.steps, args.scale)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = scan_rows(args.k, thetas, tol=_residual_tol())
    if args.format == "json":
        doc = {"command": "scan", "k": args.k, "rows": [row.as_dict() for row in rows]}
        _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    else:
        _write_csv(args.out, CSV_COLUMNS, (row.as_dict() for row in rows))
    failed = sum(row.classification == CLASS_SOLVER_ERROR for row in rows)
    if failed:
        print(f"solver error: {failed} of {len(rows)} rows could not be solved "
              f"(labelled {CLASS_SOLVER_ERROR})", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_thresholds(args) -> int:
    k = tree_order(args.k)
    doc = {
        "command": "thresholds",
        "k": k,
        "criterion": args.criterion,
        "certified": k in (2, 3),
        "ks": None,
        "msw": None,
        "agreement": None,
    }
    # both criteria have one window (see ``extremality``): compute it once
    lower, upper = ks_threshold_pair(k)
    for name in ("ks", "msw"):
        if args.criterion in (name, "both"):
            doc[name] = {"lower": lower, "upper": upper}
    if args.criterion == "both":
        doc["agreement"] = 0.0
    if args.format == "json":
        _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    else:
        certified = str(doc["certified"]).lower()
        _write_csv(args.out, ("criterion", "k", "lower", "upper", "certified"),
                   [dict(doc[name], criterion=name, k=k, certified=certified)
                    for name in ("ks", "msw") if doc[name] is not None])
    return EXIT_OK


def cmd_verify(args) -> int:
    params0 = _params(args.k, 1.0)  # validates k
    if args.depth < 1 or args.depth > 2:
        raise UsageError(
            f"verify requires 1 <= depth <= 2 (exact-enumeration cap), got {args.depth}"
        )
    try:
        thetas = [float(t) for t in args.thetas.split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse --thetas {args.thetas!r}") from exc
    if not thetas or any(not (math.isfinite(t) and t > 0.0) for t in thetas):
        raise UsageError(f"--thetas must be positive reals, got {args.thetas!r}")

    small = cayley_tree(params0.k, args.depth - 1)
    big = cayley_tree(params0.k, args.depth)
    tol = _residual_tol()
    failures = 0
    lines = []
    for theta in thetas:
        params = ModelParams(params0.k, theta)
        law = solve_symmetric(params, tol)
        defect = check_consistency(small, big, theta, law)
        ok_cert = defect <= VERIFY_PASS_DEFECT
        perturbed = boundary_law(law.z1 * 1.1, law.z2 * 0.9, params)
        defect_pert = check_consistency(small, big, theta, perturbed)
        ok_pert = defect_pert >= VERIFY_PERTURBED_DEFECT
        failures += (not ok_cert) + (not ok_pert)
        lines.append(
            f"theta={format_value(theta)} certified defect={defect:.3e} "
            f"[{'PASS' if ok_cert else 'FAIL'}] perturbed defect={defect_pert:.3e} "
            f"[{'PASS' if ok_pert else 'FAIL'}]"
        )
    summary = "all consistency checks passed" if failures == 0 else f"{failures} check(s) failed"
    _write_text(args.out, "\n".join(lines + [summary]) + "\n")
    if failures:
        raise VerificationError(summary)
    return EXIT_OK


def _read_scan_csv(path: str):
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise CliIOError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise CliIOError(f"{path}: empty scan file")
        missing = [c for c in ("theta", "s1", "s2", "lambda2", "ks_value")
                   if c not in reader.fieldnames]
        if missing:
            raise CliIOError(f"{path}: line 1: missing columns {missing}")
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if record.get("classification") == CLASS_SOLVER_ERROR:
                continue  # a point the scan could not solve has no spectrum
            try:
                rows.append({
                    "theta": float(record["theta"]),
                    "s1": float(record["s1"]),
                    "s2": float(record["s2"]),
                    "lambda2": float(record["lambda2"]),
                    "ks_value": float(record["ks_value"]),
                })
            except (TypeError, ValueError, KeyError) as exc:
                raise CliIOError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise CliIOError(f"{path}: no data rows")
    return rows


def _zero_crossings(xs, ys):
    crossings = []
    for i in range(len(xs) - 1):
        a, b = ys[i], ys[i + 1]
        if a == 0.0:
            crossings.append(xs[i])
        elif (a > 0.0) != (b > 0.0):
            frac = a / (a - b)
            crossings.append(xs[i] + frac * (xs[i + 1] - xs[i]))
    if ys and ys[-1] == 0.0:
        crossings.append(xs[-1])
    return crossings


def cmd_plot(args) -> int:
    rows = _read_scan_csv(args.scan)
    first = rows[0]
    if first["lambda2"] <= 0.0:
        raise CliIOError(f"{args.scan}: cannot recover k from a zero spectral gap")
    k = round(first["ks_value"] / first["lambda2"] ** 2)
    thetas = [row["theta"] for row in rows]
    curve1 = [k * row["s1"] ** 2 - 1.0 for row in rows]
    curve2 = [k * row["s2"] ** 2 - 1.0 for row in rows]
    crossings = []
    if len(rows) > 1:
        crossings = sorted(_zero_crossings(thetas, curve1) + _zero_crossings(thetas, curve2))
    svg = regime_svg(
        thetas,
        [(f"{k}*s1^2-1", curve1), (f"{k}*s2^2-1", curve2)],
        crossings,
        title=f"Kesten-Stigum gap curves, k={k}",
    )
    _write_text(args.out, svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wand-gibbs",
        description=(
            "Solve and classify translation-invariant Gibbs measures of the "
            "hard-core Blume-Capel model (wand constraint graph) on Cayley trees."
        ),
        epilog=(
            "Exit codes: 0 ok, 2 usage, 3 solver, 4 I/O, 5 verification.\n"
            "WAND_GIBBS_TOL overrides the 1e-12 residual acceptance.\n\n"
            "JSON output schemas:\n" + json.dumps(JSON_SCHEMAS, indent=2)
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve all measures at one (k, theta)")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--theta", type=float, required=True)
    p_solve.add_argument("--format", choices=("csv", "json"), default="json")
    p_solve.add_argument("--out", default=None, help="output path (default stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_scan = sub.add_parser("scan", help="sweep an activity grid into a flat table")
    p_scan.add_argument("--k", type=int, required=True)
    p_scan.add_argument("--theta-min", type=float, required=True)
    p_scan.add_argument("--theta-max", type=float, required=True)
    p_scan.add_argument("--steps", type=int, required=True)
    p_scan.add_argument("--scale", choices=("linear", "log"), default="linear")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--out", default=None, help="output path (default stdout)")
    p_scan.set_defaults(func=cmd_scan)

    p_thr = sub.add_parser("thresholds", help="print the regime thresholds (closed form)")
    p_thr.add_argument("--k", type=int, required=True)
    p_thr.add_argument("--criterion", choices=("ks", "msw", "both"), default="both")
    p_thr.add_argument("--format", choices=("csv", "json"), default="json")
    p_thr.add_argument("--out", default=None, help="output path (default stdout)")
    p_thr.set_defaults(func=cmd_thresholds)

    p_ver = sub.add_parser("verify", help="run the exact finite-volume consistency oracle")
    p_ver.add_argument("--k", type=int, required=True)
    p_ver.add_argument("--depth", type=int, default=2)
    p_ver.add_argument("--thetas", default="0.5,1.0,2.0",
                       help="comma-separated activities")
    p_ver.add_argument("--out", default=None, help="output path (default stdout)")
    p_ver.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="render a scan CSV as an SVG figure")
    p_plot.add_argument("scan", help="path to a scan CSV")
    p_plot.add_argument("--out", default=None, help="output path (default stdout)")
    p_plot.set_defaults(func=cmd_plot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # once per process: building it and its JSON-schema epilog costs more than a command
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        # UsageError and domain violations from the library (bad parameters,
        # enumeration cap) are all usage-level failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, NoBracketError, ArithmeticError) as exc:
        # a leftover overflow or division by zero is a solver failure too
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (CliIOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
