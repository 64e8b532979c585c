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
from .solver import SolverError, boundary_law, solve_symmetric, tisgm_set
from .chain import NoBracketError, ks_threshold_pair
from .oracle import cayley_tree, check_consistency
from .scan import (
    CLASS_EXTREMAL_MSW, CLASS_NO_CLAIM, CLASS_NONEXTREMAL_KS, CLASS_SOLVER_ERROR,
    CLASS_UNDETERMINED, CSV_COLUMNS, format_value, law_cells, scan_rows, theta_grid,
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
                        "classification": {"enum": [CLASS_NONEXTREMAL_KS, CLASS_EXTREMAL_MSW,
                                                    CLASS_UNDETERMINED, CLASS_NO_CLAIM]},
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
                        "classification": {"enum": [CLASS_NONEXTREMAL_KS, CLASS_EXTREMAL_MSW,
                                                    CLASS_UNDETERMINED, CLASS_SOLVER_ERROR]},
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


def _residual_tol() -> float:
    raw = os.environ.get("WAND_GIBBS_TOL")
    if raw is None:
        return DEFAULT_RESIDUAL_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ValueError(f"WAND_GIBBS_TOL must be a number, got {raw!r}") from exc
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"WAND_GIBBS_TOL must be positive and finite, got {raw!r}")
    return tol


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: str | None, columns, records):
    """Write ``records``, mappings keyed by ``columns``, as CSV under a
    header row, every cell through ``format_value``.  Cells are comma-joined
    because none ever needs quoting (a number, an int, empty or a fixed
    label); the tests check the bytes against the csv module's writer."""
    lines = [",".join(columns)]
    lines.extend(",".join([format_value(record[col]) for col in columns]) for record in records)
    _write_text(path, "\n".join(lines) + "\n")


def _law_report(law, params, tol) -> dict:
    return {
        "kind": "symmetric" if law.symmetric else "asymmetric",
        "z1": law.z1,
        "z2": law.z2,
        "residual": law.residual,
        "certified": law.certified(tol),
        **law_cells(law, params),
    }


def cmd_solve(args) -> int:
    params = ModelParams(args.k, args.theta)
    tol = _residual_tol()
    solutions = tisgm_set(params, tol)
    laws = [_law_report(law, params, tol) for law in solutions.laws]
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
    thetas = theta_grid(args.theta_min, args.theta_max, args.steps, args.scale)
    rows = scan_rows(args.k, thetas, tol=_residual_tol())
    if args.format == "json":
        doc = {"command": "scan", "k": args.k, "rows": rows}
        _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    else:
        _write_csv(args.out, CSV_COLUMNS, rows)
    failed = sum(row["classification"] == CLASS_SOLVER_ERROR for row in rows)
    if failed:
        print(f"solver error: {failed} of {len(rows)} rows could not be solved "
              f"(labelled {CLASS_SOLVER_ERROR})", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_thresholds(args) -> int:
    k = tree_order(args.k)
    # one window for both criteria (see ``extremality``); NoBracketError from k = 4 on
    lower, upper = ks_threshold_pair(k)
    doc = {
        "command": "thresholds",
        "k": k,
        "criterion": args.criterion,
        "certified": True,
        "ks": None,
        "msw": None,
        "agreement": None,
    }
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
    k = tree_order(args.k)
    if args.depth < 1:
        raise ValueError(f"verify requires depth >= 1, got {args.depth}")
    try:
        thetas = [float(t) for t in args.thetas.split(",") if t.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse --thetas {args.thetas!r}") from exc
    if not thetas or any(not (math.isfinite(t) and t > 0.0) for t in thetas):
        raise ValueError(f"--thetas must be positive reals, got {args.thetas!r}")

    small = cayley_tree(k, args.depth - 1)
    big = cayley_tree(k, args.depth)
    tol = _residual_tol()
    failures = 0
    lines = []
    for theta in thetas:
        params = ModelParams(k, theta)
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
        print(f"verification failure: {summary}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _read_scan_csv(path: str):
    try:
        # decoding happens while reading, so a non-UTF-8 byte is an i/o error too
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None:
        raise OSError(f"{path}: empty scan file")
    columns = ("theta", "s1", "s2", "lambda2", "ks_value")
    missing = [c for c in columns if c not in reader.fieldnames]
    if missing:
        raise OSError(f"{path}: line 1: missing columns {missing}")
    rows = []
    for lineno, record in enumerate(reader, start=2):
        if record.get("classification") == CLASS_SOLVER_ERROR:
            continue  # a point the scan could not solve has no spectrum
        try:
            row = {c: float(record[c]) for c in columns}
        except (TypeError, ValueError) as exc:  # a short row leaves None cells
            raise OSError(f"{path}: line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, row.values())):
            raise OSError(f"{path}: line {lineno}: non-finite cell in {row}")
        rows.append(row)
    if not rows:
        raise OSError(f"{path}: no data rows")
    return rows


def _zero_crossings(xs, ys):
    """Each grid point where the curve is exactly 0, and the linear
    interpolant's zero across each strict sign change, in grid order; a
    curve that falls onto 0 at a point is marked there once."""
    crossings = []
    for i, (x, a) in enumerate(zip(xs, ys)):
        b = ys[i + 1] if i + 1 < len(ys) else a  # the last point starts no interval
        if a == 0.0:
            crossings.append(x)
        elif a < 0.0 < b or b < 0.0 < a:
            crossings.append(x + a / (a - b) * (xs[i + 1] - x))
    return crossings


def cmd_plot(args) -> int:
    rows = _read_scan_csv(args.scan)
    first = rows[0]
    square = first["lambda2"] ** 2
    ratio = first["ks_value"] / square if first["lambda2"] > 0.0 and square > 0.0 else 0.0
    if not (math.isfinite(ratio) and round(ratio) >= 2):
        raise OSError(f"{args.scan}: cannot recover a tree order k >= 2 from the first row")
    k = round(ratio)
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
        # bad flags and domain violations from the library (bad parameters,
        # enumeration cap) are all usage-level failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, NoBracketError, ArithmeticError) as exc:
        # a leftover overflow or division by zero is a solver failure too
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
