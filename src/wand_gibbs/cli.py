"""Command-line front end: solve, scan, thresholds, verify.

A known command's flags are parsed once, by its own parser (anything else
takes argparse's full parse).  Exit codes are a stable contract: 0 success,
2 usage error, 3 solver failure (including any arithmetic error, and a scan
grid with a row it could not solve), 4 write failure (the only I/O a command
does), 5 verification failure.  The environment variable WAND_GIBBS_TOL
overrides the default 1e-12 residual acceptance (for exploration only).
JSON output follows the schema printed by --help.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .model import DEFAULT_RESIDUAL_TOL, BoundaryLaw, ModelParams, tree_order
from .solver import SolverError, solve_symmetric, tisgm_set
from .chain import _log_window, ks_threshold_pair
from .oracle import FiniteCayleyTree, check_consistency
from .scan import (
    CLASS_EXTREMAL_MSW, CLASS_NO_CLAIM, CLASS_NONEXTREMAL_KS, CLASS_SOLVER_ERROR,
    CLASS_UNDETERMINED, CSV_COLUMNS, LAW_CELLS, _csv_line, format_value, law_cells, scan_rows,
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
        "required": ["command", "k", "theta", "theta_cr", "tisgm_count", "residual_tol", "laws"],
        "properties": {
            "command": {"const": "solve"},
            "k": {"type": "integer", "minimum": 2},
            "theta": {"type": "number", "exclusiveMinimum": 0},
            "theta_cr": {"type": "number"},
            "tisgm_count": {"type": "integer"},
            "residual_tol": {"type": "number", "exclusiveMinimum": 0},
            "laws": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["kind", "z1", "z2", "residual", "certified", "s1", "s2",
                                 "lambda2", "ks_value", "classification"],
                    "properties": {
                        "kind": {"enum": ["symmetric", "asymmetric"]},
                        **dict.fromkeys(("z1", "z2", "residual"), {"type": "number"}),
                        "certified": {"type": "boolean"},
                        **dict.fromkeys(LAW_CELLS, {"type": "number"}),
                        # null for an asymmetric law, which gets no extremality claim
                        **dict.fromkeys(("kappa", "gamma", "product"), {"type": ["number", "null"]}),
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
                    "properties": dict.fromkeys(CSV_COLUMNS, {"type": ["number", "null"]}) | {
                        "theta": {"type": "number"},
                        "tisgm_count": {"enum": [1, 3, None]},
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
            **dict.fromkeys(("ks", "msw"), {  # a window, null where not asked for
                "type": ["object", "null"], "required": ["lower", "upper"],
                "properties": dict.fromkeys(("lower", "upper"), {"type": "number"})}),
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


def _csv_lines(columns, records):
    """Each of ``records``, a mapping keyed by ``columns``, as one CSV line of
    comma-joined ``format_value`` cells (``scan`` has its own, ``scan._csv_line``)."""
    return (",".join([format_value(record[name]) for name in columns]) for record in records)


def _write_doc(args, doc: dict, columns, lines):
    """``doc`` as indented JSON or, per ``--format``, ``lines`` as CSV under a
    header row of two or more ``columns``.  Cells are comma-joined because
    none ever needs quoting (a number, an int, empty or a fixed label); the
    tests check the bytes against the csv module's writer."""
    if args.format == "json":
        text = json.dumps(doc, indent=2)
    else:
        text = "\n".join([",".join(columns), *lines])
    _write_text(args.out, text + "\n")


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
    columns = ("kind", "z1", "z2", "residual", "theta_cr") + LAW_CELLS
    _write_doc(args, doc, columns,
               _csv_lines(columns, (dict(law, theta_cr=solutions.theta_cr) for law in laws)))
    return EXIT_OK


def _regime_figure(k: int, rows, scale: str) -> str:
    """The curves k s1^2 - 1 and k s2^2 - 1 over the solved ``rows`` as SVG, with
    a dashed marker at each end of ``chain._log_window(k)`` that lies within the
    drawn activities: at every k those ends are the one zero of the s1 curve and
    the one zero of the s2 curve."""
    thetas = [row["theta"] for row in rows]
    # |s| <= 1, so k s^2 - 1 stays within [-1, k - 1]
    series = [(f"{k}*{s}^2-1", [k * row[s] ** 2 - 1.0 for row in rows]) for s in ("s1", "s2")]
    lo, hi = min(thetas), max(thetas)  # a narrow grid may step down by an ulp
    markers = sorted(x for x in map(math.exp, _log_window(k)) if lo <= x <= hi)
    return regime_svg(thetas, series, markers, f"Kesten-Stigum gap curves, k={k}", scale)


def cmd_scan(args) -> int:
    tree_order(args.k)
    thetas = theta_grid(args.theta_min, args.theta_max, args.steps, args.scale)
    rows = scan_rows(args.k, thetas, tol=_residual_tol())
    solved = [row for row in rows if row["classification"] != CLASS_SOLVER_ERROR]
    if args.format != "svg":
        _write_doc(args, {"command": "scan", "k": args.k, "rows": rows}, CSV_COLUMNS,
                   map(_csv_line, rows))
    elif solved:  # a point the scan could not solve has no spectrum to draw
        _write_text(args.out, _regime_figure(args.k, solved, args.scale))
    failed = len(rows) - len(solved)
    if failed:
        print(f"solver error: {failed} of {len(rows)} rows could not be solved "
              f"(labelled {CLASS_SOLVER_ERROR})", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_thresholds(args) -> int:
    # one window for both criteria (see ``extremality``); it checks k, NoBracketError from 4 on
    lower, upper = ks_threshold_pair(args.k)
    window = {"lower": lower, "upper": upper}
    names = ("ks", "msw") if args.criterion == "both" else (args.criterion,)
    doc = {
        "command": "thresholds",
        "k": args.k,
        "criterion": args.criterion,
        "certified": True,
        "ks": window if "ks" in names else None,
        "msw": window if "msw" in names else None,
        "agreement": 0.0 if args.criterion == "both" else None,
    }
    columns = ("criterion", "k", "lower", "upper", "certified")
    _write_doc(args, doc, columns, _csv_lines(
        columns, (dict(window, criterion=name, k=args.k, certified="true") for name in names)))
    return EXIT_OK


def cmd_verify(args) -> int:
    k = tree_order(args.k)
    if args.depth < 1:
        raise ValueError(f"verify requires depth >= 1, got {args.depth}")
    try:
        thetas = [float(t) for t in args.thetas.split(",") if t.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse --thetas {args.thetas!r}") from exc
    try:
        points = [ModelParams(k, theta) for theta in thetas]  # model.activity checks each
    except ValueError:
        points = []
    if not points:
        raise ValueError(f"--thetas must be positive reals, got {args.thetas!r}")

    tree = FiniteCayleyTree(k, args.depth)
    tol = _residual_tol()
    failures = 0
    lines = []
    for params in points:
        law = solve_symmetric(params, tol)
        defect = check_consistency(tree, params.theta, law)
        ok_cert = defect <= VERIFY_PASS_DEFECT
        perturbed = BoundaryLaw(law.z1 * 1.1, law.z2 * 0.9)
        defect_pert = check_consistency(tree, params.theta, perturbed)
        ok_pert = defect_pert >= VERIFY_PERTURBED_DEFECT
        failures += (not ok_cert) + (not ok_pert)
        lines.append(
            f"theta={format_value(params.theta)} certified defect={defect:.3e} "
            f"[{'PASS' if ok_cert else 'FAIL'}] perturbed defect={defect_pert:.3e} "
            f"[{'PASS' if ok_pert else 'FAIL'}]"
        )
    summary = "all consistency checks passed" if failures == 0 else f"{failures} check(s) failed"
    _write_text(args.out, "\n".join(lines + [summary]) + "\n")
    if failures:
        print(f"verification failure: {summary}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wand-gibbs",
        description=(
            "Solve and classify translation-invariant Gibbs measures of the "
            "hard-core Blume-Capel model (wand constraint graph) on Cayley trees."
        ),
        epilog=(
            "Exit codes: 0 ok, 2 usage, 3 solver, 4 write failure, 5 verification.\n"
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
    p_scan.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
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

    return parser


@functools.cache
def _parser() -> tuple:
    # once per process: building it and its JSON-schema epilog costs more than a command
    parser = build_parser()
    sub, = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return parser, sub.choices  # and each command's own parser by name


def _parse_args(argv):
    """``parse_args(argv)``, a known command's flags parsed once by its own parser, as the
    subparsers action calls it; anything else, or flags it leaves over, takes the full parse."""
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:], None)
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        # bad flags and domain violations from the library (bad parameters,
        # enumeration cap) are all usage-level failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, ArithmeticError) as exc:
        # a leftover overflow or division by zero is a solver failure too
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
