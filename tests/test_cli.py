import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys
import tracemalloc

import jsonschema
import pytest

from wand_gibbs import cli
from wand_gibbs.chain import _log_window, ks_threshold_pair
from wand_gibbs.cli import JSON_SCHEMAS, main
from wand_gibbs import scan, svgplot
from wand_gibbs.model import ModelParams
from wand_gibbs.scan import CSV_COLUMNS, format_value, theta_grid
from wand_gibbs.solver import theta_critical

from threshold_oracle import zero_crossings


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- solve -----------------------------------------------------------------------

def test_solve_k3_unit_activity(capsys):
    code, out, _ = run(capsys, "solve", "--k", "3", "--theta", "1.0")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, JSON_SCHEMAS["solve"])
    assert doc["tisgm_count"] == 3  # theta_cr(3) > 1
    sym = doc["laws"][0]
    assert sym["z1"] == 1.0
    assert sym["ks_value"] == 0.75
    assert sym["product"] == 0.75
    assert sym["classification"] == "extremal-MSW"
    assert all(law["classification"] == "no-claim" for law in doc["laws"][1:])


@pytest.mark.parametrize("k, theta", [(7, "1e-06"), (6, "1.7601021736868908e-08")])
def test_solve_asymmetric_s1_is_positive_zero(capsys, k, theta):
    # the asymmetric det underflows to zero here; the deflated pair must not
    # turn that into s1 = -0.0
    code, out, _ = run(capsys, "solve", "--k", str(k), "--theta", theta)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, JSON_SCHEMAS["solve"])
    assert doc["tisgm_count"] == 3
    for law in doc["laws"][1:]:
        assert math.copysign(1.0, law["s1"]) == 1.0
        assert law["s2"] <= 0.0


@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_solve_symmetric_cells_match_scan_rows(capsys, k):
    # one path from a solved law to its cells: the symmetric law in `solve`
    # and the `scan` row at the same activity carry the same values
    code, out, _ = run(capsys, "scan", "--k", str(k), "--theta-min", "0.01",
                       "--theta-max", "100", "--steps", "9", "--scale", "log",
                       "--format", "json")
    assert code == 0
    cells = ("s1", "s2", "lambda2", "ks_value", "kappa", "gamma", "product", "classification")
    for row in json.loads(out)["rows"]:
        code, out, _ = run(capsys, "solve", "--k", str(k), "--theta", repr(row["theta"]))
        assert code == 0
        doc = json.loads(out)
        sym = doc["laws"][0]
        assert (sym["kind"], sym["z1"], doc["tisgm_count"]) == (
            "symmetric", row["z_sym"], row["tisgm_count"])
        assert {c: sym[c] for c in cells} == {c: row[c] for c in cells}


def test_solve_k2_below_critical(capsys):
    code, out, _ = run(capsys, "solve", "--k", "2", "--theta", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["tisgm_count"] == 3
    assert doc["theta_cr"] == 1.0


def test_solve_k4_high_activity_nonextremal(capsys):
    code, out, _ = run(capsys, "solve", "--k", "4", "--theta", "7.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["laws"][0]["classification"] == "nonextremal-KS"


def test_solve_csv_format(capsys):
    code, out, _ = run(capsys, "solve", "--k", "2", "--theta", "2.0", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    assert rows[0]["kind"] == "symmetric"


def test_solve_invalid_params(capsys):
    code, _, err = run(capsys, "solve", "--k", "1", "--theta", "1.0")
    assert code == 2
    code, _, _ = run(capsys, "solve", "--k", "3", "--theta", "-1.0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("solve", "--theta", "1.0"),
    ("scan", "--theta-min", "0.5", "--theta-max", "1.0", "--steps", "3"),
    ("thresholds",),
    ("verify",),
])
def test_bad_tree_order_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--k", "1")
    assert (code, out) == (2, "")
    assert err == "error: tree order k must be an integer >= 2, got 1\n"


def test_unknown_command_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_arithmetic_error_maps_to_solver_exit(monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "tisgm_set", overflow)
    code, out, err = run(capsys, "solve", "--k", "2", "--theta", "0.5")
    assert code == 3
    assert out == ""
    assert err == "solver error: math range error\n"


@pytest.mark.parametrize("k, theta, logs", [
    ("2", "1e-300", "(1380.16, 1380.16)"),    # the symmetric root overflows
    ("3", "1e-35", "(241.771, -725.314)"),   # the asymmetric pair's z2 underflows
])
def test_root_outside_the_doubles_has_one_message(capsys, k, theta, logs):
    # both roots leave the solver through one certificate, so one format
    code, out, err = run(capsys, "solve", "--k", k, "--theta", theta)
    assert (code, out) == (3, "")
    assert err == f"solver error: root (ln z1, ln z2) = {logs} lies outside the range of normal doubles\n"


def test_root_failing_its_tolerance_has_one_message(monkeypatch, capsys):
    monkeypatch.setenv("WAND_GIBBS_TOL", "1e-300")
    code, out, err = run(capsys, "solve", "--k", "3", "--theta", "5")
    assert (code, out) == (3, "")
    assert err == ("solver error: root (z1, z2) = (0.6518422784753741, 0.6518422784753741) "
                   "failed certification: residual 1.447e-16, tolerance 1.000e-300\n")


def test_parser_built_once_per_process(monkeypatch, capsys):
    code, first, _ = run(capsys, "solve", "--k", "2", "--theta", "0.5")
    assert code == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert run(capsys, "solve", "--k", "2", "--theta", "0.5", "--format", "csv")[0] == 0
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "solve", "--k", "2", "--theta", "0.5") == (0, first, "")


#: argv forms whose parse the one-parse dispatch must give as ``parse_args`` does:
#: every command, usage errors, help, abbreviations, ``--`` and negative numbers
PARSE_CORPUS = [
    (),
    ("--help",),
    ("-h",),
    ("--",),
    ("frobnicate",),
    ("frobnicate", "--k", "3"),
    ("--", "thresholds", "--k", "3"),
    ("--k", "3", "thresholds"),
    ("thresholds",),
    ("thresholds", "--k", "3"),
    ("thresholds", "--k=3", "--criterion=ks", "--format", "csv"),
    ("thresholds", "--crit", "ks", "--k", "3"),
    ("thresholds", "--k", "3", "--bogus"),
    ("thresholds", "--k", "3", "extra"),
    ("thresholds", "--k", "3", "--k", "5"),
    ("thresholds", "--k", "-3"),
    ("thresholds", "--k", "three"),
    ("thresholds", "--k", "3", "--criterion", "neither"),
    ("thresholds", "--k", "3", "--he"),
    ("thresholds", "--", "--k", "3"),
    ("thresholds", "--k", "3", "--"),
    ("thresholds", "--k", "--", "3"),
    ("solve", "--k", "3", "--theta", "-1.0"),
    ("solve", "--k", "3", "--theta=1e-3", "--format", "csv", "--out", "-"),
    ("solve", "-k", "3", "--theta", "1"),
    ("scan", "--k", "3", "--theta-min", "0.1", "--theta-max", "3", "--steps", "5",
     "--scale", "log", "--format", "json"),
    ("scan", "--k", "3", "--theta-m", "0.1", "--theta-max", "3", "--steps", "5"),
    ("scan", "--k", "3", "--theta-min", "-0.1", "--theta-max", "-3", "--steps", "-5"),
    ("verify", "--k", "2", "--de", "3"),
    ("verify", "--k", "2", "--thetas", "-0.5,1"),
    ("verify", "--k", "2", "--thetas=0.5,1.0", "--depth", "1", "--depth", "2"),
    ("scan", "--k", "3", "--theta-min", "0.1", "--theta-max", "3", "--steps", "5",
     "--format", "svg"),
    ("scan", "--k", "3", "--theta-min", "0.1", "--theta-max", "3", "--steps", "5",
     "--form", "svg", "--out", "x.svg", "--out", "y.svg"),
    ("scan", "--k", "3", "--theta-min", "0.1", "--theta-max", "3", "--steps", "5",
     "--format", "png"),
    ("scan", "--k", "3", "--theta-min", "0.1", "--theta-max", "3", "--steps", "5",
     "--format=svg", "--out", "-"),
    ("scan", "--k", "3", "--theta-min", "0.1", "--theta-max", "3", "--steps", "5",
     "--format", "svg", "--out"),
    ("scan", "--k", "3", "--theta-min", "0.1", "--theta-max", "3", "--steps", "5",
     "--format", "svg", "--format", "csv"),
    ("scan", "--k", "3", "--theta-min", "0.1", "--theta-max", "3", "--steps", "5",
     "--format", "svg", "--", "-x.svg"),
    ("scan", "--format", "svg", "--out", "x.svg"),
    ("plot", "scan.csv", "--out", "x.svg"),
] + [(command, help_flag) for command in ("solve", "scan", "thresholds", "verify")
     for help_flag in ("-h", "--help")]


def _parse_outcome(capsys, parse, argv):
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=repr)
def test_one_parse_dispatch_equals_parse_args(capsys, argv):
    # same namespace, or the same exit code, stdout and stderr
    assert (_parse_outcome(capsys, cli._parse_args, argv)
            == _parse_outcome(capsys, cli.build_parser().parse_args, argv))


def test_known_command_skips_the_top_level_parse(monkeypatch, tmp_path, capsys):
    parser, commands = cli._parser()
    assert sorted(commands) == ["scan", "solve", "thresholds", "verify"]
    monkeypatch.setattr(parser, "parse_known_args",
                        lambda *args, **kwargs: pytest.fail("top-level parse reached"))
    scan_csv, svg = str(tmp_path / "scan.csv"), str(tmp_path / "regime.svg")
    grid = ("--k", "3", "--theta-min", "0.5", "--theta-max", "2", "--steps", "3")
    for argv in (("solve", "--k", "2", "--theta", "0.5"),
                 ("scan", *grid, "--out", scan_csv),
                 ("thresholds", "--k", "3", "--crit", "ks"),
                 ("verify", "--k", "2", "--depth", "1", "--thetas", "1.0"),
                 ("scan", *grid, "--format", "svg", "--out", svg)):
        assert run(capsys, *argv)[0] == 0


def test_plot_is_an_unknown_command(capsys):
    code, out, err = run(capsys, "plot", "scan.csv", "--out", "x.svg")
    assert (code, out) == (2, "")
    assert "error: argument command: invalid choice: 'plot'" in err


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    expected = run(capsys, "thresholds", "--k", "3")
    monkeypatch.setattr(sys, "argv", ["wand-gibbs", "thresholds", "--k", "3"])
    with monkeypatch.context() as patch:  # argv=None takes the one-parse path too
        patch.setattr(cli._parser()[0], "parse_known_args",
                      lambda *args, **kwargs: pytest.fail("top-level parse reached"))
        assert (main(), *capsys.readouterr()) == expected
    monkeypatch.setattr(sys, "argv", ["wand-gibbs", "thresholds", "--k", "3", "--bogus"])
    assert main() == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --bogus\n")


# --- scan ------------------------------------------------------------------------

def test_scan_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--k", "3", "--theta-min", "0.1",
                     "--theta-max", "3.0", "--steps", "40", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 41
    rows = list(csv.DictReader(text.splitlines()))
    thetas = [float(r["theta"]) for r in rows]
    assert thetas[0] == 0.1 and thetas[-1] == 3.0
    # ks-1 sign changes bracket the two thresholds
    gaps = [float(r["ks_value"]) - 1.0 for r in rows]
    changes = [(thetas[i], thetas[i + 1]) for i in range(len(gaps) - 1)
               if (gaps[i] > 0) != (gaps[i + 1] > 0)]
    assert len(changes) == 2
    assert changes[0][0] < 0.83 < changes[0][1] or math.isclose(changes[0][0], 0.83, abs_tol=0.08)
    assert changes[1][0] < 1.226 < changes[1][1]


def test_scan_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "scan", "--k", "2", "--theta-min", "0.5",
                         "--theta-max", "1.5", "--steps", "9", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_json_schema(capsys):
    code, out, _ = run(capsys, "scan", "--k", "2", "--theta-min", "0.5",
                       "--theta-max", "2.0", "--steps", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, JSON_SCHEMAS["scan"])
    assert [row["theta"] for row in doc["rows"]][0] == 0.5


def test_scan_rejects_bad_ranges(capsys):
    code, _, _ = run(capsys, "scan", "--k", "3", "--theta-min", "1.0",
                     "--theta-max", "1.0", "--steps", "10")
    assert code == 2
    code, _, _ = run(capsys, "scan", "--k", "3", "--theta-min", "0.5",
                     "--theta-max", "1.0", "--steps", "1")
    assert code == 2


@pytest.mark.parametrize("scale", ["linear", "log"])
@pytest.mark.parametrize("lo, hi", [("0.1", "inf"), ("inf", "inf"), ("0.1", "nan")])
def test_scan_non_finite_bound_is_usage_error_before_any_row(capsys, scale, lo, hi):
    code, out, err = run(capsys, "scan", "--k", "3", "--theta-min", lo, "--theta-max", hi,
                         "--steps", "3", "--scale", scale)
    assert (code, out) == (2, "")
    assert err.startswith("error: need 0 < theta_min < theta_max < inf, got (")


def test_scan_unwritable_path(capsys):
    code, _, _ = run(capsys, "scan", "--k", "2", "--theta-min", "0.5",
                     "--theta-max", "1.0", "--steps", "3",
                     "--out", "/nonexistent-dir/scan.csv")
    assert code == 4


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
def test_scan_write_failure_is_the_only_exit_4(tmp_path, capsys, fmt):
    # each format fails to write the same way, after a grid that solved every row
    path = tmp_path / "missing" / f"scan.{fmt}"
    code, out, err = run(capsys, "scan", "--k", "3", "--theta-min", "0.5", "--theta-max", "2",
                         "--steps", "3", "--format", fmt, "--out", str(path))
    assert (code, out) == (4, "")
    assert err == (f"i/o error: cannot write {path}: "
                   f"[Errno 2] No such file or directory: '{path}'\n")


def test_scan_linear_grid_up_to_float_max(capsys):
    # i * theta_max overflows in the grid formula here; every row must still be solved
    code, out, err = run(capsys, "scan", "--k", "3", "--theta-min", "0.1",
                         "--theta-max", "1.7e308", "--steps", "4")
    assert (code, err) == (0, "")
    thetas = [float(row["theta"]) for row in csv.DictReader(out.splitlines())]
    assert thetas[0] == 0.1 and thetas[-1] == 1.7e308 and all(map(math.isfinite, thetas))


def test_scan_k5_log_all_nonextremal(capsys):
    code, out, _ = run(capsys, "scan", "--k", "5", "--theta-min", "0.01",
                       "--theta-max", "100.0", "--steps", "60", "--scale", "log")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert all(r["classification"] == "nonextremal-KS" for r in rows)


def test_scan_keeps_rows_around_unsolvable_points(tmp_path, capsys):
    # at theta <= 1 a root of the k = 300 system leaves the range of doubles
    argv = ["scan", "--k", "300", "--theta-min", "1e-8", "--theta-max", "1e8",
            "--steps", "5", "--scale", "log"]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert len(err.strip().splitlines()) == 1 and "3 of 5 rows" in err
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = list(csv.DictReader(lines))
    assert len(rows) == 5
    failed = [row for row in rows if row["classification"] == "solver-error"]
    assert len(failed) == 3
    assert all(value == "" for row in failed for name, value in row.items()
               if name not in ("theta", "classification"))
    for row in rows:
        if row["classification"] == "solver-error":
            continue
        code, solved, _ = run(capsys, "solve", "--k", "300", "--theta", row["theta"])
        assert code == 0
        doc = json.loads(solved)
        sym = doc["laws"][0]
        assert int(row["tisgm_count"]) == doc["tisgm_count"] == 1
        assert float(row["z_sym"]) == sym["z1"]
        for name in ("s1", "s2", "lambda2", "ks_value", "kappa", "gamma", "product"):
            assert float(row[name]) == sym[name]
        assert row["classification"] == sym["classification"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 3
    doc = json.loads(out)
    jsonschema.validate(doc, JSON_SCHEMAS["scan"])
    assert sum(row["classification"] == "solver-error" for row in doc["rows"]) == 3
    path = tmp_path / "fig.svg"
    code, out, svg_err = run(capsys, *argv, "--format", "svg", "--out", str(path))
    assert (code, out, svg_err) == (3, "", err)
    assert path.read_text().count(" L ") == 2  # the two solved rows, one segment per curve


# --- thresholds --------------------------------------------------------------------

def test_thresholds_k3_ks(capsys):
    code, out, _ = run(capsys, "thresholds", "--k", "3", "--criterion", "ks")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, JSON_SCHEMAS["thresholds"])
    assert doc["certified"]
    assert abs(doc["ks"]["lower"] - 0.83) <= 0.01
    assert abs(doc["ks"]["upper"] - 1.226) <= 0.01


def test_thresholds_k2_ks(capsys):
    code, out, _ = run(capsys, "thresholds", "--k", "2", "--criterion", "ks")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["ks"]["lower"] - 0.591) <= 0.005
    assert abs(doc["ks"]["upper"] - 1.915) <= 0.005


def test_thresholds_both_agree(capsys):
    code, out, _ = run(capsys, "thresholds", "--k", "3", "--criterion", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["agreement"] <= 1e-4
    assert doc["ks"] == doc["msw"]


def test_thresholds_no_bracket_k5(capsys):
    code, _, err = run(capsys, "thresholds", "--k", "5", "--criterion", "ks")
    assert code == 3


def test_thresholds_k4_keeps_its_stderr(capsys):
    # NoBracketError reaches main as a SolverError, with the same bytes
    code, out, err = run(capsys, "thresholds", "--k", "4")
    assert (code, out) == (3, "")
    assert err == ("solver error: no Kesten-Stigum crossing at k=4: "
                   "k*lambda2^2 >= k/4 >= 1 at every activity\n")


@pytest.mark.parametrize("k", ["300", "10000"])
def test_thresholds_large_k_reports_missing_crossing(capsys, k):
    code, out, err = run(capsys, "thresholds", "--k", k)
    assert code == 3 and out == ""
    assert "no Kesten-Stigum crossing" in err
    assert "ln z*" not in err


def test_thresholds_csv(capsys):
    code, out, _ = run(capsys, "thresholds", "--k", "2", "--criterion", "both",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["criterion"] for r in rows] == ["ks", "msw"]


# --- JSON schemas: every emitted key is named -------------------------------------

def undeclared(doc, schema, path="") -> list:
    """Keys of ``doc``, and of its nested objects and array items, that the
    ``properties`` of ``schema`` do not name."""
    missing = []
    if isinstance(doc, dict) and "properties" in schema:
        for key, value in doc.items():
            if key in schema["properties"]:
                missing += undeclared(value, schema["properties"][key], f"{path}.{key}")
            else:
                missing.append(f"{path}.{key}")
    elif isinstance(doc, list) and "items" in schema:
        for item in doc:
            missing += undeclared(item, schema["items"], f"{path}[]")
    return missing


@pytest.mark.parametrize("argv", [
    ("solve", "--k", "3", "--theta", "0.5"),
    ("solve", "--k", "5", "--theta", "4.0"),
    ("scan", "--k", "3", "--theta-min", "0.1", "--theta-max", "3", "--steps", "7"),
    ("scan", "--k", "300", "--theta-min", "1e-8", "--theta-max", "1e8", "--steps", "5",
     "--scale", "log"),
    ("thresholds", "--k", "3", "--criterion", "both"),
    ("thresholds", "--k", "2", "--criterion", "ks"),
], ids=lambda argv: "-".join(argv[:5:2]))
def test_every_emitted_key_is_in_its_schema(capsys, argv):
    _, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    schema = JSON_SCHEMAS[argv[0]]
    jsonschema.validate(doc, schema)
    assert undeclared(doc, schema) == []


@pytest.mark.parametrize("name", ["ks", "msw"])
@pytest.mark.parametrize("key", ["lower", "upper"])
def test_threshold_window_schema_requires_both_ends(capsys, name, key):
    _, out, _ = run(capsys, "thresholds", "--k", "3", "--format", "json")
    doc = json.loads(out)
    del doc[name][key]
    with pytest.raises(jsonschema.ValidationError, match=f"'{key}' is a required property"):
        jsonschema.validate(doc, JSON_SCHEMAS["thresholds"])
    doc[name][key] = "0.5"
    with pytest.raises(jsonschema.ValidationError, match="is not of type 'number'"):
        jsonschema.validate(doc, JSON_SCHEMAS["thresholds"])


def test_scan_row_schema_names_the_csv_columns():
    row = JSON_SCHEMAS["scan"]["properties"]["rows"]["items"]
    assert list(row["properties"]) == row["required"] == list(CSV_COLUMNS)


# --- CSV writer: comma joins, checked against csv.writer ----------------------------

SOLVE_COLUMNS = ("kind", "z1", "z2", "residual", "theta_cr", "s1", "s2",
                 "lambda2", "ks_value", "kappa", "gamma", "product", "classification")
THRESHOLD_COLUMNS = ("criterion", "k", "lower", "upper", "certified")


def csv_writer_text(columns, records):
    """What ``csv.writer`` makes of the same ``format_value`` cells."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([format_value(record[name]) for name in columns] for record in records)
    return buffer.getvalue()


def csv_and_json(capsys, *argv):
    """Exit code and stdout of ``argv`` in CSV, and its JSON document; the
    JSON floats round-trip exactly, so they are the CSV's cell values."""
    code, out, _ = run(capsys, *argv, "--format", "csv")
    json_code, doc, _ = run(capsys, *argv, "--format", "json")
    assert json_code == code
    return code, out, json.loads(doc)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 300])
@pytest.mark.parametrize("grid", [("0.05", "3.0", "31", "linear"),
                                  ("0.01", "100.0", "31", "log"),
                                  ("1e-300", "1e308", "7", "log"),
                                  ("0.5", "1.5", "3", "linear")])
def test_scan_csv_equals_csv_writer(capsys, tmp_path, k, grid):
    # every shape of a scan line: 3 roots, then 1 past theta_cr, solver-error
    # rows, and at theta = 1.0 exactly s1 = -s2 = 0.5, a tie for lambda2
    lo, hi, steps, scale = grid
    argv = ("scan", "--k", str(k), "--theta-min", lo, "--theta-max", hi, "--steps", steps,
            "--scale", scale)
    code, out, doc = csv_and_json(capsys, *argv)
    rows = doc["rows"]
    failed = sum(row["classification"] == "solver-error" for row in rows)
    assert code == (3 if failed else 0)
    assert failed or lo != "1e-300"  # the extreme grid has solver-error rows at every k
    solved = [row for row in rows if row["classification"] != "solver-error"]
    assert [row["tisgm_count"] for row in solved] == [
        3 if row["theta"] < theta_critical(k) else 1 for row in solved]
    if lo == "0.05" and k < 300:  # this grid crosses theta_cr(k) for every k below 300
        assert {row["tisgm_count"] for row in solved} == {1, 3}
    if lo == "0.5" and k < 300:  # at k = 300 the asymmetric z2 at 1.0 is no double
        assert rows[1]["theta"] == 1.0
        assert rows[1]["s1"] == -rows[1]["s2"] == rows[1]["lambda2"] == 0.5
        assert (rows[1]["classification"] == "undetermined") == (k == 4)  # k lambda2^2 = 1
    assert out == csv_writer_text(CSV_COLUMNS, rows)
    path = tmp_path / "scan.csv"
    assert run(capsys, *argv, "--out", str(path))[:2] == (code, "")
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("theta", ["0.5", "3.0"])  # below and above theta_cr = 1
def test_solve_csv_equals_csv_writer(capsys, theta):
    code, out, doc = csv_and_json(capsys, "solve", "--k", "3", "--theta", theta)
    assert code == 0
    assert doc["tisgm_count"] == (3 if theta == "0.5" else 1)
    laws = [dict(law, theta_cr=doc["theta_cr"]) for law in doc["laws"]]
    assert out == csv_writer_text(SOLVE_COLUMNS, laws)


@pytest.mark.parametrize("criterion", ["ks", "msw", "both"])
def test_thresholds_csv_equals_csv_writer(capsys, criterion):
    code, out, doc = csv_and_json(capsys, "thresholds", "--k", "3", "--criterion", criterion)
    assert code == 0
    records = [dict(doc[name], criterion=name, k=doc["k"], certified="true")
               for name in ("ks", "msw") if doc[name] is not None]
    assert len(records) == (2 if criterion == "both" else 1)
    assert out == csv_writer_text(THRESHOLD_COLUMNS, records)


def written_csv(capsys, columns, lines):
    cli._write_doc(argparse.Namespace(format="csv", out=None), {}, columns, lines)
    return capsys.readouterr().out


def test_csv_rows_whose_cell_types_change_from_row_to_row(capsys):
    # 3 roots, 1 root, a solver-error row, then 3 roots again, each line in its
    # own shape; then a hand-made row with -0.0, nan and inf in its float cells
    rows = (scan.scan_rows(3, [0.5, 2.0]) + scan.scan_rows(300, [1e-8])
            + scan.scan_rows(3, [0.7, 0.5]))
    assert [row["tisgm_count"] for row in rows] == [3, 1, None, 3, 3]
    assert rows[2]["classification"] == "solver-error"
    rows.append(dict(rows[0], z_asym_2=-0.0, s1=-math.inf, lambda2=math.nan, kappa=math.nan,
                     gamma=math.nan, ks_value=math.inf, product=math.inf))
    text = written_csv(capsys, CSV_COLUMNS, map(scan._csv_line, rows))
    assert text == csv_writer_text(CSV_COLUMNS, rows)
    assert text.splitlines()[-1].split(",")[3:12] == [
        "-0", "3", "-inf", format_value(rows[0]["s2"]), "nan", "inf", "nan", "nan", "inf"]


def test_csv_cells_outside_the_template_types(capsys):
    # the lines of solve and thresholds: any cell in format_value's text
    columns = ("a", "b", "c", "d")
    records = [
        dict(a=-0.0, b=math.nan, c=math.inf, d=-math.inf),
        dict(a=5e-324, b="%s", c="100%", d=None),
        dict(a=1.7976931348623157e308, b=10**30, c="%(a)s %%", d=2.2250738585072014e-308),
    ]
    text = written_csv(capsys, columns, cli._csv_lines(columns, records))
    assert text == csv_writer_text(columns, records)
    assert text.splitlines()[1:3] == ["-0,nan,inf,-inf", "4.9406564584124654e-324,%s,100%,"]


def test_no_fixed_cell_needs_quoting():
    labels = [value for name, value in vars(scan).items() if name.startswith("CLASS_")]
    assert len(labels) == 5
    fixed = (*CSV_COLUMNS, *SOLVE_COLUMNS, *THRESHOLD_COLUMNS, *labels,
             "symmetric", "asymmetric", "ks", "msw", "true")
    for text in fixed:
        assert not set(text) & set(',"\r\n'), text


# --- verify ------------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--depth", "2",
                       "--thetas", "0.5,0.7,1.0,2.0")
    assert code == 0
    assert "all consistency checks passed" in out
    assert out.count("PASS") == 8


def test_verify_extreme_activity(capsys):
    # theta^4 = 1e320 is beyond every double; the wand map never forms it
    code, out, _ = run(capsys, "verify", "--k", "2", "--depth", "1", "--thetas", "1e80")
    assert code == 0
    assert "all consistency checks passed" in out


def test_verify_k3_unit_activity(capsys):
    code, out, _ = run(capsys, "verify", "--k", "3", "--depth", "2", "--thetas", "1.0")
    assert code == 0


def test_verify_depth_cap(capsys):
    # k = 2 at depth 3 has 15 vertices, within the enumeration cap; depth 4 has 31
    code, out, _ = run(capsys, "verify", "--k", "2", "--depth", "3",
                       "--thetas", "0.3,0.5,0.7,1.0,2.0,10.0,1e80")
    assert code == 0
    assert out.count("PASS") == 14
    assert out.endswith("all consistency checks passed\n")
    code, out, err = run(capsys, "verify", "--k", "2", "--depth", "4")
    assert (code, out) == (2, "")
    assert err == "error: tree has 31 vertices, above the exact-enumeration cap 16\n"


@pytest.mark.parametrize("k, depth, vertices", [
    ("1000000", "1", "1000001"),
    ("2", "1000000000", "at least 31"),
    ("3", "4", "at least 40"),  # the depth-4 ball is refused, not the depth-3 one
])
def test_verify_cap_checked_before_building(capsys, k, depth, vertices):
    cli._parser()  # built once per process; not part of the measured call
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--k", k, "--depth", depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: tree has {vertices} vertices, above the exact-enumeration cap 16\n"
    assert peak < 1 << 20


def test_verify_vertex_cap_high_order(capsys):
    # k=4 at depth 2 has 21 vertices, above the enumeration cap
    code, _, err = run(capsys, "verify", "--k", "4", "--depth", "2", "--thetas", "1.0")
    assert code == 2
    assert "cap" in err


def test_verify_bad_thetas(capsys):
    code, _, _ = run(capsys, "verify", "--k", "2", "--thetas", "0.5,zebra")
    assert code == 2


@pytest.mark.parametrize("thetas", ["a", ",", " ", "-1", "0", "inf", "nan", "1e400", "0.5,-2",
                                    "0.5,,nan"])
def test_verify_bad_thetas_exact_message(capsys, thetas):
    # an empty list, like each value model.activity rejects, is not a positive real
    reason = (f"cannot parse --thetas {thetas!r}" if thetas == "a"
              else f"--thetas must be positive reals, got {thetas!r}")
    assert run(capsys, "verify", "--k", "2", "--thetas", thetas) == (2, "", f"error: {reason}\n")


def test_verify_skips_empty_thetas(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--depth", "1", "--thetas", "0.5,,2")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[:-1]] == ["theta=0.5", "theta=2"]


def test_verify_failure_writes_report_and_exits_5(monkeypatch, capsys):
    # no perturbed law reaches an infinite defect, so every perturbed check fails
    monkeypatch.setattr(cli, "VERIFY_PERTURBED_DEFECT", math.inf)
    code, out, err = run(capsys, "verify", "--k", "2", "--depth", "1", "--thetas", "0.5,2.0")
    assert code == 5
    lines = out.splitlines()
    assert len(lines) == 3
    for line, theta in zip(lines, ("0.5", "2")):
        assert line.startswith(f"theta={theta} certified defect=")
        assert line.count("[PASS]") == 1 and line.endswith("[FAIL]")
    assert lines[2] == "2 check(s) failed"
    assert err == "verification failure: 2 check(s) failed\n"


def test_unwritable_out_exact_message(tmp_path, capsys):
    path = tmp_path / "missing" / "solve.json"
    code, out, err = run(capsys, "solve", "--k", "2", "--theta", "0.5", "--out", str(path))
    assert (code, out) == (4, "")
    assert err == (f"i/o error: cannot write {path}: "
                   f"[Errno 2] No such file or directory: '{path}'\n")


# --- scan --format svg ---------------------------------------------------------------

def _scan_svg(tmp_path, capsys, k, lo, hi, steps, scale="linear"):
    """Exit code, stderr and the SVG text (None when no file was written) of
    ``scan --format svg`` on this grid; nothing goes to stdout."""
    svg_path = tmp_path / "fig.svg"
    code, out, err = run(capsys, "scan", "--k", str(k), "--theta-min", str(lo), "--theta-max",
                         str(hi), "--steps", str(steps), "--scale", scale, "--format", "svg",
                         "--out", str(svg_path))
    assert out == ""
    return code, err, svg_path.read_text() if svg_path.exists() else None


def test_scan_svg(tmp_path, capsys):
    code, err, svg = _scan_svg(tmp_path, capsys, 3, 0.2, 2.5, 50)
    assert (code, err) == (0, "")
    assert svg.startswith("<svg")
    assert svg.count("<path") == 2
    assert 'viewBox="0 0 800 600"' in svg
    # threshold markers present (dashed verticals beyond the zero line)
    assert svg.count("stroke-dasharray") >= 3


def test_scan_svg_draws_the_figure_of_the_scan_csv(tmp_path, capsys):
    # the 300-step k = 3 figure: the bytes of the curves drawn from the scan's own
    # CSV cells, with one marker per closed-form window end
    argv = ["scan", "--k", "3", "--theta-min", "0.1", "--theta-max", "3", "--steps", "300",
            "--scale", "log"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    thetas = [float(row["theta"]) for row in rows]
    series = [(f"3*{s}^2-1", [3 * float(row[s]) ** 2 - 1.0 for row in rows]) for s in ("s1", "s2")]
    expected = svgplot.regime_svg(thetas, series, ks_threshold_pair(3),
                                  title="Kesten-Stigum gap curves, k=3", scale="log")
    assert run(capsys, *argv, "--format", "svg") == (0, expected, "")
    assert expected.count('stroke-dasharray="5,4"') == 2


@pytest.mark.parametrize("k", [2, 3, 5, 17, 256])
def test_scan_svg_draws_every_grid(tmp_path, capsys, k):
    # every solved row is drawn, every solver-error row left out
    argv = ["scan", "--k", str(k), "--theta-min", "1e-3", "--theta-max", "1e3", "--steps", "40",
            "--scale", "log"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    solved = sum(row["classification"] != "solver-error" for row in json.loads(out)["rows"])
    assert solved >= 2
    code_svg, err, svg = _scan_svg(tmp_path, capsys, k, "1e-3", "1e3", 40, "log")
    assert code_svg == code and (code == 0) == (err == "")
    assert f"k={k}" in svg
    assert svg.count(" L ") == 2 * (solved - 1)


def test_scan_svg_k4_touching_zero_marks_one_crossing_per_curve(tmp_path, capsys):
    # at k = 4, theta = 1 both curves 4 s^2 - 1 are exactly 0 on the grid
    code, _, svg = _scan_svg(tmp_path, capsys, 4, 0.5, 1.5, 3)
    assert code == 0
    assert svg.count('stroke-dasharray="5,4"') == 2
    assert svg.count('<line x1="425.00" y1="40" x2="425.00" y2="550"') == 2


def _window_ends(k):
    """The two closed-form window ends at tree order ``k``, in increasing order."""
    return sorted(math.exp(log) for log in _log_window(k))


#: grids (theta_min, theta_max) around the window ends a <= b, and which ends they hold
MARKER_SPANS = {
    "both": (lambda a, b: (a / 2, b * 2), (0, 1)),
    "first-only": (lambda a, b: (a / 2, math.sqrt(a * b)), (0,)),
    "second-only": (lambda a, b: (math.sqrt(a * b), b * 2), (1,)),
    "between": (lambda a, b: (a + (b - a) / 3, a + 2 * (b - a) / 3), ()),
    "below": (lambda a, b: (a / 4, a / 2), ()),
}


@pytest.mark.parametrize("span", list(MARKER_SPANS))
@pytest.mark.parametrize("k", [2, 3, 5, 10, 17])
def test_scan_svg_draws_each_window_end_inside_the_grid(tmp_path, capsys, k, span):
    # a dashed line and its label for each window end within the drawn thetas, no other
    ends = _window_ends(k)
    bounds, inside = MARKER_SPANS[span]
    code, err, svg = _scan_svg(tmp_path, capsys, k, *map(repr, bounds(*ends)), 5, "log")
    assert (code, err) == (0, "")
    assert svg.count('stroke-dasharray="5,4"') == len(inside)
    labels = re.findall(r'fill="#555">([^<]*)</text>', svg)
    assert labels == [f"{ends[i]:.4g}" for i in inside]
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("scale", ["linear", "log"])
@pytest.mark.parametrize("k, lo, hi", [(2, "0.1", "3"), (3, "0.1", "3"), (5, "0.5", "2"),
                                       (300, "1e-8", "1e8")])
def test_scan_svg_draws_the_solved_json_rows(tmp_path, capsys, k, lo, hi, scale):
    # the figure's bytes from the JSON cells of the same scan, solver-error rows left out
    argv = ["scan", "--k", str(k), "--theta-min", lo, "--theta-max", hi, "--steps", "9",
            "--scale", scale]
    code, out, err = run(capsys, *argv, "--format", "json")
    rows = [row for row in json.loads(out)["rows"] if row["classification"] != "solver-error"]
    assert len(rows) >= 2 and (code == 0) == (err == "")
    thetas = [row["theta"] for row in rows]
    series = [(f"{k}*{s}^2-1", [k * row[s] ** 2 - 1.0 for row in rows]) for s in ("s1", "s2")]
    markers = [x for x in _window_ends(k) if min(thetas) <= x <= max(thetas)]
    expected = svgplot.regime_svg(thetas, series, markers,
                                  title=f"Kesten-Stigum gap curves, k={k}", scale=scale)
    assert run(capsys, *argv, "--format", "svg") == (code, expected, err)


def test_scan_svg_log_scale_places_theta_by_its_log(tmp_path, capsys):
    # on a linear axis over 1e-3..1e3 the window ends 0.59 and 1.92 sat 0.94 px
    # apart at x = 70.42 and 71.36; by ln theta they are 710 ln(1.92/0.59) / ln(1e6)
    # = 60.4 px apart, and the five ticks are one and a half decades apart
    code, err, svg = _scan_svg(tmp_path, capsys, 2, "1e-3", "1e3", 40, "log")
    assert (code, err) == (0, "")
    xs = [float(x) for x in re.findall(r'<line x1="([0-9.]+)"[^>]*stroke-dasharray="5,4"', svg)]
    assert xs == pytest.approx([70 + 710 * math.log(end / 1e-3) / math.log(1e6)
                                for end in _window_ends(2)], abs=0.01)
    assert xs[1] - xs[0] >= 50
    ticks = re.findall(r'y="570" text-anchor="middle" font-family="sans-serif" '
                       r'font-size="11">([^<]*)</text>', svg)
    assert ticks == ["0.001", "0.0316", "1", "31.6", "1e+03"]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 10])
def test_closed_form_markers_lie_within_one_grid_step_of_the_crossings(k):
    # each window end against the interpolated zero of its own curve on a dense grid
    markers = [math.exp(log) for log in _log_window(k)]
    thetas = theta_grid(min(markers) / 2, max(markers) * 2, 2000, "log")
    rows = scan.scan_rows(k, thetas)
    assert all(row["classification"] != "solver-error" for row in rows)
    for marker, s in zip(markers, ("s1", "s2")):
        crossing, = zero_crossings(thetas, [k * row[s] ** 2 - 1.0 for row in rows])
        step = max(b - a for a, b in zip(thetas, thetas[1:]) if a <= crossing <= b)
        assert abs(marker - crossing) <= step


@pytest.mark.parametrize("k", [300, 10**160, 10**400], ids=["300", "10**160", "10**400"])
def test_scan_svg_with_no_solved_row_exits_3(tmp_path, capsys, k):
    # nothing to draw: the summary line, no traceback and no file; at 10**400,
    # which no double holds, the closed-form window is never evaluated
    code, err, svg = _scan_svg(tmp_path, capsys, k, "1e-8", "1e-7", 3)
    assert (code, svg) == (3, None)
    assert err == "solver error: 3 of 3 rows could not be solved (labelled solver-error)\n"


def test_scan_svg_draws_one_solved_row_at_the_largest_double(tmp_path, capsys):
    # the axis around the one solved row widens downward, so the row is drawn
    # and the summary names the row that could not be solved
    code, err, svg = _scan_svg(tmp_path, capsys, 300, "1e-8", "1.7976931348623157e308", 2)
    assert code == 3
    assert err == "solver error: 1 of 2 rows could not be solved (labelled solver-error)\n"
    assert svg.startswith("<svg") and svg.count("<circle") == 2 and "nan" not in svg


@pytest.mark.parametrize("ys, expected", [
    ([1.0, 0.0, -1.0], [1]),                # + -> 0 -> -
    ([-1.0, 0.0, 1.0], [1]),                # - -> 0 -> +
    ([1.0, 0.0, 1.0], [1]),                 # touches 0 without crossing
    ([0.0, 1.0, 2.0], [0]),                 # 0 at the first point
    ([1.0, 2.0, 0.0], [2]),                 # 0 at the last point
    ([1.0, 0.0], [1]),
    ([0.0, 0.0, 0.0], [0, 1, 2]),           # each exact zero once
    ([1.0, -3.0, 1.0], [0.25, 1.75]),       # strict sign changes interpolate
    ([1.0, 2.0, 3.0], []),
])
def test_zero_crossings_mark_each_zero_once(ys, expected):
    assert zero_crossings([0, 1, 2][:len(ys)], ys) == expected


# --- svgplot -----------------------------------------------------------------------

def _regime_svg(k, *rows):
    """``svgplot.regime_svg`` of (theta, s1, s2) rows at tree order ``k`` with no
    markers: the curves k s^2 - 1 and the title that ``scan --format svg`` draws."""
    thetas = [row[0] for row in rows]
    series = [(f"{k}*{s}^2-1", [k * row[i] ** 2 - 1.0 for row in rows])
              for i, s in ((1, "s1"), (2, "s2"))]
    return svgplot.regime_svg(thetas, series, [], title=f"Kesten-Stigum gap curves, k={k}")


def test_svg_single_row():
    row = scan.scan_row(ModelParams(3, 0.2))
    svg = _regime_svg(3, (row["theta"], row["s1"], row["s2"]))
    assert "<circle" in svg
    assert "<path" not in svg


def test_svg_one_huge_theta_draws_one_dot_per_curve():
    # 1e17 +- 0.5 rounds back onto 1e17: the margin is relative there
    svg = _regime_svg(3, (1e17, 0.5, -0.5))
    assert svg.count("<circle") == 2 and svg.count('<circle cx="425.00" ') == 2
    assert "<path" not in svg and "nan" not in svg


def test_svg_one_row_that_half_a_unit_widens_keeps_its_bytes():
    # the SVG drawn with the fixed +-0.5 margin, before any margin was relative
    svg = _regime_svg(3, (2.0, 0.5, -0.5)).encode()
    assert hashlib.sha256(svg).hexdigest() == (
        "174a77c44ecd24bfc3a89ab74e37744201d1f0c7e451799079e5c64490dad74c")


def test_svg_one_largest_theta_widens_downward():
    # v + |v| 2^-50 overflows at the largest double: the axis is [v - 2 margin, v]
    svg = _regime_svg(3, (1.7976931348623157e308, 0.5, -0.5))
    assert svg.count("<circle") == 2 and svg.count('<circle cx="780.00" ') == 2
    assert "<path" not in svg and "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("k, row, reason", [
    # k s1^2 stays finite, the axis padded 5% past it does not
    (round(1.79e308), (1.0, 1.0, -0.5),
     "the curves range [-8.95e+306, inf] cannot be drawn in doubles"),
], ids=["padded-curves"])
def test_svg_numbers_beyond_the_doubles_are_value_errors(k, row, reason):
    with pytest.raises(ValueError) as excinfo:
        _regime_svg(k, row)
    assert str(excinfo.value) == reason


# --- environment override -------------------------------------------------------------

def test_tolerance_env_var(monkeypatch, capsys):
    monkeypatch.setenv("WAND_GIBBS_TOL", "1e-6")
    code, out, _ = run(capsys, "solve", "--k", "3", "--theta", "2.0")
    assert code == 0
    assert json.loads(out)["residual_tol"] == 1e-6


def test_tolerance_env_var_invalid(monkeypatch, capsys):
    monkeypatch.setenv("WAND_GIBBS_TOL", "not-a-number")
    code, _, _ = run(capsys, "solve", "--k", "3", "--theta", "2.0")
    assert code == 2
