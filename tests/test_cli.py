import argparse
import csv
import hashlib
import io
import json
import math
import sys
import tracemalloc

import jsonschema
import pytest

from wand_gibbs import cli
from wand_gibbs.cli import JSON_SCHEMAS, main
from wand_gibbs import scan
from wand_gibbs.scan import CSV_COLUMNS, format_value
from wand_gibbs.solver import theta_critical


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
    ("plot",),
    ("plot", "scan.csv"),
    ("plot", "a.csv", "b.csv"),
    ("plot", "--", "-scan.csv"),
    ("plot", "scan.csv", "--out", "x.svg", "--out", "y.svg"),
    ("plot", "--out", "x.svg", "--", "scan.csv", "--out"),
] + [(command, help_flag) for command in ("solve", "scan", "thresholds", "verify", "plot")
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
    assert sorted(commands) == ["plot", "scan", "solve", "thresholds", "verify"]
    monkeypatch.setattr(parser, "parse_known_args",
                        lambda *args, **kwargs: pytest.fail("top-level parse reached"))
    scan_csv, svg = str(tmp_path / "scan.csv"), str(tmp_path / "regime.svg")
    for argv in (("solve", "--k", "2", "--theta", "0.5"),
                 ("scan", "--k", "3", "--theta-min", "0.5", "--theta-max", "2", "--steps", "3",
                  "--out", scan_csv),
                 ("thresholds", "--k", "3", "--crit", "ks"),
                 ("verify", "--k", "2", "--depth", "1", "--thetas", "1.0"),
                 ("plot", scan_csv, "--out", svg)):
        assert run(capsys, *argv)[0] == 0


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
    path = tmp_path / "scan.csv"
    run(capsys, *argv, "--out", str(path))
    code, _, _ = run(capsys, "plot", str(path), "--out", str(tmp_path / "fig.svg"))
    assert code == 0


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


# --- plot --------------------------------------------------------------------------

def _make_scan(tmp_path, capsys, steps=50):
    path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--k", "3", "--theta-min", "0.2",
                     "--theta-max", "2.5", "--steps", str(steps), "--out", str(path))
    assert code == 0
    return path


def test_plot_svg(tmp_path, capsys):
    scan_path = _make_scan(tmp_path, capsys)
    svg_path = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "plot", str(scan_path), "--out", str(svg_path))
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<path") == 2
    assert 'viewBox="0 0 800 600"' in svg
    # threshold markers present (dashed verticals beyond the zero line)
    assert svg.count("stroke-dasharray") >= 3


def test_plot_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run(capsys, "plot", str(empty), "--out", str(tmp_path / "x.svg"))
    assert code == 4


def test_plot_header_only(tmp_path, capsys):
    stub = tmp_path / "stub.csv"
    stub.write_text(",".join(CSV_COLUMNS) + "\n")
    code, _, _ = run(capsys, "plot", str(stub), "--out", str(tmp_path / "x.svg"))
    assert code == 4


def test_plot_bad_number_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("theta,s1,s2,lambda2,ks_value\n1.0,0.5,-0.5,0.5,oops\n")
    code, _, err = run(capsys, "plot", str(bad), "--out", str(tmp_path / "x.svg"))
    assert code == 4
    assert "line 2" in err


def _plot_rows(tmp_path, capsys, *rows):
    """Exit code and stderr of ``plot`` on a scan file of these
    (theta, s1, s2, lambda2, ks_value) rows; no SVG may be left on failure."""
    path = tmp_path / "rows.csv"
    path.write_text("theta,s1,s2,lambda2,ks_value\n" + "".join(",".join(r) + "\n" for r in rows))
    svg = tmp_path / "rows.svg"
    code, out, err = run(capsys, "plot", str(path), "--out", str(svg))
    assert out == "" and svg.exists() == (code == 0)
    return code, err


GOOD_ROW = ("1.0", "0.5", "-0.5", "0.5", "0.75")


@pytest.mark.parametrize("column", range(5))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_plot_non_finite_cell_is_io_error(tmp_path, capsys, column, value):
    # a NaN theta used to write "M nan,..." paths and exit 0, a NaN lambda2
    # to exit 2 and an infinite ks_value to exit 3
    bad = GOOD_ROW[:column] + (value,) + GOOD_ROW[column + 1:]
    code, err = _plot_rows(tmp_path, capsys, GOOD_ROW, bad)
    assert code == 4
    assert err.startswith(f"i/o error: {tmp_path / 'rows.csv'}: line 3: non-finite cell")


@pytest.mark.parametrize("lambda2, ks_value", [
    ("0", "0"),           # no gap
    ("-0.5", "0.75"),     # a negative modulus
    ("1e-200", "0.75"),   # the square underflows to 0: used to exit 3, dividing by zero
    ("1e-160", "1e300"),  # k overflows
    ("0.5", "0.25"),      # k = 1
    ("0.5", "0.3"),       # k rounds to 1
    ("0.5", "-0.75"),     # k = -3
])
def test_plot_without_a_tree_order_is_io_error(tmp_path, capsys, lambda2, ks_value):
    code, err = _plot_rows(tmp_path, capsys, ("1.0", "0.5", "-0.5", lambda2, ks_value), GOOD_ROW)
    assert code == 4
    assert err == (f"i/o error: {tmp_path / 'rows.csv'}: "
                   "cannot recover a tree order k >= 2 from the first row\n")


@pytest.mark.parametrize("row", [
    ("-1e300", "0.5", "-0.5", "0.5", "0.75"),     # used to plot with exit 0
    ("0", "0.5", "-0.5", "0.5", "0.75"),
    ("-0.0", "0.5", "-0.5", "0.5", "0.75"),
    ("2.0", "1.5", "-0.5", "0.5", "0.75"),
    ("2.0", "1.0000000000000002", "-0.5", "0.5", "0.75"),
    ("2.0", "1.3e154", "-0.5", "0.5", "0.75"),    # 3 s1^2 overflowed: used to draw nan and exit 0
    ("2.0", "0.5", "-1e155", "0.5", "0.75"),      # the square overflowed: used to exit 3
    ("2.0", "0.5", "-0.5", "1e200", "0.75"),     # its square overflowed: used to exit 4 on row 1
    ("2.0", "0.5", "-0.5", "-1.5", "0.75"),
], ids=["negative-theta", "zero-theta", "negative-zero-theta", "s1", "s1-by-an-ulp",
        "k-times-square", "square", "lambda2-square", "negative-lambda2"])
def test_plot_cells_no_scan_writes_are_io_errors(tmp_path, capsys, row):
    code, err = _plot_rows(tmp_path, capsys, GOOD_ROW, row)
    assert code == 4
    assert err.startswith(f"i/o error: {tmp_path / 'rows.csv'}: line 3: no scan writes theta <= 0 "
                          "or an eigenvalue modulus above 1: ")


@pytest.mark.parametrize("rows, line, k", [
    # the second row implies k = 7: used to be drawn as k = 3 with exit 0
    ([GOOD_ROW, ("2.0", "0.5", "-0.5", "0.5", "1.75")], 3, 3),
    # lambda2 above max(|s1|, |s2|), with ks_value agreeing with it: used to be drawn
    ([GOOD_ROW, ("2.0", "0.5", "-0.5", "0.9", "2.43")], 3, 3),
    # lambda2 below it, on the row that fixes k
    ([("1.0", "0.5", "-0.5", "0.25", "0.1875"), GOOD_ROW], 2, 3),
    # an order that overflows the ratio after a good first row
    ([GOOD_ROW, ("2.0", "1e-160", "-1e-160", "1e-160", "1e300")], 3, 3),
], ids=["order", "lambda2-above", "lambda2-below-on-the-first-row", "order-beyond-the-doubles"])
def test_plot_rows_that_disagree_are_io_errors(tmp_path, capsys, rows, line, k):
    code, err = _plot_rows(tmp_path, capsys, *rows)
    assert code == 4
    assert err.startswith(f"i/o error: {tmp_path / 'rows.csv'}: line {line}: no scan writes lambda2 "
                          f"other than max(|s1|, |s2|) or a tree order other than the first "
                          f"row's k = {k}: ")


@pytest.mark.parametrize("k", [2, 3, 5, 17, 256])
def test_plot_draws_every_scan_file(tmp_path, capsys, k):
    # every row of one scan agrees with the first on lambda2 and on k
    scan_path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--k", str(k), "--theta-min", "1e-3", "--theta-max", "1e3",
                     "--steps", "40", "--scale", "log", "--out", str(scan_path))
    assert code in (0, 3)
    code, _, err = run(capsys, "plot", str(scan_path), "--out", str(tmp_path / "scan.svg"))
    assert (code, err) == (0, "")
    assert f"k={k}" in (tmp_path / "scan.svg").read_text()


def test_plot_accepts_unit_moduli_and_a_descending_theta(tmp_path, capsys):
    # theta_grid can step down by an ulp on a narrow grid, and s1 = 1 is a real eigenvalue
    code, _ = _plot_rows(tmp_path, capsys, ("1.0000000000000002", "1.0", "-1.0", "1.0", "3.0"),
                         GOOD_ROW)
    assert code == 0


@pytest.mark.parametrize("rows, reason", [
    # one activity whose relative margin overflows
    ([("1.7976931348623157e308",) + GOOD_ROW[1:]],
     "theta range [1.79769e+308, inf] cannot be drawn in doubles"),
    # k s1^2 stays finite, the axis padded 5% past it does not: used to draw nan and exit 0
    ([("1.0", "1.0", "-0.5", "1.0", "1.79e308")],
     "the curves range [-8.95e+306, inf] cannot be drawn in doubles"),
], ids=["one-largest-theta", "padded-curves"])
def test_plot_numbers_beyond_the_doubles_are_io_errors(tmp_path, capsys, rows, reason):
    code, err = _plot_rows(tmp_path, capsys, *rows)
    assert code == 4
    assert err == f"i/o error: {tmp_path / 'rows.csv'}: {reason}\n"


def test_plot_smallest_tree_order_is_drawn(tmp_path, capsys):
    # ks_value / lambda2^2 = 1.5 rounds to k = 2, which the second row's 2.0 agrees with
    code, _ = _plot_rows(tmp_path, capsys, ("1.0", "0.5", "-0.5", "0.5", "0.375"),
                         ("2.0", "0.5", "-0.5", "0.5", "0.5"))
    assert code == 0
    assert "k=2" in (tmp_path / "rows.svg").read_text()


def test_plot_single_row(tmp_path, capsys):
    scan_path = _make_scan(tmp_path, capsys, steps=2)
    # keep only the header and the first data row
    lines = scan_path.read_text().splitlines()
    single = scan_path.with_name("single.csv")
    single.write_text("\n".join(lines[:2]) + "\n")
    svg_path = single.with_name("single.svg")
    code, _, _ = run(capsys, "plot", str(single), "--out", str(svg_path))
    assert code == 0
    svg = svg_path.read_text()
    assert "<circle" in svg
    assert "<path" not in svg


def test_plot_one_huge_theta_draws_one_dot_per_curve(tmp_path, capsys):
    # 1e17 +- 0.5 rounds back onto 1e17: used to exit 4, and 3 dividing by zero before that
    code, _ = _plot_rows(tmp_path, capsys, ("1e17",) + GOOD_ROW[1:])
    assert code == 0
    svg = (tmp_path / "rows.svg").read_text()
    assert svg.count("<circle") == 2 and svg.count('<circle cx="425.00" ') == 2
    assert "<path" not in svg and "nan" not in svg


def test_plot_one_row_that_half_a_unit_widens_keeps_its_bytes(tmp_path, capsys):
    # the SVG drawn with the fixed +-0.5 margin, before any margin was relative
    code, _ = _plot_rows(tmp_path, capsys, ("2.0",) + GOOD_ROW[1:])
    assert code == 0
    svg = (tmp_path / "rows.svg").read_bytes()
    assert hashlib.sha256(svg).hexdigest() == (
        "174a77c44ecd24bfc3a89ab74e37744201d1f0c7e451799079e5c64490dad74c")


def test_plot_non_utf8_header_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe\n1.0,0.5,-0.5,0.5,0.75\n")
    code, _, err = run(capsys, "plot", str(bad), "--out", str(tmp_path / "x.svg"))
    assert code == 4
    assert err.startswith("i/o error: cannot read")


def test_plot_non_utf8_data_line_is_io_error(tmp_path, capsys):
    # many good rows first, so the bad byte lies beyond the first decoded block
    bad = tmp_path / "bad.csv"
    good = b"theta,s1,s2,lambda2,ks_value\n" + b"1.0,0.5,-0.5,0.5,0.75\n" * 2000
    bad.write_bytes(good + b"2.0,\xff,-0.5,0.5,0.75\n")
    code, _, err = run(capsys, "plot", str(bad), "--out", str(tmp_path / "x.svg"))
    assert code == 4
    assert err.startswith("i/o error: cannot read")


def test_plot_missing_file(capsys):
    code, _, _ = run(capsys, "plot", "/nonexistent/scan.csv")
    assert code == 4


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
    assert cli._zero_crossings([0, 1, 2][:len(ys)], ys) == expected


def test_plot_k4_touching_zero_marks_one_crossing_per_curve(tmp_path, capsys):
    # at k = 4, theta = 1 both curves 4 s^2 - 1 are exactly 0 on the grid
    scan_path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--k", "4", "--theta-min", "0.5", "--theta-max", "1.5",
                     "--steps", "3", "--out", str(scan_path))
    assert code == 0
    svg_path = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "plot", str(scan_path), "--out", str(svg_path))
    assert code == 0
    assert svg_path.read_text().count('stroke-dasharray="5,4"') == 2


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
