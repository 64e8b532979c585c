import csv
import json
import math

import jsonschema
import pytest

from wand_gibbs import cli
from wand_gibbs.cli import JSON_SCHEMAS, main
from wand_gibbs.scan import CSV_COLUMNS


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


def test_parser_built_once_per_process(monkeypatch, capsys):
    code, first, _ = run(capsys, "solve", "--k", "2", "--theta", "0.5")
    assert code == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert run(capsys, "solve", "--k", "2", "--theta", "0.5", "--format", "csv")[0] == 0
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "solve", "--k", "2", "--theta", "0.5") == (0, first, "")


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


def test_scan_unwritable_path(capsys):
    code, _, _ = run(capsys, "scan", "--k", "2", "--theta-min", "0.5",
                     "--theta-max", "1.0", "--steps", "3",
                     "--out", "/nonexistent-dir/scan.csv")
    assert code == 4


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
    code, _, err = run(capsys, "verify", "--k", "2", "--depth", "3")
    assert code == 2


def test_verify_vertex_cap_high_order(capsys):
    # k=4 at depth 2 has 21 vertices, above the enumeration cap
    code, _, err = run(capsys, "verify", "--k", "4", "--depth", "2", "--thetas", "1.0")
    assert code == 2
    assert "cap" in err


def test_verify_bad_thetas(capsys):
    code, _, _ = run(capsys, "verify", "--k", "2", "--thetas", "0.5,zebra")
    assert code == 2


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


def test_plot_missing_file(capsys):
    code, _, _ = run(capsys, "plot", "/nonexistent/scan.csv")
    assert code == 4


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
