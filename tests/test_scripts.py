"""Smoke tests of the scripts under ``scripts/``: each runs in a fresh
interpreter against ``src`` and must print the k = 3 window."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wand_gibbs.chain import ks_threshold_pair

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    """Run a script with PYTHONPATH=src; return its stdout after checking
    that it exited 0 and printed the k = 3 window."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lower, upper = ks_threshold_pair(3)
    assert f"{lower:.8f}" in proc.stdout and f"{upper:.8f}" in proc.stdout
    return proc.stdout


def test_threshold_report():
    out = run_script("scripts/threshold_report.py")
    assert "k=3: KS" in out and "k=10:" in out


def test_reproduce_fig2(tmp_path):
    out = run_script("scripts/reproduce_fig2.py", "--out-dir", str(tmp_path), "--steps", "20")
    assert "k=3 certificate thresholds" in out
    assert (tmp_path / "regime_k3.csv").is_file() and (tmp_path / "regime_k3.svg").is_file()


def test_pairs_report_summary(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from pairs_report import summarize

    def pair(parent, change):
        return {"parent": {"metrics": {"goodput_per_s": parent[0], "op_p50_ms": parent[1]}},
                "change": {"metrics": {"goodput_per_s": change[0], "op_p50_ms": change[1]}}}

    pairs = [pair((100, 2.0), (110, 1.5)), pair((104, 2.0), (103, 2.5)),
             pair((102, 3.0), (120, 1.0))]
    summary = summarize(pairs, {"goodput_per_s": "higher", "op_p50_ms": "lower"})
    assert summary["goodput_per_s"]["parent"] == {"median": 102, "q1": 101, "q3": 103}
    assert summary["goodput_per_s"]["change"]["median"] == 110
    assert summary["goodput_per_s"]["change_better_pairs"] == 2
    assert summary["op_p50_ms"]["change_better_pairs"] == 2
    assert summary["op_p50_ms"]["pairs"] == 3


def test_pairs_report_needs_two_pairs():
    for seeds in ("7-7", "9-3", "7"):
        proc = subprocess.run([sys.executable, "scripts/pairs_report.py", "verify", seeds,
                               ".", "."], cwd=ROOT, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and "FIRST" in proc.stderr, proc.stderr


@pytest.mark.parametrize("argv", [("bogus", "1-2", ".", "."),
                                  ("startup", "1-2", ".", ".", "--trace"),
                                  ("tier1", "1-2", ".", ".", "--trace")],
                         ids=["unknown", "startup-trace", "tier1-trace"])
def test_pairs_report_rejects_a_measure_before_it_runs(tmp_path, argv):
    out = tmp_path / "pairs.json"
    proc = subprocess.run([sys.executable, "scripts/pairs_report.py", *argv, "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("usage: "), proc.stderr
    assert proc.stdout == "" and not out.exists()


def test_pairs_report_startup_pairs(tmp_path):
    # 2 pairs: 4 timed interpreter starts after one untimed start per side
    out = tmp_path / "pairs.json"
    proc = subprocess.run([sys.executable, "scripts/pairs_report.py", "startup", "1-2", ".", ".",
                           "--out", str(out)], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(out.read_text())["workloads"]["startup"]
    assert [(pair["seed"], pair["first"]) for pair in entry["pairs"]] == [(1, "parent"),
                                                                          (2, "change")]
    for pair in entry["pairs"]:
        for side in ("parent", "change"):
            assert set(pair[side]) == {"commit", "dirty", "metrics"}
            assert pair[side]["metrics"]["import_ms"] > 0.0
    row = entry["summary"]["import_ms"]
    assert row["better"] == "lower" and row["pairs"] == 2
    assert 0 <= row["change_better_pairs"] <= 2
    assert row["parent"]["q1"] <= row["parent"]["median"] <= row["parent"]["q3"]
    assert "import_ms: parent" in proc.stdout


def test_tier1_report_parses_the_pytest_summary(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from pairs_report import parse_summary

    assert parse_summary("....\n1328 passed in 27.31s\n") == (1328, 27.31)
    assert parse_summary("F.\n1 failed, 1327 passed, 2 warnings in 75.02s (0:01:15)\n") == (
        1327, 75.02)
    assert parse_summary("E\n1 error in 0.50s\n") == (0, 0.5)
    with pytest.raises(ValueError):
        parse_summary("Traceback (most recent call last):\n")
