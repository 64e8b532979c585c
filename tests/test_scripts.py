"""Smoke tests of the scripts under ``scripts/``: each runs in a fresh
interpreter against ``src`` and must print the k = 3 window."""

import os
import subprocess
import sys
from pathlib import Path

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
