"""Tests of the benchmark itself: references, answer checks, inputs, tracer.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest benchmark -q``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402
from wand_gibbs import cli  # noqa: E402


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def make_op(spec) -> wl.Op:
    argv, answers, meta = spec
    return wl.Op(tuple(argv), answers, 0, 1, meta)


def failed(check, spec, code, out) -> int:
    return check(make_op(spec), code, out)


# -- reference values -------------------------------------------------------

def test_reference_thresholds_match_known_values():
    assert ref.theta_critical(2) == pytest.approx(1.0, rel=1e-15)
    assert ref.theta_critical(3) == pytest.approx(6.75 ** 0.25, rel=1e-15)
    lo, hi = ref.extremal_window(3)
    assert lo == pytest.approx(0.8303922, abs=1e-7) and hi == pytest.approx(1.2263283, abs=1e-7)
    lo, hi = ref.extremal_window(2)
    assert lo == pytest.approx(0.5916499, abs=1e-7) and hi == pytest.approx(1.9161626, abs=1e-7)
    assert ref.extremal_window(4) == pytest.approx((1.0, 1.0), rel=1e-14)
    lo, hi = ref.extremal_window(5)
    assert lo > hi


@pytest.mark.parametrize("k, theta", [(2, 0.3), (3, 1.0), (3, 1.6), (7, 2.0), (20, 0.5)])
def test_reference_roots_solve_the_fixed_point_system(k, theta):
    z = math.exp(ref.log_symmetric_root(k, theta))
    assert ref.residual(k, theta, z, z) <= 1e-13
    pair = ref.log_asymmetric_root(k, theta)
    assert (pair is not None) == (theta < ref.theta_critical(k))
    if pair is not None:
        z1, z2 = math.exp(pair[0]), math.exp(pair[1])
        assert z1 > z2 and ref.residual(k, theta, z1, z2) <= 1e-12
    assert ref.log_asymmetric_root(k, ref.theta_critical(k) * 1.01) is None


def test_consistency_defect_separates_solution_from_perturbation():
    z = math.exp(ref.log_symmetric_root(3, 0.7))
    assert ref.consistency_defect(3, 0.7, z, z) <= 1e-14
    assert ref.consistency_defect(3, 0.7, 1.1 * z, 0.9 * z) >= 1e-3


# -- inputs -----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    workload = wl.WORKLOADS[name]

    def first(seed):
        return [op.argv for op in itertools.islice(workload.ops(seed), 40)]

    assert first(7) == first(7)
    assert first(7) != first(8)


# -- answer checks ----------------------------------------------------------

def test_solve_check_accepts_seed_output_and_rejects_wrong_answers():
    spec = wl.solve_op(3, 0.9)
    code, out = call(spec[0])
    assert failed(wl.check_solve, spec, code, out) == 0

    doc = json.loads(out)
    assert doc["tisgm_count"] == 3
    flipped = dict(doc, tisgm_count=1)
    assert failed(wl.check_solve, spec, code, json.dumps(flipped)) == 1

    for index in (0, 1):
        scaled = json.loads(out)
        law = scaled["laws"][index]
        law["z1"], law["z2"] = 1.1 * law["z1"], 1.1 * law["z2"]
        assert failed(wl.check_solve, spec, code, json.dumps(scaled)) == 1


def test_solve_check_exit_codes():
    above = wl.solve_op(3, 2.0)
    assert failed(wl.check_solve, above, *call(above[0])) == 0
    # every root is a normal double here, so a solver failure is wrong
    assert failed(wl.check_solve, above, 3, "") == 1
    # the asymmetric pair leaves double range: exit 3 is an accepted answer
    extreme = wl.solve_op(256, 1e-8)
    assert not ref.must_answer(256, 1e-8)
    assert failed(wl.check_solve, extreme, 3, "") == 0


def test_scan_check_counts_each_wrong_row():
    spec = wl.scan_op(0.5, 2.5, steps=12)
    code, out = call(spec[0])
    assert failed(wl.check_scan, spec, code, out) == 0

    lines = out.splitlines()
    cells = lines[1].split(",")
    count = wl.SCAN_COLUMNS.index("tisgm_count")
    cells[count] = "1" if cells[count] == "3" else "3"
    lines[1] = ",".join(cells)
    assert failed(wl.check_scan, spec, code, "\n".join(lines) + "\n") == 1
    assert failed(wl.check_scan, spec, 3, out) == 12


def test_thresholds_check_accepts_seed_output_and_rejects_offset():
    spec = wl.thresholds_op(3)
    code, out = call(spec[0])
    assert failed(wl.check_thresholds, spec, code, out) == 0

    doc = json.loads(out)
    doc["ks"]["lower"] += 1e-5
    assert failed(wl.check_thresholds, spec, code, json.dumps(doc)) == 1

    no_window = wl.thresholds_op(5)
    assert failed(wl.check_thresholds, no_window, *call(no_window[0])) == 0
    assert failed(wl.check_thresholds, no_window, 0, "{}") == 1


def test_verify_check_recomputes_the_perturbed_defect():
    spec = wl.verify_op(2, [0.5, 1.3])
    code, out = call(spec[0])
    assert failed(wl.check_verify, spec, code, out) == 0

    lines = out.splitlines()
    lines[0] = re.sub(r"perturbed defect=(\S+)",
                      lambda m: f"perturbed defect={2 * float(m[1]):.3e}", lines[0])
    assert failed(wl.check_verify, spec, code, "\n".join(lines) + "\n") == 1


# -- run helpers and tracer -------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    value, percentile, _ = run.tail([1.0, 2.0, 3.0])
    assert (value, percentile) == (2.0, 50.0)


def test_tracer_patches_every_binding_and_restores_them():
    from wand_gibbs import scan, solver

    original = solver.solve_symmetric
    tracer = Tracer(run._note_hooks())
    tracer.install()
    try:
        assert scan.solve_symmetric is solver.solve_symmetric is not original
        tracer.op = 0
        assert call(["solve", "--k", "3", "--theta", "0.9"])[0] == 0
    finally:
        tracer.remove()
    assert scan.solve_symmetric is solver.solve_symmetric is original

    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["solver.find_asymmetric"]["notes"] == [0]
    total_self = sum(entry["self_s"] for entry in summary.values())
    assert total_self == pytest.approx(summary["cli.main"]["durations"][0], rel=1e-9)


def test_speed_probe_rescales_by_the_kernel_around_and_during_an_operation(monkeypatch):
    import time

    import speed

    nominal = speed.NOMINAL_KERNEL_S
    # (kernel seconds, calls): warm-up, then nominal speed before the operation
    # and three times slower after it
    readings = iter([(1.0, 1), (4 * nominal, 4), (12 * nominal, 4), (4 * nominal, 4)])
    monkeypatch.setattr(speed, "probe", lambda budget=speed.PROBE_S: next(readings))
    monkeypatch.setattr(speed, "TICK_S", 0.01)
    probe = speed.SpeedProbe()
    with probe.measure() as timing:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    # ticks ran the real kernel during the busy wait and are not the operation's time
    assert 0.0 < timing.wall < 0.1
    # between operations: the last probe ran three times slower than nominal,
    # a new one at nominal speed, so the machine ran at half speed
    assert probe.scale_since_last(0.3) == pytest.approx(0.15)
    assert probe.last == (12 * nominal, 4)
    assert probe.probes == pytest.approx([nominal, 3 * nominal])
    assert 0.0 < timing.seconds < timing.wall
