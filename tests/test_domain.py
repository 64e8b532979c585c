"""The whole domain: every (k, theta) gets the right count or a typed error.

A test-side oracle locates every root in logs by plain bisection, without
the library's Newton iteration or certificate: the symmetric root on
h(u) = u - k ln((e^-u + 1/theta) / 2), the asymmetric pair on its branch in
s = ln t.  Where every root has |ln z| <= MUST_ANSWER_LOG, each root is a
normal double with room to spare, so the library must answer, with the
right count and certified residuals; beyond that it may raise SolverError.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from wand_gibbs.model import ModelParams
from wand_gibbs.scan import scan_row
from wand_gibbs.solver import (
    IterationFailureError,
    SolverError,
    find_asymmetric,
    solve_symmetric,
    theta_critical,
    tisgm_set,
)

from newton_oracle import asymmetric_log_roots, bisect_increasing

MUST_ANSWER_LOG = 690.0


def log_theta_critical(k):
    # the exact integer k^k (k-1) goes through math.log
    return (math.log(k ** k * (k - 1)) - k * math.log(2.0)) / (k + 1)


def _logaddexp(a, b):
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def symmetric_log_root(k, log_theta):
    h = lambda u: u - k * (_logaddexp(-u, -log_theta) - math.log(2.0))
    # h(-1) < 0 < h(U) for U = 2 + k (|ln theta| + 1)
    return bisect_increasing(h, -1.0, 2.0 + k * (abs(log_theta) + 1.0))


def oracle(k, theta):
    """(expected count, whether every root has |ln z| <= MUST_ANSWER_LOG)."""
    log_theta = math.log(theta)
    below = log_theta < log_theta_critical(k)
    logs = [symmetric_log_root(k, log_theta)]
    if below:
        logs.extend(asymmetric_log_roots(k, log_theta))
    return (3 if below else 1), max(map(abs, logs)) <= MUST_ANSWER_LOG


def solve_or_none(k, theta):
    """tisgm_set at (k, theta), or None when it raises a SolverError; any
    other exception escapes and fails the test."""
    try:
        return tisgm_set(ModelParams(k, theta))
    except SolverError:
        return None


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.integers(min_value=2, max_value=256),
       st.floats(min_value=-300.0, max_value=300.0))
def test_every_in_range_point_answers(k, log10_theta):
    theta = 10.0 ** log10_theta
    count, must_answer = oracle(k, theta)
    solutions = solve_or_none(k, theta)
    if solutions is None:
        assert not must_answer
        return
    assert solutions.count == count
    assert all(law.residual <= 1e-12 for law in solutions.laws)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(min_value=257, max_value=10 ** 4),
       st.floats(min_value=-300.0, max_value=300.0))
def test_high_order_never_miscounts(k, log10_theta):
    # for k >~ 500 the best double root can read a residual above 1e-12
    # (about k * eps), so here a typed error is allowed even in range
    theta = 10.0 ** log10_theta
    solutions = solve_or_none(k, theta)
    if solutions is not None:
        assert solutions.count == oracle(k, theta)[0]
        assert all(law.residual <= 1e-12 for law in solutions.laws)


#: each solver entry point as a function of params returning its laws
#: (theta_critical returns the activity itself, scan_row the scan's row)
ENTRY_POINTS = {
    "solve_symmetric": lambda params: [solve_symmetric(params)],
    "find_asymmetric": find_asymmetric,
    "tisgm_set": lambda params: list(tisgm_set(params).laws),
    "theta_critical": lambda params: theta_critical(params.k),
    "scan_row": scan_row,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("theta", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("k", [10 ** 160, 10 ** 400], ids=["1e160", "1e400"])
def test_huge_order_answers_or_fails_typed(k, theta, entry):
    # k * k leaves the float range from k ~ 1.3e154 on and k itself from
    # ~1.8e308: each result is a certified answer or IterationFailureError
    try:
        result = ENTRY_POINTS[entry](ModelParams(k, theta))
    except IterationFailureError:
        return
    if entry == "theta_critical":
        assert math.isfinite(result) and result > 0.0
    elif entry == "scan_row":
        # a row is built only from certified roots: the public solvers' roots
        solutions = tisgm_set(ModelParams(k, theta))
        assert (result["tisgm_count"], result["z_sym"]) == (solutions.count, solutions.symmetric.z1)
    else:
        assert all(law.certified() for law in result)


def test_oracle_agrees_on_known_points():
    # the k = 2 roots pinned in test_solver
    z_sym = math.exp(symmetric_log_root(2, math.log(0.25)))
    assert z_sym == pytest.approx(4.460902774953157, rel=1e-10)
    log_z1, log_z2 = asymmetric_log_roots(2, math.log(0.5))
    assert math.exp(log_z1) == pytest.approx(4.776082975517309, rel=1e-10)
    assert math.exp(log_z2) == pytest.approx(0.05234414922888182, rel=1e-10)
