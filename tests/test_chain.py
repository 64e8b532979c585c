import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wand_gibbs.chain import (
    NoBracketError,
    TransitionMatrix,
    _log_window,
    ks_gap,
    ks_threshold_pair,
    spectrum,
    transition_matrix,
)
from wand_gibbs.model import BoundaryLaw, ModelParams
from wand_gibbs.scan import theta_grid
from wand_gibbs.solver import (
    IterationFailureError,
    find_asymmetric,
    solve_symmetric,
    theta_critical,
)

from contraction_oracle import kesten_stigum_nonextremal
from threshold_oracle import bisection_thresholds, ks_sweep

thetas = st.floats(min_value=0.05, max_value=20.0)
orders = st.integers(min_value=2, max_value=8)


# --- matrix construction ----------------------------------------------------

def test_matrix_unit_point():
    m = transition_matrix(BoundaryLaw(1.0, 1.0), 1.0)
    assert m.entries == (
        (0.5, 0.5, 0.0),
        (0.5, 0.0, 0.5),
        (0.0, 0.5, 0.5),
    )


@given(orders, thetas)
def test_symmetric_middle_row(k, theta):
    law = solve_symmetric(ModelParams(k, theta))
    m = transition_matrix(law, theta)
    assert m.entries[1] == (0.5, 0.0, 0.5)


def test_matrix_asymmetric_middle_row():
    m = transition_matrix(BoundaryLaw(2.0, 1.0), 1.0)
    assert m.entries[1] == pytest.approx((1.0 / 3.0, 0.0, 2.0 / 3.0), rel=1e-15)


@given(orders, thetas)
def test_rows_stochastic_and_pattern(k, theta):
    law = solve_symmetric(ModelParams(k, theta))
    m = transition_matrix(law, theta)
    for row in m.entries:
        assert abs(math.fsum(row) - 1.0) <= 1e-14
        assert all(v >= 0.0 for v in row)
    assert m.entries[0][2] == m.entries[2][0] == m.entries[1][1] == 0.0


def test_matrix_validation_rejects_bad_rows():
    with pytest.raises(ValueError, match="sum"):
        TransitionMatrix(((0.6, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)))
    with pytest.raises(ValueError, match="zero pattern"):
        TransitionMatrix(((0.5, 0.25, 0.25), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)))


@pytest.mark.parametrize("matrix", [
    ((math.nan, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)),
    ((0.5, 0.5, 0.0), (math.nan, 0.0, 0.5), (0.0, 0.5, 0.5)),
    ((0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, math.nan)),
])
def test_matrix_validation_rejects_nan_in_any_row(matrix):
    with pytest.raises(ValueError, match="does not sum to 1"):
        TransitionMatrix(matrix)


@pytest.mark.parametrize("matrix, message", [
    # each matrix breaks its own rule and every later one: the first rule decides
    (((-0.5, 0.5, 1.0), (0.5, 0.0, 0.5)),
     "transition matrix must be 3x3"),
    (((-0.5, 0.5, 1.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.6)),
     "transition probabilities must be nonnegative"),
    (((0.5, 0.5, 0.0), (0.5, 0.25, 0.5), (0.0, 0.5, 0.5)),
     "row (0.5, 0.25, 0.5) does not sum to 1 within 1e-14"),
    (((0.5, 0.25, 0.25), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)),
     "zero pattern violated: P(-1,+1), P(+1,-1), P(0,0) must vanish"),
])
def test_matrix_validation_messages_and_order(matrix, message):
    with pytest.raises(ValueError) as info:
        TransitionMatrix(matrix)
    assert str(info.value) == message


# --- spectrum ----------------------------------------------------------------

def test_spectrum_unit_point():
    m = transition_matrix(BoundaryLaw(1.0, 1.0), 1.0)
    rep = spectrum(m, 3)
    assert rep.s1 == 0.5 and rep.s2 == -0.5 and rep.s3 == 1.0
    assert rep.lambda2 == 0.5
    assert rep.ks_value == 0.75


@given(orders, thetas)
def test_spectrum_closed_forms_symmetric(k, theta):
    law = solve_symmetric(ModelParams(k, theta))
    rep = spectrum(transition_matrix(law, theta), k)
    z = law.z1
    assert abs(rep.s1 - z / (z + theta)) <= 1e-12
    assert abs(rep.s2 + theta / (z + theta)) <= 1e-12


@given(orders, thetas)
def test_spectrum_matches_numpy(k, theta):
    law = solve_symmetric(ModelParams(k, theta))
    m = transition_matrix(law, theta)
    rep = spectrum(m, k)
    eigs = sorted(np.linalg.eigvals(np.array(m.entries)).real)
    assert eigs == pytest.approx(sorted([rep.s1, rep.s2, rep.s3]), abs=1e-12)


@given(st.integers(min_value=2, max_value=5), st.floats(min_value=0.1, max_value=0.9))
def test_spectrum_matches_numpy_asymmetric(k, frac):
    theta = frac * theta_critical(k)
    law = find_asymmetric(ModelParams(k, theta))[0]
    m = transition_matrix(law, theta)
    rep = spectrum(m, k)
    eigs = np.linalg.eigvals(np.array(m.entries))
    assert max(abs(eigs.imag)) <= 1e-10
    assert sorted(eigs.real) == pytest.approx(sorted([rep.s1, rep.s2, rep.s3]), abs=1e-10)


def exact_lambda2(law, theta):
    """lambda2 of the exact chain at the double values (z1, z2, theta): the
    non-unit eigenvalues' sum and product in Fractions, the roots of the
    deflated quadratic in 80-digit decimals."""
    z1, z2, t = Fraction(law.z1), Fraction(law.z2), Fraction(theta)
    total = (z1 * z2 - t * t) / ((z1 + t) * (z2 + t))
    det = -(z2 / (z2 + t) * z1 / (z1 + z2) * t / (z1 + t)
            + t / (z2 + t) * z2 / (z1 + z2) * z1 / (z1 + t))
    with localcontext() as ctx:
        ctx.prec = 80
        total = Decimal(total.numerator) / total.denominator
        det = Decimal(det.numerator) / det.denominator
        root = (total * total - 4 * det).sqrt()
        return max(abs(total + root), abs(total - root)) / 2


@pytest.mark.parametrize("k", [3, 10, 20])
def test_asymmetric_lambda2_matches_exact_roots(k):
    # tiny eigenvalues along the branch: forming trace - 1 by subtraction
    # got lambda2 wrong by up to 100% here (7.4e-82 for ~5.5e-17 at k = 10)
    checked = 0
    for j in range(120):
        theta = 10.0 ** (-4.0 + j / 30.0) * theta_critical(k)
        try:
            law = find_asymmetric(ModelParams(k, theta))[0]
        except IterationFailureError:
            continue  # a root outside the range of doubles
        lam = spectrum(transition_matrix(law, theta), k).lambda2
        exact = exact_lambda2(law, theta)
        assert abs(Decimal(lam) - exact) <= Decimal("1e-12") * exact
        checked += 1
    assert checked >= 40


@given(orders, thetas)
def test_ones_vector_is_right_eigenvector(k, theta):
    law = solve_symmetric(ModelParams(k, theta))
    m = transition_matrix(law, theta)
    for row in m.entries:
        assert abs(math.fsum(row) - 1.0) <= 1e-12


@given(orders, thetas)
def test_dominance_switch(k, theta):
    law = solve_symmetric(ModelParams(k, theta))
    rep = spectrum(transition_matrix(law, theta), k)
    z = law.z1
    if z != theta:
        assert (abs(rep.s1) > abs(rep.s2)) == (z > theta)


@given(st.integers(min_value=2, max_value=5), st.floats(min_value=0.1, max_value=0.9))
def test_swap_conjugacy(k, frac):
    theta = frac * theta_critical(k)
    laws = find_asymmetric(ModelParams(k, theta))
    assert len(laws) == 2
    reps = [spectrum(transition_matrix(law, theta), k) for law in laws]
    a = sorted([reps[0].s1, reps[0].s2, reps[0].s3])
    b = sorted([reps[1].s1, reps[1].s2, reps[1].s3])
    assert a == pytest.approx(b, abs=1e-10)


# a probability and its complement, so every drawn row sums to 1; the
# endpoints 0 and 1 and the tiny values that underflow products are included
probabilities = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e-160]),
)


@settings(derandomize=True, max_examples=500)
@given(probabilities, probabilities, probabilities, orders)
def test_spectrum_real_on_every_wand_pattern_matrix(a, b, c, k):
    # any rows with the wand zero pattern, not only those of solved or
    # reversible laws: det <= 0 keeps both non-unit eigenvalues real
    m = TransitionMatrix(((a, 1.0 - a, 0.0), (b, 0.0, 1.0 - b), (0.0, 1.0 - c, c)))
    rep = spectrum(m, k)
    assert rep.s1 >= 0.0 >= rep.s2
    eigs = np.linalg.eigvals(np.array(m.entries))
    assert max(abs(eigs.imag)) <= 1e-12
    assert sorted(eigs.real) == pytest.approx(sorted([rep.s1, rep.s2, 1.0]), abs=1e-12)


# --- Kesten-Stigum criterion --------------------------------------------------

def test_ks_examples():
    p3 = ModelParams(3, 1.0)
    assert not kesten_stigum_nonextremal(p3, solve_symmetric(p3))
    p3_low = ModelParams(3, 0.5)
    assert kesten_stigum_nonextremal(p3_low, solve_symmetric(p3_low))
    p4 = ModelParams(4, 2.0)
    assert kesten_stigum_nonextremal(p4, solve_symmetric(p4))


def test_ks_value_k3_theta3_above_one():
    law = solve_symmetric(ModelParams(3, 3.0))
    rep = spectrum(transition_matrix(law, 3.0), 3)
    assert rep.ks_value == pytest.approx(1.9773591643065922, rel=1e-12)
    assert rep.ks_value > 1.0


def test_ks_thresholds_k3():
    lower, upper = ks_threshold_pair(3)
    assert lower == pytest.approx(0.83, abs=0.01)
    assert upper == pytest.approx(1.226, abs=0.01)
    assert abs(ks_gap(3, lower)) <= 1e-7
    assert abs(ks_gap(3, upper)) <= 1e-7


def test_ks_thresholds_k2_closed_forms():
    lower, upper = ks_threshold_pair(2)
    assert lower == pytest.approx(0.5 * (4.0 * math.sqrt(2.0) - 4.0) ** (1.0 / 3.0), rel=1e-14)
    assert upper == pytest.approx(0.5 * (28.0 + 20.0 * math.sqrt(2.0)) ** (1.0 / 3.0), rel=1e-14)


@pytest.mark.parametrize("k", [2, 3])
def test_ks_thresholds_closed_form_matches_bisection(k):
    closed = ks_threshold_pair(k)
    searched = bisection_thresholds(k, 1e-3, 1e3, 500, 1e-8)
    assert closed == pytest.approx(searched, abs=1e-8)
    assert all(abs(ks_gap(k, theta)) <= 1e-12 for theta in closed)


def test_ks_log_window_empty_from_k4():
    # ln theta_lo - ln theta_hi = (k+2)/(k+1) ln(sqrt k - 1): zero at k = 4
    assert _log_window(4) == (0.0, 0.0)
    for k in range(5, 1001):
        log_lo, log_hi = _log_window(k)
        assert log_lo > log_hi


def test_ks_no_bracket_for_k4():
    with pytest.raises(NoBracketError, match="no Kesten-Stigum crossing"):
        ks_threshold_pair(4)


@pytest.mark.parametrize("k", [5, 6, 7, 8, 9, 10, 115, 300, 10**4])
def test_ks_no_bracket_above_k4(k):
    # the k/4 floor decides it before any root is solved, so no order is
    # too large for the symmetric root to stay in range
    with pytest.raises(NoBracketError, match="no Kesten-Stigum crossing"):
        ks_threshold_pair(k)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(min_value=2, max_value=10**4), st.floats(min_value=0.0, max_value=1.0))
def test_ks_gap_is_the_matrix_path_bit_for_bit(k, u):
    # ln z* ~ -k ln(2 theta) as theta -> 0: ln theta from -700/k - ln 2 to 709
    low = -700.0 / k - math.log(2.0)
    theta = math.exp(low + u * (709.0 - low))
    law = solve_symmetric(ModelParams(k, theta))
    expected = spectrum(transition_matrix(law, theta), k).ks_value - 1.0
    assert ks_gap(k, theta).hex() == expected.hex()


def test_ks_gap_single_sign_change_each_side_k3():
    xs_low = theta_grid(1e-3, 1.0, 1000, "log")
    vals = [ks_gap(3, x) for x in xs_low]
    changes = sum((a > 0) != (b > 0) for a, b in zip(vals, vals[1:]))
    assert changes == 1
    xs_high = theta_grid(1.0, 20.0, 1000, "log")
    vals = [ks_gap(3, x) for x in xs_high]
    changes = sum((a > 0) != (b > 0) for a, b in zip(vals, vals[1:]))
    assert changes == 1


# --- all-activity sweep (k >= 4) ----------------------------------------------

def test_sweep_k5_nonextremal_everywhere():
    values, sides_ok = ks_sweep(5, theta_grid(0.01, 100.0, 200, "log"))
    assert min(values) >= 5 / 4 > 1.0  # the k/4 floor
    assert sides_ok


def test_sweep_k4_boundary_at_unit_activity():
    law = solve_symmetric(ModelParams(4, 1.0))
    rep = spectrum(transition_matrix(law, 1.0), 4)
    assert rep.ks_value == 1.0  # exact boundary: strict criterion does not fire
    assert not kesten_stigum_nonextremal(ModelParams(4, 1.0), law)


def test_sweep_k10_floor():
    law = solve_symmetric(ModelParams(10, 0.3))
    rep = spectrum(transition_matrix(law, 0.3), 10)
    assert rep.ks_value >= 10.0 / 4.0
