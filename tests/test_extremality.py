import math

import pytest
from hypothesis import given, settings, strategies as st

from wand_gibbs.chain import ks_threshold_pair, transition_matrix
from wand_gibbs.extremality import msw_threshold_pair
from wand_gibbs.model import BoundaryLaw, ModelParams
from wand_gibbs.scan import CLASS_EXTREMAL_MSW, law_cells, scan_row
from wand_gibbs.solver import SolverError, solve_symmetric

from contraction_oracle import (
    conditional_distributions,
    gamma_bound,
    kappa,
    kappa_from_rows,
    pairwise_differences,
    pairwise_max_discrepancy,
)

thetas = st.floats(min_value=0.05, max_value=20.0)
orders = st.integers(min_value=2, max_value=8)
weights = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
positives = st.floats(min_value=1e-3, max_value=1e3)


# --- kappa -------------------------------------------------------------------

def test_kappa_unit_point():
    assert kappa(BoundaryLaw(1.0, 1.0), 1.0) == 0.5


def test_kappa_branches():
    law_low = solve_symmetric(ModelParams(3, 0.5))
    assert kappa(law_low, 0.5) == pytest.approx(0.7976231097945158, rel=1e-13)
    law_high = solve_symmetric(ModelParams(3, 2.0))
    assert kappa(law_high, 2.0) == pytest.approx(0.7256070891412647, rel=1e-13)


def test_kappa_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        kappa(BoundaryLaw(2.0, 1.0), 0.5)


@given(orders, thetas)
def test_kappa_cross_check_against_rows(k, theta):
    law = solve_symmetric(ModelParams(k, theta))
    closed = kappa(law, theta)
    direct = kappa_from_rows(transition_matrix(law, theta))
    assert abs(closed - direct) <= 1e-14


# --- conditional distributions -------------------------------------------------

def test_conditionals_at_balanced_weight():
    law = solve_symmetric(ModelParams(3, 0.7))
    z = law.z1
    p0 = 0.7 / (z + 0.7)
    dist = conditional_distributions(p0, z, 0.7)
    assert dist.stay_prob == pytest.approx(0.5, rel=1e-14)


def test_conditionals_equal_weights():
    dist = conditional_distributions(0.5, 2.0, 2.0)
    assert dist.stay_prob == pytest.approx(0.5, rel=1e-15)


def test_conditionals_hand_point():
    dist = conditional_distributions(0.5, 2.0, 1.0)
    assert dist.stay_prob == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert dist.p0_cond == pytest.approx((2 / 3, 1 / 3, 0.0), rel=1e-15)
    assert dist.p1_cond == (0.5, 0.0, 0.5)
    assert dist.p2_cond[0] == 0.0


@pytest.mark.parametrize("p0", [0.0, 1.0, -0.1, 1.1])
def test_conditionals_reject_degenerate_weight(p0):
    with pytest.raises(ValueError):
        conditional_distributions(p0, 1.0, 1.0)


@given(weights, positives, positives)
def test_difference_multiset(p0, z, theta):
    dist = conditional_distributions(p0, z, theta)
    a = dist.stay_prob
    b = 1.0 - a
    expected = sorted([a, a, 0.0, b, b, 0.5, 0.5, abs(a - 0.5), abs(a - 0.5)])
    assert sorted(pairwise_differences(dist)) == expected
    assert pairwise_max_discrepancy(dist) == max(a, b)


@pytest.mark.parametrize("a_target,expected", [(0.5, 0.5), (2.0 / 3.0, 2.0 / 3.0), (0.9, 0.9)])
def test_max_discrepancy_examples(a_target, expected):
    # pick p0 so that the stay probability hits a_target (z = theta = 1)
    dist = conditional_distributions(a_target, 1.0, 1.0)
    assert pairwise_max_discrepancy(dist) == pytest.approx(expected, rel=1e-15)


def test_discrepancy_minimized_at_balanced_weight():
    law = solve_symmetric(ModelParams(2, 0.4))
    z, theta = law.z1, 0.4
    best_p0 = theta / (z + theta)

    def discrepancy(p0):
        return pairwise_max_discrepancy(conditional_distributions(p0, z, theta))

    # coarse localization, then refinement: the minimum sits in a kink, so
    # the value error scales linearly with the grid spacing
    coarse = min((discrepancy(i / 2000.0), i / 2000.0) for i in range(1, 2000))
    window = 2e-3
    lo = max(coarse[1] - window, 1e-9)
    fine = min(
        (discrepancy(lo + j * (2 * window) / 20000), lo + j * (2 * window) / 20000)
        for j in range(20001)
    )
    min_val, min_p0 = fine
    assert min_val == pytest.approx(0.5, abs=1e-6)
    assert min_p0 == pytest.approx(best_p0, abs=1e-3)


# --- gamma bound ----------------------------------------------------------------

def test_gamma_at_balanced_weight_is_half():
    law = solve_symmetric(ModelParams(3, 0.7))
    z = law.z1
    p0 = 0.7 / (z + 0.7)
    assert gamma_bound(p0, law, 0.7) == pytest.approx(0.5, rel=1e-12)


def test_gamma_unit_point():
    assert gamma_bound(0.5, BoundaryLaw(1.0, 1.0), 1.0) == 0.5


def test_gamma_hand_point():
    assert gamma_bound(0.5, BoundaryLaw(2.0, 2.0), 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


@given(orders, thetas)
def test_gamma_continuous_at_case_boundary(k, theta):
    law = solve_symmetric(ModelParams(k, theta))
    z = law.z1
    p_star = theta / (z + theta)
    eps = 1e-9
    below = gamma_bound(p_star * (1 - eps), law, theta)
    above = gamma_bound(min(p_star * (1 + eps), 1 - 1e-12), law, theta)
    assert below == pytest.approx(0.5, abs=1e-7)
    assert above == pytest.approx(0.5, abs=1e-7)


@given(weights, orders, thetas)
def test_gamma_equals_worst_discrepancy(p0, k, theta):
    """The case-split bound coincides with the discrepancy maximum."""
    law = solve_symmetric(ModelParams(k, theta))
    dist = conditional_distributions(p0, law.z1, theta)
    assert gamma_bound(p0, law, theta) == pytest.approx(
        pairwise_max_discrepancy(dist), rel=1e-12)


# --- certificate -----------------------------------------------------------------

def test_certificate_unit_point():
    row = scan_row(ModelParams(3, 1.0))
    assert row["kappa"] == 0.5 and row["gamma"] == 0.5
    assert row["product"] == 0.75
    assert row["classification"] == CLASS_EXTREMAL_MSW


def test_certificate_does_not_fire_low_activity():
    row = scan_row(ModelParams(3, 0.5))
    assert row["product"] >= 1.0
    assert row["classification"] != CLASS_EXTREMAL_MSW


def test_certificate_fires_at_1p2():
    row = scan_row(ModelParams(3, 1.2))
    assert row["product"] == pytest.approx(0.9731430644456538, rel=1e-12)
    assert row["classification"] == CLASS_EXTREMAL_MSW


@settings(derandomize=True, max_examples=300)
@given(st.integers(min_value=2, max_value=50),
       st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)))
def test_certificate_cells_match_contraction_oracles(k, log_theta):
    """kappa = gamma(1/2) = lambda2 and product = k lambda2^2: the cells the
    library reads off the spectrum agree with the row-wise kappa, the
    closed-form gamma bound and their product."""
    theta = math.exp(log_theta)
    params = ModelParams(k, theta)
    try:
        law = solve_symmetric(params)
    except SolverError:
        return  # symmetric root outside the range of doubles
    cells = law_cells(law, params)
    kap = kappa_from_rows(transition_matrix(law, theta))
    gam = gamma_bound(0.5, law, theta)
    for cell, oracle in zip((cells["kappa"], cells["gamma"], cells["product"]),
                            (kap, gam, k * kap * gam)):
        assert abs(cell - oracle) <= 1e-15 * oracle


def test_thresholds_k3():
    lower, upper = msw_threshold_pair(3)
    assert lower == pytest.approx(0.83, abs=0.01)
    assert upper == pytest.approx(1.226, abs=0.01)
    ks_lower, ks_upper = ks_threshold_pair(3)
    assert abs(lower - ks_lower) <= 1e-4
    assert abs(upper - ks_upper) <= 1e-4


def test_thresholds_k2_closed_forms():
    lower, upper = msw_threshold_pair(2)
    assert lower == pytest.approx(0.5 * (4.0 * math.sqrt(2.0) - 4.0) ** (1.0 / 3.0), abs=1e-4)
    assert upper == pytest.approx(0.5 * (28.0 + 20.0 * math.sqrt(2.0)) ** (1.0 / 3.0), abs=1e-4)
