import math
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from wand_gibbs import chain, cli
from wand_gibbs.chain import spectrum, transition_matrix
from wand_gibbs.model import BoundaryLaw, ModelParams
from wand_gibbs.scan import (
    CLASS_EXTREMAL_MSW,
    CLASS_NO_CLAIM,
    CLASS_NONEXTREMAL_KS,
    CLASS_UNDETERMINED,
    CSV_COLUMNS,
    classify,
    format_value,
    law_cells,
    scan_row,
    scan_rows,
    theta_grid,
)
from wand_gibbs.solver import _log_theta_critical, find_asymmetric, solve_symmetric


def test_classify_regions():
    assert classify(1.5) == CLASS_NONEXTREMAL_KS
    assert classify(0.8) == CLASS_EXTREMAL_MSW
    # both inequalities are strict: the boundary is decided by neither
    assert classify(1.0) == CLASS_UNDETERMINED
    assert classify(math.nextafter(1.0, 2.0)) == CLASS_NONEXTREMAL_KS
    assert classify(math.nextafter(1.0, 0.0)) == CLASS_EXTREMAL_MSW


def test_grid_exact_endpoints():
    g = theta_grid(0.1, 3.0, 7, "linear")
    assert g[0] == 0.1 and g[-1] == 3.0 and len(g) == 7
    g = theta_grid(0.1, 3.0, 7, "log")
    assert g[0] == 0.1 and g[-1] == 3.0
    assert all(a < b for a, b in zip(g, g[1:]))


@pytest.mark.parametrize("args", [(0.0, 1.0, 5, "linear"), (2.0, 1.0, 5, "linear"),
                                  (1.0, 1.0, 5, "linear"), (0.1, 1.0, 1, "linear"),
                                  (0.1, 1.0, 5, "cubic")])
def test_grid_rejects_bad_ranges(args):
    with pytest.raises(ValueError):
        theta_grid(*args)


def test_scan_row_below_critical():
    row = scan_row(ModelParams(3, 0.5))
    assert row["tisgm_count"] == 3
    assert row["z_asym_1"] is not None and row["z_asym_1"] > row["z_asym_2"]
    assert row["classification"] == CLASS_NONEXTREMAL_KS
    assert row["ks_value"] > 1.0


def test_scan_row_above_critical():
    row = scan_row(ModelParams(3, 2.0))
    assert row["tisgm_count"] == 1
    assert row["z_asym_1"] is None and row["z_asym_2"] is None
    assert row["classification"] == CLASS_NONEXTREMAL_KS


def test_scan_row_extremal_window():
    row = scan_row(ModelParams(3, 1.0))
    assert row["classification"] == CLASS_EXTREMAL_MSW
    assert row["product"] == 0.75
    assert row["theta"] == 1.0
    assert tuple(row) == CSV_COLUMNS


def test_scan_row_k4_unit_activity_undetermined():
    row = scan_row(ModelParams(4, 1.0))
    assert row["ks_value"] == 1.0
    assert row["classification"] == CLASS_UNDETERMINED


def test_format_value():
    assert format_value(None) == ""
    assert format_value(3) == "3"
    assert format_value("x") == "x"
    assert format_value(0.1) == "0.10000000000000001"
    assert float(format_value(1.0 / 3.0)) == 1.0 / 3.0


@pytest.mark.parametrize("value", [-0.0, math.inf, -math.inf, math.nan, 5e-324,
                                   2.2250738585072014e-308, 1e16,
                                   1.7976931348623157e308, 0.1])
def test_format_value_is_format_17g(value):
    assert format_value(value) == format(value, ".17g")


def test_format_value_bool_is_int_text():
    assert format_value(True) == "True"


def test_linear_grid_near_float_max_stays_finite():
    for lo, hi, steps in [(0.1, 1.7e308, 4), (0.1, sys.float_info.max, 300),
                          (1.6e308, 1.7e308, 301), (5e-324, sys.float_info.max, 1000)]:
        g = theta_grid(lo, hi, steps, "linear")
        assert len(g) == steps and g[0] == lo and g[-1] == hi
        assert all(map(math.isfinite, g))
        assert all(a <= b for a, b in zip(g, g[1:]))
    # the points of the ideal formula, whose 0.1 terms are below half an ulp
    assert theta_grid(0.1, 1.7e308, 4, "linear")[1:3] == [1.7e308 / 3, 2 * (1.7e308 / 3)]


@pytest.mark.parametrize("scale", ["linear", "log"])
@pytest.mark.parametrize("lo, hi, steps", [(0.05, 3.0, 300), (0.1, 3.0, 7), (1e-300, 1e300, 50),
                                           (0.5, 1e306, 101), (2.0, 2.0000000000000004, 9)])
def test_grid_without_overflow_is_the_plain_formula(lo, hi, steps, scale):
    m = steps - 1
    if scale == "linear":
        plain = [((m - i) * lo + i * hi) / m for i in range(steps)]
    else:
        plain = [math.exp(((m - i) * math.log(lo) + i * math.log(hi)) / m) for i in range(steps)]
    plain[0], plain[-1] = lo, hi
    assert [x.hex() for x in theta_grid(lo, hi, steps, scale)] == [x.hex() for x in plain]


# --- every law's cells without a matrix --------------------------------------------

def matrix_cells(law, params):
    """A law's cells through the validated matrix and its spectrum."""
    report = spectrum(transition_matrix(law, params.theta), params.k)
    cells = {"s1": report.s1, "s2": report.s2, "lambda2": report.lambda2,
             "ks_value": report.ks_value}
    if not law.symmetric:
        return dict(cells, kappa=None, gamma=None, product=None, classification=CLASS_NO_CLAIM)
    return dict(cells, kappa=report.lambda2, gamma=report.lambda2, product=report.ks_value,
                classification=classify(report.ks_value))


def bits(cells):
    return {name: value.hex() if isinstance(value, float) else value
            for name, value in cells.items()}


@st.composite
def solved_symmetric_laws(draw):
    # ln z* ~ -k ln(2 theta) as theta -> 0; keep it within the double range
    k = draw(st.integers(min_value=2, max_value=10**4))
    log_theta = draw(st.floats(min_value=-700.0 / k - math.log(2.0), max_value=709.0))
    params = ModelParams(k, math.exp(log_theta))
    return solve_symmetric(params), params


@settings(derandomize=True, deadline=None, max_examples=300)
@given(solved_symmetric_laws())
def test_symmetric_cells_are_the_matrix_path_bit_for_bit(case):
    law, params = case
    cells = law_cells(law, params)
    assert list(cells) == list(matrix_cells(law, params))
    assert bits(cells) == bits(matrix_cells(law, params))


@st.composite
def solved_asymmetric_laws(draw):
    # ln z2 ~ k^2 (ln theta - ln theta_cr) far below theta_cr; a width of
    # 600 / k^2 in ln theta keeps both components normal doubles
    k = draw(st.integers(min_value=2, max_value=10**4))
    log_cr = _log_theta_critical(k)
    log_theta = draw(st.floats(min_value=log_cr - 600.0 / (k * k), max_value=log_cr,
                               exclude_max=True))
    params = ModelParams(k, math.exp(log_theta))
    # the cells are under test, not the residual certificate, which large k fails
    laws = find_asymmetric(params, tol=math.inf)
    assume(laws)
    return laws, params


@settings(derandomize=True, deadline=None, max_examples=300)
@given(solved_asymmetric_laws())
def test_asymmetric_cells_are_the_matrix_path_bit_for_bit(case):
    laws, params = case
    assert len(laws) == 2 and laws[1] == laws[0].swapped()
    for law in laws:
        cells = law_cells(law, params)
        assert list(cells) == list(matrix_cells(law, params))
        assert bits(cells) == bits(matrix_cells(law, params))


def assert_cells_match_the_matrix_path(law, params):
    # the matrix path's answer, or its exception, at the ends of the double range
    try:
        expected = matrix_cells(law, params)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            law_cells(law, params)
        assert str(raised.value) == str(exc)
    else:
        assert bits(law_cells(law, params)) == bits(expected)


EXTREME_Z = [5e-324, math.exp(708.0), 1.0, 1e300, 6e307]
EXTREME_THETA = [5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308]


@pytest.mark.parametrize("z", EXTREME_Z)
@pytest.mark.parametrize("theta", EXTREME_THETA)
@pytest.mark.parametrize("k", [2, 3, 4, 10**4])
def test_hand_made_symmetric_cells_match_the_matrix_path(z, theta, k):
    assert_cells_match_the_matrix_path(BoundaryLaw(z, z), ModelParams(k, theta))


@pytest.mark.parametrize("z1, z2", [(z1, z2) for z1 in EXTREME_Z for z2 in EXTREME_Z if z1 != z2])
@pytest.mark.parametrize("theta", EXTREME_THETA)
@pytest.mark.parametrize("k", [2, 3, 4, 10**4])
def test_hand_made_asymmetric_cells_match_the_matrix_path(z1, z2, theta, k):
    assert_cells_match_the_matrix_path(BoundaryLaw(z1, z2), ModelParams(k, theta))


@pytest.mark.parametrize("z1, z2, theta", [
    (4.2468912191468007e-19, 4.246891219146801e-19, 21510.16471126802),
    (3348878364610.156, 3348878364610.1562, 1.4789112316905325e+21),
    (0.00011765095152138682, 0.00011765095152138683, 1.8491140359046454e+18),
])
def test_asymmetric_law_with_the_symmetric_pattern_takes_the_shortcut(z1, z2, theta):
    # z1 != z2 but the entries round to the symmetric pattern: spectrum reads
    # s1 and s2 off the matrix, which differs in the last bits from deflating
    law, params = BoundaryLaw(z1, z2), ModelParams(3, theta)
    (p00, p01, _), _, (_, p21, p22) = transition_matrix(law, theta).entries
    assert not law.symmetric and (p00, p01) == (p22, p21)
    cells = law_cells(law, params)
    assert (cells["s1"], cells["s2"]) == (p22, -p21)
    assert bits(cells) == bits(matrix_cells(law, params))


@pytest.mark.parametrize("theta", [1.0, 1e308])
def test_symmetric_cells_fall_back_to_the_matrix_checks(theta):
    # z + z (and at theta = 1e308 also z + theta) overflows: the matrix
    # rejects its row that sums to 0
    with pytest.raises(ValueError) as raised:
        law_cells(BoundaryLaw(1e308, 1e308), ModelParams(3, theta))
    assert str(raised.value) == "row (0.0, 0.0, 0.0) does not sum to 1 within 1e-14"


@pytest.fixture
def matrices_built(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return transition_matrix(*args)

    monkeypatch.setattr(chain, "transition_matrix", counted)
    return calls


@pytest.mark.parametrize("z1, z2, theta", [(6e307, 6e307, 6e307), (8e307, 5e307, 6e307),
                                           (5e307, 8e307, 6e307)])
def test_overflowing_sum_with_finite_pairs_takes_the_checked_rows(matrices_built, z1, z2, theta):
    # every pairwise sum is finite, z1 + z2 + theta is not: the matrix is
    # built, its checks pass, and the cells are its spectrum's
    assert all(map(math.isfinite, (z1 + z2, z1 + theta, z2 + theta)))
    assert math.isinf(z1 + z2 + theta)
    law, params = BoundaryLaw(z1, z2), ModelParams(3, theta)
    assert bits(law_cells(law, params)) == bits(matrix_cells(law, params))
    assert len(matrices_built) == 1


def test_scan_builds_no_matrix(matrices_built):
    rows = scan_rows(3, theta_grid(0.1, 3.0, 300))
    assert len(rows) == 300 and {row["tisgm_count"] for row in rows} == {1, 3}
    assert matrices_built == []


@pytest.mark.parametrize("theta", ["0.5", "3.0"])
def test_solve_builds_no_matrix(matrices_built, capsys, theta):
    # at 0.5 the report holds the asymmetric pair too
    assert cli.main(["solve", "--k", "3", "--theta", theta]) == 0
    assert capsys.readouterr().out.count('"kind"') == (3 if theta == "0.5" else 1)
    assert matrices_built == []
