import math
import sys

import pytest

from wand_gibbs.model import ModelParams
from wand_gibbs.scan import (
    CLASS_EXTREMAL_MSW,
    CLASS_NONEXTREMAL_KS,
    CLASS_UNDETERMINED,
    CSV_COLUMNS,
    classify,
    format_value,
    scan_row,
    theta_grid,
)


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


@pytest.mark.parametrize("lo, hi, steps", [(0.05, 3.0, 300), (0.1, 3.0, 7), (1e-300, 1e300, 50),
                                           (0.5, 1e306, 101), (2.0, 2.0000000000000004, 9)])
def test_linear_grid_without_overflow_is_the_plain_formula(lo, hi, steps):
    m = steps - 1
    plain = [((m - i) * lo + i * hi) / m for i in range(steps)]
    plain[0], plain[-1] = lo, hi
    assert theta_grid(lo, hi, steps, "linear") == plain
