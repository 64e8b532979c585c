import math
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from wand_gibbs import solver
from wand_gibbs.model import DEFAULT_RESIDUAL_TOL, BoundaryLaw, ModelParams
from wand_gibbs.scan import theta_grid
from wand_gibbs.solver import (
    IterationFailureError,
    _branch,
    find_asymmetric,
    solve_symmetric,
    theta_critical,
    tisgm_set,
)

from ferrari_oracle import solve_ferrari_k3
from newton_oracle import (
    asymmetric_log_roots,
    boundary_law,
    detect_bifurcation_onset,
    newton_asymmetric,
    symmetric_climb,
    symmetric_gain,
)

thetas = st.floats(min_value=0.05, max_value=20.0)
orders = st.integers(min_value=2, max_value=8)


def brentq_symmetric(k, theta):
    """Independent root oracle: Brent on z - f(z) with a wide bracket."""
    return brentq(lambda z: z - ((theta + z) / (2 * theta * z)) ** k,
                  1e-12, 1e20, rtol=8.9e-16, maxiter=400)


def direct_residual(law, params):
    """The residual max |z_i - rhs_i| / max(1, z_i), with the right-hand
    side ((theta + z_i) / (theta (z1 + z2)))**k evaluated as written."""
    k, theta = params.k, params.theta
    total = theta * (law.z1 + law.z2)
    return max(abs(z - ((theta + z) / total) ** k) / max(1.0, z) for z in (law.z1, law.z2))


# --- fixed-point residual ----------------------------------------------------

def test_rhs_symmetric_point_is_identity():
    assert boundary_law(1.0, 1.0, ModelParams(3, 1.0)).residual == 0.0


@pytest.mark.parametrize("k,theta,z", [(2, 0.5, 0.7), (3, 2.0, 1.3), (4, 0.8, 5.0)])
def test_rhs_symmetric_reduces_to_gain_map(k, theta, z):
    params = ModelParams(k, theta)
    expected = abs(z - symmetric_gain(z, params)) / max(1.0, z)
    assert boundary_law(z, z, params).residual == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("z1, z2", [(10**400, 1.0), (1.0, 10**400), (-(10**400), 1.0)],
                         ids=["1e400-1", "1-1e400", "-1e400-1"])
def test_boundary_law_rejects_a_component_beyond_the_doubles(z1, z2):
    # the law's own check, before any arithmetic could overflow
    with pytest.raises(ValueError, match=r"^boundary law components must be positive and finite"):
        boundary_law(z1, z2, ModelParams(3, 1.0))


def test_rhs_hand_evaluated_point():
    # k=2, theta=0.5, (z1, z2) = (1, 2):
    #   rhs1 = ((0.5+1)/(0.5*3))^2 = 1,  rhs2 = ((0.5+2)/(0.5*3))^2 = 25/9,
    #   residual = max(0, (25/9 - 2) / 2) = 7/18, the same after the swap
    params = ModelParams(2, 0.5)
    assert boundary_law(1.0, 2.0, params).residual == pytest.approx(7.0 / 18.0, rel=1e-15)
    assert boundary_law(2.0, 1.0, params).residual == pytest.approx(7.0 / 18.0, rel=1e-15)


@given(st.integers(min_value=2, max_value=8),
       st.floats(min_value=1e-2, max_value=1e2),
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_residual_matches_direct_definition(k, theta, z1, z2):
    params = ModelParams(k, theta)
    law = BoundaryLaw(z1, z2)
    assert boundary_law(z1, z2, params).residual == pytest.approx(
        direct_residual(law, params), rel=1e-9, abs=1e-13)


@pytest.mark.parametrize("z1,z2,theta", [
    (1e300, 1e300, 1e-300), (1e300, 1e-300, 1e300), (5e-324, 1.7e308, 1.0),
    (1.7e308, 1.7e308, 5e-324), (1e300, 1e-30, 1e-40),
])
def test_residual_finite_at_extreme_values(z1, z2, theta):
    # the power form overflows at all of these points, and at the last one
    # z2 / (z1 + z2) underflows to 0
    residual = boundary_law(z1, z2, ModelParams(7, theta)).residual
    assert math.isfinite(residual) and residual > 1e-12


def two_component_residual(z1, z2, k, theta):
    """The residual with both components of the log right-hand side
    evaluated, as the solver forms them for an asymmetric law."""
    big = max(z1, z2)
    q = min(z1, z2) / big
    log_total = math.log(big) + math.log1p(q)
    terms = []
    for z in (z1, z2):
        if z <= theta:
            log_ratio = math.log1p(z / theta) - log_total
        else:
            share = z / big / (1.0 + q)
            log_share = math.log(z) - log_total if share < sys.float_info.min else math.log(share)
            log_ratio = log_share - math.log(theta) + math.log1p(theta / z)
        terms.append(min(1.0, z) * abs(math.expm1(min(k * log_ratio - math.log(z), 708.0))))
    return max(terms)


EDGE_Z = [5e-324, 2.2250738585072014e-308, math.exp(-708.0), math.exp(708.0),
          math.nextafter(math.exp(708.0), math.inf), 1.0, 1.7976931348623157e308]
EDGE_THETA = [5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308]


@pytest.mark.parametrize("z", EDGE_Z)
@pytest.mark.parametrize("theta", EDGE_THETA)
@pytest.mark.parametrize("k", [2, 3, 10**4, 10**12])
def test_symmetric_residual_is_the_two_component_max_at_the_edges(z, theta, k):
    assert solver._residual(z, z, k, theta).hex() == two_component_residual(z, z, k, theta).hex()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(min_value=2, max_value=10**6),
       st.floats(min_value=-745.0, max_value=709.0),
       st.floats(min_value=-745.0, max_value=709.0))
def test_symmetric_residual_is_the_two_component_max(k, log_theta, log_z):
    theta, z = max(math.exp(log_theta), 5e-324), max(math.exp(log_z), 5e-324)
    assert solver._residual(z, z, k, theta).hex() == two_component_residual(z, z, k, theta).hex()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(min_value=2, max_value=10**4),
       st.floats(min_value=-700.0, max_value=700.0),
       st.floats(min_value=-700.0, max_value=700.0),
       st.floats(min_value=-700.0, max_value=700.0))
def test_asymmetric_residual_is_the_two_component_max(k, log_theta, log_z1, log_z2):
    theta, z1, z2 = math.exp(log_theta), math.exp(log_z1), math.exp(log_z2)
    expected = two_component_residual(z1, z2, k, theta)
    assert solver._residual(z1, z2, k, theta).hex() == expected.hex()


# --- symmetric root --------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_symmetric_root_at_unit_activity(k):
    law = solve_symmetric(ModelParams(k, 1.0))
    assert law.z1 == 1.0 and law.z2 == 1.0
    assert law.residual == 0.0


def test_symmetric_root_k3_theta2():
    law = solve_symmetric(ModelParams(3, 2.0))
    assert law.z1 < 2.0  # z* < theta when theta > 1
    assert law.z1 == pytest.approx(0.7563126517506096, rel=1e-13)
    assert law.residual <= 1e-12


def test_symmetric_root_k2_theta_quarter():
    law = solve_symmetric(ModelParams(2, 0.25))
    assert law.z1 > 0.25  # z* > theta when theta < 1
    assert law.z1 == pytest.approx(4.460902774953157, rel=1e-13)


@given(orders, thetas)
def test_symmetric_root_matches_brent_oracle(k, theta):
    ours = solve_symmetric(ModelParams(k, theta)).z1
    assert ours == pytest.approx(brentq_symmetric(k, theta), rel=1e-12)


@given(orders, thetas, st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=1.01, max_value=10.0))
def test_gain_map_strictly_decreasing(k, theta, a, ratio):
    params = ModelParams(k, theta)
    assert symmetric_gain(a, params) > symmetric_gain(a * ratio, params)


@given(orders, thetas)
def test_sign_property(k, theta):
    z = solve_symmetric(ModelParams(k, theta)).z1
    if theta != 1.0:
        assert (z - theta) * (theta - 1.0) < 0.0


@given(orders, thetas)
def test_fixed_point_property(k, theta):
    params = ModelParams(k, theta)
    law = solve_symmetric(params)
    assert law.residual <= 1e-12
    assert direct_residual(law, params) <= 1e-12


def ulps_from_one(n: int) -> float:
    """The double ``n`` steps above 1.0, or ``-n`` steps below it."""
    theta = 1.0
    for _ in range(abs(n)):
        theta = math.nextafter(theta, math.copysign(math.inf, n))
    return theta


@pytest.mark.parametrize("k", [10**5, 10**6])
def test_symmetric_root_next_to_unit_activity_is_certified(k):
    # here the climb rose through rounding noise for about 0.69 k steps and
    # stopped off the root, whose residual failed; the step cap keeps it on it
    law = solve_symmetric(ModelParams(k, ulps_from_one(1)))
    assert law.certified()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=-50, max_value=50))
def test_symmetric_root_within_ulps_of_unit_activity_is_certified(k, ulps):
    assert solve_symmetric(ModelParams(k, ulps_from_one(ulps))).certified()


def assert_symmetric_root_is_the_climb(k, theta):
    """``_symmetric_root`` gives ``symmetric_climb``'s root bit for bit, or
    fails where that root is no normal double or fails its residual; the
    climb's step count is returned."""
    log_theta = math.log(theta)
    u, steps = symmetric_climb(k, log_theta)
    try:
        law = solver._symmetric_root(k, theta, log_theta, DEFAULT_RESIDUAL_TOL)
    except IterationFailureError:
        assert (abs(u) > solver._LOG_RANGE
                or not solver._residual(math.exp(u), math.exp(u), k, theta) <= DEFAULT_RESIDUAL_TOL)
        return steps
    z = math.exp(u)
    assert (law.z1.hex(), law.z2.hex(), law.residual.hex()) == (
        z.hex(), z.hex(), solver._residual(z, z, k, theta).hex())
    return steps



@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.floats(min_value=math.log(2.0), max_value=math.log(1e6)),
       st.one_of(st.floats(min_value=-300.0, max_value=300.0).map(lambda x: 10.0 ** x),
                 st.floats(min_value=-1e-12, max_value=1e-12).map(lambda d: 1.0 + d)))
def test_symmetric_root_is_the_closure_climb_bit_for_bit(log_k, theta):
    # k log-uniform in [2, 10^6]; theta log-uniform in [1e-300, 1e300], or within 1e-12 of 1
    assert_symmetric_root_is_the_climb(round(math.exp(log_k)), theta)


@pytest.mark.parametrize("k, theta", [(1000, 1.0 + 2.220446049250313e-16), (10**4, 1.0 + 1e-14),
                                      (10**5, 1.0 + 1e-13), (10**6, 1.0 + 1e-12)])
def test_symmetric_root_is_the_closure_climb_at_the_step_cap(k, theta):
    # next to theta = 1 the climb ends at the step cap, not on a falling step
    assert assert_symmetric_root_is_the_climb(k, theta) == solver._SYMMETRIC_STEPS


# --- critical activity -----------------------------------------------------

def test_theta_critical_k2_is_exactly_one():
    assert theta_critical(2) == 1.0


def test_theta_critical_k3_closed_form():
    assert theta_critical(3) == pytest.approx((27.0 / 4.0) ** 0.25, rel=1e-15)
    assert theta_critical(3) == pytest.approx(1.6118548977353129, rel=1e-14)


@pytest.mark.parametrize("k", [150, 200, 10**3, 10**4])
def test_theta_critical_large_k_finite(k):
    # independent evaluation: the exact integer k^k (k-1) goes through
    # math.log, which accepts integers of any size
    log_cr = (math.log(k ** k * (k - 1)) - k * math.log(2.0)) / (k + 1)
    assert theta_critical(k) == pytest.approx(math.exp(log_cr), rel=1e-12)


def _direct_log_theta_critical(k):
    """ln theta_cr as one quotient; k ln k overflows in it from k ~ 2.56e305."""
    return (k * math.log(k) + math.log(k - 1) - k * math.log(2.0)) / (k + 1)


@pytest.mark.parametrize("k", [3 * 10**305, 10**306, int(sys.float_info.max)],
                         ids=["3e305", "1e306", "DBL_MAX"])
def test_theta_critical_finite_where_k_log_k_overflows(k):
    assert _direct_log_theta_critical(k) == math.inf
    assert theta_critical(k) == pytest.approx(k / 2, rel=1e-12)


def test_theta_critical_keeps_its_bits_where_k_log_k_is_finite():
    rng = random.Random(2001)
    orders = [*range(2, 300), 10**6, 10**100, 2 * 10**305, 25 * 10**304]
    orders += [int(10 ** rng.uniform(0.5, 305.39)) for _ in range(2000)]
    for k in orders:
        direct = _direct_log_theta_critical(k)
        assert solver._log_theta_critical(k) == direct, k
        assert theta_critical(k) == math.exp(direct), k


def test_no_asymmetric_pair_above_critical_at_huge_k():
    # theta = 1e306 lies above theta_cr ~ 5.0e305
    assert find_asymmetric(ModelParams(10**306, 1e306)) == []


def test_theta_critical_beyond_float_range_fails_typed():
    with pytest.raises(IterationFailureError):
        theta_critical(int(sys.float_info.max) * 2)


def test_theta_critical_rejects_small_k():
    with pytest.raises(ValueError):
        theta_critical(1)


@pytest.mark.parametrize("k", [2, 3])
def test_bifurcation_onset_matches_closed_form(k):
    onset = detect_bifurcation_onset(k)
    assert abs(onset - theta_critical(k)) < 1e-6


# --- Ferrari closed form ----------------------------------------------------

def test_ferrari_unit_activity():
    assert solve_ferrari_k3(1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_ferrari_matches_bisection(theta):
    z = solve_symmetric(ModelParams(3, theta)).z1
    assert abs(solve_ferrari_k3(theta) - z) <= 1e-10 * max(1.0, z)


def test_ferrari_rejects_nonpositive():
    with pytest.raises(ValueError):
        solve_ferrari_k3(0.0)


# --- asymmetric pair --------------------------------------------------------

def test_no_asymmetric_above_critical_k2():
    assert find_asymmetric(ModelParams(2, 1.5)) == []


def test_asymmetric_pair_k2_half():
    laws = find_asymmetric(ModelParams(2, 0.5))
    assert len(laws) == 2
    big, small = laws
    assert big.z1 == pytest.approx(4.776082975517309, rel=1e-10)
    assert big.z2 == pytest.approx(0.05234414922888182, rel=1e-10)
    # swap images of each other
    assert big.z1 == pytest.approx(small.z2, rel=1e-10)
    assert big.z2 == pytest.approx(small.z1, rel=1e-10)
    assert all(law.residual <= 1e-12 for law in laws)


def test_asymmetric_straddles_critical_k3():
    assert len(find_asymmetric(ModelParams(3, 1.61))) == 2
    assert find_asymmetric(ModelParams(3, 1.62)) == []


@given(st.integers(min_value=2, max_value=5),
       st.floats(min_value=0.1, max_value=0.9))
def test_asymmetric_laws_are_fixed_points(k, frac):
    theta = frac * theta_critical(k)
    params = ModelParams(k, theta)
    laws = find_asymmetric(params)
    assert len(laws) == 2
    for law in laws:
        assert law.residual <= 1e-12
        assert direct_residual(law, params) <= 1e-12


def test_swap_of_solution_is_solution():
    params = ModelParams(3, 0.9)
    law = find_asymmetric(params)[0]
    swapped = boundary_law(law.z2, law.z1, params)
    assert swapped.residual <= 1e-12


@pytest.mark.parametrize("k,theta", [(2, 1e-30), (3, 1e-8), (50, 1.0)])
def test_asymmetric_pair_at_extreme_points(k, theta):
    # roots spanning up to 180 decades; newton_asymmetric finds none here
    solutions = tisgm_set(ModelParams(k, theta))
    assert solutions.count == 3
    for law in solutions.laws:
        assert boundary_law(law.z1, law.z2, solutions.params).residual <= 1e-12


def test_asymmetric_root_outside_double_range_raises():
    # at theta = 1e-300 the pair has ln z1 ~ 1380: no double can hold it
    with pytest.raises(IterationFailureError):
        find_asymmetric(ModelParams(2, 1e-300))


@pytest.mark.parametrize("k,theta", [(42, 4.97e96), (3, 1e308)])
def test_single_measure_at_huge_activity(k, theta):
    # z* is near 2^(-k/(k+1)); a residual formed by raising a rounded
    # ratio to the k-th power reads above 1e-12 at the first point
    solutions = tisgm_set(ModelParams(k, theta))
    assert solutions.count == 1
    assert solutions.symmetric.residual <= 1e-12


def test_symmetric_root_far_above_one():
    # z* = (1/(2 theta))^k (1 + theta/z*)^k = 500^50 ~ 2^448 to double precision
    params = ModelParams(50, 1e-3)
    law = solve_symmetric(params)
    assert law.z1 == pytest.approx(float(500 ** 50), rel=1e-13)
    assert law.residual <= 1e-12
    # the pair at this point has ln z2 ~ -17269: no double can hold it
    with pytest.raises(IterationFailureError):
        tisgm_set(params)


def test_symmetric_root_outside_double_range_raises():
    # ln z* ~ 2 ln(1/(2 theta)) ~ 1380
    with pytest.raises(IterationFailureError, match="range"):
        solve_symmetric(ModelParams(2, 1e-300))


@pytest.mark.parametrize("solve", [solve_symmetric, find_asymmetric])
def test_nan_tolerance_certifies_no_root(solve):
    # both roots pass one certificate, residual <= tol, as BoundaryLaw.certified reads it
    with pytest.raises(IterationFailureError, match="failed certification"):
        solve(ModelParams(3, 0.5), math.nan)


def test_asymmetric_root_failing_certification_raises():
    with pytest.raises(IterationFailureError):
        find_asymmetric(ModelParams(2, 0.5), tol=1e-300)


@pytest.mark.parametrize("k", list(range(2, 41)) + [50, 100, 200, 500])
def test_branch_log_theta_increasing_to_critical(k):
    ss = [-700.0 * (j / 4000) ** 3 for j in range(4000, 0, -1)]
    values = [_branch(k, s)[0] / (k + 1) for s in ss]
    assert all(a < b for a, b in zip(values, values[1:]))
    log_cr = math.log(theta_critical(k))
    assert values[-1] < log_cr
    assert _branch(k, -1e-9)[0] / (k + 1) == pytest.approx(log_cr, rel=1e-12, abs=1e-12)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _monomial_poly(terms):
    """Integer coefficient list of sum c t^n over (c, n) pairs."""
    out = [0] * (max(n for _, n in terms) + 1)
    for c, n in terms:
        out[n] += c
    return out


@pytest.mark.parametrize("k", range(2, 41))
def test_branch_derivative_numerator_has_positive_cofactor(k):
    # the monotonicity argument in the solver docstring: N_k = (1-t)^4 R_k
    # with every coefficient of R_k positive
    one_minus = lambda n: _monomial_poly([(1, 0), (-1, n)])
    parts = [
        _poly_mul(_poly_mul(_monomial_poly([(1, 0), (k, 1)]), one_minus(k - 1)), one_minus(2 * k)),
        _poly_mul(_poly_mul(_monomial_poly([(-(k - 1), k - 1)]), one_minus(1)), one_minus(2 * k)),
        _poly_mul(_poly_mul(_monomial_poly([(-2 * k * k, k)]), one_minus(1)), one_minus(k - 1)),
    ]
    numerator = [sum(p[n] if n < len(p) else 0 for p in parts)
                 for n in range(max(map(len, parts)))]
    cofactor = numerator
    for _ in range(4):  # synthetic division by (1 - t), lowest degree first
        quotient, carry = [], 0
        for c in cofactor[:-1]:
            carry += c
            quotient.append(carry)
        assert carry + cofactor[-1] == 0
        cofactor = quotient
    assert len(cofactor) == 3 * k - 3
    assert cofactor == cofactor[::-1]
    assert all(c > 0 for c in cofactor)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("frac", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_branch_pair_matches_newton_oracle(k, frac):
    params = ModelParams(k, frac * theta_critical(k))
    branch = find_asymmetric(params)
    newton = newton_asymmetric(params)
    assert len(branch) == len(newton) == 2
    for ours, theirs in zip(branch, newton):
        assert ours.z1 == pytest.approx(theirs.z1, rel=1e-10)
        assert ours.z2 == pytest.approx(theirs.z2, rel=1e-10)


# --- safeguarded Newton on the branch ---------------------------------------

def count_branch_evaluations(mp):
    """Wrap solver._branch so that every evaluation of g and g' is recorded."""
    calls = []
    inner = solver._branch

    def counted(k, s):
        calls.append(s)
        return inner(k, s)

    mp.setattr(solver, "_branch", counted)
    return calls


@pytest.mark.parametrize("k", [2, 3, 5, 10, 50])
@pytest.mark.parametrize("s", [-5.0, -1.0, -0.3, -0.05])
def test_branch_slope_matches_closed_form(k, s):
    # (k+1) d ln theta/ds = N_k(t) / ((1 - t)(1 - t^(k-1))(1 - t^(2k))),
    # the numerator of the monotonicity argument in the solver docstring
    t = math.exp(s)
    numerator = ((1 + k * t) * (1 - t ** (k - 1)) * (1 - t ** (2 * k))
                 - (k - 1) * t ** (k - 1) * (1 - t) * (1 - t ** (2 * k))
                 - 2 * k * k * t ** k * (1 - t) * (1 - t ** (k - 1)))
    expected = numerator / ((1 - t) * (1 - t ** (k - 1)) * (1 - t ** (2 * k)))
    assert _branch(k, s)[1] == pytest.approx(expected, rel=1e-9)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.randoms(use_true_random=False))
def test_newton_branch_matches_bisection_oracle(rng):
    # drawn from a seeded Random, so the 30% share below holds exactly
    # in distribution (hypothesis' own strategies favour small values)
    k = rng.randint(2, 256)
    log_cr = math.log(theta_critical(k))
    if rng.random() < 0.3:
        # within 1e-12 ... 1e-1 of theta_cr, where g' -> 0
        theta = math.exp(log_cr + math.log1p(-10.0 ** rng.uniform(-12.0, -1.0)))
    else:
        # log-uniform on [1e-300, theta_cr)
        theta = math.exp(rng.uniform(-300.0 * math.log(10.0), log_cr))
        if theta >= theta_critical(k):
            return
    params = ModelParams(k, theta)
    log_z1, log_z2 = asymmetric_log_roots(k, math.log(theta))
    with pytest.MonkeyPatch.context() as mp:
        calls = count_branch_evaluations(mp)
        try:
            laws = find_asymmetric(params)
        except IterationFailureError:
            laws = None
    # never worse than about bisection to adjacent doubles
    assert len(calls) <= 70
    if max(abs(log_z1), abs(log_z2)) > 690.0:
        return
    assert laws is not None and len(laws) == 2
    rel = 1e-10 if theta / theta_critical(k) <= 1.0 - 1e-6 else 1e-6
    assert laws[0].z1 == pytest.approx(math.exp(log_z1), rel=rel)
    assert laws[0].z2 == pytest.approx(math.exp(log_z2), rel=rel)
    assert all(law.residual <= 1e-12 for law in laws)


@pytest.mark.parametrize("k", [2, 3, 7, 50])
@pytest.mark.parametrize("s", [-1e-300, -1e-9, -0.3, -1.0, -40.0, -700.0])
def test_branch_log_p_minus_1_is_the_geometric_sum(k, s):
    # P - 1 = t + t^2 + ... + t^(k-1), the divisor of theta in z1
    t = math.exp(s)
    expected = math.fsum(t ** j for j in range(1, k)) if t > 0.0 else 0.0
    log_p_minus_1 = _branch(k, s)[2]
    if expected > 1e-300:
        assert math.exp(log_p_minus_1) == pytest.approx(expected, rel=1e-13)
    else:  # below the normal range only the log stays exact: ln(P - 1) ~ s
        assert log_p_minus_1 == pytest.approx(s, rel=1e-13)


@pytest.mark.parametrize("k", [2, 3, 10])
def test_newton_ending_past_its_last_evaluation_keeps_the_root(monkeypatch, k):
    # with no noise floor the loop stops only on an exact zero of g, a Newton
    # step of a few ulps or a collapsed bracket; the last two leave s one step
    # past the last evaluation, so ln(P - 1) is taken once more at the final s
    thetas = theta_grid(1e-3 * theta_critical(k), 0.999 * theta_critical(k), 40, "log")
    expected = [find_asymmetric(ModelParams(k, theta)) for theta in thetas]
    monkeypatch.setattr(solver, "sys", SimpleNamespace(
        float_info=SimpleNamespace(epsilon=0.0, min=sys.float_info.min)))
    inner, calls = solver._branch, []

    def recorded(k, s):
        calls.append((s, inner(k, s)))
        return calls[-1][1]

    monkeypatch.setattr(solver, "_branch", recorded)
    past = 0
    for theta, (law, _) in zip(thetas, expected):
        calls.clear()
        got, swapped = find_asymmetric(ModelParams(k, theta))
        s, (value, _, log_p_minus_1) = calls[-1]
        past += value != (k + 1) * math.log(theta)  # g != 0 where the loop last evaluated
        # z1 = theta / (P - 1) and z2 = t^k z1, both at the final s
        assert got.z1 == math.exp(math.log(theta) - log_p_minus_1)
        assert got.z2 == math.exp(math.log(theta) - log_p_minus_1 + k * s)
        assert got.z1 == pytest.approx(law.z1, rel=1e-12)
        assert got.z2 == pytest.approx(law.z2, rel=1e-12)
        assert swapped == got.swapped()
    assert past > 0


def test_newton_evaluations_on_scan_grid(monkeypatch):
    # the k = 3 grid of the Fig. 2 table; bisection took ~55 evaluations
    calls = count_branch_evaluations(monkeypatch)
    counts = []
    for theta in theta_grid(0.1, 3.0, 300):
        calls.clear()
        if find_asymmetric(ModelParams(3, theta)):
            counts.append(len(calls))
    assert len(counts) > 100
    assert sum(counts) / len(counts) <= 8
    assert max(counts) <= 16


# --- tisgm bundle -----------------------------------------------------------

@pytest.mark.parametrize("k,theta,count", [
    (2, 2.0, 1),
    (3, 0.9, 3),
    (3, 1.0, 3),   # theta_cr(3) > 1, so three measures at unit activity
])
def test_tisgm_count(k, theta, count):
    assert tisgm_set(ModelParams(k, theta)).count == count


def test_tisgm_count_just_above_critical_k5():
    theta = theta_critical(5) + 0.01
    assert tisgm_set(ModelParams(5, theta)).count == 1


def test_tisgm_bundle_fields():
    solutions = tisgm_set(ModelParams(2, 0.5))
    assert solutions.theta_cr == 1.0
    assert solutions.symmetric.symmetric
    assert len(solutions.laws) == solutions.count == 3
