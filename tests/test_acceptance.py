"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Every tolerance here is pinned; nothing is deferred to calibration.
"""

import math
import random

from wand_gibbs.chain import (
    ks_gap,
    ks_threshold_pair,
    spectrum,
    transition_matrix,
)
from wand_gibbs.extremality import msw_gap, msw_threshold_pair
from wand_gibbs.model import ModelParams
from wand_gibbs.oracle import cayley_tree, check_consistency
from wand_gibbs.scan import theta_grid
from wand_gibbs.solver import (
    boundary_law,
    find_asymmetric,
    solve_symmetric,
    theta_critical,
)

from contraction_oracle import (
    conditional_distributions,
    pairwise_differences,
    pairwise_max_discrepancy,
)
from ferrari_oracle import solve_ferrari_k3
from newton_oracle import detect_bifurcation_onset
from threshold_oracle import ks_sweep


def report(number: int, name: str, passed: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d} {name}: {'PASS' if passed else 'FAIL'}{tail}")
    assert passed, f"criterion {number} ({name}) failed{tail}"


def test_criterion_01_critical_activity_formula_and_onset():
    exact = theta_critical(2) == 1.0
    worst = 0.0
    for k in (2, 3, 4, 5):
        onset = detect_bifurcation_onset(k)
        worst = max(worst, abs(onset - theta_critical(k)))
    report(1, "theta_cr formula + empirical onset", exact and worst < 1e-6,
           f"theta_cr(2)={theta_critical(2)!r}, worst onset gap {worst:.2e}")


def test_criterion_02_ks_thresholds_k3():
    lower, upper = ks_threshold_pair(3)
    ok = abs(lower - 0.83) <= 0.01 and abs(upper - 1.226) <= 0.01
    report(2, "k=3 Kesten-Stigum thresholds", ok,
           f"({lower:.6f}, {upper:.6f}) vs (0.83, 1.226)")


def test_criterion_03_k2_thresholds_closed_forms():
    lower, upper = ks_threshold_pair(2)
    lower_closed = 0.5 * (4.0 * math.sqrt(2.0) - 4.0) ** (1.0 / 3.0)
    upper_closed = 0.5 * (28.0 + 20.0 * math.sqrt(2.0)) ** (1.0 / 3.0)
    ok = (abs(lower - lower_closed) <= 1e-14 * lower_closed
          and abs(upper - upper_closed) <= 1e-14 * upper_closed)
    report(3, "k=2 thresholds vs closed forms", ok,
           f"({lower:.8f}, {upper:.8f}) vs ({lower_closed:.8f}, {upper_closed:.8f})")


def test_criterion_04_high_order_sweep():
    thetas = theta_grid(0.01, 100.0, 500, "log")
    ok = True
    details = []
    for k in range(5, 11):
        values, sides_ok = ks_sweep(k, thetas)
        ok = ok and min(values) > 1.0 and sides_ok
        details.append(f"k={k} min {min(values):.4f}")
    # k = 4: strictly above 1 away from theta = 1; the boundary point itself
    # gives exactly 1 and stays undetermined
    values4, _ = ks_sweep(4, thetas)
    spacing = math.log(100.0 / 0.01) / 499
    away = [v for t, v in zip(thetas, values4) if abs(math.log(t)) > spacing]
    near = [v for t, v in zip(thetas, values4) if abs(math.log(t)) <= spacing]
    boundary = spectrum(transition_matrix(solve_symmetric(ModelParams(4, 1.0)), 1.0), 4)
    ok = ok and min(away) > 1.0 and all(v >= 1.0 - 1e-12 for v in near)
    ok = ok and boundary.ks_value == 1.0
    report(4, "k>=4 sweep non-extremal", ok,
           "; ".join(details) + f"; k=4 min {min(values4):.4f}, ks(4,1)={boundary.ks_value}")


def test_criterion_05_symmetric_root_properties():
    rng = random.Random(20260810)
    ok = True
    for _ in range(1000):
        k = rng.randint(2, 10)
        theta = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        law = solve_symmetric(ModelParams(k, theta))
        ok = ok and law.residual <= 1e-12
        if theta != 1.0:
            ok = ok and (law.z1 - theta) * (theta - 1.0) < 0.0
        if not ok:
            break
    report(5, "symmetric-root property suite (1000 draws)", ok)


def test_criterion_06_ferrari_equivalence():
    worst = 0.0
    for theta in theta_grid(0.05, 20.0, 200, "log"):
        z_bisect = solve_symmetric(ModelParams(3, theta)).z1
        z_closed = solve_ferrari_k3(theta)
        worst = max(worst, abs(z_closed - z_bisect) / max(1.0, z_bisect))
    report(6, "quartic closed form vs bisection", worst <= 1e-10,
           f"worst relative gap {worst:.2e}")


def test_criterion_07_oracle_consistency():
    ok = True
    details = []
    for k in (2, 3):
        small, big = cayley_tree(k, 1), cayley_tree(k, 2)
        for theta in (0.5, 0.7, 1.0, 1.5, 2.0):
            params = ModelParams(k, theta)
            law = solve_symmetric(params)
            defect = check_consistency(small, big, theta, law)
            perturbed = boundary_law(law.z1 * 1.1, law.z2 * 0.9, params)
            defect_pert = check_consistency(small, big, theta, perturbed)
            ok = ok and defect <= 1e-10 and defect_pert >= 1e-6
            if defect > 1e-10 or defect_pert < 1e-6:
                details.append(f"k={k} th={theta}: {defect:.1e}/{defect_pert:.1e}")
    report(7, "finite-volume consistency oracle", ok, "; ".join(details))


def test_criterion_08_spectral_contract():
    rng = random.Random(99)
    ok = True
    for _ in range(1000):
        k = rng.randint(2, 10)
        theta = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        law = solve_symmetric(ModelParams(k, theta))
        matrix = transition_matrix(law, theta)
        for row in matrix.entries:
            ok = ok and abs(math.fsum(row) - 1.0) <= 1e-14
        rep = spectrum(matrix, k)
        z = law.z1
        ok = ok and abs(rep.s1 - z / (z + theta)) <= 1e-12
        ok = ok and abs(rep.s2 + theta / (z + theta)) <= 1e-12
        if not ok:
            break
    conj_ok = True
    for _ in range(150):
        k = rng.randint(2, 6)
        theta = rng.uniform(0.05, 0.95) * theta_critical(k)
        laws = find_asymmetric(ModelParams(k, theta))
        conj_ok = conj_ok and len(laws) == 2
        if len(laws) == 2:
            reps = [spectrum(transition_matrix(law, theta), k) for law in laws]
            spectra = [sorted([r.s1, r.s2, r.s3]) for r in reps]
            conj_ok = conj_ok and all(
                abs(a - b) <= 1e-10 for a, b in zip(spectra[0], spectra[1])
            )
        if not conj_ok:
            break
    report(8, "spectral contract (1000 matrices + swap conjugacy)", ok and conj_ok)


def test_criterion_09_certificate_thresholds_and_disjointness():
    msw = msw_threshold_pair(3)
    ks = ks_threshold_pair(3)
    ok = abs(msw[0] - 0.83) <= 0.01 and abs(msw[1] - 1.226) <= 0.01
    ok = ok and abs(msw[0] - ks[0]) <= 1e-4 and abs(msw[1] - ks[1]) <= 1e-4
    disjoint = True
    for theta in theta_grid(0.01, 20.0, 2000, "log"):
        ks_fires = ks_gap(3, theta) > 0.0
        msw_fires = msw_gap(3, theta) < 0.0
        if ks_fires and msw_fires:
            disjoint = False
            break
    report(9, "certificate thresholds + disjoint regimes", ok and disjoint,
           f"msw=({msw[0]:.6f}, {msw[1]:.6f}), ks=({ks[0]:.6f}, {ks[1]:.6f})")


def test_criterion_10_discrepancy_multiset():
    rng = random.Random(7)
    ok = True
    for _ in range(1000):
        p0 = rng.uniform(1e-6, 1.0 - 1e-6)
        z = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        theta = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        dist = conditional_distributions(p0, z, theta)
        a = dist.stay_prob
        b = 1.0 - a
        expected = sorted([a, a, 0.0, b, b, 0.5, 0.5, abs(a - 0.5), abs(a - 0.5)])
        ok = ok and sorted(pairwise_differences(dist)) == expected
        ok = ok and pairwise_max_discrepancy(dist) == max(a, b)
        if not ok:
            break
    report(10, "discrepancy multiset identity (1000 draws)", ok)
