"""Reference answers for the benchmark's correctness checks.

Nothing here imports wand_gibbs: every expected value is derived in this
file from the translation-invariant fixed-point system

    z_i = ((theta + z_i) / (theta (z1 + z2)))**k,      i = 1, 2,

working in logarithms so that every (k, theta) the workloads draw stays
inside floating-point range.  The benchmark compares the program's output
against these values; no library function checks its own answer.

Closed forms used:

* critical activity: ln theta_cr = (k ln k + ln(k-1) - k ln 2) / (k+1);
* asymmetric branch: with x_i = z_i^(1/k), t = x2/x1 in (0, 1),
  P(t) = sum_{j<k} t^j and Q(t) = 1 + t^k, every asymmetric root satisfies
  theta^(k+1) = P^k (P-1) / Q^k, z1 = theta / (P-1) and z2 = t^k z1;
* Kesten-Stigum / certificate window on the symmetric law (p0 = 1/2, where
  k kappa gamma = k lambda2^2):
  theta_lo^(k+1) = (sqrt k - 1)(sqrt k / 2)^k and
  theta_hi^(k+1) = (sqrt k / (2 (sqrt k - 1)))^k / (sqrt k - 1);
  the window (theta_lo, theta_hi) is empty for k >= 4.
"""

from __future__ import annotations

import math

#: relative distance to a threshold inside which a classification or a
#: root count is not checked (the answer flips exactly there)
EXEMPT_BAND = 1e-9

#: largest |ln z| whose root the CLI must report; beyond it the root is not
#: a normal double and exit code 3 (solver failure) is an accepted answer
REPRESENTABLE_LOG = 690.0

#: spin order (-1, 0, +1); wand constraint graph adjacency
WAND = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
SPINS = (-1, 0, 1)


def log_theta_critical(k: int) -> float:
    return (k * math.log(k) + math.log(k - 1) - k * math.log(2.0)) / (k + 1)


def theta_critical(k: int) -> float:
    return math.exp(log_theta_critical(k))


def extremal_window(k: int) -> tuple:
    """(theta_lo, theta_hi): k lambda2^2 < 1 exactly inside; lo >= hi for k >= 4."""
    r = math.sqrt(k)
    log_lo = (math.log(r - 1.0) + k * math.log(r / 2.0)) / (k + 1)
    log_hi = (k * math.log(r / (2.0 * (r - 1.0))) - math.log(r - 1.0)) / (k + 1)
    return math.exp(log_lo), math.exp(log_hi)


def near(theta: float, threshold: float) -> bool:
    return abs(theta / threshold - 1.0) <= EXEMPT_BAND


def expected_count(k: int, theta: float) -> int | None:
    """1 + 2 [theta < theta_cr], or None inside the exempt band."""
    cr = theta_critical(k)
    if near(theta, cr):
        return None
    return 3 if theta < cr else 1


def expected_class(k: int, theta: float) -> str | None:
    """Regime label of the symmetric law, or None inside an exempt band."""
    lo, hi = extremal_window(k)
    if near(theta, lo) or near(theta, hi):
        return None
    return "extremal-MSW" if lo < theta < hi else "nonextremal-KS"


def _bisect_increasing(fn, lo: float, hi: float, target: float) -> float:
    """x in [lo, hi] with fn(x) = target for increasing fn, to full precision."""
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_symmetric_root(k: int, theta: float) -> float:
    """ln z* of the unique symmetric root z1 = z2 = z*.

    g(u) = (k+1) u + k ln(2 theta) - k ln(theta + e^u) is strictly
    increasing in u = ln z and vanishes exactly at ln z*.
    """
    log_theta = math.log(theta)

    def g(u: float) -> float:
        top = max(log_theta, u)
        log_sum = top + math.log(math.exp(log_theta - top) + math.exp(u - top))
        return (k + 1) * u + k * (math.log(2.0) + log_theta) - k * log_sum

    lo, hi = -1.0, 1.0
    while g(lo) > 0.0:
        lo *= 2.0
    while g(hi) < 0.0:
        hi *= 2.0
    return _bisect_increasing(g, lo, hi, 0.0)


def log_asymmetric_root(k: int, theta: float) -> tuple | None:
    """(ln z1, ln z2) of the asymmetric root with z1 > z2, or None when
    theta >= theta_cr.  Bisects s = ln t on the explicit branch."""
    log_theta = math.log(theta)
    if log_theta >= log_theta_critical(k):
        return None

    def log_p_minus_1(s: float) -> float:
        return s + math.log(-math.expm1((k - 1) * s)) - math.log(-math.expm1(s))

    def log_branch_theta(s: float) -> float:
        log_p = math.log(-math.expm1(k * s)) - math.log(-math.expm1(s))
        log_q = math.log1p(math.exp(k * s))
        return (k * log_p + log_p_minus_1(s) - k * log_q) / (k + 1)

    lo = -1.0
    while log_branch_theta(lo) > log_theta:
        lo *= 2.0
    hi = -1e-300
    s = _bisect_increasing(log_branch_theta, lo, hi, log_theta)
    log_z1 = log_theta - log_p_minus_1(s)
    return log_z1, log_z1 + k * s


def must_answer(k: int, theta: float) -> bool:
    """True when every root is a normal double, so exit 3 is not acceptable."""
    logs = [log_symmetric_root(k, theta), *(log_asymmetric_root(k, theta) or ())]
    return all(abs(u) <= REPRESENTABLE_LOG for u in logs)


def residual(k: int, theta: float, z1: float, z2: float) -> float:
    """max_i |z_i - rhs_i| / max(1, z_i), the right-hand side taken in logs."""
    log_base = math.log(theta) + math.log(z1 + z2)
    worst = 0.0
    for z in (z1, z2):
        log_rhs = k * (math.log(theta + z) - log_base)
        if z >= 1.0:
            diff = abs(-math.expm1(log_rhs - math.log(z)))
        else:
            diff = abs(z - math.exp(min(log_rhs, 700.0)))
        worst = max(worst, diff)
    return worst


def symmetric_spectrum(k: int, theta: float, z: float) -> dict:
    """Closed-form spectral and certificate quantities of the symmetric law."""
    s1 = z / (z + theta)
    s2 = -theta / (z + theta)
    lam = max(s1, -s2)
    return {
        "s1": s1,
        "s2": s2,
        "lambda2": lam,
        "ks_value": k * lam * lam,
        "kappa": lam,
        "gamma": lam,
        "product": k * lam * lam,
    }


def nonunit_eigen_sum_product(theta: float, z1: float, z2: float) -> tuple:
    """(s1 + s2, s1 s2) of the descent chain's two non-unit eigenvalues, by
    Vieta's formulas: trace = 1 + s1 + s2 and det = s1 s2."""
    p = (
        (z2 / (z2 + theta), theta / (z2 + theta), 0.0),
        (z2 / (z1 + z2), 0.0, z1 / (z1 + z2)),
        (0.0, theta / (z1 + theta), z1 / (z1 + theta)),
    )
    trace = p[0][0] + p[1][1] + p[2][2]
    det = (
        p[0][0] * (p[1][1] * p[2][2] - p[1][2] * p[2][1])
        - p[0][1] * (p[1][0] * p[2][2] - p[1][2] * p[2][0])
    )
    return trace - 1.0, det


def consistency_defect(k: int, theta: float, z1: float, z2: float) -> float:
    """Depth-1 versus depth-2 marginal defect on the order-k half-tree.

    The depth-2 measure marginalised onto the depth-1 ball weighs each leaf
    spin s by W(s)^k, W(s) = sum_j a(s, j) theta^((s-j)^2) z(j), instead of
    by the boundary field z(s); the defect is the largest absolute
    difference of the two normalised measures over admissible
    configurations of the ball.  Computed by transfer sums, not by
    enumerating the depth-2 tree.
    """
    z = {-1: z2, 0: 1.0, 1: z1}
    field = {
        s: sum(WAND[s + 1][j + 1] * theta ** ((s - j) ** 2) * z[j] for j in SPINS)
        for s in SPINS
    }
    small, big = {}, {}
    for root in SPINS:
        leaf_spins = [j for j in SPINS if WAND[root + 1][j + 1]]
        configs = [()]
        for _ in range(k):
            configs = [c + (s,) for c in configs for s in leaf_spins]
        for leaves in configs:
            energy = sum((root - s) ** 2 for s in leaves)
            base = theta ** energy
            small[(root,) + leaves] = base * math.prod(z[s] for s in leaves)
            big[(root,) + leaves] = base * math.prod(field[s] ** k for s in leaves)
    small_total = math.fsum(small.values())
    big_total = math.fsum(big.values())
    return max(abs(small[c] / small_total - big[c] / big_total) for c in small)
