"""Independent oracles for the asymmetric pair.

The library solves the asymmetric pair on its explicit branch in s = ln t
by safeguarded Newton (``solver.find_asymmetric``).  This module keeps two
searches that share none of that iteration:

- ``asymmetric_log_roots``: plain bisection of s on ln theta(s), run to
  adjacent doubles, with its own evaluation of the branch;
- ``newton_asymmetric``: a multi-seeded 2-D Newton search on the
  fixed-point system that never uses the branch, so that the tests can
  locate the pair, and the bifurcation onset, without the closed form:
  damped Newton iteration in log coordinates with analytic Jacobian,
  seeded around the symmetric root and at the residual minima of a coarse
  log-log grid.  Roots are certified by their residual.

``symmetric_gain`` is the fixed-point map restricted to z1 = z2, evaluated
as written (no logs), for the tests of the symmetric root and the residual.
``symmetric_climb`` is the library's symmetric Newton climb as it was written
with a function call per step: the reference that ``solver._symmetric_root``
must equal bit for bit.
``boundary_law`` attaches the library's residual to any positive pair, so
that a test can certify a root it found, or build a law that is not one.
"""

from __future__ import annotations

import math

from wand_gibbs.model import DEFAULT_RESIDUAL_TOL, BoundaryLaw, ModelParams
from wand_gibbs.chain import NoBracketError
from wand_gibbs.scan import theta_grid
from wand_gibbs.solver import _SYMMETRIC_STEPS, _residual, solve_symmetric

#: relative separation below which a root counts as the symmetric one
ASYM_SEPARATION = 1e-7

#: relative distance below which two roots are deduplicated
DEDUP_TOL = 1e-8


def symmetric_gain(z: float, params: ModelParams) -> float:
    """The symmetric gain map f(z) = ((theta + z) / (2 theta z))**k."""
    if z <= 0.0:
        raise ValueError("z must be positive")
    theta = params.theta
    return ((theta + z) / (2.0 * theta * z)) ** params.k


def symmetric_climb(k: int, log_theta: float) -> tuple:
    """(u, steps): the last u = ln z of Newton's climb on
    h(u) = u - k ln((e^-u + 1/theta) / 2) from u = 0, and the steps it took,
    stopping when a step no longer increases u or after _SYMMETRIC_STEPS."""
    log_inv_theta, ln2 = -log_theta, math.log(2.0)

    def newton_step(u: float) -> float:
        # ln(e^a + e^b) and e^a / (e^a + e^b) at a = -u, b = ln(1/theta)
        a = -u
        e = math.exp(-abs(a - log_inv_theta))
        log_sum = max(a, log_inv_theta) + math.log1p(e)
        share = (1.0 if a >= log_inv_theta else e) / (1.0 + e)
        return u - (u - k * (log_sum - ln2)) / (1.0 + k * share)

    u, after, steps = -math.inf, newton_step(0.0), 0
    while after > u and steps < _SYMMETRIC_STEPS:
        u, steps = after, steps + 1
        after = newton_step(u)
    return u, steps


def boundary_law(z1: float, z2: float, params: ModelParams) -> BoundaryLaw:
    """A BoundaryLaw carrying the fixed-point residual evaluated at (z1, z2)."""
    z1, z2, _ = BoundaryLaw(z1, z2)  # the law's own checks come before any arithmetic
    return BoundaryLaw(z1, z2, _residual(z1, z2, params.k, params.theta))


def bisect_increasing(fn, lo, hi):
    """Last point of [lo, hi] where the increasing ``fn`` is negative,
    bisected down to adjacent doubles."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def branch_logs(k, s):
    """(ln theta, ln(P - 1)) on the asymmetric branch at s = ln t < 0,
    where theta^(k+1) = P^k (P - 1) / Q^k, P = sum_{j<k} t^j, Q = 1 + t^k."""
    log_one_minus_t = math.log(-math.expm1(s))
    log_p = math.log(-math.expm1(k * s)) - log_one_minus_t
    log_p_minus_1 = s + math.log(-math.expm1((k - 1) * s)) - log_one_minus_t
    log_q = math.log1p(math.exp(k * s))
    return (k * log_p + log_p_minus_1 - k * log_q) / (k + 1), log_p_minus_1


def asymmetric_log_roots(k, log_theta):
    """(ln z1, ln z2) of the representative with z1 > z2, for ln theta
    below ln theta_cr: bisection of s on the increasing ln theta(s).

    ln theta(s) < s/(k+1) + 0.5 for s <= -1, so the bracket starts at
    min(-1, (k+1)(ln theta - 0.5))."""
    lo = min(-1.0, (k + 1) * (log_theta - 0.5))
    s = bisect_increasing(lambda x: branch_logs(k, x)[0] - log_theta, lo, 0.0)
    log_z1 = log_theta - branch_logs(k, s)[1]
    return log_z1, log_z1 + k * s


def _log_defect(u, v, k, theta):
    """max(|G1|, |G2|) for the log system G_i = ln z_i - ln rhs_i.

    The components of the fixed-point system span enormous dynamic ranges
    (roots near 1e-8 coexist with roots near 1e4), so the iteration and its
    merit function live in log coordinates, where everything is O(1)."""
    g1, g2, *_ = _log_system(u, v, k, theta)
    return max(abs(g1), abs(g2))


def _log_system(u, v, k, theta):
    """Log-system values and analytic Jacobian at (u, v) = (ln z1, ln z2).

    On the wand graph the field sums are theta + z1 (spin +1), theta + z2
    (spin -1) and theta (z1 + z2) (spin 0)."""
    z1, z2 = math.exp(u), math.exp(v)
    total = z1 + z2
    log_zero = math.log(theta * total)
    g1 = u - k * (math.log(theta + z1) - log_zero)
    g2 = v - k * (math.log(theta + z2) - log_zero)
    j11 = 1.0 - k * (z1 / (theta + z1) - z1 / total)
    j12 = k * z2 / total
    j21 = k * z1 / total
    j22 = 1.0 - k * (z2 / (theta + z2) - z2 / total)
    return g1, g2, j11, j12, j21, j22


def _newton_root(z1, z2, k, theta, max_iter=100):
    """Damped Newton from one seed, in log coordinates.

    Returns (z1, z2) at the best point reached, or None when the Jacobian
    turned singular."""
    u, v = math.log(z1), math.log(z2)
    for _ in range(max_iter):
        g1, g2, j11, j12, j21, j22 = _log_system(u, v, k, theta)
        err = max(abs(g1), abs(g2))
        if err <= 1e-14:
            break
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            return None
        du = (-g1 * j22 + g2 * j12) / det
        dv = (-g2 * j11 + g1 * j21) / det
        # cap the log step so exp() stays finite on wild early iterations
        width = max(abs(du), abs(dv))
        if width > 60.0:
            du *= 60.0 / width
            dv *= 60.0 / width
        lam = 1.0
        improved = False
        for _halving in range(60):
            if _log_defect(u + lam * du, v + lam * dv, k, theta) < err:
                u, v = u + lam * du, v + lam * dv
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    return math.exp(u), math.exp(v)


def _grid_seeds(k, theta, z_star, points=40, keep=8):
    """Local minima of the log defect on a points x points log-log grid."""
    lo = 1e-6 * min(1.0, z_star, theta)
    hi = 1e4 * max(1.0, z_star, 1.0 / theta)
    us = [math.log(x) for x in theta_grid(lo, hi, points, "log")]
    defect = [[_log_defect(u, v, k, theta) for v in us] for u in us]
    seeds = []
    for i in range(1, points - 1):
        for j in range(1, points - 1):
            d = defect[i][j]
            if all(
                d < defect[i + di][j + dj]
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
                if (di, dj) != (0, 0)
            ):
                seeds.append((d, math.exp(us[i]), math.exp(us[j])))
    seeds.sort()
    return [(x, y) for _, x, y in seeds[:keep]]


def _relative_distance(a, b):
    return max(
        abs(a.z1 - b.z1) / max(a.z1, b.z1),
        abs(a.z2 - b.z2) / max(a.z2, b.z2),
    )


def newton_asymmetric(params: ModelParams, tol: float = DEFAULT_RESIDUAL_TOL) -> list:
    """Every residual-certified root with z1 != z2 that the seeded search
    reaches, swap-closed, deduplicated and ordered by decreasing z1.

    Roots closer than 1e-7 relatively to the diagonal count as the
    symmetric one.  The search can miss the pair where the seeds land
    badly (very small theta, large k); the tests use it only where it
    finds the pair."""
    k, theta = params.k, params.theta
    z_star = solve_symmetric(params).z1
    seeds = []
    for delta in (0.1, 0.5, 0.9):
        seeds.append((z_star * (1.0 + delta), z_star * (1.0 - delta)))
        seeds.append((z_star * (1.0 - delta), z_star * (1.0 + delta)))
    seeds.extend(_grid_seeds(k, theta, z_star))

    roots = []
    for seed in seeds:
        out = _newton_root(seed[0], seed[1], k, theta)
        if out is None:
            continue
        law = boundary_law(out[0], out[1], params)
        if law.residual <= tol:
            roots.extend((law, law.swapped()))
    asymmetric = sorted(
        (law for law in roots if abs(law.z1 - law.z2) > ASYM_SEPARATION * max(law.z1, law.z2)),
        key=lambda law: (-law.z1, -law.z2),
    )
    unique: list[BoundaryLaw] = []
    for cand in asymmetric:
        if all(_relative_distance(cand, kept) > DEDUP_TOL for kept in unique):
            unique.append(cand)
    return unique


def detect_bifurcation_onset(k: int, theta_lo: float = 0.05, theta_hi: float = 10.0,
                             xtol: float = 1e-7, points: int = 33) -> float:
    """Empirical onset of the asymmetric pair, located without the closed form.

    Scans a log grid for the activity where ``newton_asymmetric`` switches
    from two roots to none, then bisects the predicate to ``xtol``.  Raises
    NoBracketError when the pair exists everywhere or nowhere on the scan.
    """

    def has_pair(theta: float) -> bool:
        return len(newton_asymmetric(ModelParams(k, theta))) >= 2

    xs = theta_grid(theta_lo, theta_hi, points, "log")
    flags = [has_pair(x) for x in xs]
    bracket = None
    for i in range(points - 1):
        if flags[i] and not flags[i + 1]:
            bracket = (xs[i], xs[i + 1])
    if bracket is None:
        raise NoBracketError(
            f"no onset of asymmetric solutions on ({theta_lo}, {theta_hi}) at k={k}"
        )
    lo, hi = bracket
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if has_pair(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
