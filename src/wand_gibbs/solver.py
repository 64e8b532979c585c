"""Fixed-point machinery for translation-invariant boundary laws.

Translation-invariant splitting Gibbs measures of the wand model correspond
to positive solutions of the two-component fixed-point system

    z1 = ((theta + z1) / (theta * (z1 + z2)))**k
    z2 = ((theta + z2) / (theta * (z1 + z2)))**k.

Both sides are compared in logs.  A law's residual max |z_i - rhs_i| /
max(1, z_i) is evaluated in one pass over the components as
min(1, z_i) |expm1(F_i - ln z_i)|, where F_i = k ln((theta + z_i) /
(theta (z1 + z2))) is formed in place from the ratio z_i / (z1 + z2) and
log1p terms, so no power overflows; equal components take one term.

The symmetric root z1 = z2 = z* always exists and is unique.  In u = ln z
it is the zero of

    h(u) = u - k ln((e^-u + 1/theta) / 2),
    h'(u) = 1 + k e^-u / (e^-u + 1/theta)  in (1, k+1),

and h' decreases in u, so h is increasing and concave.  A Newton step lands
on the zero of the tangent, and the tangent of a concave function lies
above it, so the step lands at or left of the root from any start.  From
u = 0 the first step therefore lands at or left of the root, and every
later step climbs monotonically toward it; the iteration stops when a step
no longer increases u, so it needs no bracket.  Next to theta = 1 the
rounding noise of k ln((e^-u + 1/theta) / 2), about k eps, keeps the steps
rising past the root for about 0.69 k steps (69,316 at k = 10^5), so the
climb stops after _SYMMETRIC_STEPS steps; elsewhere it took at most 11
(200,000 draws, k up to 10^12, theta = 10^U(-300, 300)).
Since z*^(k+1) = ((theta + z*) / (2 theta))^k > 2^-k, z* leaves the doubles
only upwards (theta -> 0), and the rising climb range-checks its last u.

Every asymmetric root lies on one explicit branch.  Put x_i = z_i^(1/k),
t = x2/x1, P(t) = sum_{j<k} t^j and Q(t) = 1 + t^k.  The k-th roots of the
two equations, x_i = (theta + z_i) / (theta (z1 + z2)), differ by
(z1 - z2) / (theta (z1 + z2)), so theta (z1 + z2) = x1^(k-1) P; substituting
back gives

    theta^(k+1) = P^k (P - 1) / Q^k,    z1 = theta / (P - 1),    z2 = t^k z1.

The representative with z1 > z2 has t in (0, 1).  In s = ln t < 0,

    (k+1) d(ln theta)/ds = N_k(t) / ((1 - t)(1 - t^(k-1))(1 - t^(2k))),
    N_k(t) = (1 + k t)(1 - t^(k-1))(1 - t^(2k))
             - (k-1) t^(k-1) (1 - t)(1 - t^(2k)) - 2 k^2 t^k (1 - t)(1 - t^(k-1)).

N_k = (1 - t)^4 R_k with R_k palindromic of degree 3k - 4.  For n < k - 1
its coefficient of t^n is C(n+3, 3) + k C(n+2, 3); for k - 1 <= n <= (3k-4)/2
the terms - k C(m+4, 3) - C(m+3, 3) - k^2 (m+1)(m+2), m = n - k, join them,
and with m = mu - 1, k = 2 mu + 2 + d the sum is a polynomial in mu, d >= 0
with positive coefficients.  So R_k > 0 on (0, 1) and ln theta(s) is
strictly increasing, from -inf as s -> -inf to ln theta_cr as s -> 0-, with

    theta_cr(k) = (k^k (k-1) / 2^k)^(1/(k+1)).

The asymmetric pair therefore exists exactly below theta_cr and is unique up
to the swap.  It is the zero of g(s) = (k+1) (ln theta(s) - ln theta), found
by safeguarded Newton in s.  With D_m = d/ds ln(1 - t^m) = -m t^m / (1 - t^m),

    g'(s) = k (D_k - D_1) + 1 + D_(k-1) - D_1 - k^2 t^k / (1 + t^k),

built from the same expm1 terms as g, so that no intermediate overflows.
Newton alone is not monotone here: g is convex as s -> -inf, where
(k+1) ln theta ~ s + (k+1) e^s, and concave near 0-, where g' -> 0.  So the
iteration keeps the sign bracket [lo, 0) with g(lo) < 0 and takes the
midpoint whenever a Newton step leaves it.  Every evaluation lies strictly
inside the bracket and replaces one of its ends, so the bracket loses at
least one double per evaluation and the iteration terminates; it stops
earlier when |g| is below the rounding error of its terms, or when a Newton
step is at most a few ulps.  From the start min(lo/2, (k+1) ln theta), the
far-field root, it takes ~4 evaluations on the k = 3 scan grid (at most 8).
In 20,000 draws with k in [2, 256], 30% of them within 1e-12..1e-1 of
theta_cr and the rest log-uniform on [1e-300, theta_cr), it took ~1 far
from theta_cr (at most 12) and at most 32 near it, where g' vanishes and
Newton first halves s.  The kernels _symmetric_root and _asymmetric_root
run both searches on plain numbers; solve_symmetric and find_asymmetric are
wrappers over them, and scan.scan_row calls them.  Each root is certified in
one place, _certified_law: by range and residual, never by iteration count.
"""

from __future__ import annotations

import functools
import math
import sys

from .model import DEFAULT_RESIDUAL_TOL, BoundaryLaw, ModelParams, _value_type, tree_order

__all__ = [
    "SolverError",
    "IterationFailureError",
    "TisgmSet",
    "solve_symmetric",
    "theta_critical",
    "find_asymmetric",
    "tisgm_set",
]


class SolverError(RuntimeError):
    """Base class for fixed-point solver failures."""


class IterationFailureError(SolverError):
    """A root left the range of doubles or failed its certificate."""


#: largest |ln z| for which z is a normal double
_LOG_RANGE = 708.0

#: most Newton steps of the symmetric climb (the stall near theta = 1, module docstring)
_SYMMETRIC_STEPS = 64


def _typed_overflow(entry):
    """Entry-point guard: k beyond float range fails as IterationFailureError."""
    @functools.wraps(entry)
    def guarded(*args, **kwargs):
        try:
            return entry(*args, **kwargs)
        except OverflowError as exc:
            raise IterationFailureError(f"tree order too large for doubles: {exc}") from exc
    return guarded


def _residual(z1: float, z2: float, k: int, theta: float) -> float:
    """max |z_i - rhs_i| / max(1, z_i), as min(1, z_i) |expm1(F_i - ln z_i)|
    with F_i = k ln((theta + z_i) / (theta (z1 + z2))), the log of the
    right-hand side, free of overflow and of cancellation between large logs.

    The exponent is clamped at _LOG_RANGE, so the value is always finite,
    and exact unless a component is subnormal.  Equal components give one
    term, since the second would repeat the first."""
    big = max(z1, z2)
    q = min(z1, z2) / big
    log_total = math.log(big) + math.log1p(q)  # ln(z1 + z2)
    worst = None
    for z in (z1,) if z1 == z2 else (z1, z2):
        if z <= theta:
            log_ratio = math.log1p(z / theta) - log_total
        else:
            share = z / big / (1.0 + q)  # z / (z1 + z2)
            # far below the normal range the share's log comes from ln z
            log_share = math.log(z) - log_total if share < sys.float_info.min else math.log(share)
            log_ratio = log_share - math.log(theta) + math.log1p(theta / z)
        term = min(1.0, z) * abs(math.expm1(min(k * log_ratio - math.log(z), _LOG_RANGE)))
        if worst is None or term > worst:  # max(): the first of equal or unordered terms
            worst = term
    return worst


def _certified_law(log_z1: float, log_z2: float, k: int, theta: float, tol: float) -> BoundaryLaw:
    """The law (e^log_z1, e^log_z2) with its residual, the one way a solver
    root becomes an answer: IterationFailureError when a log lies beyond
    _LOG_RANGE (no normal double) or the residual is not at most ``tol``."""
    if max(abs(log_z1), abs(log_z2)) > _LOG_RANGE:
        raise IterationFailureError(f"root (ln z1, ln z2) = ({log_z1:.6g}, {log_z2:.6g}) "
                                    "lies outside the range of normal doubles")
    z1 = math.exp(log_z1)
    z2 = z1 if log_z2 == log_z1 else math.exp(log_z2)
    residual = _residual(z1, z2, k, theta)
    if not residual <= tol:
        raise IterationFailureError(f"root (z1, z2) = ({z1!r}, {z2!r}) failed certification: "
                                    f"residual {residual:.3e}, tolerance {tol:.3e}")
    return BoundaryLaw(z1, z2, residual)


@_typed_overflow
def solve_symmetric(params: ModelParams, tol: float = DEFAULT_RESIDUAL_TOL) -> BoundaryLaw:
    """The unique symmetric root z1 = z2 = z* of the fixed-point system.

    Newton's method in u = ln z on the increasing, concave
    h(u) = u - k ln((e^-u + 1/theta) / 2), from u = 0 until a step no longer
    increases u, for at most _SYMMETRIC_STEPS steps (see the module
    docstring).  The log-sum is shifted by its larger term, so it stays
    finite at every activity; at theta = 1 the first step is exactly 0,
    which yields z* = 1.0.  ``_certified_law`` takes the last u and raises
    IterationFailureError when z* is not a normal double or fails ``tol``.
    """
    return _symmetric_root(params.k, params.theta, math.log(params.theta), tol)


def _symmetric_root(k: int, theta: float, log_theta: float, tol: float) -> BoundaryLaw:
    log_inv_theta, ln2 = -log_theta, math.log(2.0)
    u, x = -math.inf, 0.0  # the last accepted step, and the point the next step starts from
    for _ in range(_SYMMETRIC_STEPS):
        # ln(e^a + e^b) and e^a / (e^a + e^b) at a = -x, b = ln(1/theta), shifted by max(a, b)
        a = -x
        e = math.exp(-abs(a - log_inv_theta))
        if a >= log_inv_theta:
            log_sum, share = a + math.log1p(e), 1.0 / (1.0 + e)
        else:
            log_sum, share = log_inv_theta + math.log1p(e), e / (1.0 + e)
        after = x - (x - k * (log_sum - ln2)) / (1.0 + k * share)
        if not after > u:
            break
        u = x = after
    return _certified_law(u, u, k, theta, tol)


def _log_theta_critical(k: int) -> float:
    value = (k * math.log(k) + math.log(k - 1) - k * math.log(2.0)) / (k + 1)
    if value == math.inf:  # k ln k overflows from k ~ 2.56e305 on: the same log, divided first
        value = k / (k + 1) * (math.log(k) - math.log(2.0)) + math.log(k - 1) / (k + 1)
    return value


@_typed_overflow
def theta_critical(k: int) -> float:
    """Critical activity (k^k (k-1) / 2^k)^(1/(k+1)), about k / 2 for large
    k, computed in logs so that it stays finite for every k up to the float
    range (a larger k raises IterationFailureError); below it three
    translation-invariant measures exist, at or above it exactly one."""
    return math.exp(_log_theta_critical(tree_order(k)))


def _branch(k: int, s: float) -> tuple:
    """(k+1) ln theta, its slope in s, and ln(P - 1), for z1 = theta / (P - 1),
    on the asymmetric branch at s = ln t < 0: the branch's one evaluator.  The
    value is k ln P + ln(P - 1) - k ln Q; with D_m = d/ds ln(1 - t^m) =
    -m t^m / (1 - t^m), the slope is k (D_k - D_1) + 1 + D_(k-1) - D_1 - k^2 t^k / (1 + t^k)."""
    a1 = -math.expm1(s)  # 1 - t
    ak1 = -math.expm1((k - 1) * s)  # 1 - t^(k-1)
    ak = -math.expm1(k * s)  # 1 - t^k
    tk = math.exp(k * s)
    log_a1 = math.log(a1)
    log_p_minus_1 = s + math.log(ak1) - log_a1
    value = k * (math.log(ak) - log_a1) + log_p_minus_1 - k * math.log1p(tk)
    d1 = (a1 - 1.0) / a1
    slope = (k * (-k * tk / ak - d1) + 1.0 - (k - 1) * (1.0 - ak1) / ak1 - d1
             - float(k) * k * tk / (1.0 + tk))
    return value, slope, log_p_minus_1


@_typed_overflow
def find_asymmetric(params: ModelParams, tol: float = DEFAULT_RESIDUAL_TOL) -> list:
    """The asymmetric pair as a swap-closed list, ordered by decreasing z1.

    Below the critical activity this returns the two coordinate swaps of
    the unique asymmetric root; at or above it (compared in logs), the
    empty list.  The root is solved on its branch: safeguarded Newton in
    s = ln t on g(s) = (k+1) (ln theta(s) - ln theta) inside a sign bracket
    (see the module docstring), then z1 = theta / (P - 1) and
    z2 = e^(k s) z1, certified by ``_certified_law``.  IterationFailureError
    is raised there, or when z2 rounds onto z1.
    """
    log_theta = math.log(params.theta)
    if log_theta >= _log_theta_critical(params.k):
        return []
    return [law := _asymmetric_root(*params, log_theta, tol), law.swapped()]


def _asymmetric_root(k: int, theta: float, log_theta: float, tol: float) -> BoundaryLaw:
    target = (k + 1) * log_theta
    # ln theta(s) <= s/(k+1) - ln(1 - e^s) < s/(k+1) + 0.5 for s <= -1,
    # so g(lo) < 0; ln theta(s) -> ln theta_cr > ln theta as s -> 0-
    lo, hi = min(-1.0, (k + 1) * (log_theta - 0.5)), 0.0
    s = min(0.5 * lo, target)
    # one rounding unit of the terms summed in g: below it the sign of g is noise
    noise = sys.float_info.epsilon * ((k + 1) * math.log(2 * k) + abs(target))
    while True:
        value, slope, log_p_minus_1 = _branch(k, s)
        g = value - target
        if abs(g) <= noise:
            break
        if g < 0.0:
            lo = s
        else:
            hi = s
        step = g / slope if slope > 0.0 else math.inf
        after = s - step
        if not lo < after < hi:
            after = 0.5 * (lo + hi)
            if not lo < after < hi:
                s, log_p_minus_1 = lo, _branch(k, lo)[2]
                break
        elif abs(step) <= 4.0 * math.ulp(s):
            s, log_p_minus_1 = after, _branch(k, after)[2]
            break
        s = after
    log_z1 = log_theta - log_p_minus_1
    law = _certified_law(log_z1, log_z1 + k * s, k, theta, tol)
    if law.symmetric:  # k s < 0, so z2 <= z1: equal only when z2 rounds onto z1
        raise IterationFailureError(f"asymmetric root {law[:2]} rounds onto the symmetric root")
    return law


class TisgmSet(_value_type("TisgmSet", "params symmetric asymmetric theta_cr")):
    """The complete translation-invariant solution set at one (k, theta).

    ``symmetric`` is always present; ``asymmetric`` holds the swap pair when
    theta < theta_cr and is empty otherwise, so ``count`` (which shadows
    ``tuple.count``) is 1 or 3.
    """

    __slots__ = ()

    @property
    def count(self) -> int:
        return 1 + len(self.asymmetric)

    @property
    def laws(self) -> tuple:
        return (self.symmetric,) + self.asymmetric


def tisgm_set(params: ModelParams, tol: float = DEFAULT_RESIDUAL_TOL) -> TisgmSet:
    """Solve for every translation-invariant measure at ``params`` (wand graph)."""
    return TisgmSet(
        params=params,
        symmetric=solve_symmetric(params, tol),
        asymmetric=tuple(find_asymmetric(params, tol=tol)),
        theta_cr=theta_critical(params.k),
    )
