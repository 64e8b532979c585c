"""Fixed-point machinery for translation-invariant boundary laws.

Translation-invariant splitting Gibbs measures of the wand model correspond
to positive solutions of the two-component fixed-point system

    z1 = ((theta + z1) / (theta * (z1 + z2)))**k
    z2 = ((theta + z2) / (theta * (z1 + z2)))**k.

Both sides are compared in logs.  The map F_i = k ln((theta + z_i) /
(theta (z1 + z2))) is built from the ratio z_i / (z1 + z2) and log1p terms,
so no power overflows, and a law's residual max |z_i - rhs_i| / max(1, z_i)
is evaluated as min(1, z_i) |expm1(F_i - ln z_i)|.

The symmetric root z1 = z2 = z* always exists and is unique.  In u = ln z
it is the zero of

    h(u) = u - k ln((e^-u + 1/theta) / 2),
    h'(u) = 1 + k e^-u / (e^-u + 1/theta)  in (1, k+1),

and h' decreases in u, so h is increasing and concave.  A Newton step lands
on the zero of the tangent, and the tangent of a concave function lies
above it, so the step lands at or left of the root from any start.  From
u = 0 the first step therefore lands at or left of the root, and every
later step climbs monotonically toward it; the iteration stops when a step
no longer increases u, so it needs neither a bracket nor an iteration cap.
Since z*^(k+1) = ((theta + z*) / (2 theta))^k > 2^-k, the root can leave
the range of doubles only upwards, as theta -> 0.

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
Newton first halves s.  Roots are certified by their residual, never by
iteration count alone.
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
    "boundary_law",
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


def _typed_overflow(entry):
    """Entry-point guard: k beyond float range fails as IterationFailureError."""
    @functools.wraps(entry)
    def guarded(*args, **kwargs):
        try:
            return entry(*args, **kwargs)
        except OverflowError as exc:
            raise IterationFailureError(f"tree order too large for doubles: {exc}") from exc
    return guarded


def _log_rhs(z1: float, z2: float, k: int, theta: float) -> list:
    """[F1, F2], F_i = k ln((theta + z_i) / (theta (z1 + z2))): the logs of
    the fixed-point right-hand sides, free of overflow and of cancellation
    between large logs; [F1] alone when z1 == z2, since F2 would repeat it."""
    big = max(z1, z2)
    q = min(z1, z2) / big
    log_total = math.log(big) + math.log1p(q)  # ln(z1 + z2)
    logs = []
    for z in (z1,) if z1 == z2 else (z1, z2):
        if z <= theta:
            log_ratio = math.log1p(z / theta) - log_total
        else:
            share = z / big / (1.0 + q)  # z / (z1 + z2)
            # far below the normal range the share's log comes from ln z
            log_share = math.log(z) - log_total if share < sys.float_info.min else math.log(share)
            log_ratio = log_share - math.log(theta) + math.log1p(theta / z)
        logs.append(k * log_ratio)
    return logs


def _residual(z1: float, z2: float, k: int, theta: float) -> float:
    """max |z_i - rhs_i| / max(1, z_i), as min(1, z_i) |expm1(F_i - ln z_i)|.

    The exponent is clamped at _LOG_RANGE, so the value is always finite,
    and exact unless a component is subnormal.  Equal components give one
    term, as ``zip`` stops at F1."""
    return max(
        min(1.0, z) * abs(math.expm1(min(log_rhs - math.log(z), _LOG_RANGE)))
        for z, log_rhs in zip((z1, z2), _log_rhs(z1, z2, k, theta))
    )


@_typed_overflow
def boundary_law(z1: float, z2: float, params: ModelParams) -> BoundaryLaw:
    """A BoundaryLaw carrying the fixed-point residual evaluated at (z1, z2)."""
    return BoundaryLaw(z1, z2, _residual(float(z1), float(z2), params.k, params.theta))


@_typed_overflow
def solve_symmetric(params: ModelParams, tol: float = DEFAULT_RESIDUAL_TOL) -> BoundaryLaw:
    """The unique symmetric root z1 = z2 = z* of the fixed-point system.

    Newton's method in u = ln z on the increasing, concave
    h(u) = u - k ln((e^-u + 1/theta) / 2), from u = 0 until a step no longer
    increases u (see the module docstring).  The log-sum is shifted by its
    larger term, so it stays finite at every activity; at theta = 1 the
    first step is exactly 0, which yields z* = 1.0.  Raises
    IterationFailureError when ln z* leaves the range of normal doubles or
    the root's residual exceeds ``tol``.
    """
    k, theta = params.k, params.theta
    log_inv_theta, ln2 = -math.log(theta), math.log(2.0)

    def newton_step(u: float) -> float:
        # ln(e^a + e^b) and e^a / (e^a + e^b) at a = -u, b = ln(1/theta)
        a = -u
        e = math.exp(-abs(a - log_inv_theta))
        log_sum = max(a, log_inv_theta) + math.log1p(e)
        share = (1.0 if a >= log_inv_theta else e) / (1.0 + e)
        return u - (u - k * (log_sum - ln2)) / (1.0 + k * share)

    u, after = -math.inf, newton_step(0.0)
    while after > u:
        u = after
        if abs(u) > _LOG_RANGE:
            raise IterationFailureError(
                f"symmetric root has ln z* beyond {u:.6g}, outside the range of normal doubles"
            )
        after = newton_step(u)
    z = math.exp(u)
    residual = _residual(z, z, k, theta)
    if residual > tol:
        raise IterationFailureError(
            f"symmetric root residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    return BoundaryLaw(z, z, residual)


def _log_theta_critical(k: int) -> float:
    return (k * math.log(k) + math.log(k - 1) - k * math.log(2.0)) / (k + 1)


@_typed_overflow
def theta_critical(k: int) -> float:
    """Critical activity (k^k (k-1) / 2^k)^(1/(k+1)), computed in logs so
    that it stays finite for every k up to the float range; below it three
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
    z2 = e^(k s) z1.  The law is returned only when its residual is at most
    ``tol`` and z2 < z1; otherwise, or when a component leaves the range of
    normal doubles, IterationFailureError is raised.
    """
    k, theta = params.k, params.theta
    log_theta = math.log(theta)
    if log_theta >= _log_theta_critical(k):
        return []
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
    log_z2 = log_z1 + k * s
    if max(abs(log_z1), abs(log_z2)) > _LOG_RANGE:
        raise IterationFailureError(
            f"asymmetric root (ln z1, ln z2) = ({log_z1:.6g}, {log_z2:.6g}) "
            "lies outside the range of normal doubles"
        )
    z1, z2 = math.exp(log_z1), math.exp(log_z2)
    residual = _residual(z1, z2, k, theta)
    if not (residual <= tol and z2 < z1):
        raise IterationFailureError(
            f"asymmetric root ({z1!r}, {z2!r}) failed certification: "
            f"residual {residual:.3e}, tolerance {tol:.3e}"
        )
    law = BoundaryLaw(z1, z2, residual)
    return [law, law.swapped()]


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
