"""Fixed-point machinery for translation-invariant boundary laws.

Translation-invariant splitting Gibbs measures of the constrained model
correspond to positive solutions of the two-component fixed-point system

    z1 = ((theta + z1) / (theta * (z1 + z2)))**k
    z2 = ((theta + z2) / (theta * (z1 + z2)))**k        (wand graph)

or, for a generic constraint graph with adjacency a_ij and the convention
z(-1) = z2, z(0) = 1, z(+1) = z1,

    z_i = ( sum_j a_ij theta^((i-j)^2) z_j  /  sum_j a_0j theta^(j^2) z_j )**k.

The symmetric root z1 = z2 = z* always exists and is unique: the gain map
f(z) = ((theta+z)/(2 theta z))**k is strictly decreasing, so z - f(z) has a
single sign change and bracketed bisection is unconditionally convergent.

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
to the swap; it is found by bisecting s on ln theta(s), evaluated with
expm1/log1p so that no intermediate overflows.  Roots are certified by their
residual, never by iteration count alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    DEFAULT_RESIDUAL_TOL,
    BoundaryLaw,
    InteractionGraph,
    ModelParams,
    wand_graph,
)

__all__ = [
    "SolverError",
    "DegenerateDenominatorError",
    "IterationFailureError",
    "QuarticDomainError",
    "TisgmSet",
    "rhs_general",
    "boundary_law",
    "symmetric_gain",
    "solve_symmetric",
    "solve_ferrari_k3",
    "theta_critical",
    "find_asymmetric",
    "tisgm_set",
]


class SolverError(RuntimeError):
    """Base class for fixed-point solver failures."""


class DegenerateDenominatorError(SolverError):
    """The 0-spin field sum vanished, so the fixed-point map is undefined."""


class IterationFailureError(SolverError):
    """An iteration or bracket-expansion budget was exhausted."""


class QuarticDomainError(SolverError):
    """A radicand in the closed-form quartic solution went negative."""


_WAND = wand_graph()

#: largest |ln z| for which z is a normal double
_LOG_RANGE = 708.0


def _field_sums(graph: InteractionGraph, theta: float, z1: float, z2: float) -> tuple:
    """Per-spin field sums (w_minus, w_zero, w_plus).

    w_i = sum_j a_ij theta^((i-j)^2) z_j with z = (z2, 1, z1) in spin order.
    """
    a = graph.adjacency
    # index distance d = |i - j| maps to spin difference d, exponent d^2
    pows = (1.0, theta, theta ** 4)
    z = (z2, 1.0, z1)
    return tuple(
        sum(a[i][j] * pows[abs(i - j)] * z[j] for j in range(3))
        for i in range(3)
    )


def _rhs(z1: float, z2: float, k: int, theta: float, graph: InteractionGraph) -> tuple:
    w_minus, w_zero, w_plus = _field_sums(graph, theta, z1, z2)
    if w_zero == 0.0:
        raise DegenerateDenominatorError(
            "the 0-spin field sum a(0,-1)*theta*z2 + a(0,0) + a(0,1)*theta*z1 is zero"
        )
    return (w_plus / w_zero) ** k, (w_minus / w_zero) ** k


def _residual(z1: float, z2: float, k: int, theta: float, graph: InteractionGraph) -> float:
    r1, r2 = _rhs(z1, z2, k, theta, graph)
    return max(abs(z1 - r1) / max(1.0, z1), abs(z2 - r2) / max(1.0, z2))


def rhs_general(law: BoundaryLaw, params: ModelParams, graph: InteractionGraph | None = None) -> tuple:
    """Right-hand sides of the fixed-point system at ``law`` for a generic graph.

    Returns the pair (rhs for z1, rhs for z2) under the translation-invariant
    ansatz, i.e. the per-successor field ratio raised to the k-th power.
    Raises DegenerateDenominatorError when the 0-spin field sum vanishes.
    """
    graph = _WAND if graph is None else graph
    return _rhs(law.z1, law.z2, params.k, params.theta, graph)


def boundary_law(z1: float, z2: float, params: ModelParams,
                 graph: InteractionGraph | None = None) -> BoundaryLaw:
    """A BoundaryLaw carrying the fixed-point residual evaluated at (z1, z2)."""
    graph = _WAND if graph is None else graph
    return BoundaryLaw(z1, z2, _residual(float(z1), float(z2), params.k, params.theta, graph))


def symmetric_gain(z: float, params: ModelParams) -> float:
    """The symmetric gain map f(z) = ((theta + z) / (2 theta z))**k."""
    if z <= 0.0:
        raise ValueError("z must be positive")
    theta = params.theta
    return ((theta + z) / (2.0 * theta * z)) ** params.k


def solve_symmetric(params: ModelParams, tol: float = DEFAULT_RESIDUAL_TOL) -> BoundaryLaw:
    """The unique symmetric root z1 = z2 = z* of the fixed-point system.

    Bisects the strictly increasing log-gap
        d(z) = (1+k) ln z + k ln(2 theta) - k ln(theta + z),
    whose zero is the fixed point of f; working with logs keeps the bracket
    expansion overflow-free even when z* is astronomically large (theta -> 0).
    The bracket starts at [1e-12, 1] and the upper end doubles until the gap
    turns positive (at most 200 doublings); bisection then runs to relative
    width 1e-15.  An exact zero hit is returned as-is, which in particular
    yields z* = 1.0 exactly at theta = 1.
    """
    k, theta = params.k, params.theta
    log_2theta = math.log(2.0 * theta)

    def gap(z: float) -> float:
        return (1.0 + k) * math.log(z) + k * log_2theta - k * math.log(theta + z)

    lo = 1e-12
    shrinks = 0
    glo = gap(lo)
    while glo > 0.0:
        # cannot occur for valid params (f blows up at 0); defensive
        lo *= 0.5
        shrinks += 1
        if shrinks > 200:
            raise IterationFailureError("lower bracket shrink exceeded 200 halvings")
        glo = gap(lo)
    if glo == 0.0:
        z = lo
    else:
        hi = 1.0
        ghi = gap(hi)
        doublings = 0
        while ghi < 0.0:
            hi *= 2.0
            doublings += 1
            if doublings > 200:
                raise IterationFailureError("bracket expansion exceeded 200 doublings")
            ghi = gap(hi)
        if ghi == 0.0:
            z = hi
        else:
            for _ in range(200):
                if hi - lo <= 1e-15 * hi:
                    break
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                gmid = gap(mid)
                if gmid == 0.0:
                    lo = hi = mid
                    break
                if gmid > 0.0:
                    hi = mid
                else:
                    lo = mid
            z = 0.5 * (lo + hi)

    residual = abs(z - symmetric_gain(z, params)) / max(1.0, z)
    if residual > tol:
        raise IterationFailureError(
            f"symmetric root residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    return BoundaryLaw(z, z, residual)


def _log_theta_critical(k: int) -> float:
    return (k * math.log(k) + math.log(k - 1) - k * math.log(2.0)) / (k + 1)


def theta_critical(k: int) -> float:
    """Critical activity (k^k (k-1) / 2^k)^(1/(k+1)), computed in logs so
    that it stays finite for every k; below it three translation-invariant
    measures exist, at or above it exactly one."""
    if isinstance(k, bool) or int(k) != k or k < 2:
        raise ValueError(f"tree order k must be an integer >= 2, got {k!r}")
    return math.exp(_log_theta_critical(int(k)))


def _sqrt_clamped(x: float, what: str) -> float:
    # tiny negatives are rounding noise; anything beyond -1e-12 signals a
    # transcription error in the closed form
    if x < 0.0:
        if x < -1e-12:
            raise QuarticDomainError(f"negative radicand {x!r} in {what}")
        x = 0.0
    return math.sqrt(x)


def solve_ferrari_k3(theta: float) -> float:
    """Closed-form symmetric root at k = 3 via Ferrari's quartic resolution.

    The k = 3 symmetric fixed point is equivalent to the quartic
    8 theta^3 z^4 = (theta + z)^3; its unique positive root is

        z = ( sqrt(A) + 1/(16 theta^3)
              + sqrt( (sqrt(A) + 1/(16 theta^3))^2 - 4 (y/2 - sqrt(C)) ) ) / 2

    with resolvent intermediates

        w = cbrt( 108 theta^4 + 12 sqrt(6144 theta^12 + 81 theta^8) )
        y = ( w/24 - 4 theta^4 / w - 1/8 ) / theta^2
        A = 1/(256 theta^6) + 3/(8 theta^2) + y
        C = y^2/4 + 1/8.

    All radicands are positive for theta > 0; values dipping below -1e-12
    raise QuarticDomainError, smaller negatives are clamped to zero.
    """
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    t2 = theta * theta
    t3 = t2 * theta
    t4 = t2 * t2
    inner_root = _sqrt_clamped(6144.0 * t4 ** 3 + 81.0 * t4 * t4, "the cube-root argument")
    w = (108.0 * t4 + 12.0 * inner_root) ** (1.0 / 3.0)
    y = (w / 24.0 - 4.0 * t4 / w - 0.125) / t2
    a_val = 1.0 / (256.0 * t3 * t3) + 3.0 / (8.0 * t2) + y
    c_val = 0.25 * y * y + 0.125
    lead = _sqrt_clamped(a_val, "the leading radical") + 1.0 / (16.0 * t3)
    inner = lead * lead - 4.0 * (0.5 * y - _sqrt_clamped(c_val, "the resolvent radical"))
    return 0.5 * (lead + _sqrt_clamped(inner, "the final radical"))


def _branch_log_p_minus_1(k: int, s: float) -> float:
    """ln(P - 1) at t = e^s < 1, where P - 1 = t (1 - t^(k-1)) / (1 - t)."""
    return s + math.log(-math.expm1((k - 1) * s)) - math.log(-math.expm1(s))


def _branch_log_theta(k: int, s: float) -> float:
    """ln theta on the asymmetric branch at s = ln t < 0:
    (k ln P + ln(P - 1) - k ln Q) / (k + 1), strictly increasing in s."""
    log_p = math.log(-math.expm1(k * s)) - math.log(-math.expm1(s))
    log_q = math.log1p(math.exp(k * s))
    return (k * log_p + _branch_log_p_minus_1(k, s) - k * log_q) / (k + 1)


def find_asymmetric(params: ModelParams, tol: float = DEFAULT_RESIDUAL_TOL) -> list:
    """The asymmetric pair as a swap-closed list, ordered by decreasing z1.

    Below the critical activity this returns the two coordinate swaps of
    the unique asymmetric root; at or above it (compared in logs), the
    empty list.  The root is solved on its branch: bisection of s = ln t
    on the increasing function ln theta(s) down to adjacent doubles, then
    z1 = theta / (P - 1) and z2 = e^(k s) z1.  The law is returned only
    when its residual is at most ``tol`` and z2 < z1; otherwise, or when a
    component leaves the range of normal doubles, IterationFailureError is
    raised.
    """
    k, theta = params.k, params.theta
    log_theta = math.log(theta)
    if log_theta >= _log_theta_critical(k):
        return []
    # ln theta(s) <= s/(k+1) - ln(1 - e^s) < s/(k+1) + 0.5 for s <= -1,
    # so ln theta(lo) < ln theta; ln theta(s) -> ln theta_cr as s -> 0-
    lo, hi = min(-1.0, (k + 1) * (log_theta - 0.5)), 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _branch_log_theta(k, mid) < log_theta:
            lo = mid
        else:
            hi = mid
    log_z1 = log_theta - _branch_log_p_minus_1(k, lo)
    log_z2 = log_z1 + k * lo
    if max(abs(log_z1), abs(log_z2)) > _LOG_RANGE:
        raise IterationFailureError(
            f"asymmetric root (ln z1, ln z2) = ({log_z1:.6g}, {log_z2:.6g}) "
            "lies outside the range of normal doubles"
        )
    z1, z2 = math.exp(log_z1), math.exp(log_z2)
    residual = _residual(z1, z2, k, theta, _WAND)
    if not (residual <= tol and z2 < z1):
        raise IterationFailureError(
            f"asymmetric root ({z1!r}, {z2!r}) failed certification: "
            f"residual {residual:.3e}, tolerance {tol:.3e}"
        )
    law = BoundaryLaw(z1, z2, residual)
    return [law, law.swapped()]


@dataclass(frozen=True)
class TisgmSet:
    """The complete translation-invariant solution set at one (k, theta).

    ``symmetric`` is always present; ``asymmetric`` holds the swap pair when
    theta < theta_cr and is empty otherwise, so ``count`` is 1 or 3.
    """

    params: ModelParams
    symmetric: BoundaryLaw
    asymmetric: tuple
    theta_cr: float

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
