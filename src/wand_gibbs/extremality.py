"""Extremality certificate for the symmetric measure via the contraction
quantities kappa and gamma.

kappa is half the maximal total-variation distance between rows of the
descent chain's transition matrix; for the symmetric law it collapses to
z/(z+theta) when 0 < theta < 1 and theta/(z+theta) when theta >= 1, i.e.
max(z, theta)/(z+theta).

gamma is bounded through the conditional spin distributions at a vertex
given its ancestor's spin.  With free-measure weights (p0, p1 = 1 - p0) on
the {same-sign, zero} alternative, the three conditionals are

    ancestor -1:  (A, 1-A, 0)
    ancestor  0:  (1/2, 0, 1/2)        A = z p0 / (z p0 + theta p1)
    ancestor +1:  (0, 1-A, A)

and the worst pairwise coordinate discrepancy is exactly max(A, 1-A): the
nine differences form the multiset {A, A, 0, 1-A, 1-A, 1/2, 1/2, |A-1/2|,
|A-1/2|}, each member of which is dominated by max(A, 1-A).  The bound is
minimal (= 1/2) at p0 = theta/(z+theta) and degenerates to 1 only at
p0 in {0, 1}, which is why those endpoints are rejected.

The certificate fires when k * kappa * gamma < 1 (strict).  Since gamma is
an upper bound, a certificate that does not fire never asserts
non-extremality.  The product analysis is specific to k = 3; other orders
are computed all the same but flagged exploratory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import BoundaryLaw, ModelParams
from .rootfind import bisect, sign_change_brackets, NoBracketError
from .solver import solve_symmetric

__all__ = [
    "ExtremalityReport",
    "kappa",
    "gamma_bound",
    "extremality_certificate",
    "msw_gap",
    "msw_threshold_pair",
    "extremality_thresholds_k3",
]


def _require_symmetric(law: BoundaryLaw, what: str) -> float:
    if abs(law.z1 - law.z2) > 1e-12 * max(law.z1, law.z2):
        raise ValueError(f"{what} is derived for the symmetric law only, got {law!r}")
    return law.z1


def kappa(law: BoundaryLaw, theta: float) -> float:
    """The row-contraction coefficient for a symmetric law.

    Piecewise closed form: z/(z+theta) for 0 < theta < 1, theta/(z+theta)
    for theta >= 1.  Asymmetric laws are rejected.
    """
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    z = _require_symmetric(law, "kappa")
    if theta < 1.0:
        return z / (z + theta)
    return theta / (z + theta)


def gamma_bound(p0: float, law: BoundaryLaw, theta: float) -> float:
    """Upper bound on gamma at mixing weight ``p0`` for a symmetric law.

    Case split at p0 = theta/(z+theta):
        p0 >= theta/(z+theta):  z p0 / ((z-theta) p0 + theta)
        p0 <= theta/(z+theta):  theta (1-p0) / ((z-theta) p0 + theta)
    Both expressions equal 1/2 at the boundary; the shared denominator is
    positive for all z, theta > 0 and p0 in [0, 1].
    """
    p0 = float(p0)
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"p0 must lie strictly inside (0, 1), got {p0!r}")
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    z = _require_symmetric(law, "the gamma bound")
    den = (z - theta) * p0 + theta
    if p0 >= theta / (z + theta):
        return z * p0 / den
    return theta * (1.0 - p0) / den


@dataclass(frozen=True)
class ExtremalityReport:
    """Certificate quantities at one (k, theta): product = k * kappa * gamma.

    ``exploratory`` marks orders other than k = 3, where the certificate is
    computed but carries no proven claim.
    """

    kappa: float
    gamma_bound: float
    product: float
    p0_used: float
    exploratory: bool

    @property
    def fires(self) -> bool:
        return self.product < 1.0


def extremality_certificate(params: ModelParams, p0: float = 0.5) -> ExtremalityReport:
    """Evaluate the k * kappa * gamma < 1 certificate on the symmetric law.

    ``p0`` defaults to 1/2, the unique choice whose certified interval
    meets the non-extremality intervals; other values are accepted for
    exploration but give weaker certificates.
    """
    law = solve_symmetric(params)
    kap = kappa(law, params.theta)
    gam = gamma_bound(p0, law, params.theta)
    return ExtremalityReport(
        kappa=kap,
        gamma_bound=gam,
        product=params.k * kap * gam,
        p0_used=float(p0),
        exploratory=params.k != 3,
    )


def msw_gap(k: int, theta: float, p0: float = 0.5) -> float:
    """k * kappa * gamma - 1 on the symmetric law at (k, theta)."""
    law = solve_symmetric(ModelParams(k, theta))
    return k * kappa(law, theta) * gamma_bound(p0, law, theta) - 1.0


def msw_threshold_pair(k: int, p0: float = 0.5, scan_lo: float = 1e-3,
                       scan_hi: float = 1e3, points: int = 500,
                       xtol: float = 1e-8) -> tuple:
    """Activities where the certificate product crosses 1, one per side of 1.

    Pre-scans a log-uniform grid and bisects each bracket to ``xtol``.
    Raises NoBracketError when a side shows no crossing.
    """

    def gap(theta: float) -> float:
        return msw_gap(k, theta, p0)

    low = sign_change_brackets(gap, scan_lo, 1.0, points)
    high = sign_change_brackets(gap, 1.0, scan_hi, points)
    if not low or not high:
        raise NoBracketError(
            f"no certificate crossing bracketed on ({scan_lo}, {scan_hi}) at k={k}"
        )
    lower = low[0][0] if low[0][0] == low[0][1] else bisect(gap, *low[0], xtol)
    upper = high[0][0] if high[0][0] == high[0][1] else bisect(gap, *high[0], xtol)
    return lower, upper


def extremality_thresholds_k3(p0: float = 0.5) -> tuple:
    """The k = 3 certified-extremality window, approximately (0.83, 1.226)."""
    return msw_threshold_pair(3, p0)
