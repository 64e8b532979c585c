"""Extremality of the symmetric measure: the contraction certificate of
Martinelli-Sinclair-Weitz (2007) and why it coincides with the
Kesten-Stigum (1966) criterion of ``chain``.

Martinelli-Sinclair-Weitz prove a measure on the tree extremal when
k * kappa * gamma < 1, with kappa half the largest total-variation
distance between two rows of the descent chain's transition matrix and
gamma the largest coordinate discrepancy between the conditional spin
distributions at a vertex given its ancestor's spin.  Kesten-Stigum prove
it non-extremal when k * lambda2^2 > 1.  For the symmetric law z1 = z2 = z
at activity theta, write a = z/(z+theta) and b = theta/(z+theta) = 1 - a;
the rows are

    row -1:  (a,   b, 0  )
    row  0:  (1/2, 0, 1/2)
    row +1:  (0,   b, a  )

- kappa = max(z, theta)/(z+theta).  Rows -1 and +1 are at distance a; row
  0 is at distance (|a - 1/2| + b + 1/2)/2 from either, which is 1/2 when
  a >= 1/2 and b when a < 1/2.  Since z* > theta iff theta < 1, this is
  z/(z+theta) below theta = 1 and theta/(z+theta) from it on.
- gamma(1/2) = max(z, theta)/(z+theta) for any z > 0.  With mixing weight
  p0 on the same-sign alternative the conditionals given ancestor -1, 0, +1
  are (A, 1-A, 0), (1/2, 0, 1/2), (0, 1-A, A), A = z p0/(z p0 + theta
  (1 - p0)); their nine coordinate differences are {A, A, 0, 1-A, 1-A, 1/2,
  1/2, |A - 1/2|, |A - 1/2|}, so gamma = max(A, 1 - A), and p0 = 1/2 gives
  A = a.
- lambda2 = max(s1, |s2|) = max(z, theta)/(z+theta), because the non-unit
  eigenvalues are s1 = a and s2 = -b (see ``chain``).

Hence kappa = gamma = lambda2 and k * kappa * gamma = k * lambda2^2: the
activities the certificate proves extremal are exactly those where the
Kesten-Stigum statistic is below 1, and the certificate window and the
Kesten-Stigum window are the same window.  Only the boundary
k * lambda2^2 = 1 is decided by neither.  The library therefore reads the
certificate off the spectrum, in ``scan.law_cells``; the general-p0 bound
and the row-wise kappa are kept in the tests as independent oracles.
"""

from __future__ import annotations

from .chain import ks_gap, ks_threshold_pair

__all__ = [
    "msw_gap",
    "msw_threshold_pair",
]


def msw_gap(k: int, theta: float) -> float:
    """k * kappa * gamma - 1 on the symmetric law at (k, theta), which is
    the Kesten-Stigum gap k * lambda2^2 - 1."""
    return ks_gap(k, theta)


def msw_threshold_pair(k: int) -> tuple:
    """Activities where the certificate product crosses 1, one per side of
    theta = 1: the Kesten-Stigum pair, with its NoBracketError for k >= 4."""
    return ks_threshold_pair(k)
