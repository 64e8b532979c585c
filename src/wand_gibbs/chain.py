"""Markov chain induced on the tree by a boundary law, with the
Kesten-Stigum non-extremality criterion and its activity thresholds.

Descending one tree edge under a translation-invariant measure is a
three-state Markov chain.  Its transition matrix carries the constraint
graph's zero pattern (no -1 <-> +1 or 0 -> 0 moves):

    row -1:  ( z2/(z2+t),  t/(z2+t),   0         )
    row  0:  ( z2/(z1+z2), 0,          z1/(z1+z2) )
    row +1:  ( 0,          t/(z1+t),   z1/(z1+t)  )       t = theta.

One eigenvalue is always 1; the other two are the roots of the deflated
quadratic s^2 - (trace - 1) s + det.  The zero pattern leaves
det = -(p00 p12 p21 + p01 p10 p22) <= 0, so the discriminant is a sum of
nonnegative terms, in floating point too: both roots are real, of opposite
signs.  Their sum is formed without subtracting 1, as p00 p22 - p01 p21 =
(z1 z2 - t^2) / ((z1 + t)(z2 + t)), and det has no cancellation either, so
an eigenvalue near 0, as on the asymmetric branch, keeps its relative
accuracy.  For the symmetric law z1 = z2 = z they collapse to the closed
forms s1 = z/(z+t) and s2 = -t/(z+t), which are literally matrix entries.
``_law_spectrum`` takes ``spectrum``'s steps from the entries, building no
matrix, for ``scan.law_cells`` and ``ks_gap``.  The measure is provably
non-extremal when k * lambda2^2 > 1 with lambda2 = max(|s1|, |s2|);
equality is classified as undetermined, never as non-extremal.

The Kesten-Stigum window of the symmetric law in closed form.  Write
r = z/t for the symmetric root z of z = ((t + z)/(2 t z))^k.  Then
z^(k+1) (2t)^k = (t + z)^k becomes

    t^(k+1) = (1 + r)^k / (2^k r^(k+1)),

whose right side is strictly decreasing in r, so r falls strictly from
infinity to 0 as t runs over (0, infinity), with r = 1 at t = 1.  Hence
lambda2 = max(r, 1)/(1 + r) is r/(1 + r) below t = 1, strictly decreasing
in t, and 1/(1 + r) above it, strictly increasing; k * lambda2^2 tends to
k at both ends and has its minimum k/4 at t = 1.  For k >= 4 that minimum
is >= 1: there is no crossing (k = 4 touches 1 at t = 1 only).  For
k in {2, 3} there is exactly one crossing on each side of t = 1:

- below, r/(1 + r) = 1/sqrt(k) at r = 1/(sqrt k - 1), that is
  z* = t/(sqrt k - 1), and 1 + r = sqrt k r gives
  theta_lo^(k+1) = (sqrt k - 1)(sqrt k / 2)^k;
- above, 1/(1 + r) = 1/sqrt(k) at r = sqrt k - 1, that is
  z* = t (sqrt k - 1), and 1 + r = sqrt k gives
  theta_hi^(k+1) = (sqrt k / (2 (sqrt k - 1)))^k / (sqrt k - 1).

k * lambda2^2 < 1 exactly on (theta_lo, theta_hi).  Both ends are taken in
logs; ln theta_lo - ln theta_hi = (k + 2)/(k + 1) ln(sqrt k - 1) is
negative for k < 4, zero at k = 4 and positive beyond, so the formulas
themselves say the window is empty from k = 4 on.
"""

from __future__ import annotations

import math

from .model import BoundaryLaw, ModelParams, _value_type, tree_order
from .solver import solve_symmetric

__all__ = [
    "NoBracketError",
    "TransitionMatrix",
    "SpectralReport",
    "transition_matrix",
    "spectrum",
    "ks_gap",
    "ks_threshold_pair",
]


class NoBracketError(RuntimeError):
    """No sign change of the Kesten-Stigum gap: ``ks_threshold_pair`` at k >= 4."""


class TransitionMatrix(_value_type("TransitionMatrix", "entries")):
    """Row-stochastic 3x3 matrix, rows = source spin, columns = target spin.

    Rows must sum to 1 within 1e-14 and the wand zero pattern is enforced:
    the (-1,+1), (+1,-1) and (0,0) entries are exactly zero.
    """

    __slots__ = ()

    def __new__(cls, entries):
        rows = tuple([tuple(map(float, row)) for row in entries])
        if len(rows) != 3 or list(map(len, rows)) != [3, 3, 3]:
            raise ValueError("transition matrix must be 3x3")
        if any(map((0.0).__gt__, rows[0] + rows[1] + rows[2])):
            raise ValueError("transition probabilities must be nonnegative")
        for row in rows:
            if not abs(math.fsum(row) - 1.0) <= 1e-14:  # a NaN entry fails here too
                raise ValueError(f"row {row!r} does not sum to 1 within 1e-14")
        if rows[0][2] != 0.0 or rows[2][0] != 0.0 or rows[1][1] != 0.0:
            raise ValueError("zero pattern violated: P(-1,+1), P(+1,-1), P(0,0) must vanish")
        return tuple.__new__(cls, (rows,))


class SpectralReport(_value_type("SpectralReport", "s1 s2 s3 lambda2 ks_value")):
    """Eigenvalues of a transition matrix and the Kesten-Stigum statistic.

    ``s1`` is the nonnegative non-unit eigenvalue, ``s2`` the nonpositive
    one, ``s3`` the trivial eigenvalue 1; ``lambda2`` is the second largest
    modulus and ``ks_value`` = k * lambda2^2.
    """

    __slots__ = ()


def transition_matrix(law: BoundaryLaw, theta: float) -> TransitionMatrix:
    """The descent chain's transition matrix for ``law`` at activity ``theta``."""
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    z1, z2 = law.z1, law.z2
    return TransitionMatrix((
        (z2 / (z2 + theta), theta / (z2 + theta), 0.0),
        (z2 / (z1 + z2), 0.0, z1 / (z1 + z2)),
        (0.0, theta / (z1 + theta), z1 / (z1 + theta)),
    ))


def _deflated_pair(p00, p01, p10, p12, p21, p22) -> tuple:
    """Non-unit eigenvalues of the chain with these free entries, the roots of
    s^2 - trace s + det (module docstring): the larger in modulus without
    cancellation, the other as det / root, so a tiny one keeps its relative
    accuracy."""
    trace = p00 * p22 - p01 * p21
    det = -(p00 * (p12 * p21) + p01 * (p10 * p22))
    root = math.sqrt(trace * trace - 4.0 * det)
    if trace < 0.0:
        big = 0.5 * (trace - root)
        return det / big, big
    big = 0.5 * (trace + root)
    return big, (det / big if big else 0.0)


def spectrum(matrix: TransitionMatrix, k: int) -> SpectralReport:
    """Eigenvalues of ``matrix`` by deflating the known root 1.

    A matrix with the symmetric-law pattern has the closed forms
    s1 = P(+1,+1) and s2 = -P(+1,0), returned as they are.
    """
    tree_order(k)
    (p00, p01, _), (p10, _, p12), (_, p21, p22) = matrix.entries
    if p00 == p22 and p01 == p21:
        s_pos, s_neg = p22, -p21
    else:
        s_pos, s_neg = _deflated_pair(p00, p01, p10, p12, p21, p22)
    lam = max(abs(s_pos), abs(s_neg))
    return SpectralReport(s1=s_pos, s2=s_neg, s3=1.0, lambda2=lam, ks_value=k * lam * lam)


def _law_spectrum(law: BoundaryLaw, theta: float, k: int) -> tuple:
    """(s1, s2, lambda2, ks_value), the bits of ``spectrum(transition_matrix(
    law, theta), k)`` from the same entries by the same steps.  While
    z1 + z2 + theta is finite, so is each denominator, and every matrix check
    provably passes (nonnegative quotients, rows summing to 1 within a few
    ulps, literal zeros); past it the matrix is built, and a zero row raises."""
    z1, z2 = law.z1, law.z2
    if not math.isfinite(z1 + z2 + theta):
        transition_matrix(law, theta)
    d_neg, d_pos = z2 + theta, z1 + theta
    p00, p01, p21, p22 = z2 / d_neg, theta / d_neg, theta / d_pos, z1 / d_pos
    if p00 == p22 and p01 == p21:
        s_pos, s_neg = p22, -p21
    else:
        d_zero = z1 + z2
        s_pos, s_neg = _deflated_pair(p00, p01, z2 / d_zero, z1 / d_zero, p21, p22)
    lam = max(abs(s_pos), abs(s_neg))
    return s_pos, s_neg, lam, k * lam * lam


def ks_gap(k: int, theta: float) -> float:
    """k * lambda2^2 - 1 evaluated on the symmetric law at (k, theta)."""
    params = ModelParams(k, theta)
    return _law_spectrum(solve_symmetric(params), params.theta, params.k)[3] - 1.0


def _log_window(k: int) -> tuple:
    """(ln theta_lo, ln theta_hi), the Kesten-Stigum window of the symmetric
    law in closed form (see the module docstring); empty for k >= 4."""
    root_k = math.sqrt(k)
    log_lo = (math.log(root_k - 1.0) + k * math.log(root_k / 2.0)) / (k + 1)
    log_hi = (k * math.log(root_k / (2.0 * (root_k - 1.0))) - math.log(root_k - 1.0)) / (k + 1)
    return log_lo, log_hi


def ks_threshold_pair(k: int) -> tuple:
    """The two activities where the Kesten-Stigum statistic crosses 1.

    For k in {2, 3} these are theta_lo < 1 < theta_hi in closed form, taken
    from their logs.  For k >= 4 there is no crossing: lambda2 >= 1/2, so
    k*lambda2^2 >= k/4 >= 1, with equality only at k = 4, theta = 1, where
    the curve touches 1 without crossing it.  NoBracketError is raised then,
    before anything is computed, so no order is too large to answer.
    """
    k = tree_order(k)
    if k >= 4:
        raise NoBracketError(
            f"no Kesten-Stigum crossing at k={k}: k*lambda2^2 >= k/4 >= 1 at every activity"
        )
    log_lo, log_hi = _log_window(k)
    return math.exp(log_lo), math.exp(log_hi)
