"""Markov chain induced on the tree by a boundary law, with the
Kesten-Stigum non-extremality criterion and its activity thresholds.

Descending one tree edge under a translation-invariant measure is a
three-state Markov chain.  Its transition matrix carries the constraint
graph's zero pattern (no -1 <-> +1 or 0 -> 0 moves):

    row -1:  ( z2/(z2+t),  t/(z2+t),   0         )
    row  0:  ( z2/(z1+z2), 0,          z1/(z1+z2) )
    row +1:  ( 0,          t/(z1+t),   z1/(z1+t)  )       t = theta.

One eigenvalue is always 1.  The chain is reversible (detailed balance holds
for pi_i proportional to z_i * w_i), so the other two eigenvalues are real;
they are the roots of the deflated quadratic s^2 - (trace - 1) s + det and
have opposite signs since det < 0.  Their sum is formed without subtracting
1, as p00 p22 - p01 p21 = (z1 z2 - t^2) / ((z1 + t)(z2 + t)), and their
product det = -(p00 p12 p21 + p01 p10 p22) has no cancellation either, so
an eigenvalue near 0, as on the asymmetric branch, keeps its relative
accuracy.  For the symmetric law z1 = z2 = z they collapse to the closed
forms s1 = z/(z+t) and s2 = -t/(z+t), which are literally matrix entries.
The measure is provably non-extremal when k * lambda2^2 > 1 with
lambda2 = max(|s1|, |s2|); equality is classified as undetermined, never
as non-extremal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import BoundaryLaw, ModelParams
from .rootfind import bisect, sign_change_brackets, NoBracketError
from .solver import SolverError, solve_symmetric

__all__ = [
    "ComplexSpectrumError",
    "TransitionMatrix",
    "SpectralReport",
    "KsSweepReport",
    "transition_matrix",
    "spectrum",
    "ks_gap",
    "ks_threshold_pair",
    "ks_all_theta_nonextremal",
]


#: activity range, points per side and tolerance of the threshold search
_SCAN_LO, _SCAN_HI, _SCAN_POINTS, _XTOL = 1e-3, 1e3, 500, 1e-8


class ComplexSpectrumError(SolverError):
    """The deflated quadratic produced a significant imaginary part."""


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic 3x3 matrix, rows = source spin, columns = target spin.

    Rows must sum to 1 within 1e-14 and the wand zero pattern is enforced:
    the (-1,+1), (+1,-1) and (0,0) entries are exactly zero.
    """

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.entries)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("transition matrix must be 3x3")
        if any(v < 0.0 for row in rows for v in row):
            raise ValueError("transition probabilities must be nonnegative")
        for row in rows:
            if abs(math.fsum(row) - 1.0) > 1e-14:
                raise ValueError(f"row {row!r} does not sum to 1 within 1e-14")
        if rows[0][2] != 0.0 or rows[2][0] != 0.0 or rows[1][1] != 0.0:
            raise ValueError("zero pattern violated: P(-1,+1), P(+1,-1), P(0,0) must vanish")
        object.__setattr__(self, "entries", rows)

    def row(self, spin: int) -> tuple:
        from .model import SPIN_INDEX

        return self.entries[SPIN_INDEX[spin]]


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues of a transition matrix and the Kesten-Stigum statistic.

    ``s1`` is the nonnegative non-unit eigenvalue, ``s2`` the nonpositive
    one, ``s3`` the trivial eigenvalue 1; ``lambda2`` is the second largest
    modulus and ``ks_value`` = k * lambda2^2.
    """

    s1: float
    s2: float
    s3: float
    lambda2: float
    ks_value: float


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


def _deflated_pair(trace: float, det: float) -> tuple:
    """Non-unit eigenvalues: roots of s^2 - trace s + det, where ``trace``
    and ``det`` belong to the chain with its unit eigenvalue deflated.

    The chain is reversible so both roots are real; a discriminant dipping
    below zero by more than rounding noise (imaginary part > 1e-10) is
    reported as an error rather than silently truncated.  The larger root
    in modulus is formed without cancellation and the other as det / root,
    so a tiny eigenvalue keeps its relative accuracy."""
    disc = trace * trace - 4.0 * det
    if disc < 0.0:
        imag = 0.5 * math.sqrt(-disc)
        if imag > 1e-10:
            raise ComplexSpectrumError(
                f"complex eigenvalue pair {0.5 * trace} +/- {imag}i from the deflated quadratic"
            )
        disc = 0.0
    root = math.sqrt(disc)
    if trace < 0.0:
        big = 0.5 * (trace - root)
        return det / big, big
    big = 0.5 * (trace + root)
    return big, (det / big if big else 0.0)


def _det3(p) -> float:
    return (
        p[0][0] * (p[1][1] * p[2][2] - p[1][2] * p[2][1])
        - p[0][1] * (p[1][0] * p[2][2] - p[1][2] * p[2][0])
        + p[0][2] * (p[1][0] * p[2][1] - p[1][1] * p[2][0])
    )


def spectrum(matrix: TransitionMatrix, k: int) -> SpectralReport:
    """Eigenvalues of ``matrix`` by deflating the known root 1.

    For a matrix with the symmetric-law pattern the closed forms
    s1 = P(+1,+1) and s2 = -P(+1,0) are verified against the deflated
    quadratic's roots to 1e-12 and then returned exactly.
    """
    if isinstance(k, bool) or int(k) != k or k < 2:
        raise ValueError(f"tree order k must be an integer >= 2, got {k!r}")
    p = matrix.entries
    # trace - 1 = p00 + p22 - 1 = p00 p22 - p01 p21, since p11 = 0 and the
    # rows sum to 1: the product form needs no subtraction of 1
    s_pos, s_neg = _deflated_pair(p[0][0] * p[2][2] - p[0][1] * p[2][1], _det3(p))
    if p[0][0] == p[2][2] and p[0][1] == p[2][1]:
        s1_closed, s2_closed = p[2][2], -p[2][1]
        if abs(s_pos - s1_closed) > 1e-12 or abs(s_neg - s2_closed) > 1e-12:
            raise SolverError(
                "closed-form eigenvalues disagree with the deflated characteristic roots"
            )
        s_pos, s_neg = s1_closed, s2_closed
    lam = max(abs(s_pos), abs(s_neg))
    return SpectralReport(s1=s_pos, s2=s_neg, s3=1.0, lambda2=lam, ks_value=k * lam * lam)


def ks_gap(k: int, theta: float) -> float:
    """k * lambda2^2 - 1 evaluated on the symmetric law at (k, theta)."""
    law = solve_symmetric(ModelParams(k, theta))
    return spectrum(transition_matrix(law, theta), k).ks_value - 1.0


def ks_threshold_pair(k: int) -> tuple:
    """The two activities where the Kesten-Stigum statistic crosses 1.

    For k in {2, 3} the gap k*lambda2^2 - 1 is positive for extreme
    activities and negative around theta = 1; a log-uniform pre-scan of
    _SCAN_POINTS points on each side of 1 brackets the sign change and
    bisection refines it to _XTOL.  For k >= 4 there is no crossing:
    lambda2 = max(z, theta)/(z+theta) >= 1/2, so k*lambda2^2 >= k/4 >= 1,
    with equality only at k = 4, theta = 1, where the curve touches 1 without
    crossing it.  NoBracketError is raised then, before anything is solved,
    and whenever a side of the scan shows no crossing.
    """
    k = ModelParams(k, 1.0).k
    if k >= 4:
        raise NoBracketError(
            f"no Kesten-Stigum crossing at k={k}: k*lambda2^2 >= k/4 >= 1 at every activity"
        )

    def gap(theta: float) -> float:
        return ks_gap(k, theta)

    low = sign_change_brackets(gap, _SCAN_LO, 1.0, _SCAN_POINTS)
    high = sign_change_brackets(gap, 1.0, _SCAN_HI, _SCAN_POINTS)
    if not low or not high:
        raise NoBracketError(
            f"no Kesten-Stigum crossing bracketed on ({_SCAN_LO}, {_SCAN_HI}) at k={k}"
        )
    lower = low[0][0] if low[0][0] == low[0][1] else bisect(gap, *low[0], _XTOL)
    upper = high[0][0] if high[0][0] == high[0][1] else bisect(gap, *high[0], _XTOL)
    return lower, upper


@dataclass(frozen=True)
class KsSweepReport:
    """Grid sweep of the Kesten-Stigum statistic for k >= 4.

    ``all_nonextremal`` records min ks_value > 1 over the grid;
    ``lower_bound`` is the analytic floor k/4 and ``ratio_side_ok`` whether
    z*/theta stayed above 1 for theta < 1 and below 1 for theta > 1 at every
    grid point.
    """

    k: int
    thetas: tuple
    ks_values: tuple
    min_ks: float
    min_theta: float
    all_nonextremal: bool
    lower_bound: float
    ratio_side_ok: bool


def ks_all_theta_nonextremal(k: int, grid) -> KsSweepReport:
    """Evaluate the Kesten-Stigum statistic on ``grid`` using the symmetric law."""
    if isinstance(k, bool) or int(k) != k or k < 4:
        raise ValueError(f"the all-activity sweep applies for integer k >= 4, got {k!r}")
    thetas = tuple(float(t) for t in grid)
    if not thetas:
        raise ValueError("empty activity grid")
    ks_values = []
    ratio_ok = True
    for theta in thetas:
        law = solve_symmetric(ModelParams(k, theta))
        ks_values.append(spectrum(transition_matrix(law, theta), k).ks_value)
        if theta < 1.0 and not law.z1 > theta:
            ratio_ok = False
        if theta > 1.0 and not law.z1 < theta:
            ratio_ok = False
    min_ks = min(ks_values)
    min_theta = thetas[ks_values.index(min_ks)]
    return KsSweepReport(
        k=int(k),
        thetas=thetas,
        ks_values=tuple(ks_values),
        min_ks=min_ks,
        min_theta=min_theta,
        all_nonextremal=min_ks > 1.0,
        lower_bound=k / 4.0,
        ratio_side_ok=ratio_ok,
    )
