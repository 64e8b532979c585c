"""Independent oracles for the two extremality criteria on the symmetric
law: kappa straight from the transition-matrix rows and in its piecewise
closed form, gamma as the worst coordinate discrepancy between the explicit
conditional spin distributions and as the closed-form bound at any mixing
weight p0, and the Kesten-Stigum predicate on a law.

The library reads kappa, gamma and the certificate product off the
spectrum, where at p0 = 1/2 they equal lambda2, lambda2 and k * lambda2^2
(see ``extremality``).  This module keeps the direct constructions so that
the tests can check that identity, and the general-p0 bound, against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from wand_gibbs.chain import TransitionMatrix, spectrum, transition_matrix
from wand_gibbs.model import BoundaryLaw, ModelParams


def kesten_stigum_nonextremal(params: ModelParams, law: BoundaryLaw) -> bool:
    """True iff k * lambda2^2 > 1 (strict) for the chain of ``law``."""
    report = spectrum(transition_matrix(law, params.theta), params.k)
    return report.ks_value > 1.0


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


def kappa_from_rows(matrix: TransitionMatrix) -> float:
    """(1/2) max_{i,j} sum_l |P_il - P_jl|, straight from the matrix rows."""
    rows = matrix.entries
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            tv = sum(abs(rows[i][l] - rows[j][l]) for l in range(3))
            if tv > worst:
                worst = tv
    return 0.5 * worst


@dataclass(frozen=True)
class ConditionalSpinDistribution:
    """Conditional spin distributions at a vertex given its ancestor's spin.

    ``p0_cond``, ``p1_cond``, ``p2_cond`` are the distributions for ancestor
    spins -1, 0, +1 respectively, each a probability vector over target
    spins (-1, 0, +1).  The constrained zero pattern is enforced exactly:
    p0_cond[2] = 0, p1_cond = (1/2, 0, 1/2), p2_cond[0] = 0.
    """

    p0_cond: tuple
    p1_cond: tuple
    p2_cond: tuple

    def __post_init__(self):
        vecs = tuple(tuple(float(v) for v in vec)
                     for vec in (self.p0_cond, self.p1_cond, self.p2_cond))
        for vec in vecs:
            if len(vec) != 3 or any(v < 0.0 for v in vec):
                raise ValueError(f"{vec!r} is not a probability vector over 3 spins")
            if abs(math.fsum(vec) - 1.0) > 1e-14:
                raise ValueError(f"{vec!r} does not sum to 1 within 1e-14")
        if vecs[0][2] != 0.0 or vecs[2][0] != 0.0 or vecs[1] != (0.5, 0.0, 0.5):
            raise ValueError("zero pattern violated for the conditional distributions")
        object.__setattr__(self, "p0_cond", vecs[0])
        object.__setattr__(self, "p1_cond", vecs[1])
        object.__setattr__(self, "p2_cond", vecs[2])

    @property
    def stay_prob(self) -> float:
        """Probability that a +/-1 ancestor's spin repeats at the vertex."""
        return self.p0_cond[0]


def conditional_distributions(p0: float, z: float, theta: float) -> ConditionalSpinDistribution:
    """Build the conditional distribution triple from the mixing weight p0.

    ``p0`` weighs the same-sign alternative, ``1 - p0`` the zero spin; the
    endpoints p0 in {0, 1} make the worst-case discrepancy hit 1 and are
    rejected as degenerate.
    """
    p0 = float(p0)
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"p0 must lie strictly inside (0, 1), got {p0!r}")
    if not (z > 0.0 and theta > 0.0):
        raise ValueError("z and theta must be positive")
    stay = z * p0 / (z * p0 + theta * (1.0 - p0))
    hop = 1.0 - stay
    return ConditionalSpinDistribution(
        (stay, hop, 0.0),
        (0.5, 0.0, 0.5),
        (0.0, hop, stay),
    )


def pairwise_differences(dist: ConditionalSpinDistribution) -> tuple:
    """The nine |p^i(l) - p^j(l)| values over the three vector pairs."""
    vecs = (dist.p0_cond, dist.p1_cond, dist.p2_cond)
    out = []
    for i in range(3):
        for j in range(i + 1, 3):
            out.extend(abs(vecs[i][l] - vecs[j][l]) for l in range(3))
    return tuple(out)


def pairwise_max_discrepancy(dist: ConditionalSpinDistribution) -> float:
    """max_{i,j,l} |p^i(l) - p^j(l)|; equals max(stay_prob, 1 - stay_prob)."""
    return max(pairwise_differences(dist))
