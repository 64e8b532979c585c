"""Independent oracles for the contraction quantities: kappa straight from
the transition-matrix rows, and gamma as the worst coordinate discrepancy
between the explicit conditional spin distributions.

The library evaluates both in closed form (``extremality.kappa`` and
``extremality.gamma_bound``).  This module keeps the direct constructions
so that the tests can check the closed forms against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from wand_gibbs.chain import TransitionMatrix


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
