"""Domain types for the hard-core Blume-Capel model on a Cayley tree.

Spins take the three values -1, 0, +1.  Admissible nearest-neighbour spin
pairs are the edges of the "wand" constraint graph: {0,-1}, {0,1}, {-1,-1}
and {1,1}.
All coupling/temperature dependence enters through the single positive
activity theta = exp(-J*beta), and a candidate translation-invariant state
is described by a pair of positive boundary-law ratios (z1, z2), where z1
weights the +1 spin and z2 the -1 spin relative to the 0 spin.

Every type here is an immutable value object; instances are safe to share
between threads or processes without synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: the spin alphabet in its canonical (total) order
SPINS = (-1, 0, 1)

#: matrix index of each spin: -1 -> 0, 0 -> 1, +1 -> 2
SPIN_INDEX = {-1: 0, 0: 1, 1: 2}

#: relative residual below which a boundary law counts as an exact solution
DEFAULT_RESIDUAL_TOL = 1e-12


#: the wand constraint graph as a 0/1 adjacency matrix in SPINS order:
#: edges {0,-1}, {0,1}, {-1,-1}, {1,1}; no 0-0 and no -1/+1 neighbours
WAND_ADJACENCY = (
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
)


def allows(s: int, t: int) -> bool:
    """True when spins ``s`` and ``t`` may sit on adjacent vertices."""
    return WAND_ADJACENCY[SPIN_INDEX[s]][SPIN_INDEX[t]] == 1


def tree_order(k) -> int:
    """``k`` as an int after checking that it is a valid tree order: an
    integer >= 2 (booleans are rejected); ValueError otherwise."""
    if isinstance(k, bool) or int(k) != k or k < 2:
        raise ValueError(f"tree order k must be an integer >= 2, got {k!r}")
    return int(k)


@dataclass(frozen=True)
class ModelParams:
    """Tree order ``k`` (direct successors per vertex) and activity ``theta``.

    The analysis assumes k >= 2; theta must be positive and finite.
    """

    k: int
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "k", tree_order(self.k))
        theta = float(self.theta)
        if not math.isfinite(theta) or theta <= 0.0:
            raise ValueError(f"activity theta must be positive and finite, got {self.theta!r}")
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class BoundaryLaw:
    """Positive boundary-law pair (z1, z2).

    ``residual`` is the scale-free defect of the fixed-point system at
    (z1, z2): max over both components of |z_i - rhs_i| / max(1, z_i).
    Laws built by hand default to an unknown (infinite) residual; solver
    routines fill it in.
    """

    z1: float
    z2: float
    residual: float = math.inf

    def __post_init__(self):
        z1, z2 = float(self.z1), float(self.z2)
        if not (math.isfinite(z1) and z1 > 0.0 and math.isfinite(z2) and z2 > 0.0):
            raise ValueError(f"boundary law components must be positive and finite, got ({self.z1!r}, {self.z2!r})")
        residual = float(self.residual)
        if math.isnan(residual) or residual < 0.0:
            raise ValueError("residual must be nonnegative")
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)
        object.__setattr__(self, "residual", residual)

    @property
    def symmetric(self) -> bool:
        return self.z1 == self.z2

    def certified(self, tol: float = DEFAULT_RESIDUAL_TOL) -> bool:
        """True when the stored residual meets the acceptance tolerance."""
        return self.residual <= tol

    def swapped(self) -> "BoundaryLaw":
        """The coordinate swap (z2, z1); its residual equals this law's."""
        return BoundaryLaw(self.z2, self.z1, self.residual)

