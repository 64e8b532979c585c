"""Independent closed form for the k = 3 symmetric root: Ferrari's
resolution of the quartic 8 theta^3 z^4 = (theta + z)^3.

The library solves the symmetric root by Newton's method in ln z
(``solver.solve_symmetric``).  This module keeps the radical formula so
that the tests can check that solve against an expression that shares no
code with it.
"""

from __future__ import annotations

import math

from wand_gibbs.solver import SolverError


class QuarticDomainError(SolverError):
    """A radicand in the closed-form quartic solution went negative."""


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
