"""Numerical oracles for the Kesten-Stigum window of the symmetric law.

The library returns the window's ends in closed form and proves the k >= 4
regime from the k/4 floor (see ``chain``).  This module finds the same
things by search on the solved symmetric root instead, so the tests can
check the algebra against it:

- ``bisection_thresholds``: a log-uniform pre-scan of each side of
  theta = 1 brackets the sign change of k*lambda2^2 - 1, and bisection
  refines it;
- ``ks_sweep``: the statistic on an activity grid, with the side of
  theta = 1 that z* falls on at each point.
"""

from __future__ import annotations

from wand_gibbs.chain import NoBracketError, ks_gap, spectrum, transition_matrix
from wand_gibbs.model import ModelParams
from wand_gibbs.rootfind import bisect, sign_change_brackets
from wand_gibbs.solver import solve_symmetric


def bisection_thresholds(k: int, lo: float = 1e-3, hi: float = 1e3, points: int = 500,
                         xtol: float = 1e-8) -> tuple:
    """(lower, upper) crossings of k*lambda2^2 = 1 on (lo, 1) and (1, hi),
    each from a ``points``-point pre-scan and bisection to ``xtol``."""

    def gap(theta: float) -> float:
        return ks_gap(k, theta)

    pair = []
    for a, b in ((lo, 1.0), (1.0, hi)):
        brackets = sign_change_brackets(gap, a, b, points)
        if not brackets:
            raise NoBracketError(f"no Kesten-Stigum crossing bracketed on ({a}, {b}) at k={k}")
        left, right = brackets[0]
        pair.append(left if left == right else bisect(gap, left, right, xtol))
    return tuple(pair)


def ks_sweep(k: int, thetas) -> tuple:
    """(ks_values, sides_ok): k*lambda2^2 of the symmetric law at each
    activity, and whether z* > theta held at every theta < 1 and z* < theta
    at every theta > 1."""
    values = []
    sides_ok = True
    for theta in thetas:
        law = solve_symmetric(ModelParams(k, theta))
        values.append(spectrum(transition_matrix(law, theta), k).ks_value)
        if (theta < 1.0 and not law.z1 > theta) or (theta > 1.0 and not law.z1 < theta):
            sides_ok = False
    return values, sides_ok
