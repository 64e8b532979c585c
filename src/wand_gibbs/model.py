"""Domain types for the hard-core Blume-Capel model on a Cayley tree.

Spins take the three values -1, 0, +1.  Admissible nearest-neighbour spin
pairs are the edges of the "wand" constraint graph: {0,-1}, {0,1}, {-1,-1}
and {1,1}; ``NEIGHBOURS`` states that rule, and nothing else in the library does.
All coupling/temperature dependence enters through the single positive
activity theta = exp(-J*beta), and a candidate translation-invariant state
is described by a pair of positive boundary-law ratios (z1, z2), where z1
weights the +1 spin and z2 the -1 spin relative to the 0 spin.

Every type here is a validated named tuple: immutable, hashable and
picklable, equal to a plain tuple with the same fields, and ``_replace``
re-validates; instances are safe to share between threads or processes
without synchronization.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "SPINS", "NEIGHBOURS", "DEFAULT_RESIDUAL_TOL", "tree_order", "activity", "ModelParams",
    "BoundaryLaw",
]

#: the spin alphabet in its canonical (total) order
SPINS = (-1, 0, 1)

#: the wand constraint graph: the spins each spin admits on a neighbouring
#: vertex, in SPINS order; no 0-0 and no -1/+1 neighbours
NEIGHBOURS = {-1: (-1, 0), 0: (-1, 1), 1: (0, 1)}

#: relative residual below which a boundary law counts as an exact solution
DEFAULT_RESIDUAL_TOL = 1e-12


def _is_integer(x) -> bool:
    """True when ``x`` is integral and not a bool; NaN and infinities are
    rejected before int() could raise on them."""
    return not isinstance(x, bool) and x == x and x not in (math.inf, -math.inf) and int(x) == x


def _shown(x) -> str:
    """``repr(x)`` for an error message, or a stand-in for an int too long for it."""
    try:
        return repr(x)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"


def tree_order(k) -> int:
    """``k`` as an int after checking that it is a valid tree order: an
    integer >= 2; ValueError otherwise."""
    if not _is_integer(k) or k < 2:
        raise ValueError(f"tree order k must be an integer >= 2, got {_shown(k)}")
    return int(k)


def _real(x) -> float:
    """``float(x)``, or +-inf for a number beyond the doubles (a huge int)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def activity(theta) -> float:
    """``theta`` as a float after checking that it is a valid activity:
    positive and finite; ValueError otherwise."""
    value = theta if type(theta) is float else _real(theta)  # a float makes no call
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"activity theta must be positive and finite, got {_shown(theta)}")
    return value


def _value_type(name: str, fields: str) -> type:
    """The named-tuple base of a value type.

    ``namedtuple._make`` (and so ``_replace``) builds the tuple directly;
    here it calls the subclass, so a copy passes the checks in its
    ``__new__`` like any new instance.  Subclasses declare ``__slots__ = ()``.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class ModelParams(_value_type("ModelParams", "k theta")):
    """Tree order ``k`` (direct successors per vertex) and activity ``theta``.

    The analysis assumes k >= 2; theta must be positive and finite.
    """

    __slots__ = ()

    def __new__(cls, k, theta):
        return tuple.__new__(cls, (tree_order(k), activity(theta)))


class BoundaryLaw(_value_type("BoundaryLaw", "z1 z2 residual")):
    """Positive boundary-law pair (z1, z2).

    ``residual`` is the scale-free defect of the fixed-point system at
    (z1, z2): max over both components of |z_i - rhs_i| / max(1, z_i).
    Laws built by hand default to an unknown (infinite) residual; solver
    routines fill it in.
    """

    __slots__ = ()

    def __new__(cls, z1, z2, residual=math.inf):
        try:
            x1, x2, defect = float(z1), float(z2), float(residual)
        except OverflowError:  # float() first: only an overflow pays for _real's call
            x1, x2, defect = _real(z1), _real(z2), _real(residual)
        if not (math.isfinite(x1) and x1 > 0.0 and math.isfinite(x2) and x2 > 0.0):
            raise ValueError("boundary law components must be positive and finite, "
                             f"got ({_shown(z1)}, {_shown(z2)})")
        if math.isnan(defect) or defect < 0.0:
            raise ValueError("residual must be nonnegative")
        return tuple.__new__(cls, (x1, x2, defect))

    @property
    def symmetric(self) -> bool:
        return self.z1 == self.z2

    def certified(self, tol: float = DEFAULT_RESIDUAL_TOL) -> bool:
        """True when the stored residual meets the acceptance tolerance."""
        return self.residual <= tol

    def swapped(self) -> "BoundaryLaw":
        """The coordinate swap (z2, z1); its residual equals this law's."""
        return BoundaryLaw(self.z2, self.z1, self.residual)

