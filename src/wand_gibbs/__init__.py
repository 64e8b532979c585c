"""Solver and regime analyzer for the hard-core Blume-Capel model on the
wand constraint graph over Cayley trees of order k >= 2.

The package finds all translation-invariant boundary-law fixed points at a
given activity, computes the critical activity and the Kesten-Stigum /
contraction-certificate thresholds, and classifies each (k, theta) as
non-extremal, extremal, or undetermined.  An exact finite-volume enumeration
oracle independently validates the fixed-point machinery on small trees.
"""

# the package's public names are its modules' __all__ lists, in this order
from .model import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .chain import *  # noqa: F401,F403
from .extremality import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .scan import *  # noqa: F401,F403
# unused by the library; loaded for the benchmark tracer, which wraps it after importing the CLI
from . import rootfind  # noqa: F401

__version__ = "0.1.0"
