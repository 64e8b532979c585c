"""Solver and regime analyzer for the hard-core Blume-Capel model on the
wand constraint graph over Cayley trees of order k >= 2.

The package finds all translation-invariant boundary-law fixed points at a
given activity, computes the critical activity and the Kesten-Stigum /
contraction-certificate thresholds, and classifies each (k, theta) as
non-extremal, extremal, or undetermined.  An exact finite-volume enumeration
oracle independently validates the fixed-point machinery on small trees.
"""

from .model import (
    DEFAULT_RESIDUAL_TOL,
    SPINS,
    SPIN_INDEX,
    WAND_ADJACENCY,
    BoundaryLaw,
    ModelParams,
    allows,
    tree_order,
)
from .solver import (
    IterationFailureError,
    SolverError,
    TisgmSet,
    boundary_law,
    find_asymmetric,
    solve_symmetric,
    theta_critical,
    tisgm_set,
)
from .chain import (
    NoBracketError,
    SpectralReport,
    TransitionMatrix,
    ks_gap,
    ks_threshold_pair,
    spectrum,
    transition_matrix,
)
from .extremality import msw_gap, msw_threshold_pair
from .oracle import (
    ENUMERATION_CAP,
    FiniteCayleyTree,
    FiniteVolumeMeasure,
    SizeCapError,
    admissible_count_formula,
    cayley_tree,
    check_consistency,
    enumerate_admissible,
    finite_volume_measure,
    hamiltonian,
    root_marginal,
)
from .scan import (
    CLASS_EXTREMAL_MSW,
    CLASS_NO_CLAIM,
    CLASS_NONEXTREMAL_KS,
    CLASS_SOLVER_ERROR,
    CLASS_UNDETERMINED,
    CSV_COLUMNS,
    classify,
    law_cells,
    scan_row,
    scan_rows,
    theta_grid,
)
# unused by the library; loaded for the benchmark tracer, which wraps it after importing the CLI
from . import rootfind  # noqa: F401

__version__ = "0.1.0"
