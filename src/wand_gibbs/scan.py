"""Activity-grid scanning: the grid (``theta_grid``, linear or log-uniform), one
report row per point (``scan_row``), and ``law_cells``, the cells of a solved law."""

from __future__ import annotations

import math

from .model import DEFAULT_RESIDUAL_TOL, BoundaryLaw, ModelParams, _real, _shown
from .solver import (SolverError, _asymmetric_root, _log_theta_critical, _symmetric_root,
                     _typed_overflow, solve_symmetric)  # the last, unused here, for a benchmark test
from .chain import _law_spectrum

__all__ = [
    "CLASS_NONEXTREMAL_KS",
    "CLASS_EXTREMAL_MSW",
    "CLASS_UNDETERMINED",
    "CLASS_SOLVER_ERROR",
    "CLASS_NO_CLAIM",
    "LAW_CELLS",
    "CSV_COLUMNS",
    "classify",
    "law_cells",
    "theta_grid",
    "scan_row",
    "scan_rows",
    "format_value",
]

CLASS_NONEXTREMAL_KS = "nonextremal-KS"
CLASS_EXTREMAL_MSW = "extremal-MSW"
CLASS_UNDETERMINED = "undetermined"
#: label of a row whose point could not be solved; its other cells are empty
CLASS_SOLVER_ERROR = "solver-error"
#: label of an asymmetric law: no extremality statement is made for the pair
CLASS_NO_CLAIM = "no-claim"

#: the report cells of a solved law, in column order (``law_cells``)
LAW_CELLS = ("s1", "s2", "lambda2", "ks_value", "kappa", "gamma", "product", "classification")

#: flat-table column order, stable across releases
CSV_COLUMNS = ("theta", "z_sym", "z_asym_1", "z_asym_2", "tisgm_count") + LAW_CELLS


def classify(ks_value: float) -> str:
    """Regime label of the symmetric law from its Kesten-Stigum statistic.

    ks_value > 1 proves non-extremality; ks_value < 1 is the certificate
    product k * kappa * gamma < 1 (the two are equal, see ``extremality``)
    and proves extremality; the boundary ks_value = 1 is undetermined.
    """
    if ks_value > 1.0:
        return CLASS_NONEXTREMAL_KS
    if ks_value < 1.0:
        return CLASS_EXTREMAL_MSW
    return CLASS_UNDETERMINED


def theta_grid(theta_min: float, theta_max: float, steps: int, scale: str = "linear") -> list:
    """A ``steps``-long grid of finite activities with exact endpoints;
    ``scale`` is ``linear`` or ``log``."""
    theta_min, theta_max = _real(theta_min), _real(theta_max)
    if not 0.0 < theta_min < theta_max < math.inf:  # NaN fails every comparison
        raise ValueError(f"need 0 < theta_min < theta_max < inf, got ({theta_min}, {theta_max})")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {_shown(steps)}")
    if scale not in ("linear", "log"):
        raise ValueError(f"scale must be 'linear' or 'log', got {scale!r}")
    m = steps - 1
    if scale == "log":
        la, lb = math.log(theta_min), math.log(theta_max)
        xs = [math.exp(((m - i) * la + i * lb) / m) for i in range(steps)]
    else:
        # i * theta_max overflows once theta_max > DBL_MAX / m: then scale by a
        # power of two above m, which is exact and leaves every other grid as it was
        unit = 2.0 ** m.bit_length() if math.isinf(m * theta_max) else 1.0
        a, b = theta_min / unit, theta_max / unit
        xs = [((m - i) * a + i * b) / m * unit for i in range(steps)]
    xs[0], xs[-1] = theta_min, theta_max
    return xs


def law_cells(law: BoundaryLaw, params: ModelParams) -> dict:
    """The LAW_CELLS of a solved law, keyed by name in that order.  Only
    the symmetric law (z1 == z2) is classified; no extremality statement
    is made for the asymmetric pair (CLASS_NO_CLAIM).  The spectral cells
    of every law come from ``chain._law_spectrum``: the matrix path's bits,
    with no matrix built."""
    s1, s2, lambda2, ks_value = _law_spectrum(law, params.theta, params.k)
    if law.symmetric:
        # kappa = gamma(p0 = 1/2) = lambda2 for the symmetric law, derived in
        # the ``extremality`` docstring, so the product is k lambda2^2
        kappa = gamma = lambda2
        product = ks_value
        label = classify(ks_value)
    else:
        kappa = gamma = product = None
        label = CLASS_NO_CLAIM
    return dict(zip(LAW_CELLS, (s1, s2, lambda2, ks_value, kappa, gamma, product, label)))


@_typed_overflow
def scan_row(params: ModelParams, tol: float = DEFAULT_RESIDUAL_TOL) -> dict:
    """Solve everything at one (k, theta) and classify the regime: one row keyed
    by CSV_COLUMNS in order, with the roots from the solver's two kernels, the
    asymmetric root with z1 > z2 (None above the critical activity) and the
    symmetric law's ``law_cells``."""
    k, theta = params
    log_theta = math.log(theta)
    sym = _symmetric_root(k, theta, log_theta, tol)
    z_asym_1 = z_asym_2 = None
    if log_theta < _log_theta_critical(k):
        z_asym_1, z_asym_2, _ = _asymmetric_root(k, theta, log_theta, tol)
    s1, s2, lambda2, ks_value = _law_spectrum(sym, theta, k)
    return {"theta": theta, "z_sym": sym.z1, "z_asym_1": z_asym_1, "z_asym_2": z_asym_2,
            "tisgm_count": 1 if z_asym_1 is None else 3, "s1": s1, "s2": s2, "lambda2": lambda2,
            "ks_value": ks_value, "kappa": lambda2, "gamma": lambda2, "product": ks_value,
            "classification": classify(ks_value)}


def _csv_line(row: dict) -> str:
    """A ``scan_rows`` row, keyed by CSV_COLUMNS in order, as one CSV line of
    ``format_value`` cells, each distinct value formatted once: ``scan_row``
    sets kappa and gamma to lambda2 and product to ks_value, so their text
    is reused, and a CLASS_SOLVER_ERROR row has only its theta and label."""
    theta, z_sym, z1, z2, count, s1, s2, lambda2, ks_value, _, _, _, label = row.values()
    if count is None:
        return format_value(theta) + "," * 12 + label
    asym = "," if z1 is None else "%.17g,%.17g" % (z1, z2)  # two cells, empty at count 1
    lambda2, ks_value = "%.17g" % lambda2, "%.17g" % ks_value
    return "%.17g,%.17g,%s,%d,%.17g,%.17g,%s,%s,%s,%s,%s,%s" % (
        theta, z_sym, asym, count, s1, s2, lambda2, ks_value, lambda2, lambda2, ks_value, label)


def scan_rows(k: int, thetas, tol: float = DEFAULT_RESIDUAL_TOL) -> list:
    """One ``scan_row`` per grid point, in grid order.

    A point whose solve raises SolverError or ArithmeticError yields a
    CLASS_SOLVER_ERROR row instead of ending the scan: it keeps only
    ``theta``, and every other cell is None."""
    rows = []
    for theta in thetas:
        try:
            rows.append(scan_row(ModelParams(k, theta), tol))
        except (SolverError, ArithmeticError):
            rows.append(dict(dict.fromkeys(CSV_COLUMNS), theta=theta,
                             classification=CLASS_SOLVER_ERROR))
    return rows


def format_value(value) -> str:
    """Deterministic cell formatting: 17 significant digits for floats."""
    if isinstance(value, float):
        return "%.17g" % value  # the text of format(value, ".17g"), at less cost
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")
