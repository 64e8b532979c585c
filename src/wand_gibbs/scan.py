"""Activity-grid scanning: the grid (``theta_grid``, linear or log-uniform), one
report row per point, and ``law_cells``, the one path from a solved law to its cells."""

from __future__ import annotations

import math

from .model import DEFAULT_RESIDUAL_TOL, BoundaryLaw, ModelParams
from .solver import SolverError, solve_symmetric, find_asymmetric
from .chain import _law_spectrum

__all__ = [
    "CLASS_NONEXTREMAL_KS",
    "CLASS_EXTREMAL_MSW",
    "CLASS_UNDETERMINED",
    "CLASS_SOLVER_ERROR",
    "CLASS_NO_CLAIM",
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

#: flat-table column order, stable across releases
CSV_COLUMNS = (
    "theta", "z_sym", "z_asym_1", "z_asym_2", "tisgm_count",
    "s1", "s2", "lambda2", "ks_value", "kappa", "gamma", "product",
    "classification",
)


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
    """A ``steps``-long grid with exact endpoints; ``scale`` is ``linear`` or ``log``."""
    if not theta_min > 0.0 or not theta_max > theta_min:
        raise ValueError(f"need 0 < theta_min < theta_max, got ({theta_min}, {theta_max})")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
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
    """s1, s2, lambda2, ks_value, kappa, gamma, product and classification
    of a solved law.  Only the symmetric law (z1 == z2) is classified; no
    extremality statement is made for the asymmetric pair (CLASS_NO_CLAIM).
    The spectral cells of every law come from ``chain._law_spectrum``: the
    matrix path's bits, with no matrix built."""
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
    return {"s1": s1, "s2": s2, "lambda2": lambda2, "ks_value": ks_value, "kappa": kappa,
            "gamma": gamma, "product": product, "classification": label}


def scan_row(params: ModelParams, tol: float = DEFAULT_RESIDUAL_TOL) -> dict:
    """Solve everything at one (k, theta) and classify the regime: one row,
    keyed by CSV_COLUMNS in order.

    All spectral and certificate cells refer to the symmetric law.  The
    asymmetric cells hold the representative root with z1 > z2 and are None
    above the critical activity."""
    sym = solve_symmetric(params, tol)
    asym = find_asymmetric(params, tol=tol)
    z_asym_1 = z_asym_2 = None
    if asym:
        z_asym_1, z_asym_2 = asym[0].z1, asym[0].z2
    return {
        "theta": params.theta,
        "z_sym": sym.z1,
        "z_asym_1": z_asym_1,
        "z_asym_2": z_asym_2,
        "tisgm_count": 1 + len(asym),
        **law_cells(sym, params),
    }


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
