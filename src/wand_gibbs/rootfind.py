"""Activity grids, grid scans for sign changes and plain bisection.

The library uses ``grid`` (for ``scan``) and ``NoBracketError`` (for the
missing Kesten-Stigum crossing at k >= 4).  It no longer searches for
thresholds: ``chain`` gives them in closed form.  ``bisect`` and
``sign_change_brackets`` remain here because the benchmark's per-layer
report reads them by name (``rootfind.bisect.calls_per_answer``,
``rootfind.sign_change_brackets.points_per_answer``), so removing them
takes a change to the benchmark; until then the tests' bisection oracle
for the closed-form thresholds is built on them.
"""

from __future__ import annotations

import math


class NoBracketError(RuntimeError):
    """No sign change was found on the scan grid."""


def bisect(fn, lo: float, hi: float, xtol: float) -> float:
    """Root of ``fn`` in [lo, hi] by plain bisection.

    Requires a sign change (or an exact zero) on the interval.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoBracketError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def grid(lo: float, hi: float, points: int, log_scale: bool = True) -> list:
    """A ``points``-long grid with exact endpoints, linear or log-uniform."""
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if log_scale:
        la, lb = math.log(lo), math.log(hi)
        xs = [math.exp(((points - 1 - i) * la + i * lb) / (points - 1)) for i in range(points)]
    else:
        m = points - 1
        # i * hi overflows once hi > DBL_MAX / m: then scale by a power of two
        # above m, which is exact and leaves every other grid as it was
        unit = 2.0 ** m.bit_length() if math.isinf(m * hi) else 1.0
        a, b = lo / unit, hi / unit
        xs = [((m - i) * a + i * b) / m * unit for i in range(points)]
    xs[0], xs[-1] = lo, hi
    return xs


def sign_change_brackets(fn, lo: float, hi: float, points: int, log_scale: bool = True) -> list:
    """Scan ``fn`` on a grid and return (a, b) pairs bracketing each sign change.

    A grid point where ``fn`` is exactly zero counts as a degenerate (x, x)
    bracket only when flanked by values of opposite sign; a mere touch of
    zero without a sign change (including at the scan endpoints) is not a
    regime boundary and is ignored.
    """
    xs = grid(lo, hi, points, log_scale)
    fs = [fn(x) for x in xs]
    brackets = []
    n = len(xs)
    i = 0
    while i < n:
        if fs[i] == 0.0:
            j = i
            while j + 1 < n and fs[j + 1] == 0.0:
                j += 1
            left = fs[i - 1] if i > 0 else None
            right = fs[j + 1] if j + 1 < n else None
            if left is not None and right is not None and (left > 0.0) != (right > 0.0):
                brackets.append((xs[i], xs[i]))
            i = j + 1
            continue
        if i + 1 < n and fs[i + 1] != 0.0 and (fs[i] > 0.0) != (fs[i + 1] > 0.0):
            brackets.append((xs[i], xs[i + 1]))
        i += 1
    return brackets

