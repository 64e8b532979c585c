"""Plain bisection and grid scans for sign changes, used by no library path:
``chain`` has the thresholds in closed form.  They stay only because the
benchmark's per-layer report reads them by name, so deleting this module
takes a change to the benchmark; until then the tests' bisection oracle
for the thresholds is built on them."""

from __future__ import annotations

from .chain import NoBracketError
from .scan import theta_grid


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


def sign_change_brackets(fn, lo: float, hi: float, points: int) -> list:
    """Scan ``fn`` on a log grid and return (a, b) pairs bracketing each sign change.

    A grid point where ``fn`` is exactly zero counts as a degenerate (x, x)
    bracket only when flanked by values of opposite sign; a mere touch of
    zero without a sign change (including at the scan endpoints) is not a
    regime boundary and is ignored.
    """
    xs = theta_grid(lo, hi, points, "log")
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
