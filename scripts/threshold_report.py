#!/usr/bin/env python3
"""Print the full regime picture over tree orders.

For k = 2 and 3: the critical activity, the Kesten-Stigum window and the
extremality-certificate window (they coincide).  For k = 4..10: the minimum
k/4 of the Kesten-Stigum statistic, taken at theta = 1 (see ``chain`` for
why it is the minimum), and the reason there is no crossing: the symmetric
measure is non-extremal at every activity, with the k = 4, theta = 1
boundary point sitting exactly on the criterion.

Usage:
    python3 scripts/threshold_report.py
"""

from wand_gibbs.chain import NoBracketError, ks_threshold_pair, spectrum, transition_matrix
from wand_gibbs.extremality import msw_threshold_pair
from wand_gibbs.model import ModelParams
from wand_gibbs.solver import solve_symmetric, theta_critical


def main() -> int:
    print("critical activity (three measures below, one at or above):")
    for k in range(2, 11):
        print(f"  k={k:2d}: theta_cr = {theta_critical(k):.10f}")

    print("\nregime windows (non-extremal outside, certified extremal inside):")
    for k in (2, 3):
        ks = ks_threshold_pair(k)
        msw = msw_threshold_pair(k)
        print(f"  k={k}: KS  ({ks[0]:.8f}, {ks[1]:.8f})")
        print(f"       MSW ({msw[0]:.8f}, {msw[1]:.8f})")

    print("\nhigh orders: min Kesten-Stigum statistic, at theta = 1 (k = 4: exactly 1,"
          " where the strict criterion does not fire; undetermined):")
    for k in range(4, 11):
        rep = spectrum(transition_matrix(solve_symmetric(ModelParams(k, 1.0)), 1.0), k)
        try:
            ks_threshold_pair(k)
        except NoBracketError as exc:
            print(f"  k={k:2d}: min k*lambda2^2 = {rep.ks_value!r} (k/4 = {k / 4}); {exc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
