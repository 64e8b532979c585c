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

from wand_gibbs.chain import NoBracketError, ks_threshold_pair
from wand_gibbs.model import ModelParams
from wand_gibbs.scan import scan_row
from wand_gibbs.solver import theta_critical


def main() -> int:
    print("critical activity (three measures below, one at or above):")
    for k in range(2, 11):
        print(f"  k={k:2d}: theta_cr = {theta_critical(k):.10f}")

    print("\nregime windows (non-extremal outside, certified extremal inside):")
    for k in (2, 3):
        lower, upper = ks_threshold_pair(k)  # the certificate's window too (``extremality``)
        print(f"  k={k}: KS  ({lower:.8f}, {upper:.8f})")
        print(f"       MSW ({lower:.8f}, {upper:.8f})")

    print("\nhigh orders: min Kesten-Stigum statistic, at theta = 1 (k = 4: exactly 1,"
          " where the strict criterion does not fire; undetermined):")
    for k in range(4, 11):
        try:
            ks_threshold_pair(k)
        except NoBracketError as exc:
            ks_value = scan_row(ModelParams(k, 1.0))["ks_value"]
            print(f"  k={k:2d}: min k*lambda2^2 = {ks_value!r} (k/4 = {k / 4}); {exc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
