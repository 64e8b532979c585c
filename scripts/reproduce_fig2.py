#!/usr/bin/env python3
"""Regenerate the k=3 regime figure: spectral-gap curves over activity.

Writes a scan CSV and the corresponding SVG (curves 3*s1^2-1 and 3*s2^2-1
with the zero line and threshold markers), and prints the closed-form
thresholds of both criteria.

Usage:
    python3 scripts/reproduce_fig2.py [--out-dir OUT] [--steps N]
"""

import argparse
from pathlib import Path

from wand_gibbs.chain import ks_threshold_pair
from wand_gibbs.cli import main as cli_main
from wand_gibbs.extremality import msw_threshold_pair


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--theta-min", type=float, default=0.1)
    parser.add_argument("--theta-max", type=float, default=3.0)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "regime_k3.csv"
    svg_path = out_dir / "regime_k3.svg"

    code = cli_main([
        "scan", "--k", "3",
        "--theta-min", str(args.theta_min),
        "--theta-max", str(args.theta_max),
        "--steps", str(args.steps),
        "--out", str(csv_path),
    ])
    if code != 0:
        return code
    code = cli_main(["plot", str(csv_path), "--out", str(svg_path)])
    if code != 0:
        return code

    ks = ks_threshold_pair(3)
    msw = msw_threshold_pair(3)
    print(f"wrote {csv_path} and {svg_path}")
    print(f"k=3 Kesten-Stigum thresholds: lower {ks[0]:.8f}, upper {ks[1]:.8f}")
    print(f"k=3 certificate thresholds:   lower {msw[0]:.8f}, upper {msw[1]:.8f}")
    print("non-extremal below the lower / above the upper; extremal in between")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
