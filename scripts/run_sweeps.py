#!/usr/bin/env python3
"""Run the full desk-scale strong-hull sweeps and write JSON reports.

Covers the three planar types at their acceptance radii plus the line
model, each through the same code path as `coxhull check`.
"""

import argparse
import pathlib
import sys

from coxhull.cli import main as coxhull_main

SWEEPS = [
    ("a2t", 6),
    ("c2t", 6),
    ("g2t", 5),
    ("i2inf", 8),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports", help="report directory")
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    worst = 0
    for code, radius in SWEEPS:
        report = out / f"sweep_{code}_r{radius}.json"
        rc = coxhull_main([
            "check", "--type", code, "--radius", str(radius),
            "--report", str(report),
        ])
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
