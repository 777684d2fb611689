#!/usr/bin/env python3
"""Full accuracy/uncertainty study on the bundled mixed-protection composite.

Fits the two-block model to the `mixed_commercial` composite (its MAE is in
fit_mixed_commercial.json), emits heatmap grids for the true and fitted
protection functions, the per-level MAE sweep (long + summary CSV) and the
two-scheme level-pair matrix.  All outputs are plot-ready CSV or JSON under
--out.

Usage:
    python scripts/uncertainty_study.py [--out out_uncertainty] [--seed N]
                                        [--resolution 201]
"""

import argparse
import sys
from pathlib import Path

from tripfit.cli import main as tripfit_main

REPO_ROOT = Path(__file__).resolve().parents[1]
TARGET = "mixed_commercial"


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(REPO_ROOT / "configs" / "example_project.json"))
    parser.add_argument("--out", default="out_uncertainty")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--resolution", type=int, default=201)
    args = parser.parse_args(argv)

    common = ["--config", args.config, "--out", args.out, "--motor", TARGET]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]

    steps = [
        ["fit", *common],
        ["grid", *common, "--target", "true", "--resolution", str(args.resolution)],
        ["grid", *common, "--target", "fitted", "--resolution", str(args.resolution)],
        ["sweep", *common],
    ]
    for step in steps:
        code = tripfit_main(step)
        if code not in (0, 1):
            return code
    print(f"\nall artifacts under {Path(args.out).resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
