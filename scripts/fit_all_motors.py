#!/usr/bin/env python3
"""Fit the two-block protection model for every motor class (A-D).

Writes fit_<motor>.json / train_<motor>.csv under the configured output
directory and prints a summary table of the fitted parameters and MAE for
the motors whose fit ran; the exit status is the number of motors whose fit
did not run (an input error, `tripfit fit` exit 2).

Usage:
    python scripts/fit_all_motors.py [--config configs/example_project.json]
                                     [--out out_motors] [--seed N]
"""

import argparse
import json
import sys
from pathlib import Path

from tripfit.cli import main as tripfit_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(REPO_ROOT / "configs" / "example_project.json"))
    parser.add_argument("--out", default="out_motors")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    common = ["--config", args.config, "--out", args.out]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]

    # Exit 0 is a converged fit and 1 a fit that ended above gtol; both write
    # fit_<motor>.json.  Any other exit wrote nothing, and a fit_<motor>.json
    # left from an earlier run must not be listed as this run's result.
    fitted = [motor for motor in "ABCD"
              if tripfit_main(["fit", *common, "--motor", motor]) in (0, 1)]
    failures = 4 - len(fitted)

    if fitted:
        print()
        print(f"{'motor':>6} {'pi1':>7} {'tau1*':>7} {'v1*':>7} {'pi2':>7} "
              f"{'tau2*':>7} {'v2*':>7} {'MAE':>7}")
    for motor in fitted:
        doc = json.loads((Path(args.out) / f"fit_{motor}.json").read_text())
        m = doc["model"]
        print(f"{motor:>6} {m['pi1']:7.3f} {m['tau1_star_s']:7.3f} {m['v1_star_pct']:7.2f} "
              f"{m['pi2']:7.3f} {m['tau2_star_s']:7.3f} {m['v2_star_pct']:7.2f} "
              f"{doc['mae']:7.4f}")
    return failures


if __name__ == "__main__":
    sys.exit(run())
