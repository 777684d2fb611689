"""The benchmark's workloads: the `tripfit sweep` a round times, and how its outputs are checked.

Both workloads work on mixed_commercial with the values of
configs/example_project.json, except for the sweep settings below.  A round
r runs an untimed nominal `tripfit fit` (round 0's is part of set-up) and
then one timed `tripfit sweep` from that fit, both at CLI seed
`round_seed(seed, r)` in a folder of its own, so that no two rounds share
inputs.  Every round of a workload does the same work.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

TARGET = "mixed_commercial"
REFIT_LEVELS = [0.2, 0.8]
REFIT_TRIALS = 30

# The "uncertainty" section of each workload's config, from the example project's.
SWEEPS = {
    # The zero level is there for the checks: its trials must equal nominal_mae.
    "mc_sweep": lambda u: {**u, "gamma_levels": [0.0, *u["gamma_levels"]], "refit": False},
    "refit_sweep": lambda u: {**u, "gamma_levels": REFIT_LEVELS, "trials": REFIT_TRIALS,
                              "refit": True, "matrix_targets": None},
}


def round_seed(seed: int, r: int) -> int:
    return 1000 * seed + r


class Workload:
    """A workload's config file, its CLI calls and its checks, for one run."""

    def __init__(self, name: str, root: Path, run_dir: Path, seed: int, tripfit):
        doc = json.loads((root / "configs" / "example_project.json").read_text())
        self.spec = doc["uncertainty"] = SWEEPS[name](doc["uncertainty"])
        self.config = run_dir / "config.json"
        self.config.write_text(json.dumps(doc, indent=2))
        levels = len(self.spec["gamma_levels"])
        matrix = levels if self.spec["matrix_targets"] else 0
        self.ops = self.spec["trials"] * levels * (1 + matrix)  # Monte Carlo trials a sweep runs
        self.run_dir = run_dir
        self.seed = seed
        self.tripfit = tripfit
        self.lib = checks.Staircases(root / "src" / "tripfit" / "data" / "protection_library.json")
        self.notes: list[str] = []  # fits that did not converge, reported on stderr
        # Per round, (dataset, fit seed, result) of each refit its sweep made.
        self.refits: dict[int, list] = {}
        self._capture: list = []
        if self.spec["refit"]:
            original = tripfit.evaluation.fit

            def fit(d, s, f):
                result = original(d, s, f)
                self._capture.append((d, f.seed, result))
                return result

            tripfit.evaluation.fit = fit

    def out(self, r: int) -> Path:
        return self.run_dir / f"round{r}"

    def argv(self, verb: str, r: int) -> list[str]:
        """CLI arguments of round r's `verb`; for a sweep, refits are captured for round r from here on."""
        if verb == "sweep":
            self._capture = self.refits[r] = []
        return [verb, "--config", str(self.config), "--out", str(self.out(r)),
                "--seed", str(round_seed(self.seed, r)), "--motor", TARGET]

    def check(self, r: int) -> list[str]:
        """Check round r's outputs; list its non-converged refits in `notes`."""
        seed = round_seed(self.seed, r)
        rng, lhs = self.tripfit.rng.rng_stream, self.tripfit.sampling.lhs_box
        if not self.spec["refit"]:
            return (checks.check_fit_outputs(self.lib, self.out(r), TARGET, rng, lhs)
                    + checks.check_sweep_outputs(self.lib, self.out(r), TARGET, self.spec, seed,
                                                 rng, lhs, np.random.default_rng([self.seed, r])))
        trials = self.spec["trials"]
        for k, (_, _, result) in enumerate(self.refits[r]):
            if not result.converged:
                level = self.spec["gamma_levels"][k // trials]
                self.notes.append(f"refit not converged: seed {seed} level {level} "
                                  f"trial {k % trials}")
        return checks.check_refit_outputs(self.lib, self.out(r), TARGET, self.spec, seed,
                                          self.refits[r], rng, lhs)
