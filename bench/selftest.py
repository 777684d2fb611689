#!/usr/bin/env python3
"""Show that each of the benchmark's checks passes on real output and fails on a corrupted copy.

    python3 bench/selftest.py

Runs a small `tripfit fit`, a non-refit sweep and a refit sweep on
mixed_commercial, checks them, then corrupts one thing at a time (a model
threshold, a label, one MAE row, a matrix cell, a library step ...) and
expects the matching check to report it.  Exits 1 if a check misses a
corruption or fails on the real output.  Takes about 15 s on 2 cores.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import tripfit.cli  # noqa: E402
from tripfit.rng import rng_stream  # noqa: E402
from tripfit.sampling import lhs_box  # noqa: E402

import checks  # noqa: E402

TARGET = "mixed_commercial"
SEED = 7
LIBRARY = ROOT / "src" / "tripfit" / "data" / "protection_library.json"


def cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return tripfit.cli.main(argv)


def edit_csv_value(path: Path, row: int, col: int, change) -> None:
    """Apply `change` to one numeric cell, counting data rows after the header from 0."""
    lines = path.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    fields = lines[data[row]].split(",")
    fields[col] = repr(change(float(fields[col])))
    lines[data[row]] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def edit_fit(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def main() -> int:
    work = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(work: Path) -> int:
    base = json.loads((ROOT / "configs" / "example_project.json").read_text())
    base["fit"]["n_starts"] = 6
    spec = {**base["uncertainty"], "gamma_levels": [0.0, 0.3], "trials": 30}
    refit_spec = {**spec, "gamma_levels": [0.3], "refit": True, "matrix_targets": None}
    configs = {}
    for name, unc in (("sweep", spec), ("refit", refit_spec)):
        doc = copy.deepcopy(base)
        doc["uncertainty"] = unc
        configs[name] = work / f"{name}.json"
        configs[name].write_text(json.dumps(doc))

    out = work / "real"
    common = ["--out", str(out), "--seed", str(SEED), "--motor", TARGET]
    assert cli(["fit", "--config", str(configs["sweep"]), *common]) in (0, 1)
    assert cli(["sweep", "--config", str(configs["sweep"]), *common]) == 0
    refit_out = work / "refit"
    refits = []
    original = tripfit.evaluation.fit

    def capture(d, s, f):
        result = original(d, s, f)
        refits.append((d, f.seed, result))
        return result

    tripfit.evaluation.fit = capture
    try:
        shutil.copytree(out, refit_out)
        assert cli(["sweep", "--config", str(configs["refit"]), "--out", str(refit_out),
                    "--seed", str(SEED), "--motor", TARGET]) == 0
    finally:
        tripfit.evaluation.fit = original

    lib = checks.Staircases(LIBRARY)

    def fit_check(d, library=lib):
        return checks.check_fit_outputs(library, d, TARGET, rng_stream, lhs_box)

    def sweep_check(d):
        return checks.check_sweep_outputs(lib, d, TARGET, spec, SEED, rng_stream, lhs_box,
                                          np.random.default_rng(0))

    # A matrix cell that sweep_check recomputes.
    n_levels = len(spec["gamma_levels"])
    cell_row, cell_col = divmod(int(np.random.default_rng(0).choice(
        n_levels * n_levels, size=checks.MATRIX_CELLS, replace=False)[0]), n_levels)

    def refit_check(d, captured=refits):
        return checks.check_refit_outputs(lib, d, TARGET, refit_spec, SEED, captured,
                                          rng_stream, lhs_box)

    fit_json = f"fit_{TARGET}.json"
    train_csv = f"train_{TARGET}.csv"
    long_csv = f"sweep_{TARGET}_long.csv"
    model = json.loads((out / fit_json).read_text())["model"]
    bad_model = {"pi1": 1.0, "tau1_star_s": 5.0, "v1_star_pct": 0.0,
                 "pi2": 0.0, "tau2_star_s": 5.0, "v2_star_pct": 0.0}

    def use_bad_model(doc):
        # Report the bad model's true MAE, so only the oracle can object.
        tau, v = lhs_box(rng_stream(doc["seed"], "eval"), doc["mae_m_points"])
        truth = lib.nominal(TARGET) @ lib.connectivity(TARGET, tau, v)
        doc["model"] = bad_model
        doc["mae"] = float(np.mean(np.abs(checks.two_block(bad_model, tau, v) - truth)))

    def moved_refit(k, **change):
        d, seed, result = refits[k]
        moved = dataclasses.replace(result, model=dataclasses.replace(result.model, **change))
        return refits[:k] + [(d, seed, moved)] + refits[k + 1:]

    def relabel_refit(k):
        d, seed, result = refits[k]
        y = d.y.copy()
        y[3] += 1e-6
        return refits[:k] + [(type(d)(d.tau_f, d.v_f, y), seed, result)] + refits[k + 1:]

    moved_library = json.loads(LIBRARY.read_text())
    moved_library["base_schemes"]["P2"]["steps"][0][1] += 5.0
    moved_library_path = work / "moved_library.json"
    moved_library_path.write_text(json.dumps(moved_library))

    # (name, output folder to copy, edit on the copy, check, word the failure must contain)
    cases = [
        ("fit: one threshold moved", out,
         lambda d: edit_fit(d / fit_json, lambda doc: doc["model"].update(
             tau1_star_s=model["tau1_star_s"] + 0.5)),
         fit_check, "MAE"),
        ("fit: pi1 + pi2 != 1", out,
         lambda d: edit_fit(d / fit_json, lambda doc: doc["model"].update(pi1=model["pi1"] + 0.1)),
         fit_check, "pi1 + pi2"),
        ("fit: model worse than the grid oracle", out,
         lambda d: edit_fit(d / fit_json, use_bad_model), fit_check, "oracle"),
        ("fit: one training label changed", out,
         lambda d: edit_csv_value(d / train_csv, 5, 2, lambda y: y + 1e-9), fit_check, "labels"),
        ("fit: MAE outside [0, 1]", out,
         lambda d: edit_fit(d / fit_json, lambda doc: doc.update(mae=1.5)), fit_check, "[0, 1]"),
        ("library: one step threshold moved", out, lambda d: None,
         lambda d: fit_check(d, checks.Staircases(moved_library_path)), "labels"),
        ("sweep: one MAE row shifted", out,
         lambda d: edit_csv_value(d / long_csv, 40, 2, lambda x: x + 1e-9), sweep_check,
         "recomputation"),
        ("sweep: zero-level trial off by one ulp", out,
         lambda d: edit_csv_value(d / long_csv, 3, 2, lambda x: math.nextafter(x, 1.0)),
         sweep_check, "zero-level"),
        ("sweep: summary mean changed", out,
         lambda d: edit_csv_value(d / f"sweep_{TARGET}_summary.csv", 1, 1, lambda x: x + 1e-6),
         sweep_check, "summary"),
        ("sweep: matrix cell changed", out,
         lambda d: edit_csv_value(d / f"sweep_{TARGET}_matrix.csv", cell_row, 1 + cell_col,
                                  lambda x: x + 1e-9),
         sweep_check, "matrix cell"),
        ("refit: one MAE row shifted", refit_out,
         lambda d: edit_csv_value(d / long_csv, 7, 2, lambda x: x + 1e-9), refit_check,
         "recomputed"),
        ("refit: captured model threshold moved", refit_out, lambda d: None,
         lambda d: refit_check(d, moved_refit(4, tau1_star=0.5 * refits[4][2].model.tau1_star)),
         "recomputed"),
        ("refit: captured training label changed", refit_out, lambda d: None,
         lambda d: refit_check(d, relabel_refit(9)), "labels"),
    ]

    failures = 0
    for name, folder, problems in (("real fit", out, fit_check(out)),
                                   ("real sweep", out, sweep_check(out)),
                                   ("real refit sweep", refit_out, refit_check(refit_out))):
        status = "ok" if not problems else "FAILED"
        failures += bool(problems)
        print(f"{status:>6}  {name} passes its checks {problems[:2] if problems else ''}")
    for k, (name, folder, corrupt, check, word) in enumerate(cases):
        copy_dir = work / f"case{k}"
        shutil.copytree(folder, copy_dir)
        corrupt(copy_dir)
        problems = check(copy_dir)
        caught = any(word in p for p in problems)
        failures += not caught
        print(f"{'ok' if caught else 'MISSED':>6}  {name}: "
              f"{problems[0] if problems else 'no check failed'}")
    print("self-test passed" if not failures else f"self-test FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
