#!/usr/bin/env python3
"""Benchmark of tripfit's fitting and Monte Carlo sweep paths.

Run from the repository root:

    python3 bench/run.py --workload mc_sweep --seed 1 --seconds 40 --trace 0

Workloads: mc_sweep, refit_sweep (see bench/README.md).  The
program is imported from ./src and driven through its CLI verbs in this
process.  With --trace 0 the run reports the end-to-end metrics: setup_s
(median over fresh interpreters), ops_per_s and cpu_ms_per_op (over the
whole timed phase) and peak_rss_mb.  With --trace 1 it runs a fixed number of
rounds with spans around every layer and reports the per-layer metrics.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5
TRACE_ROUNDS = 1
WORKLOADS = ("mc_sweep", "refit_sweep")  # the keys of workloads.SWEEPS
SETUP_TIMEOUT_S = 60


def _cpu_seconds() -> float:
    """User + system time of every thread of this process and of its waited-for children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready', clean up and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _setup(args, run_dir: Path, before_prepare=None):
    """Import tripfit from ./src, write and load the config and run round 0's nominal fit.

    Returns the workload, tripfit, the import time and the fit's exit code.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import tripfit.cli
    import_s = time.perf_counter() - t0
    if Path(tripfit.__file__).resolve().parent != ROOT / "src" / "tripfit":
        raise RuntimeError(f"imported tripfit from {tripfit.__file__}, not from {ROOT / 'src'}")
    import workloads  # after tripfit, so that import_s covers numpy's import too

    if before_prepare is not None:
        before_prepare(tripfit)
    wl = workloads.Workload(args.workload, ROOT, run_dir, args.seed, tripfit)
    code = _invoke(tripfit.cli.main, wl.argv("fit", 0))
    return wl, tripfit, import_s, code


def _invoke(main, argv) -> int | None:
    """One CLI call with its stdout discarded; None if it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return None


def _setup_times(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to its 'ready' line, per sample."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0 or line != "ready":
            raise RuntimeError(f"set-up child exited {proc.returncode} after {line!r} {rest!r}")
        times.append(elapsed)
    return times


def _run(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = OUT_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        if args.setup_only:
            _setup(args, run_dir)
            print("ready", flush=True)
            return 0
        return _measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, run_dir: Path) -> int:
    setup_times = [] if args.trace else _setup_times(args)

    tracer = patches = None

    def install_tracer(tripfit):
        nonlocal tracer, patches
        import tracing
        tracer, patches = tracing.Tracer(), tracing.Patches()
        tracing.install(tracer, patches, tripfit)

    wl, tripfit, import_s, fit_code = _setup(args, run_dir,
                                             install_tracer if args.trace else None)
    main = tripfit.cli.main
    sweep_main = tracer.wrap("cli.sweep", main) if tracer else main

    # Per round: the exit codes of its nominal fit and its sweep (None if it
    # raised).  The timed phase is the sum of the sweeps' wall and CPU time.
    codes: list[tuple[int | None, int | None]] = []
    timed_s = cpu_s = last_s = 0.0
    # An untraced run starts another round while half a round's time is left,
    # so its timed phase lasts about --seconds.  A traced run does a fixed
    # number of rounds, so that its counts repeat exactly.
    while (len(codes) < TRACE_ROUNDS) if args.trace else (
            not codes or timed_s + last_s / 2 < args.seconds):
        r = len(codes)
        if r:
            fit_code = _invoke(main, wl.argv("fit", r))
        if fit_code not in (0, 1):
            codes.append((fit_code, None))
            break
        argv = wl.argv("sweep", r)
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        code = _invoke(sweep_main, argv)
        last_s = time.perf_counter() - wall0
        timed_s += last_s
        cpu_s += _cpu_seconds() - cpu0
        codes.append((fit_code, code))
        if code != 0:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
    if patches is not None:
        patches.restore()

    correct = True
    failed = 0
    for r, (fit_code, code) in enumerate(codes):
        if fit_code == 1:
            wl.notes.append(f"nominal fit not converged (exit 1): round {r}")
        if fit_code not in (0, 1) or code != 0:
            print(f"failed: round {r}: nominal fit exit {fit_code}, sweep exit {code}",
                  file=sys.stderr)
            failed += wl.ops
            continue
        problems = wl.check(r)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if problems:
            correct = False
            failed += wl.ops
    for note in wl.notes:
        print(note, file=sys.stderr)

    attempted = wl.ops * len(codes)
    done = attempted - failed
    ops_per_s = done / timed_s if timed_s else 0.0
    if args.trace:
        import tracing
        metrics = tracing.layer_metrics(tracer, import_s)
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "cpu_ms_per_op": (1e3 * cpu_s / done if done else 0.0, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [p for p in (ROOT / "src" / "tripfit" / "__init__.py",
                           ROOT / "configs" / "example_project.json") if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a tripfit checkout",
              file=sys.stderr)
        return 2
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
