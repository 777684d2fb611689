#!/usr/bin/env python3
"""Run the benchmark several times, one seed each, and summarize every metric.

    python3 bench/repeat.py --workload mc_sweep --runs 10 --first-seed 1 [--trace 0]

Runs are sequential, one process at a time, each as long as `run_seconds`
in BENCHMARK.json.  For each metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median.  Raw results, with each run's seed and wall time,
are appended as JSON lines to
.bench_out/repeat-<workload>-trace<t>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".bench_out"


def summarize(results: list[dict]) -> dict[str, dict[str, float]]:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else float("nan")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]

    OUT_DIR.mkdir(exist_ok=True)
    log = OUT_DIR / f"repeat-{args.workload}-trace{args.trace}.jsonl"
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - start
        results.append(result)
        with open(log, "a") as fh:
            fh.write(json.dumps(result) + "\n")
        print(json.dumps(result), flush=True)
    if len(results) < 2:
        return 0
    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, s in summarize(results).items():
        print(f"{name:<36} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
              f"{s['spread']:>8.4f}")
    print(f"attempted {[r['attempted'] for r in results]} failed {[r['failed'] for r in results]} "
          f"correct {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
