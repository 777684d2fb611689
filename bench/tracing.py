"""Spans and counters recorded around tripfit's public functions.

The tracer replaces module attributes with wrappers, so every call that
tripfit makes through one of those names opens a span: (name, start, end,
parent).  Spans live in flat arrays while the run goes on and are written to
a file once it ends.  Self time is a span's duration minus the durations of
its direct children.  Nothing inside tripfit is edited; `Patches.restore`
puts every original back.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(result, args)` may add counts."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - children
        out = {}
        for nid, name in enumerate(self.names):
            mask = ids == nid
            out[name] = {"calls": int(mask.sum()), "s": float(dur[mask].sum()),
                         "self_s": float(own[mask].sum())}
        return out

    def write(self, path: Path) -> None:
        doc = {"names": self.names, "name": self.name_id.tolist(), "start": self.start.tolist(),
               "end": self.end.tolist(), "parent": self.parent.tolist()}
        path.write_text(json.dumps(doc))


def install(tracer: Tracer, patches: Patches, tripfit) -> None:
    """Wrap the public functions of every tripfit layer, where the callers see them."""
    cli, evaluation, protection, regression, sampling = (
        tripfit.cli, tripfit.evaluation, tripfit.protection, tripfit.regression, tripfit.sampling)
    counts = tracer.counts
    wrap = tracer.wrap

    def after_fit(result, args):
        costs = result.diagnostics["start_costs"]
        best = min(costs)
        counts["fit_not_converged"] += not result.converged
        counts["starts"] += len(costs)
        counts["redundant_starts"] += sum(
            1 for k, c in enumerate(costs)
            if k != result.start_index and abs(c - best) <= 1e-6 * abs(best))

    def after_evaluate(result, args):
        counts["points"] += np.size(result)

    def traced_minimize(original):
        traced = wrap("regression.lbfgsb", original, lambda res, args: counts.update(
            lbfgsb_iters=int(res.nit)))

        def minimize(fun, *args, **kwargs):
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            try:
                return traced(wrap("regression.cost_grad", fun), *args, **kwargs)
            finally:
                counts["lbfgsb_cpu_s"] += time.process_time() - cpu0
                counts["lbfgsb_wall_s"] += time.perf_counter() - wall0

        return minimize

    def counted_weight(original):
        def weight(tau_f, v_f, cfg):
            w = original(tau_f, v_f, cfg)
            counts["proposed"] += np.size(w)
            counts["accepted"] += int(np.count_nonzero(np.asarray(w) >= cfg.weight_threshold))
            return w
        return weight

    patches.replace(cli, "load_config", lambda f: wrap("config.load_config", f))
    for module in (cli, evaluation):
        patches.replace(module, "sample_training", lambda f: wrap("sampling.sample_training", f))
        patches.replace(module, "fit", lambda f: wrap("regression.fit", f, after_fit))
    for module in (evaluation, regression, sampling):
        patches.replace(module, "rng_stream", lambda f: wrap("rng.rng_stream", f))
    patches.replace(regression, "minimize", traced_minimize)
    patches.replace(sampling, "weight", counted_weight)
    patches.replace(protection.TripZone, "contains", lambda f: wrap("protection.contains", f))
    patches.replace(protection.CompositeProtection, "evaluate",
                    lambda f: wrap("protection.evaluate", f, after_evaluate))
    patches.replace(evaluation, "perturb_fractions",
                    lambda f: wrap("evaluation.perturb_fractions", f))
    patches.replace(cli, "mae", lambda f: wrap("evaluation.mae", f))
    patches.replace(cli, "uncertainty_sweep", lambda f: wrap("evaluation.uncertainty_sweep", f))
    patches.replace(cli, "uncertainty_matrix", lambda f: wrap("evaluation.uncertainty_matrix", f))
    for writer in ("_write_json", "sweep_long_csv", "sweep_summary_csv", "matrix_csv"):
        patches.replace(cli, writer, lambda f: wrap("cli.artifacts", f))
    patches.replace(sampling.Dataset, "to_csv", lambda f: wrap("cli.artifacts", f))


def layer_metrics(tracer: Tracer, import_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""
    t = tracer.totals()
    c = tracer.counts

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    fits = get("regression.fit", "calls")
    cost_calls = get("regression.cost_grad", "calls")
    cost_s = get("regression.cost_grad", "s")
    return {
        "config.import_s": (import_s, "s"),
        "config.load_config_s": (get("config.load_config", "s"), "s"),
        "regression.fit_calls": (fits, "count"),
        "regression.fit_s": (get("regression.fit", "s"), "s"),
        "regression.fit_not_converged": (c["fit_not_converged"], "count"),
        "regression.starts_per_fit": (ratio(c["starts"], fits), "count"),
        "regression.redundant_start_share": (ratio(c["redundant_starts"], c["starts"]), "ratio"),
        "regression.lbfgsb_solves": (get("regression.lbfgsb", "calls"), "count"),
        "regression.lbfgsb_iters": (c["lbfgsb_iters"], "count"),
        "regression.lbfgsb_self_s": (get("regression.lbfgsb", "self_s"), "s"),
        "regression.lbfgsb_cpu_over_wall": (ratio(c["lbfgsb_cpu_s"], c["lbfgsb_wall_s"]), "ratio"),
        "regression.cost_grad_calls": (cost_calls, "count"),
        "regression.cost_grad_s": (cost_s, "s"),
        "regression.cost_grad_us": (1e6 * ratio(cost_s, cost_calls), "us"),
        "protection.evaluate_calls": (get("protection.evaluate", "calls"), "count"),
        "protection.evaluate_s": (get("protection.evaluate", "self_s"), "s"),
        "protection.contains_calls": (get("protection.contains", "calls"), "count"),
        "protection.contains_s": (get("protection.contains", "s"), "s"),
        "protection.points_per_s": (ratio(c["points"], get("protection.evaluate", "s")), "1/s"),
        "rng.rng_stream_calls": (get("rng.rng_stream", "calls"), "count"),
        "rng.rng_stream_s": (get("rng.rng_stream", "s"), "s"),
        "evaluation.perturb_fractions_calls": (get("evaluation.perturb_fractions", "calls"), "count"),
        "evaluation.perturb_fractions_s": (get("evaluation.perturb_fractions", "s"), "s"),
        "evaluation.sweep_self_s": (get("evaluation.uncertainty_sweep", "self_s")
                                    + get("evaluation.uncertainty_matrix", "self_s"), "s"),
        "evaluation.mae_s": (get("evaluation.mae", "s"), "s"),
        "sampling.sample_training_calls": (get("sampling.sample_training", "calls"), "count"),
        "sampling.sample_training_s": (get("sampling.sample_training", "s"), "s"),
        "sampling.acceptance": (ratio(c["accepted"], c["proposed"]), "ratio"),
        "cli.artifacts_s": (get("cli.artifacts", "s"), "s"),
    }
