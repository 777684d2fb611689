"""Checks of tripfit's outputs, computed apart from tripfit's own evaluators.

Nothing here calls tripfit's protection, regression or evaluation code.  The
staircases are read straight from the bundled library JSON, the fitted model
is evaluated as two hard rectangles, and the least-squares optimum over a
coarse grid serves as an oracle for fit quality.  The only tripfit functions
used are the public random streams (`rng_stream`, `lhs_box`), so that the
independent recomputations see the same evaluation points and perturbation
draws as the program.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TAU_MAX = 5.0   # s, the modelling domain of the paper
V_MAX = 100.0   # % of nominal

LABEL_TOL = 1e-12
MAE_TOL = 1e-12
PI_SUM_TOL = 1e-9
ORACLE_SLACK = 0.01
ORACLE_RESOLUTION = 12
MATRIX_CELLS = 3
GRID_RESOLUTION = 401
GRID_MAE_TOL = 0.01

MODEL_KEYS = ("pi1", "tau1_star_s", "v1_star_pct", "pi2", "tau2_star_s", "v2_star_pct")


class Staircases:
    """Trip zones and load fractions read from a protection-library JSON file.

    A scheme trips at (tau, v) iff v is at or below its envelope at tau, the
    highest threshold among steps with tau_break <= tau.  A series
    combination's envelope is the pointwise maximum of its members'.
    """

    def __init__(self, path: Path):
        doc = json.loads(Path(path).read_text())
        self.steps = {name: [tuple(map(float, s)) for s in entry["steps"]]
                      for name, entry in doc["base_schemes"].items()}
        self.members = {name: [name] for name in self.steps}
        self.members.update({name: list(parts) for name, parts in doc["combinations"].items()})
        self.fractions: dict[str, list[tuple[str, float]]] = {}
        for col, motor in enumerate(doc["motor_classes"]):
            self.fractions[motor] = [(name, float(row[col]))
                                     for name, row in doc["fraction_table"].items()]
        for key, mix in doc["composites"].items():
            self.fractions[key] = [(name, float(pi)) for name, pi in mix.items()]
        self.fractions = {key: [(n, pi) for n, pi in mix if pi != 0.0]
                          for key, mix in self.fractions.items()}
        self._grid_truth: dict[str, np.ndarray] = {}
        tau, v = np.meshgrid(np.linspace(0.0, TAU_MAX, GRID_RESOLUTION),
                             np.linspace(0.0, V_MAX, GRID_RESOLUTION))
        self.grid = tau.ravel(), v.ravel()

    def connected(self, name: str, tau: np.ndarray, v: np.ndarray) -> np.ndarray:
        """1.0 where scheme `name` stays connected, 0.0 where it trips."""
        envelope = np.full(np.broadcast(tau, v).shape, -np.inf)
        for member in self.members[name]:
            for tau_break, v_threshold in self.steps[member]:
                envelope = np.where(tau >= tau_break, np.maximum(envelope, v_threshold), envelope)
        return (v > envelope).astype(float)

    def connectivity(self, target: str, tau: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(schemes, points) 0/1 matrix, rows in the target's fraction order."""
        return np.stack([self.connected(name, tau, v) for name, _ in self.fractions[target]])

    def grid_truth(self, target: str) -> np.ndarray:
        """The target's composite on `self.grid`, computed once per target."""
        if target not in self._grid_truth:
            self._grid_truth[target] = self.nominal(target) @ self.connectivity(target, *self.grid)
        return self._grid_truth[target]

    def nominal(self, target: str) -> np.ndarray:
        return np.array([pi for _, pi in self.fractions[target]])

    def names(self, target: str) -> list[str]:
        return [name for name, _ in self.fractions[target]]


def two_block(model: dict, tau: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hard two-block model: block i trips iff tau >= tau_i* and v <= v_i*."""
    trip1 = (tau >= model["tau1_star_s"]) & (v <= model["v1_star_pct"])
    trip2 = (tau >= model["tau2_star_s"]) & (v <= model["v2_star_pct"])
    return 1.0 - model["pi1"] * trip1 - model["pi2"] * trip2


def model_dict(model) -> dict:
    """A tripfit SimplifiedModel as the dict that `fit_*.json` stores."""
    return dict(zip(MODEL_KEYS, (model.pi1, model.tau1_star, model.v1_star,
                                 model.pi2, model.tau2_star, model.v2_star)))


def oracle_mse(tau: np.ndarray, v: np.ndarray, y: np.ndarray) -> float:
    """Least hard-model training MSE over a coarse parameter grid.

    pi1 runs over {0, 0.05, ..., 1}, each block corner over an
    ORACLE_RESOLUTION x ORACLE_RESOLUTION grid of the domain.  With T_i the 0/1 trip
    indicator of corner i and a = 1 - y the tripped share, the MSE of blocks
    (i, j) is mean((pi1 T_i + pi2 T_j - a)^2), expanded into the moments below.
    """
    tau_grid = np.linspace(0.0, TAU_MAX, ORACLE_RESOLUTION)
    v_grid = np.linspace(0.0, V_MAX, ORACLE_RESOLUTION)
    trips = ((tau[None, None, :] >= tau_grid[:, None, None])
             & (v[None, None, :] <= v_grid[None, :, None])).reshape(-1, tau.size).astype(float)
    a = 1.0 - y
    n = tau.size
    share = trips.mean(axis=1)
    overlap = trips @ trips.T / n
    with_a = trips @ a / n
    a_sq = float(a @ a / n)
    best = math.inf
    for k in range(21):
        pi1 = k / 20.0
        pi2 = 1.0 - pi1
        mse = (pi1 * pi1 * share[:, None] + pi2 * pi2 * share[None, :]
               + 2.0 * pi1 * pi2 * overlap
               - 2.0 * pi1 * with_a[:, None] - 2.0 * pi2 * with_a[None, :] + a_sq)
        best = min(best, float(mse.min()))
    return best


def check_model_box(model: dict, where: str) -> list[str]:
    bad = []
    if not all(math.isfinite(model[k]) for k in MODEL_KEYS):
        return [f"{where}: non-finite model parameter {model}"]
    if not (0.0 <= model["pi1"] <= 1.0 and 0.0 <= model["pi2"] <= 1.0):
        bad.append(f"{where}: fractions outside [0, 1]: {model['pi1']}, {model['pi2']}")
    if abs(model["pi1"] + model["pi2"] - 1.0) > PI_SUM_TOL:
        bad.append(f"{where}: pi1 + pi2 = {model['pi1'] + model['pi2']!r}")
    for key, hi in (("tau1_star_s", TAU_MAX), ("tau2_star_s", TAU_MAX),
                    ("v1_star_pct", V_MAX), ("v2_star_pct", V_MAX)):
        if not (0.0 <= model[key] <= hi):
            bad.append(f"{where}: {key} = {model[key]} outside [0, {hi}]")
    return bad


def check_training(lib: Staircases, target: str, fractions: np.ndarray,
                   tau: np.ndarray, v: np.ndarray, y: np.ndarray,
                   model: dict, where: str) -> list[str]:
    """Labels equal the staircase composite; the fit beats the grid oracle + slack."""
    bad = check_model_box(model, where)
    labels = fractions @ lib.connectivity(target, tau, v)
    worst = float(np.abs(labels - y).max()) if y.size else 0.0
    if not worst <= LABEL_TOL:
        bad.append(f"{where}: training labels differ from the staircase composite by {worst:.3g}")
    fit_mse = float(np.mean((two_block(model, tau, v) - y) ** 2))
    oracle = oracle_mse(tau, v, y)
    if not fit_mse <= oracle + ORACLE_SLACK:
        bad.append(f"{where}: hard training MSE {fit_mse:.5f} > grid oracle {oracle:.5f} "
                   f"+ {ORACLE_SLACK}")
    return bad


def check_mae_value(value: float, where: str) -> list[str]:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        return [f"{where}: MAE {value!r} is not finite in [0, 1]"]
    return []


def read_rows(path: Path) -> tuple[dict[str, str], list[list[str]]]:
    """Comment fields (`# key: value`) and the CSV rows after them, header first."""
    comments: dict[str, str] = {}
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            comments[key] = value
        elif line:
            body.append(line)
    return comments, list(csv.reader(body))


def check_fit_outputs(lib: Staircases, out_dir: Path, target: str, rng_stream, lhs_box) -> list[str]:
    """Checks on `fit_<target>.json` and `train_<target>.csv` from `tripfit fit`."""
    where = f"fit {target} in {out_dir.name}"
    try:
        doc = json.loads((out_dir / f"fit_{target}.json").read_text())
        _, rows = read_rows(out_dir / f"train_{target}.csv")
    except (OSError, ValueError) as exc:
        return [f"{where}: unreadable output: {exc}"]
    if rows[0] != ["tau_f_s", "v_f_pct", "y"]:
        return [f"{where}: unexpected training header {rows[0]}"]
    data = np.array(rows[1:], dtype=float).reshape(-1, 3)
    model = doc["model"]
    seed = doc["seed"]
    bad = check_training(lib, target, lib.nominal(target), data[:, 0], data[:, 1], data[:, 2],
                         model, where)
    bad += check_mae_value(doc["mae"], where)

    tau, v = lhs_box(rng_stream(seed, "eval"), doc["mae_m_points"])
    truth = lib.nominal(target) @ lib.connectivity(target, tau, v)
    same_points = float(np.mean(np.abs(two_block(model, tau, v) - truth)))
    if not abs(same_points - doc["mae"]) <= MAE_TOL:
        bad.append(f"{where}: reported MAE {doc['mae']!r} != recomputed {same_points!r}")
    on_grid = float(np.mean(np.abs(two_block(model, *lib.grid) - lib.grid_truth(target))))
    if not abs(on_grid - doc["mae"]) <= GRID_MAE_TOL:
        bad.append(f"{where}: reported MAE {doc['mae']:.4f} is {abs(on_grid - doc['mae']):.4f} "
                   f"from the {GRID_RESOLUTION}^2 grid MAE {on_grid:.4f}")
    return bad


def perturbed(nominal: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Fractions scaled by (1 + gamma) and renormalized to sum to 1."""
    scaled = nominal * (1.0 + gammas)
    return scaled / scaled.sum()


def sweep_gammas(rng, level: float, n: int) -> np.ndarray:
    """The per-scheme perturbations a sweep trial draws from its stream."""
    return np.array([float(rng.uniform(-level, level)) for _ in range(n)])


def _mae_rows(fractions: np.ndarray, conn: np.ndarray, approx: np.ndarray) -> np.ndarray:
    return np.mean(np.abs(approx[None, :] - fractions @ conn), axis=1)


def check_sweep_outputs(lib: Staircases, out_dir: Path, target: str, spec: dict, seed: int,
                        rng_stream, lhs_box, sample_rng: np.random.Generator) -> list[str]:
    """Checks on the long, summary and matrix CSVs of a non-refit `tripfit sweep`.

    Every long-CSV trial is recomputed from its own stream; MATRIX_CELLS
    cells of the level-pair matrix, chosen by `sample_rng`, are recomputed in
    full.  Zero-level trials must equal the nominal MAE exactly.
    """
    where = f"sweep {target} in {out_dir.name}"
    try:
        model = json.loads((out_dir / f"fit_{target}.json").read_text())["model"]
        comments, long_rows = read_rows(out_dir / f"sweep_{target}_long.csv")
        _, summary_rows = read_rows(out_dir / f"sweep_{target}_summary.csv")
        _, matrix_rows = read_rows(out_dir / f"sweep_{target}_matrix.csv")
        nominal_mae = float(comments["nominal_mae"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"{where}: unreadable output: {exc}"]
    levels = spec["gamma_levels"]
    trials = spec["trials"]
    names = lib.names(target)
    nominal = lib.nominal(target)
    tau, v = lhs_box(rng_stream(seed, "sweep_eval"), spec["m_eval"])
    conn = lib.connectivity(target, tau, v)
    approx = two_block(model, tau, v)
    bad = check_mae_value(nominal_mae, where + " nominal")
    recomputed_nominal = float(np.mean(np.abs(approx - nominal @ conn)))
    if not abs(recomputed_nominal - nominal_mae) <= MAE_TOL:
        bad.append(f"{where}: nominal MAE {nominal_mae!r} != recomputed {recomputed_nominal!r}")

    maes = np.array([float(r[2]) for r in long_rows[1:]])
    if long_rows[0] != ["level", "trial", "mae"] or maes.size != len(levels) * trials:
        return bad + [f"{where}: long CSV has {maes.size} rows, expected {len(levels) * trials}"]
    maes = maes.reshape(len(levels), trials)
    bad += [m for li, row in enumerate(maes) for t, x in enumerate(row)
            for m in check_mae_value(float(x), f"{where} level {levels[li]} trial {t}")]
    for li, level in enumerate(levels):
        fractions = np.array([perturbed(nominal, sweep_gammas(rng_stream(seed, "sweep", li, t),
                                                              level, len(names)))
                              for t in range(trials)])
        expected = _mae_rows(fractions, conn, approx)
        worst = float(np.abs(expected - maes[li]).max())
        if not worst <= MAE_TOL:
            bad.append(f"{where}: level {level} trial MAEs differ from recomputation by {worst:.3g}")
        if level == 0.0 and not np.all(maes[li] == nominal_mae):
            bad.append(f"{where}: a zero-level trial differs from nominal_mae {nominal_mae!r}")
        mean, p_lo, p_hi = (float(x) for x in summary_rows[1 + li][1:])
        if not (abs(mean - maes[li].mean()) <= MAE_TOL
                and maes[li].min() <= p_lo <= p_hi <= maes[li].max()):
            bad.append(f"{where}: summary row for level {level} disagrees with the long rows")

    target_a, target_b = spec["matrix_targets"]
    ia, ib = names.index(target_a), names.index(target_b)
    grid = np.array([[float(x) for x in row[1:]] for row in matrix_rows[1:]])
    if grid.shape != (len(levels), len(levels)):
        return bad + [f"{where}: matrix has shape {grid.shape}"]
    bad += [m for x in grid.ravel() for m in check_mae_value(float(x), where + " matrix")]
    for cell in sample_rng.choice(grid.size, size=MATRIX_CELLS, replace=False):
        i, j = divmod(int(cell), len(levels))
        fractions = []
        for t in range(trials):
            rng = rng_stream(seed, "matrix", i, j, t)
            gammas = np.zeros(len(names))
            gammas[ia] = float(rng.uniform(-levels[i], levels[i]))
            gammas[ib] = float(rng.uniform(-levels[j], levels[j]))
            fractions.append(perturbed(nominal, gammas))
        expected = float(_mae_rows(np.array(fractions), conn, approx).mean())
        if not abs(expected - grid[i, j]) <= MAE_TOL:
            bad.append(f"{where}: matrix cell ({levels[i]}, {levels[j]}) = {float(grid[i, j])!r}, "
                       f"recomputed {expected!r}")
    return bad


def check_refit_outputs(lib: Staircases, out_dir: Path, target: str, spec: dict, seed: int,
                        refits: list, rng_stream, lhs_box) -> list[str]:
    """Checks on a refit `tripfit sweep`: every trial's training data, refit and MAE.

    `refits` holds (dataset, fit seed, fit result) for each refit, in call
    order, as captured around `tripfit.evaluation.fit`.
    """
    where = f"refit sweep {target} in {out_dir.name}"
    try:
        _, long_rows = read_rows(out_dir / f"sweep_{target}_long.csv")
    except (OSError, ValueError) as exc:
        return [f"{where}: unreadable output: {exc}"]
    levels = spec["gamma_levels"]
    trials = spec["trials"]
    if len(long_rows) - 1 != len(levels) * trials or len(refits) != len(levels) * trials:
        return [f"{where}: {len(long_rows) - 1} rows and {len(refits)} refits for "
                f"{len(levels) * trials} trials"]
    names = lib.names(target)
    nominal = lib.nominal(target)
    tau, v = lhs_box(rng_stream(seed, "sweep_eval"), spec["m_eval"])
    conn = lib.connectivity(target, tau, v)
    bad = []
    for k, ((data, fit_seed, result), row) in enumerate(zip(refits, long_rows[1:])):
        li, t = divmod(k, trials)
        at = f"{where} level {levels[li]} trial {t}"
        rng = rng_stream(seed, "sweep", li, t)
        fractions = perturbed(nominal, sweep_gammas(rng, levels[li], len(names)))
        if fit_seed != int(rng.integers(0, 2**63 - 1)):
            bad.append(f"{at}: refit seed {fit_seed} is not the trial stream's")
            continue
        model = model_dict(result.model)
        bad += check_training(lib, target, fractions, data.tau_f, data.v_f, data.y, model, at)
        reported = float(row[2])
        bad += check_mae_value(reported, at)
        expected = float(np.mean(np.abs(two_block(model, tau, v) - fractions @ conn)))
        if not abs(expected - reported) <= MAE_TOL:
            bad.append(f"{at}: MAE {reported!r} != recomputed {expected!r}")
    return bad
