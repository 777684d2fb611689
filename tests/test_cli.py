import hashlib
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tripfit.cli import main
from tripfit.config import ConfigError, load_config
from tripfit.library import BUILTIN, read_library

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_CONFIG = REPO_ROOT / "configs" / "example_project.json"


def _small_config(tmp_path, **overrides):
    doc = {
        "protection_library": "builtin",
        "output_dir": str(tmp_path / "out"),
        "seed": 11,
        "sampler": {"n_train": 60, "m_eval": 600},
        "smoothing": {"continuation_schedule": [[10.0, 0.4], [60.0, 2.5]]},
        "fit": {"n_starts": 4, "max_iters": 150},
        "uncertainty": {
            "gamma_levels": [0.0, 0.4],
            "trials": 30,
            "m_eval": 300,
            "matrix_targets": ["P2", "P1-P4-P5"],
        },
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# ------------------------------------------------------------ load_config

def test_example_config_loads_with_defaults():
    cfg = load_config(EXAMPLE_CONFIG)
    assert cfg.seed == 20240501
    assert cfg.sampler.seed == cfg.seed and cfg.fit.seed == cfg.seed
    assert cfg.uncertainty.gamma_levels == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    assert cfg.uncertainty.matrix_targets == ("P2", "P1-P4-P5")
    # Table-layout fixture: motor A row values as printed
    table = cfg.library.fraction_table
    assert table["P2-P4"][0] == 0.09
    assert table["P3-P4"][0] == 0.08
    assert table["P1-P4-P5"][0] == 0.25
    assert table["P2-P4-P5"][0] == 0.58
    echoed = cfg.echo
    assert echoed["sampler"]["n_train"] == 200
    assert echoed["fit"]["n_starts"] == 20


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.json")


def test_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  \"seed\": ,\n}")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_config_unknown_fields(tmp_path):
    path = _small_config(tmp_path, sampler={"n_trian": 60})
    with pytest.raises(ConfigError, match="n_trian"):
        load_config(path)
    path2 = tmp_path / "c2.json"
    path2.write_text(json.dumps({"protection_library": "builtin", "bogus": 1}))
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path2)
    # Sections take the top-level seed; a seed of their own is not silently replaced.
    for section in ("sampler", "smoothing", "fit", "uncertainty"):
        path = _small_config(tmp_path, **{section: {"seed": 5}})
        with pytest.raises(ConfigError, match=f"{section}: 'seed' is set at the top level only"):
            load_config(path)


def test_config_invalid_values(tmp_path, capsys):
    path = _small_config(tmp_path, fit={"n_starts": 0})
    with pytest.raises(ConfigError, match="fit"):
        load_config(path)
    path = _small_config(tmp_path, seed=True)
    with pytest.raises(ConfigError, match="seed must be an integer, got True"):
        load_config(path)
    # A negative seed would crash np.random.SeedSequence in the first stochastic verb.
    path = _small_config(tmp_path, seed=-1)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        load_config(path)
    assert main(["fit", "--config", str(path), "--motor", "C"]) == 2
    assert main(["fit", "--config", str(_small_config(tmp_path)), "--seed", "-3",
                 "--motor", "C"]) == 2
    assert "seed must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("section, name", [
    ("fit", "n_starts"), ("fit", "max_iters"), ("sampler", "n_train"), ("sampler", "m_eval"),
    ("uncertainty", "trials"), ("uncertainty", "m_eval"),
])
@pytest.mark.parametrize("value", [2.5, 600.0, True, "60"])
def test_config_rejects_non_integer_counts(tmp_path, section, name, value):
    doc = json.loads(_small_config(tmp_path).read_text())
    doc[section][name] = value
    path = _small_config(tmp_path, **{section: doc[section]})
    with pytest.raises(ConfigError, match=f"{section}: {name} must be an integer, got {value!r}"):
        load_config(path)


def test_example_config_echo_is_pinned(tmp_path):
    # fit_*.json stores the echo, and the stale-input check compares it with the
    # current one by ==, so a tuple where the JSON has a list would reject every fit.
    expected = {
        "protection_library": "builtin",
        "output_dir": "out",
        "seed": 20240501,
        "sampler": {"beta_tau": 1.0, "beta_v": 0.1, "weight_threshold": 0.5, "n_train": 200,
                    "m_eval": 5000},
        "smoothing": {"continuation_schedule": [[10.0, 0.4], [50.0, 2.0], [250.0, 10.0]]},
        "fit": {"n_starts": 20, "max_iters": 400, "gtol": 1e-05, "ptol": 1e-12},
        "uncertainty": {"gamma_levels": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
                        "targets": [], "trials": 200, "refit": False, "m_eval": 2000,
                        "matrix_targets": ["P2", "P1-P4-P5"]},
        "composites": {"mixed_commercial": {"P1": 0.15, "P2": 0.3, "P3": 0.1, "P5": 0.15,
                                            "P1-P4-P5": 0.3}},
    }
    echo = load_config(EXAMPLE_CONFIG).echo
    assert echo == expected  # a tuple is never == a list
    assert json.dumps(echo, sort_keys=True) == json.dumps(expected, sort_keys=True)  # nor 200.0 == 200 here

    assert main(["fit", "--config", str(EXAMPLE_CONFIG), "--motor", "C",
                 "--out", str(tmp_path)]) == 0
    echo = load_config(EXAMPLE_CONFIG, out_override=tmp_path).echo
    comments = [line for line in (tmp_path / "train_C.csv").read_text().splitlines()
                if line.startswith("# config: ")]
    assert comments == ["# config: " + json.dumps(echo, sort_keys=True)]
    assert json.loads((tmp_path / "fit_C.json").read_text())["config"] == echo


def test_config_bad_matrix_targets(tmp_path):
    path = _small_config(tmp_path, uncertainty={"matrix_targets": ["P2", "P99"]})
    with pytest.raises(ConfigError, match="P99"):
        load_config(path)


def test_config_extra_composites(tmp_path):
    path = _small_config(tmp_path, composites={"demo": {"P1": 0.5, "P2": 0.5}})
    cfg = load_config(path)
    comp = cfg.composite_for("demo")
    assert comp.names == ("P1", "P2")
    bad = _small_config(tmp_path, composites={"demo": {"P1": 0.5, "P2": 0.4}})
    with pytest.raises(ConfigError, match="sum"):
        load_config(bad)


def test_config_empty_composite_rejected(tmp_path):
    lib_doc = {
        "units": {"tau_break": "seconds", "v_threshold": "percent_of_nominal"},
        "base_schemes": {"P1": {"steps": [[0.1, 50.0]]}},
        "motor_classes": ["A"],
        "fraction_table": {},
        "composites": {},
    }
    lib_path = tmp_path / "lib.json"
    lib_path.write_text(json.dumps(lib_doc))
    path = _small_config(tmp_path, protection_library=str(lib_path))
    with pytest.raises(ConfigError, match="sum to"):
        load_config(path)


def test_config_seed_and_out_overrides(tmp_path):
    path = _small_config(tmp_path)
    cfg = load_config(path, seed_override=99, out_override=tmp_path / "elsewhere")
    assert cfg.seed == 99 and cfg.sampler.seed == 99
    assert cfg.echo["seed"] == 99
    assert cfg.output_dir == tmp_path / "elsewhere"


# ------------------------------------------------------------------- CLI

def test_cli_validate(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mixed_commercial" in out and "effective config" in out


def test_cli_fit_outputs_and_rerun_identical(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["fit", "--config", str(path), "--motor", "C"]) == 0
    out_dir = tmp_path / "out"
    fit_path = out_dir / "fit_C.json"
    train_path = out_dir / "train_C.csv"
    first_fit = fit_path.read_bytes()
    first_train = train_path.read_bytes()
    assert main(["fit", "--config", str(path), "--motor", "C"]) == 0
    assert fit_path.read_bytes() == first_fit
    assert train_path.read_bytes() == first_train
    doc = json.loads(fit_path.read_text())
    assert doc["kind"] == "fit_result" and doc["seed"] == 11
    assert set(doc["model"]) == {"pi1", "tau1_star_s", "v1_star_pct", "pi2", "tau2_star_s", "v2_star_pct"}
    assert doc["config"]["sampler"]["n_train"] == 60
    assert 0.0 <= doc["mae"] <= 0.1


def test_cli_motor_c_accuracy_at_defaults(tmp_path):
    # single-rectangle truth: the two-block model nails it
    assert main(["fit", "--config", str(EXAMPLE_CONFIG), "--motor", "C",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "fit_C.json").read_text())
    assert doc["mae"] <= 0.02


def test_cli_fit_above_gtol_reports_winner_iterations(tmp_path, capsys):
    # At the defaults this seed's winning start stops on the relative-reduction
    # test above gtol, far inside the per-stage iteration budget.
    assert main(["fit", "--config", str(EXAMPLE_CONFIG), "--motor", "mixed_commercial",
                 "--seed", "2085", "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "fit_mixed_commercial.json").read_text())
    assert not doc["converged"] and doc["iterations"] < doc["config"]["fit"]["max_iters"]
    err = capsys.readouterr().err
    assert (f"the winning start stopped after {doc['iterations']} iterations over 3 stages "
            "(budget 400 iterations per stage)") in err


def test_cli_fit_every_motor_class(tmp_path):
    path = _small_config(tmp_path)
    for motor in "ABCD":
        assert main(["fit", "--config", str(path), "--motor", motor]) == 0
    produced = sorted(p.name for p in (tmp_path / "out").glob("fit_*.json"))
    assert produced == ["fit_A.json", "fit_B.json", "fit_C.json", "fit_D.json"]


# sha256 of every artifact of the standard CLI runs below.  Each file echoes
# output_dir, so the runs use a relative --out and the digests do not depend
# on where the test runs.
_GOLDEN_ARTIFACTS = {
    "fit_A.json": "ed51f27b25f1a9471b3861ab8cdee883d1a9258b9b2350b9fc96391760b50751",
    "fit_B.json": "2b62ea90d934e7bced22b834977e57dba0d4457e179b8277cb6b8becf72abf43",
    "fit_C.json": "c9c06b83e4f3ddc09772e6ef1136690257c4abbffa0e9dc33938550f96c79131",
    "fit_D.json": "b4c1807f562450b81f81acbf6d4152f11546ece17850cb387dba59c073b5c855",
    "fit_mixed_commercial.json": "32a0c5f26b2977698d5a807f5f42aaeab1cc75a9bca110cf357e7da168cc4eee",
    "grid_mixed_commercial_fitted.csv": "909fbb3ded7b00aa46a138e6e1f53762818101ebbc96e686e52c105d77df96be",
    "grid_mixed_commercial_true.csv": "1d8d9852ad8d3ec3620e7a57fa02134dc711f8327fe285c881d2dbc711f31ad6",
    "mae_mixed_commercial.json": "f47cbe74471471e1f41cc5cd4cc9a8542dff12145b7ba823dc6c3a3eba414cef",
    "sweep_mixed_commercial_long.csv": "1bfa468ec96428ffac6e56938f9cd4250abdc7c1892448982864a90a629c4e36",
    "sweep_mixed_commercial_matrix.csv": "6fc5bd626a3738bd0d51812f0a718f96abad422ad456c37c8a3a95f32b960b47",
    "sweep_mixed_commercial_summary.csv": "a00a9b3f4fba0e393399745dc21af4f8ebae65236df4769515df3be7e0314003",
    "train_A.csv": "fb15f0d8531fff2aaad722ba006d76ad1c0b7e1e408b3e1fe439a7b12011ab80",
    "train_B.csv": "d57feca8fb60e4f2b7549cfba5dbca5a6509e1ecab99fa3884909e7167f3df7d",
    "train_C.csv": "6efb711a4f65bc0dea0911ceec7ee2015b699e13edee67b9b8d333fcca6a4a8d",
    "train_D.csv": "879076a8dd07dfce133938df4e03f14b1bb25f01bb6d20074611e375f7dbe39d",
    "train_mixed_commercial.csv": "0d524f674325d4ac3b0c515c9f9d218c93fdf9fc68fbdc687741a1f896b3b169",
}


def test_cli_artifact_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = ["--config", str(EXAMPLE_CONFIG), "--out", "out"]
    target = ["--motor", "mixed_commercial"]
    assert main(["fit", *base, *target]) == 0
    assert main(["grid", *base, *target, "--target", "true"]) == 0
    assert main(["grid", *base, *target, "--target", "fitted"]) == 0
    assert main(["mae", *base, *target]) == 0
    assert main(["sweep", *base, *target]) == 0
    for motor in "ABCD":
        assert main(["fit", *base, "--motor", motor, "--seed", "7"]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / "out").iterdir()}
    assert digests == _GOLDEN_ARTIFACTS


_GOLDEN_REFIT_ARTIFACTS = {
    "fit_mixed_commercial.json": "0b7cad22298a8cfbaddda0c0fd6957af862e4b58ed3424c0067bdba5ff9f7e5a",
    "sweep_mixed_commercial_long.csv": "9eed7f6e82044730eda59f74cac277533dd5e0baf4bb13559f4f5f82cabdb61f",
    "sweep_mixed_commercial_summary.csv": "ec843654396ca2d805a05e28b51f565c6b3f9fd2498c66f6575a44b12665f0da",
    "train_mixed_commercial.csv": "6ab7886a823bc0f9f6c8033ad73477d4d8c66939138799ba66dcdc793bf5900e",
}


def test_cli_refit_sweep_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _small_config(tmp_path, output_dir="out", uncertainty={
        "gamma_levels": [0.2, 0.8], "trials": 30, "m_eval": 300, "refit": True})
    for verb in ("fit", "sweep"):
        assert main([verb, "--config", str(path), "--motor", "mixed_commercial"]) == 0
    digests = {out.name: hashlib.sha256(out.read_bytes()).hexdigest()
               for out in (tmp_path / "out").iterdir()}
    assert digests == _GOLDEN_REFIT_ARTIFACTS


def test_cli_grid(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["fit", "--config", str(path), "--motor", "C"]) == 0
    assert main(["grid", "--config", str(path), "--motor", "C", "--target", "true",
                 "--resolution", "1"]) == 2
    assert capsys.readouterr().err == "error: --resolution must be >= 2\n"
    assert main(["grid", "--config", str(path), "--motor", "C", "--target", "true",
                 "--resolution", "2"]) == 0
    grid_path = tmp_path / "out" / "grid_C_true.csv"
    rows = [r for r in grid_path.read_text().splitlines() if not r.startswith("#")]
    assert rows[0].startswith("tau_s,")
    assert len(rows) == 3 and len(rows[1].split(",")) == 3
    values = np.array([[float(x) for x in row.split(",")[1:]] for row in rows[1:]])
    assert np.all((values >= 0.0) & (values <= 1.0))

    assert main(["grid", "--config", str(path), "--motor", "C", "--target", "fitted",
                 "--resolution", "41"]) == 0
    assert main(["grid", "--config", str(path), "--motor", "C", "--target", "true",
                 "--resolution", "41"]) == 0

    def load_grid(name):
        lines = [r for r in (tmp_path / "out" / name).read_text().splitlines() if not r.startswith("#")]
        return np.array([[float(x) for x in row.split(",")[1:]] for row in lines[1:]])

    fitted = load_grid("grid_C_fitted.csv")
    true = load_grid("grid_C_true.csv")
    mae_doc = json.loads((tmp_path / "out" / "fit_C.json").read_text())
    assert abs(np.abs(fitted - true).mean() - mae_doc["mae"]) <= 0.05


def test_cli_grid_requires_fit(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["grid", "--config", str(path), "--motor", "A", "--target", "fitted"]) == 2
    assert "no fit result" in capsys.readouterr().err


def test_cli_mae_and_sweep(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["fit", "--config", str(path), "--motor", "mixed_commercial"]) == 0
    assert main(["mae", "--config", str(path), "--motor", "mixed_commercial"]) == 0
    out_dir = tmp_path / "out"
    mae_doc = json.loads((out_dir / "mae_mixed_commercial.json").read_text())
    assert 0.0 <= mae_doc["epsilon"] <= 1.0 and mae_doc["m_points"] == 600

    assert main(["sweep", "--config", str(path), "--motor", "mixed_commercial"]) == 0
    long_csv = out_dir / "sweep_mixed_commercial_long.csv"
    summary_csv = out_dir / "sweep_mixed_commercial_summary.csv"
    matrix_csv_path = out_dir / "sweep_mixed_commercial_matrix.csv"
    assert long_csv.is_file() and summary_csv.is_file() and matrix_csv_path.is_file()
    first = long_csv.read_bytes()
    capsys.readouterr()
    assert main(["sweep", "--config", str(path), "--motor", "mixed_commercial"]) == 0
    assert long_csv.read_bytes() == first
    level_lines = [line for line in capsys.readouterr().out.splitlines() if " level " in line]
    assert len(level_lines) == 2
    assert all(line.endswith(" not_converged=0") for line in level_lines)
    data_rows = [r for r in long_csv.read_text().splitlines() if not r.startswith("#")]
    assert data_rows[0] == "level,trial,mae"
    assert len(data_rows) == 1 + 2 * 30


def test_cli_rejects_fit_from_other_seed_or_setup(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["fit", "--config", str(path), "--motor", "C"]) == 0
    capsys.readouterr()
    assert main(["sweep", "--config", str(path), "--motor", "C", "--seed", "12"]) == 2
    err = capsys.readouterr().err
    assert "fitted under a different seed" in err and "fit_C.json" in err
    assert not (tmp_path / "out" / "sweep_C_long.csv").exists()

    other_fit = _small_config(tmp_path, fit={"n_starts": 4, "max_iters": 150, "gtol": 1e-6})
    assert main(["mae", "--config", str(other_fit), "--motor", "C"]) == 2
    assert "different fit.gtol" in capsys.readouterr().err
    other_sampler = _small_config(tmp_path, sampler={"n_train": 59, "m_eval": 600})
    assert main(["grid", "--config", str(other_sampler), "--motor", "C",
                 "--target", "fitted", "--resolution", "2"]) == 2
    assert "different sampler.n_train" in capsys.readouterr().err

    # The uncertainty section and the output directory are not fit inputs.
    same_fit = _small_config(tmp_path, uncertainty={"gamma_levels": [0.0], "trials": 30,
                                                    "m_eval": 300})
    assert main(["sweep", "--config", str(same_fit), "--motor", "C"]) == 0
    path = _small_config(tmp_path)
    assert main(["mae", "--config", str(path), "--motor", "C"]) == 0

    # Nor are other composites, or the library's path: the fit records its own composite.
    extra = _small_config(tmp_path, composites={"extra": {"P1": 1.0}})
    assert main(["mae", "--config", str(extra), "--motor", "C"]) == 0
    library = read_library(BUILTIN)
    (tmp_path / "lib.json").write_text(json.dumps(library))
    moved = _small_config(tmp_path, protection_library="lib.json")
    assert main(["mae", "--config", str(moved), "--motor", "C"]) == 0
    # But a step of P2, a member of C's one scheme P2-P5, is.
    library["base_schemes"]["P2"]["steps"][0][1] += 5.0
    (tmp_path / "lib.json").write_text(json.dumps(library))
    capsys.readouterr()
    for verb in ("mae", "sweep"):
        assert main([verb, "--config", str(moved), "--motor", "C"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'out' / 'fit_C.json'} was fitted to a "
                              "different composite C; rerun `tripfit fit --motor C`"), err


def test_cli_rejects_fit_echoing_alpha_tau_and_alpha_v(tmp_path, capsys):
    # smoothing has no alpha_tau or alpha_v field; a fit whose echo holds them is stale.
    path = _small_config(tmp_path)
    assert main(["fit", "--config", str(path), "--motor", "C"]) == 0
    fit_path = tmp_path / "out" / "fit_C.json"
    doc = json.loads(fit_path.read_text())
    doc["config"]["smoothing"] = {"alpha_tau": 50.0, "alpha_v": 2.0, **doc["config"]["smoothing"]}
    fit_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["mae", "--config", str(path), "--motor", "C"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fit_path} was fitted under a different smoothing.alpha_tau; "
                          "rerun `tripfit fit --motor C` with this config")
    assert not (tmp_path / "out" / "mae_C.json").exists()


def test_cli_rejects_fit_echoing_tau_range_and_v_range(tmp_path, capsys):
    # sampler has no tau_range or v_range field; a fit whose echo holds them is stale.
    path = _small_config(tmp_path)
    assert main(["fit", "--config", str(path), "--motor", "C"]) == 0
    fit_path = tmp_path / "out" / "fit_C.json"
    doc = json.loads(fit_path.read_text())
    doc["config"]["sampler"] |= {"tau_range": [0.0, 5.0], "v_range": [0.0, 100.0]}
    fit_path.write_text(json.dumps(doc))
    capsys.readouterr()
    for verb in (["grid", "--target", "fitted"], ["mae"], ["sweep"]):
        assert main([*verb, "--config", str(path), "--motor", "C"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fit_path} was fitted under a different sampler.tau_range; "
                              "rerun `tripfit fit --motor C` with this config"), err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["fit_C.json", "train_C.csv"]


def test_cli_sweep_skips_matrix_when_targets_absent(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["fit", "--config", str(path), "--motor", "C"]) == 0
    assert main(["sweep", "--config", str(path), "--motor", "C"]) == 0
    captured = capsys.readouterr()
    assert "matrix sweep skipped" in captured.err
    assert not (tmp_path / "out" / "sweep_C_matrix.csv").exists()


def test_cli_sweep_rejects_targets_absent_from_composite(tmp_path, capsys):
    path = _small_config(tmp_path, uncertainty={"gamma_levels": [0.4], "trials": 30,
                                                "m_eval": 300, "targets": ["P4"]})
    assert main(["fit", "--config", str(path), "--motor", "C"]) == 0
    capsys.readouterr()
    assert main(["sweep", "--config", str(path), "--motor", "C"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: uncertainty.targets ['P4'] not in composite C")
    assert not (tmp_path / "out" / "sweep_C_long.csv").exists()


def test_cli_unwritable_output_exit_code(tmp_path, capsys):
    path = _small_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub"
    assert main(["fit", "--config", str(path), "--motor", "C", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize("corrupt, message", [
    (lambda raw: raw[:len(raw) // 2], "is not valid JSON"),
    (lambda raw: b"[]", "is not a fit result with a config object"),
    (lambda raw: json.dumps({k: v for k, v in json.loads(raw).items() if k != "model"}).encode(),
     "holds no valid model (KeyError('model'))"),
    (lambda raw: raw.replace(b'"target": "C"', b'"target": "C\xe9"'),
     "is not valid JSON: 'utf-8' codec can't decode byte 0xe9"),
    (lambda raw: re.sub(rb'"final_cost": [^,]+', b'"final_cost": NaN', raw),
     "is not valid JSON: NaN is not a finite number"),
    (lambda raw: re.sub(rb'"pi2": [^,]+', b'"pi2": 0',
                        re.sub(rb'"pi1": [^,]+', b'"pi1": true', raw)),
     "holds no valid model (TypeError('model parameter must be a real number, got True'))"),
    (lambda raw: re.sub(rb'"tau1_star_s": [^,]+', b'"tau1_star_s": 1e400', raw),
     "holds no valid model (ValueError('model parameter must be a finite number, got inf'))"),
], ids=["truncated", "top_level_list", "no_model", "bad_byte", "nan", "bool_param",
        "overflowing_param"])
def test_cli_rejects_malformed_fit_result(tmp_path, capsys, corrupt, message):
    path = _small_config(tmp_path)
    assert main(["fit", "--config", str(path), "--motor", "C"]) == 0
    fit_path = tmp_path / "out" / "fit_C.json"
    fit_path.write_bytes(corrupt(fit_path.read_bytes()))
    capsys.readouterr()
    for verb in (["grid", "--target", "fitted", "--resolution", "2"], ["mae"], ["sweep"]):
        assert main(verb + ["--config", str(path), "--motor", "C"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fit_path} ") and message in err, (verb, err)
        assert "rerun `tripfit fit --motor C` with this config" in err


def test_cli_unknown_motor(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["fit", "--config", str(path), "--motor", "Q"]) == 2
    assert "unknown composite target" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_config_that_is_not_utf8(tmp_path, capsys):
    path = _small_config(tmp_path, output_dir="caf\u00e9")
    path.write_bytes(path.read_bytes().replace(b"caf\\u00e9", b"caf\xe9"))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: 'utf-8' codec can't decode byte 0xe9")


_LIST_ENTRY_LIBRARY = {
    "units": {"tau_break": "seconds", "v_threshold": "percent_of_nominal"},
    "base_schemes": {"P1": [[0.1, 50.0]]},
}

_TYPED_LIBRARY = {
    "units": {"tau_break": "seconds", "v_threshold": "percent_of_nominal"},
    "base_schemes": {"P1": {"steps": [[0.1, 50.0]]}, "P2": {"steps": [[0.2, 60.0]]}},
    "motor_classes": ["A"],
}


@pytest.mark.parametrize("overrides, library, message", [
    ({"composites": ["x"]}, None, "config.json: composites must be a JSON object, got ['x']"),
    ({"composites": "abc"}, None, "config.json: composites must be a JSON object, got 'abc'"),
    ({"composites": {"demo": ["P1"]}}, None, "composite 'demo' must be a JSON object"),
    ({}, _LIST_ENTRY_LIBRARY, "base_schemes['P1'] must be a JSON object"),
    ({"uncertainty": {"matrix_targets": ["P2", ["x"]]}}, None,
     "uncertainty: matrix_targets entry must be a string, got ['x']"),
    ({"uncertainty": {"targets": ["P2", ["x"]]}}, None,
     "uncertainty: targets entry must be a string, got ['x']"),
    ({"protection_library": 5}, None, "protection_library must be a string"),
    ({"output_dir": None}, None, "output_dir must be a string"),
    ({}, {**_TYPED_LIBRARY, "fraction_table": {"P1": 1.0}},
     "fraction_table['P1'] must be a list, got 1.0"),
    ({}, {**_TYPED_LIBRARY, "combinations": {"P1-P2": 5}},
     "combination 'P1-P2' must be a list, got 5"),
    ({"uncertainty": {"matrix_targets": ["P2", "P2"]}}, None,
     "uncertainty: matrix_targets must name two different schemes, got ['P2', 'P2']"),
    ({"uncertainty": {"targets": ["P2", "P1", "P2"]}}, None,
     "uncertainty: targets must not repeat a scheme, got ['P2', 'P1', 'P2']"),
    ({"sampler": {"tau_range": [0.0, 5.0]}}, None,
     "config.json: sampler: unknown field(s) ['tau_range']; known: ['beta_tau', 'beta_v', "
     "'m_eval', 'n_train', 'weight_threshold']"),
    ({"sampler": {"v_range": [0.0, 100.0]}}, None,
     "config.json: sampler: unknown field(s) ['v_range']; known: ['beta_tau', 'beta_v', "
     "'m_eval', 'n_train', 'weight_threshold']"),
    ({}, {**_TYPED_LIBRARY, "combinations": {"P1-P1": []}},
     "lib.json: combination 'P1-P1': need at least one scheme to combine"),
    ({"fit": {"gtol": float("nan")}}, None, "config.json: NaN is not a finite number"),
    ({"smoothing": {"continuation_schedule": [[float("inf"), 2.0]]}}, None,
     "config.json: Infinity is not a finite number"),
    ({"sampler": {"beta_tau": float("nan")}}, None, "config.json: NaN is not a finite number"),
    ({}, {**_TYPED_LIBRARY, "base_schemes": {"P1": {"steps": [[0.1, float("-inf")]]}}},
     "lib.json: -Infinity is not a finite number"),
    ({"uncertainty": {"gamma_levels": []}}, None, "uncertainty: gamma_levels must not be empty"),
    ({"uncertainty": {"targets": "P2"}}, None, "uncertainty: targets must be a list, got 'P2'"),
    ({"fit": {"gtol": True}}, None, "fit: gtol must be a real number, got True"),
    ({"fit": {"ptol": True}}, None, "fit: ptol must be a real number, got True"),
    ({"sampler": {"beta_tau": True}}, None, "sampler: beta_tau must be a real number, got True"),
    ({"sampler": {"beta_v": True}}, None, "sampler: beta_v must be a real number, got True"),
    ({"sampler": {"weight_threshold": False}}, None,
     "sampler: weight_threshold must be a real number, got False"),
    ({"smoothing": {"alpha_tau": 50.0}}, None,
     "smoothing: unknown field(s) ['alpha_tau']; known: ['continuation_schedule']"),
    ({"smoothing": {"alpha_v": 2.0}}, None,
     "smoothing: unknown field(s) ['alpha_v']; known: ['continuation_schedule']"),
    ({"smoothing": {"continuation_schedule": [[True, 0.4], [50.0, 2.0]]}}, None,
     "smoothing: continuation_schedule entry must be a real number, got True"),
    ({"smoothing": {"continuation_schedule": [["10", 0.4]]}}, None,
     "smoothing: continuation_schedule entry must be a real number, got '10'"),
    ({"uncertainty": {"gamma_levels": [False, 0.4]}}, None,
     "uncertainty: gamma_levels entry must be a real number, got False"),
    ({"uncertainty": {"refit": "no"}}, None, "uncertainty: refit must be a boolean, got 'no'"),
    ({"uncertainty": {"refit": 1}}, None, "uncertainty: refit must be a boolean, got 1"),
    ({"smoothing": {"continuation_schedule": [[10.0]]}}, None,
     "smoothing: continuation_schedule entry must be a pair, got [10.0]"),
    ({"smoothing": {"continuation_schedule": [5]}}, None,
     "smoothing: continuation_schedule entry must be a pair, got 5"),
    ({"smoothing": {"continuation_schedule": "ab"}}, None,
     "smoothing: continuation_schedule must be a list of pairs, got 'ab'"),
    ({"smoothing": {"continuation_schedule": {"a": 1}}}, None,
     "smoothing: continuation_schedule must be a list of pairs, got {'a': 1}"),
    ({"smoothing": {"continuation_schedule": None}}, None,
     "smoothing: continuation_schedule must be a list of pairs, got None"),
    ({"composites": {"x": {"P1": -0.5, "P2": 1.5}}}, None,
     "config.json: composite 'x': fraction for 'P1' must be >= 0, got -0.5"),
    ({"composites": {"y": {"P1": 0.5, "P2": 0.4}}}, None,
     "config.json: composite 'y': fractions must sum to 1 within 1e-09 (got 0.9)"),
    ({"composites": {"z": {"P9": 1.0}}}, None,
     "config.json: composite 'z' references unknown scheme 'P9'"),
    ({"composites": {"A": {"P1": 1.0}}}, None, "config.json: composite 'A' clashes with a motor class"),
    ({"fit": {"gtol": "1e400"}}, None, "config.json: fit: gtol must be a finite number, got inf"),
    ({"sampler": {"beta_tau": 10**400}}, None,
     "config.json: sampler: beta_tau must be a finite number, got 1000"),
    ({"smoothing": {"continuation_schedule": [[10.0, 0.4], [10**400, 2.0]]}}, None,
     "config.json: smoothing: continuation_schedule entry must be a finite number, got 1000"),
    ({}, {**_TYPED_LIBRARY, "fraction_table": {"P1": ["1e400"]}},
     "lib.json: fraction_table['P1'] entry must be a finite number, got inf"),
    ({}, {**_TYPED_LIBRARY, "base_schemes": {"P1": {"steps": [["1e400", 50.0]]}}},
     "lib.json: base_schemes['P1']: steps entry must be a finite number, got inf"),
    ({"composites": {"x": {"P1": "1e400"}}}, None,
     "config.json: composite 'x'['P1'] must be a finite number, got inf"),
    ({}, {**_TYPED_LIBRARY, "base_schemes": {}}, "lib.json: base_schemes must be non-empty"),
    ({"composites": {"mixed_commercial": {"P1": 1.0}}}, None,
     "config.json: composites['mixed_commercial'] already defined by the library"),
    ({}, {**_TYPED_LIBRARY, "composite": {"demo": {"P1": 1.0}}},
     "lib.json: unknown field(s) ['composite']; known: ['base_schemes', 'combinations', "
     "'composites', 'description', 'fraction_table', 'motor_classes', 'units']"),
])
def test_cli_rejects_malformed_config(tmp_path, capsys, overrides, library, message):
    # A quoted "1e400" stands for the bare literal, which json.dumps cannot write.
    if library is not None:
        (tmp_path / "lib.json").write_text(json.dumps(library).replace('"1e400"', "1e400"))
        overrides = {**overrides, "protection_library": "lib.json"}
    path = _small_config(tmp_path, **overrides)
    path.write_text(path.read_text().replace('"1e400"', "1e400"))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _script(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_all_motors_lists_only_fits_that_ran(tmp_path, capsys):
    run = _script("fit_all_motors").run
    out = tmp_path / "motors"
    assert run(["--config", str(_small_config(tmp_path)), "--out", str(out)]) == 0
    table = capsys.readouterr().out.splitlines()[-5:]
    assert table[0].split() == ["motor", "pi1", "tau1*", "v1*", "pi2", "tau2*", "v2*", "MAE"]
    assert [line.split()[0] for line in table[1:]] == list("ABCD")
    # Every fit now exits 2; the fit_*.json files of the run above are stale.
    assert run(["--config", str(_small_config(tmp_path, seed=-1)), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err.count("seed must be >= 0") == 4
    assert captured.out == ""


def test_uncertainty_study_writes_every_artifact(tmp_path, capsys):
    out = tmp_path / "study"
    run = _script("uncertainty_study").run
    assert run(["--config", str(_small_config(tmp_path)), "--out", str(out),
                "--resolution", "5"]) == 0
    target = "mixed_commercial"
    assert sorted(p.name for p in out.iterdir()) == sorted([
        f"fit_{target}.json", f"train_{target}.csv", f"grid_{target}_true.csv",
        f"grid_{target}_fitted.csv", f"mae_{target}.json", f"sweep_{target}_long.csv",
        f"sweep_{target}_summary.csv", f"sweep_{target}_matrix.csv"])
    assert capsys.readouterr().out.splitlines()[-1] == f"all artifacts under {out.resolve()}"


def test_bench_trace_run_patches_every_name(tmp_path):
    # `bench/tracing.py` replaces names in `tripfit` modules, such as
    # `regression.minimize` and `evaluation.perturb_fractions`; a renamed or
    # removed one fails the traced run.
    for name in ("bench", "src", "configs"):
        shutil.copytree(REPO_ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_sweep", "--seed", "3",
                           "--trace", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
