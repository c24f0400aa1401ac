"""Experiment registry wiring and artifact layout."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import nfisac.arrays as arrays
import nfisac.music as music
from nfisac.config import EXPERIMENT_SECTIONS, build_config, validate_data
from nfisac.experiments import EXPERIMENTS, list_experiment_names, run_experiment

SPREAD = {
    "experiment": {"name": "angular-spread", "seed": 9, "trials": 3},
    "array": {"ula": {"num_elements": 64, "spacing_wavelengths": 0.5}},
    "carrier": {"center_hz": 3.0e11, "num_subcarriers": 1, "spacing_hz": 0.0},
}

RATE = {
    "experiment": {"name": "rate-vs-sensing-budget", "seed": 5, "trials": 4},
    "carrier": {"center_hz": 3.0e11, "num_subcarriers": 17, "spacing_hz": 4.6875e8},
    "arc": {"theta_start_rad": 1.0, "theta_end_rad": 1.4, "range_m": 20.0},
    "allocation": {
        "total_power_w": 100.0,
        "noise_power_w": 1.0,
        "sensing_counts": [0, 2, 4],
        "sensing_power_w": 5.0,
    },
    "users": {"count": 2, "mean_gain": 1.0},
}


def _load(raw):
    rep = validate_data(raw)
    assert rep.ok, str(rep)
    return build_config(raw)


def test_registry_matches_config_schema():
    assert set(EXPERIMENTS) == set(EXPERIMENT_SECTIONS)
    assert list_experiment_names() == sorted(EXPERIMENTS)


def test_run_emits_declared_artifacts(tmp_path):
    result = run_experiment(_load(SPREAD), tmp_path / "out")
    assert result.name == "angular-spread"
    for name in result.csv_files:
        assert (tmp_path / "out" / name).exists()
    assert (tmp_path / "out" / "meta.json").exists()
    assert (tmp_path / "out" / "plot.json").exists()
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["csv_files"] == sorted(result.csv_files)
    assert meta["experiment"] == "angular-spread"


def test_rerun_is_byte_identical(tmp_path):
    cfg = _load(SPREAD)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for name in ["spread.csv", "meta.json", "plot.json"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_rate_experiment_reuses_baseline_for_zero_sensing(tmp_path):
    result = run_experiment(_load(RATE), tmp_path / "out")
    rows = (tmp_path / "out" / "rate.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header == ["sensing_count", "mean_sum_rate_bps_hz", "min_rate_ratio", "mean_rate_ratio"]
    by_count = {int(r.split(",")[0]): r.split(",") for r in rows[1:]}
    assert set(by_count) == {0, 2, 4}
    # no reservation means the plan is the baseline itself
    assert float(by_count[0][2]) == 1.0
    assert float(by_count[0][3]) == 1.0
    rates = [float(by_count[k][1]) for k in [0, 2, 4]]
    assert rates[0] >= rates[1] >= rates[2]


def test_unknown_experiment_name_rejected(tmp_path):
    cfg = _load(SPREAD)
    object.__setattr__(cfg, "name", "not-an-experiment")
    with pytest.raises(KeyError):
        run_experiment(cfg, tmp_path / "out")


PKG_ROOT = Path(__file__).resolve().parent.parent


def test_music_trials_do_not_depend_on_trial_count_or_passes(tmp_path, monkeypatch):
    # trials share one steering pass over the grid; each trial's estimate must
    # still depend only on its own seed, however many trials share a pass.
    # At the shipped noise every trial finds the same cell, which would hide a
    # mix-up, so noise is raised until the estimates vary from trial to trial
    raw = yaml.safe_load((PKG_ROOT / "configs" / "music_vs_wavenumber.yaml").read_text())
    raw["targets"].append({"angle_rad": 1.5, "range_m": 8.0})
    raw["music"] = {"snapshot_count": 16, "noise_power_w": 3.0}
    grid_points = raw["grid"]["num_angles"] * raw["grid"]["num_ranges"]

    def music_rows(trials, tag):
        data = dict(raw, experiment=dict(raw["experiment"], trials=trials))
        run_experiment(_load(data), tmp_path / tag)
        rows = (tmp_path / tag / "results.csv").read_text().splitlines()[1:]
        return [r for r in rows if r.startswith("music,")]

    ten = music_rows(10, "ten")
    assert len(ten) == 20
    for k in ("0", "1"):
        assert len({r.split(",", 5)[5] for r in ten if r.split(",")[1] == k}) > 2
    first_three = [r for r in ten if int(r.split(",")[2]) < 3]
    assert music_rows(3, "three") == first_three
    # two trials per pass: 3 trials take 2 passes, 10 take 5
    monkeypatch.setattr(arrays, "_CHUNK_ENTRIES", 2 * grid_points)
    monkeypatch.setattr(music, "_PASS_ENTRIES", 2 * grid_points)
    assert music_rows(3, "three-split") == first_three
    assert music_rows(10, "ten-split") == ten


def test_shipped_music_run_never_falls_back_to_eigh(tmp_path, monkeypatch):
    # at the shipped SNR the signal subspace is far from the noise floor, so
    # subspace iteration converges for every trial without a full eigh
    raw = yaml.safe_load((PKG_ROOT / "configs" / "music_vs_wavenumber.yaml").read_text())
    eigh = np.linalg.eigh
    eigh_calls = []

    def counted_eigh(a, *args, **kwargs):
        eigh_calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    run_experiment(_load(raw), tmp_path / "out")
    assert eigh_calls == []


# every shipped config; squint-deviation is the one whose matrix-vector
# products change shape with the chunk size
BLAS_CONFIGS = [
    "squint_deviation.yaml",
    "music_vs_wavenumber.yaml",
    "rmse_vs_snr.yaml",
    "rate_vs_sensing_budget.yaml",
    "angular_spread.yaml",
    "wavenumber_calibration.yaml",
]


def test_artifacts_do_not_depend_on_blas_thread_count(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    for name in BLAS_CONFIGS:
        shutil.copy(PKG_ROOT / "configs" / name, configs / name)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PKG_ROOT / "src"), env.get("PYTHONPATH")]))

    def run_all(out, **extra_env):
        subprocess.run(
            [sys.executable, str(PKG_ROOT / "scripts" / "run_all_experiments.py"),
             "--configs", str(configs), "--out", str(out)],
            env=dict(env, **extra_env), check=True, capture_output=True,
        )
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    default = run_all(tmp_path / "default")
    single = run_all(tmp_path / "single", OPENBLAS_NUM_THREADS="1")
    assert len(default) == 3 * len(BLAS_CONFIGS) + 1  # wavenumber-calibration writes two CSVs
    assert sorted(single) == sorted(default)
    assert [rel for rel in default if single[rel] != default[rel]] == []
