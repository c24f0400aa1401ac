"""End-to-end command line behavior, including exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

PKG_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = PKG_ROOT / "configs"

FAST_CONFIG = {
    "experiment": {"name": "angular-spread", "seed": 9, "trials": 3},
    "array": {"ula": {"num_elements": 64, "spacing_wavelengths": 0.5}},
    "carrier": {"center_hz": 3.0e11, "num_subcarriers": 1, "spacing_hz": 0.0},
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nfisac.cli", *args],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )


def test_validate_ok_exits_zero():
    proc = run_cli("validate", "--config", str(CONFIG_DIR / "angular_spread.yaml"))
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_validate_bad_config_exits_two_with_report(tmp_path):
    bad = dict(FAST_CONFIG, carrier={"center_hz": -1.0, "num_subcarriers": 1, "spacing_hz": 0.0})
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    proc = run_cli("validate", "--config", str(path))
    assert proc.returncode == 2
    assert "carrier.center_hz" in proc.stderr


def test_missing_file_exits_two():
    proc = run_cli("validate", "--config", "/nonexistent/nope.yaml")
    assert proc.returncode == 2
    assert "file not found" in proc.stderr


def test_run_writes_artifacts_and_summary(tmp_path):
    cfg_path = tmp_path / "fast.yaml"
    cfg_path.write_text(yaml.safe_dump(FAST_CONFIG))
    outdir = tmp_path / "out"
    proc = run_cli("run", "--config", str(cfg_path), "--out", str(outdir))
    assert proc.returncode == 0, proc.stderr
    assert "wrote spread.csv" in proc.stdout
    assert (outdir / "spread.csv").exists()
    assert (outdir / "meta.json").exists()
    meta = json.loads((outdir / "meta.json").read_text())
    assert meta["experiment"] == "angular-spread"
    assert meta["seed"] == 9


def test_runtime_failure_exits_three(tmp_path):
    # validates fine, but the calibration sweep sits past the usable window
    # where support radii plateau, so the run itself must fail
    cfg = {
        "experiment": {"name": "wavenumber-calibration", "seed": 1},
        "array": {"upa": {"nx": 64, "nz": 64, "dx_wavelengths": 4, "dz_wavelengths": 4}},
        "carrier": {"center_hz": 3.0e11, "num_subcarriers": 1, "spacing_hz": 0.0},
        "grid": {"range_min_m": 60.0, "range_max_m": 200.0},
    }
    cfg_path = tmp_path / "plateau.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    proc = run_cli("validate", "--config", str(cfg_path))
    assert proc.returncode == 0
    proc = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 3
    assert "CalibrationError" in proc.stderr


@pytest.mark.parametrize(
    "name, section, key, value, path",
    [
        ("rmse_vs_snr.yaml", "isac", "sensing_subcarriers", 99, "isac.sensing_subcarriers"),
        ("squint_deviation.yaml", "grid", "angle_min_rad", 3.141, "grid.angle_max_rad"),
        ("rate_vs_sensing_budget.yaml", "allocation", "sensing_counts", [0, 40], "allocation.sensing_counts[1]"),
        ("squint_deviation.yaml", "grid", "angle_min_rad", 1.0, "design.angle_rad"),
        ("music_vs_wavenumber.yaml", "targets", 0, {"angle_rad": 1.6571, "range_m": 30.0}, "targets[0].range_m"),
    ],
)
def test_cross_field_errors_exit_two_before_running(tmp_path, name, section, key, value, path):
    data = yaml.safe_load((CONFIG_DIR / name).read_text())
    data[section][key] = value
    cfg_path = tmp_path / name
    cfg_path.write_text(yaml.safe_dump(data))
    for args in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        proc = run_cli(*args, "--config", str(cfg_path))
        assert proc.returncode == 2
        assert path in proc.stderr
    assert not (tmp_path / "out").exists()


def test_list_experiments_names_all_six():
    proc = run_cli("list-experiments")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    names = {l.split()[0] for l in lines}
    assert names == {
        "squint-deviation",
        "angular-spread",
        "wavenumber-calibration",
        "music-vs-wavenumber",
        "rmse-vs-snr",
        "rate-vs-sensing-budget",
    }
    assert all("requires:" in l for l in lines)
