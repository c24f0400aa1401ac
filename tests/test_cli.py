"""End-to-end command line behavior, including exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from nfisac import cli, experiments

PKG_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = PKG_ROOT / "configs"

FAST_CONFIG = {
    "experiment": {"name": "angular-spread", "seed": 9, "trials": 3},
    "array": {"ula": {"num_elements": 64, "spacing_wavelengths": 0.5}},
    "carrier": {"center_hz": 3.0e11, "num_subcarriers": 1, "spacing_hz": 0.0},
}


# the child finds the package in this checkout, installed or not
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(PKG_ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nfisac.cli", *args],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        env=ENV,
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


def test_runtime_failure_exits_three(tmp_path, monkeypatch, capsys):
    # a failure inside a valid config's run exits 3 with its traceback
    def fails(cfg, outdir):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(experiments.EXPERIMENTS, "angular-spread", fails)
    cfg_path = tmp_path / "fast.yaml"
    cfg_path.write_text(yaml.safe_dump(FAST_CONFIG))
    assert cli.main(["validate", "--config", str(cfg_path)]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    assert "RuntimeError: injected failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, section, key, value, path",
    [
        ("rmse_vs_snr.yaml", "isac", "sensing_subcarriers", 99, "isac.sensing_subcarriers"),
        ("squint_deviation.yaml", "grid", "angle_min_rad", 3.141, "grid.angle_max_rad"),
        ("rate_vs_sensing_budget.yaml", "allocation", "sensing_counts", [0, 40], "allocation.sensing_counts[1]"),
        ("squint_deviation.yaml", "grid", "angle_min_rad", 1.0, "design.angle_rad"),
        # a grid that starts inside the linear array's 0.128 m half-aperture
        ("squint_deviation.yaml", "grid", "range_min_m", 0.05, "grid.range_min_m"),
        ("music_vs_wavenumber.yaml", "targets", 0, {"angle_rad": 1.6571, "range_m": 30.0}, "targets[0].range_m"),
        ("music_vs_wavenumber.yaml", "targets", 0, {"angle_rad": 1.2, "range_m": 6.0}, "targets[0]: "),
        # off the calibration direction the nearest calibrated range reads a
        # support radius above the table's
        ("music_vs_wavenumber.yaml", "targets", 0, {"angle_rad": 1.3, "range_m": 4.0}, "targets[0]: "),
        ("music_vs_wavenumber.yaml", "targets", 0, {"angle_rad": 1.4, "range_m": 4.0}, "targets[0]: "),
        ("music_vs_wavenumber.yaml", "targets", 0, {"angle_rad": 1.55, "range_m": 4.0}, "targets[0]: "),
        # a direction cosine outside the alias-free window reads 1.651 rad
        ("music_vs_wavenumber.yaml", "targets", 0, {"angle_rad": 1.4, "range_m": 12.898362181185576},
         "targets[0]: "),
        # calibration sweeps are run at validate, targets or not: past the
        # near-field window support radii plateau, and at 0.5 m the nearest
        # support disk touches the spectrum border
        ("wavenumber_calibration.yaml", "grid", "range_max_m", 200.0, "wavenumber.range_max_m"),
        ("wavenumber_calibration.yaml", "grid", "range_min_m", 0.5, "wavenumber.range_min_m"),
        ("music_vs_wavenumber.yaml", "wavenumber", "range_min_m", 0.5, "wavenumber.range_min_m"),
        # off broadside the 4-wavelength x spacing aliases the direction
        # cosine back inside (-1, 1): every calibration probe reads 1.6020
        # rad at 1.35 rad and 1.5316 rad at 1.0 rad, more than one bin off
        ("wavenumber_calibration.yaml", "wavenumber", "direction_angle_rad", 1.35,
         "wavenumber.direction_angle_rad: "),
        ("wavenumber_calibration.yaml", "wavenumber", "direction_angle_rad", 1.0,
         "wavenumber.direction_angle_rad: "),
        # only finite numbers pass: NaN slips past "> 0" and infinity past
        # every lower bound, and either would run to a wrong result or a crash
        ("music_vs_wavenumber.yaml", "music", "noise_power_w", float("nan"), "music.noise_power_w"),
        ("rate_vs_sensing_budget.yaml", "allocation", "noise_power_w", float("nan"), "allocation.noise_power_w"),
        ("rate_vs_sensing_budget.yaml", "users", "mean_gain", float("inf"), "users.mean_gain"),
        ("rmse_vs_snr.yaml", "isac", "target_margin_rad", float("nan"), "isac.target_margin_rad"),
        ("rmse_vs_snr.yaml", "arc", "range_m", float("nan"), "arc.range_m"),
        ("angular_spread.yaml", "carrier", "center_hz", float("inf"), "carrier.center_hz"),
        # rmse-vs-snr fits a delay-phase trajectory across its subcarriers
        ("rmse_vs_snr.yaml", "carrier", "spacing_hz", 0.0, "carrier.spacing_hz"),
        # at this width the arc's adjacent-subcarrier phase step reaches pi,
        # so its delay-phase fit fails
        ("rmse_vs_snr.yaml", "arc", "theta_start_rad", 0.4, "arc: "),
        # a margin wider than half the 0.349 rad arc would draw targets off it
        ("rmse_vs_snr.yaml", "isac", "target_margin_rad", 0.5, "isac.target_margin_rad"),
        # inside the 128-element linear array's 0.0317 m half-aperture
        ("rmse_vs_snr.yaml", "arc", "range_m", 0.01, "arc.range_m"),
        # 32 subcarriers of 10 GHz below a 300 GHz center reach below 0 Hz
        ("squint_deviation.yaml", "carrier", "spacing_hz", 1.0e10, "carrier: "),
        # one element leaves MUSIC no noise subspace, and angular-spread a
        # Rayleigh distance of 0
        ("music_vs_wavenumber.yaml", "array", "ula", {"num_elements": 1, "spacing_wavelengths": 0.5},
         "array.ula.num_elements"),
        ("angular_spread.yaml", "array", "ula", {"num_elements": 1, "spacing_wavelengths": 0.5},
         "array.ula.num_elements"),
        # at 8 elements half a wavelength apart angular-spread's nearest range,
        # 0.05 Rayleigh distances = 1.22 mm, lies inside the 1.75 mm half-aperture
        ("angular_spread.yaml", "array", "ula", {"num_elements": 8, "spacing_wavelengths": 0.5},
         "array.ula.num_elements"),
        # every comm-only baseline rate rounds to 0, and the rate ratios divide by it
        ("rate_vs_sensing_budget.yaml", "users", "mean_gain", 1e-300, "users.mean_gain"),
        # rmse-vs-snr's echo energies overflow at 4000 dB (a crash), vanish
        # at -4000 dB (every estimate on the arc's first angle), and at a
        # 1e308 energy ratio sensing-only reads nan
        ("rmse_vs_snr.yaml", "experiment", "snr_db", [0, 4000], "experiment.snr_db"),
        ("rmse_vs_snr.yaml", "experiment", "snr_db", [0, -4000], "experiment.snr_db"),
        ("rmse_vs_snr.yaml", "isac", "sensing_energy_ratio", 1e308, "isac.sensing_energy_ratio"),
    ],
)
def test_cross_field_errors_exit_two_before_running(tmp_path, name, section, key, value, path):
    _assert_exits_two_before_running(tmp_path, name, [(section, key, value)], path)


@pytest.mark.parametrize(
    "name, edits, path",
    [
        # 0.4-wavelength x spacing reads a direction cosine below -1 this
        # close to endfire: the run's calibration probes along the sweep
        # direction would fail, and so would a target there
        ("wavenumber_calibration.yaml",
         [("array", "upa", {"nx": 64, "nz": 64, "dx_wavelengths": 0.4, "dz_wavelengths": 4.0}),
          ("wavenumber", "direction_angle_rad", 3.1)],
         "wavenumber.direction_angle_rad: "),
        ("music_vs_wavenumber.yaml",
         [("array", "upa", {"nx": 64, "nz": 64, "dx_wavelengths": 0.4, "dz_wavelengths": 4.0}),
          ("grid", "angle_max_rad", 3.14),
          ("wavenumber", "direction_angle_rad", 3.1),
          ("wavenumber", "range_max_m", 16.0),
          ("targets", 0, {"angle_rad": 3.1, "range_m": 6.0})],
         "targets[0]: "),
    ],
)
def test_readouts_past_endfire_exit_two_before_running(tmp_path, name, edits, path):
    _assert_exits_two_before_running(tmp_path, name, edits, path)


def _assert_exits_two_before_running(tmp_path, name, edits, path):
    """The shipped config with data[section][key] = value for each edit exits
    2 at validate and at run, naming path, and writes nothing."""
    data = yaml.safe_load((CONFIG_DIR / name).read_text())
    for section, key, value in edits:
        data[section][key] = value
    cfg_path = tmp_path / name
    cfg_path.write_text(yaml.safe_dump(data))
    for args in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        proc = run_cli(*args, "--config", str(cfg_path))
        assert proc.returncode == 2
        assert path in proc.stderr
    assert not (tmp_path / "out").exists()


def test_run_all_experiments_reports_invalid_config(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    data = yaml.safe_load((CONFIG_DIR / "angular_spread.yaml").read_text())
    data["carrier"]["center_hz"] = -1.0
    (configs / "bad.yaml").write_text(yaml.safe_dump(data))
    proc = subprocess.run(
        [sys.executable, str(PKG_ROOT / "scripts" / "run_all_experiments.py"),
         "--configs", str(configs), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=PKG_ROOT, env=ENV,
    )
    assert proc.returncode == 2
    assert "carrier.center_hz" in proc.stderr
    assert "Traceback" not in proc.stderr
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
