"""Configuration schema validation and typed loading."""

import copy
from pathlib import Path

import pytest
import yaml

from nfisac.config import (
    ConfigError,
    EXPERIMENT_SECTIONS,
    ScenarioConfig,
    build_config,
    load_config,
    validate_config,
    validate_data,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASE = {
    "experiment": {"name": "squint-deviation", "seed": 1},
    "array": {"ula": {"num_elements": 64, "spacing_wavelengths": 0.5}},
    "carrier": {"center_hz": 3.0e11, "num_subcarriers": 65, "spacing_hz": 4.6875e8},
    "design": {"angle_rad": 0.5235987755982988, "range_m": 10.0},
    "grid": {"range_min_m": 2.0, "range_max_m": 40.0},
}


def _issues(data):
    rep = validate_data(data)
    return {i.path: i.message for i in rep.issues}


def test_all_shipped_configs_validate():
    paths = sorted(CONFIG_DIR.glob("*.yaml"))
    assert len(paths) == 6
    for p in paths:
        rep = validate_config(str(p))
        assert rep.ok, f"{p.name}: {rep}"


def test_shipped_configs_cover_every_experiment():
    names = set()
    for p in CONFIG_DIR.glob("*.yaml"):
        with open(p) as fh:
            names.add(yaml.safe_load(fh)["experiment"]["name"])
    assert names == set(EXPERIMENT_SECTIONS)


def test_base_fixture_is_valid():
    assert _issues(BASE) == {}


def test_negative_spacing_reported_with_dotted_path():
    bad = copy.deepcopy(BASE)
    bad["carrier"]["spacing_hz"] = -1.0
    issues = _issues(bad)
    assert "carrier.spacing_hz" in issues
    assert ">= 0" in issues["carrier.spacing_hz"]


def test_unexpected_array_kind_is_a_conflict():
    bad = copy.deepcopy(BASE)
    bad["array"]["upa"] = {"nx": 64, "nz": 64, "dx_wavelengths": 4, "dz_wavelengths": 4}
    issues = _issues(bad)
    assert "array.upa" in issues
    assert "conflicts with array.ula" in issues["array.upa"]


def test_unknown_section_rejected():
    bad = copy.deepcopy(BASE)
    bad["beamforming"] = {"style": "fancy"}
    assert "beamforming" in _issues(bad)


def test_unknown_experiment_lists_known_names():
    bad = copy.deepcopy(BASE)
    bad["experiment"]["name"] = "beam-dance"
    issues = _issues(bad)
    assert "experiment.name" in issues
    for name in EXPERIMENT_SECTIONS:
        assert name in issues["experiment.name"]


def test_missing_seed_reported():
    bad = copy.deepcopy(BASE)
    del bad["experiment"]["seed"]
    assert "experiment.seed" in _issues(bad)


def test_missing_required_section_reported():
    bad = copy.deepcopy(BASE)
    del bad["design"]
    issues = _issues(bad)
    assert "design" in issues
    assert "squint-deviation" in issues["design"]


def test_spacing_keys_are_mutually_exclusive():
    bad = copy.deepcopy(BASE)
    bad["array"]["ula"]["spacing_m"] = 0.0005
    issues = _issues(bad)
    assert "array.ula" in issues
    assert "exactly one" in issues["array.ula"]
    also_bad = copy.deepcopy(BASE)
    del also_bad["array"]["ula"]["spacing_wavelengths"]
    assert "array.ula" in _issues(also_bad)


def test_even_subcarrier_count_rejected():
    bad = copy.deepcopy(BASE)
    bad["carrier"]["num_subcarriers"] = 64
    assert "carrier.num_subcarriers" in _issues(bad)


def test_angle_domain_enforced():
    bad = copy.deepcopy(BASE)
    bad["design"]["angle_rad"] = 3.5
    issues = _issues(bad)
    assert "design.angle_rad" in issues
    assert "(0, pi)" in issues["design.angle_rad"]


def test_snr_list_required_for_rmse_experiment():
    data = {
        "experiment": {"name": "rmse-vs-snr", "seed": 1, "trials": 5},
        "array": {"ula": {"num_elements": 128, "spacing_wavelengths": 0.5}},
        "carrier": {"center_hz": 3.0e11, "num_subcarriers": 65, "spacing_hz": 4.6875e8},
        "arc": {"theta_start_rad": 1.0, "theta_end_rad": 1.4, "range_m": 20.0},
        "isac": {"sensing_subcarriers": 32, "conventional_slots": 10, "sensing_energy_ratio": 2.0},
    }
    issues = _issues(data)
    assert "experiment.snr_db" in issues
    data["experiment"]["snr_db"] = [0, 10, 20]
    assert _issues(data) == {}


def test_non_mapping_root_rejected():
    assert "$" in _issues([1, 2, 3])


def test_build_config_constructs_domain_objects():
    cfg = build_config(copy.deepcopy(BASE))
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.name == "squint-deviation"
    assert cfg.seed == 1
    assert cfg.trials == 1
    assert cfg.ula.num_elements == 64
    # half-wavelength spacing resolved against the 300 GHz carrier
    assert cfg.ula.spacing_m == pytest.approx(0.5 * 299792458.0 / 3.0e11, rel=1e-12)
    assert cfg.carrier.num_subcarriers == 65
    assert cfg.design.range_m == 10.0
    assert cfg.upa is None and cfg.arc is None
    assert cfg.section("grid")["range_min_m"] == 2.0
    assert cfg.section("missing") == {}


def test_config_hash_tracks_content():
    a = build_config(copy.deepcopy(BASE))
    b = build_config(copy.deepcopy(BASE))
    assert a.config_hash() == b.config_hash()
    changed_raw = copy.deepcopy(BASE)
    changed_raw["experiment"]["seed"] = 2
    c = build_config(changed_raw)
    assert c.config_hash() != a.config_hash()
    assert len(a.config_hash()) == 16


def test_load_config_raises_with_full_report(tmp_path):
    bad = copy.deepcopy(BASE)
    bad["carrier"]["spacing_hz"] = -5.0
    del bad["experiment"]["seed"]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    with pytest.raises(ConfigError) as exc_info:
        load_config(str(path))
    report = exc_info.value.report
    paths = {i.path for i in report.issues}
    assert {"carrier.spacing_hz", "experiment.seed"} <= paths


def test_missing_file_is_a_validation_issue():
    rep = validate_config("/nonexistent/nowhere.yaml")
    assert not rep.ok
    assert "file not found" in str(rep)


def _shipped(name):
    with open(CONFIG_DIR / name) as fh:
        return yaml.safe_load(fh)


def test_sensing_subcarriers_beyond_carrier_rejected():
    # 99 probes on 65 subcarriers would silently probe duplicates at run time
    data = _shipped("rmse_vs_snr.yaml")
    data["isac"]["sensing_subcarriers"] = 99
    issues = _issues(data)
    assert "isac.sensing_subcarriers" in issues
    assert "65" in issues["isac.sensing_subcarriers"]
    data["isac"]["sensing_subcarriers"] = 65
    assert _issues(data) == {}


def test_grid_angle_bounds_must_be_ordered():
    bad = copy.deepcopy(BASE)
    bad["grid"].update(angle_min_rad=1.2, angle_max_rad=1.2)
    assert "grid.angle_max_rad" in _issues(bad)
    # a lone bound is checked against the default for the other one
    lone = copy.deepcopy(BASE)
    lone["grid"]["angle_max_rad"] = 1.0e-4
    assert "grid.angle_max_rad" in _issues(lone)
    lone["grid"]["angle_max_rad"] = 1.0
    assert _issues(lone) == {}


def test_design_outside_evaluation_grid_rejected():
    # the grid the experiment builds must cover the design point, or the
    # focal search fails at run time
    data = _shipped("squint_deviation.yaml")
    design_angle = data["design"]["angle_rad"]
    data["grid"].update(angle_min_rad=1.0, angle_max_rad=2.0)
    issues = _issues(data)
    assert set(issues) == {"design.angle_rad"}
    assert "[1.0, 2.0]" in issues["design.angle_rad"]
    # a lone bound spans to the default of the other end
    del data["grid"]["angle_max_rad"]
    assert set(_issues(data)) == {"design.angle_rad"}
    data["grid"]["angle_min_rad"] = design_angle
    assert _issues(data) == {}
    # without bounds the angles are the interior of an even split of (0, pi):
    # pi/4, pi/2, 3pi/4 for three angles, which leaves out pi/6
    del data["grid"]["angle_min_rad"]
    data["grid"]["num_angles"] = 3
    assert set(_issues(data)) == {"design.angle_rad"}
    data["grid"]["num_angles"] = 5
    assert _issues(data) == {}
    data["design"]["range_m"] = 41.0
    assert set(_issues(data)) == {"design.range_m"}


def test_target_outside_calibration_sweep_rejected():
    # the sweep (wavenumber range_min_m/range_max_m, else the grid's) and the
    # grid ranges bound the targets; the endpoints themselves are calibrated
    data = _shipped("music_vs_wavenumber.yaml")
    for r in (4.0, 20.0):
        data["targets"][0]["range_m"] = r
        assert _issues(data) == {}
    data["targets"][0]["range_m"] = 30.0
    issues = _issues(data)
    assert set(issues) == {"targets[0].range_m"}
    assert "calibration sweep [4.0, 20.0]" in issues["targets[0].range_m"]
    data["targets"][0]["range_m"] = 60.0
    issues = _issues(data)
    assert set(issues) == {"targets[0].range_m"}
    assert "grid's ranges [4.0, 40.0]" in issues["targets[0].range_m"]
    del data["wavenumber"]["range_max_m"]
    data["targets"][0]["range_m"] = 30.0
    assert _issues(data) == {}
    data["targets"].append({"angle_rad": 0.01, "range_m": 30.0})
    assert set(_issues(data)) == {"targets[1].angle_rad"}
    data["targets"].pop()
    data["wavenumber"]["range_min_m"] = 40.0
    assert set(_issues(data)) == {"wavenumber.range_max_m"}


def test_infeasible_sensing_counts_rejected():
    data = _shipped("rate_vs_sensing_budget.yaml")
    total = data["allocation"]["total_power_w"]
    p_min = data["allocation"]["sensing_power_w"]
    data["allocation"]["sensing_counts"] = [0, 4, int(total // p_min), 65]
    issues = _issues(data)
    assert set(issues) == {"allocation.sensing_counts[2]", "allocation.sensing_counts[3]"}
    assert "allocation.total_power_w" in issues["allocation.sensing_counts[2]"]
    assert "carrier.num_subcarriers" in issues["allocation.sensing_counts[3]"]
