"""Configuration schema validation and typed loading."""

import copy
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from nfisac.config import (
    ConfigError,
    EXPERIMENT_SECTIONS,
    ScenarioConfig,
    evaluation_grid,
    load_config,
    scenario,
    wavenumber_calibration,
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
    rep, _ = scenario(data)
    return {i.path: i.message for i in rep.issues}


def _built(data):
    """data's scenario, built from the sections that pass validation."""
    return scenario(data)[1]


def test_all_shipped_configs_validate():
    paths = sorted(CONFIG_DIR.glob("*.yaml"))
    assert len(paths) == 6
    for p in paths:
        assert isinstance(load_config(str(p)), ScenarioConfig), p.name


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
    cfg = _built(copy.deepcopy(BASE))
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.name == "squint-deviation"
    assert cfg.seed == 1
    assert cfg.trials == 1
    assert cfg.ula.num_elements == 64
    # half-wavelength spacing resolved against the 300 GHz carrier
    assert cfg.ula.spacing_m == pytest.approx(0.5 * 299792458.0 / 3.0e11, rel=1e-12)
    assert cfg.carrier.num_subcarriers == 65
    assert cfg.design.range_m == 10.0
    assert cfg.table is None and cfg.arc is None
    assert cfg.section("grid")["range_min_m"] == 2.0
    assert cfg.section("missing") == {}


def test_config_hash_tracks_content():
    a = _built(copy.deepcopy(BASE))
    b = _built(copy.deepcopy(BASE))
    assert a.config_hash() == b.config_hash()
    changed_raw = copy.deepcopy(BASE)
    changed_raw["experiment"]["seed"] = 2
    c = _built(changed_raw)
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
    with pytest.raises(ConfigError) as exc_info:
        load_config("/nonexistent/nowhere.yaml")
    report = exc_info.value.report
    assert [i.path for i in report.issues] == ["$"]
    assert "file not found" in str(report)


def test_bad_yaml_is_a_validation_issue(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("experiment: {name: [squint-deviation\n")
    with pytest.raises(ConfigError) as exc_info:
        load_config(str(path))
    report = exc_info.value.report
    assert [i.path for i in report.issues] == ["$"]
    assert "not valid YAML" in str(report)


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


def test_grid_inside_the_linear_arrays_aperture_rejected():
    # squint-deviation and music-vs-wavenumber evaluate their linear array at
    # every grid point; at or inside its half-aperture (N-1)*d/2 (0.128 m for
    # the shipped 512 elements) the point-source model does not hold, the
    # rule a steering vector's source obeys too
    data = _shipped("squint_deviation.yaml")
    data["grid"].update(range_min_m=0.05, num_ranges=40, num_angles=61)
    data["design"]["range_m"] = 0.1
    issues = _issues(data)
    assert set(issues) == {"grid.range_min_m"}
    assert "half-aperture (N-1)*d/2 = 0.127662 m" in issues["grid.range_min_m"]
    half = _built(_shipped("squint_deviation.yaml")).ula.aperture_m() / 2
    data["grid"]["range_min_m"] = half
    data["design"]["range_m"] = 0.2
    assert set(_issues(data)) == {"grid.range_min_m"}
    data["grid"]["range_min_m"] = float(np.nextafter(half, np.inf))
    assert _issues(data) == {}
    # a spacing in meters needs no carrier to resolve
    data["array"]["ula"] = {"num_elements": 512, "spacing_m": 1.0e-3}
    assert set(_issues(data)) == {"grid.range_min_m"}

    music = _shipped("music_vs_wavenumber.yaml")
    music["grid"]["range_min_m"] = 0.05
    assert "grid.range_min_m" in _issues(music)


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


def test_grid_too_fine_for_its_bounds_rejected():
    # more grid lines than distinct floats between the bounds would repeat a
    # line, which the run's evaluation grid refuses
    data = _shipped("squint_deviation.yaml")
    data["grid"].update(range_min_m=9.999999999999998, range_max_m=10.000000000000002)
    assert _issues(data) == {"grid": "ranges_m must be strictly increasing"}
    data = _shipped("squint_deviation.yaml")
    angle = data["design"]["angle_rad"]
    data["grid"].update(angle_min_rad=angle, angle_max_rad=float(np.nextafter(angle, np.inf)))
    assert _issues(data) == {"grid": "angles_rad must be strictly increasing"}


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
    # without its own range_max_m the sweep runs to the grid's 40 m, past the
    # window where support radii fall with range: the run could not calibrate
    # it, so validate reports the sweep (exit 2) instead of the run failing
    del data["wavenumber"]["range_max_m"]
    data["targets"][0]["range_m"] = 30.0
    issues = _issues(data)
    assert set(issues) == {"wavenumber.range_max_m"}
    assert "cannot be calibrated" in issues["wavenumber.range_max_m"]
    data["targets"].append({"angle_rad": 0.01, "range_m": 30.0})
    assert set(_issues(data)) == {"targets[1].angle_rad", "wavenumber.range_max_m"}
    data["targets"].pop()
    data["wavenumber"]["range_min_m"] = 40.0
    assert set(_issues(data)) == {"wavenumber.range_max_m"}


def test_target_aliased_on_planar_array_rejected():
    # the coarse-pitch planar array reads a target this far from broadside
    # with its wavenumber support on the spectrum border, which fails the run
    data = _shipped("music_vs_wavenumber.yaml")
    data["targets"].append({"angle_rad": 1.2, "range_m": 6.0})
    issues = _issues(data)
    assert set(issues) == {"targets[1]"}
    assert "aliases" in issues["targets[1]"]
    data["targets"][1]["angle_rad"] = 1.5
    assert _issues(data) == {}
    # a finer pitch widens the alias-free window, but shrinks the aperture
    # so far that the 4-20 m sweep leaves the near-field window: the target
    # no longer aliases, and the sweep is reported instead of failing the run
    data["targets"][1]["angle_rad"] = 1.2
    data["array"]["upa"].update(dx_wavelengths=0.5, dz_wavelengths=0.5)
    assert set(_issues(data)) == {"wavenumber.range_max_m"}


def test_target_misread_by_wavenumber_readout_rejected():
    # validation runs the experiment's noiseless readout, calibration included:
    # a target whose support radius falls off the table, or whose direction
    # cosine reads more than one bin off (it wrapped around the alias-free
    # window), is rejected; the shipped target reads within the bin
    data = _shipped("music_vs_wavenumber.yaml")
    assert _issues(data) == {}
    data["targets"].append({"angle_rad": 1.4, "range_m": 4.0})
    data["targets"].append({"angle_rad": 1.4, "range_m": data["targets"][0]["range_m"]})
    issues = _issues(data)
    assert set(issues) == {"targets[1]", "targets[2]"}
    assert "outside calibrated [1.693, 9.253]" in issues["targets[1]"]
    assert "reads angle 1.6509 rad" in issues["targets[2]"]
    # along the calibration direction the nearest calibrated range reads back
    data["targets"][1:] = [{"angle_rad": 1.5707963267948966, "range_m": 4.0}]
    assert _issues(data) == {}


def test_aliased_target_rejected_when_sweep_cannot_be_calibrated():
    # a 4-40 m sweep has no strictly decreasing support radius, so validate
    # reports the sweep; each target's forward step is still checked
    data = _shipped("music_vs_wavenumber.yaml")
    del data["wavenumber"]["range_max_m"]
    assert set(_issues(data)) == {"wavenumber.range_max_m"}
    data["targets"].append({"angle_rad": 1.2, "range_m": 6.0})
    issues = _issues(data)
    assert set(issues) == {"targets[1]", "wavenumber.range_max_m"}
    assert "aliases" in issues["targets[1]"]


@pytest.mark.parametrize(
    "section, key, value, paths",
    [
        # every calibration probe misreads its direction; the path they share
        # is reported once
        ("wavenumber", "direction_angle_rad", 1.35, ["wavenumber.direction_angle_rad"]),
        ("wavenumber", "direction_angle_rad", 1.0, ["wavenumber.direction_angle_rad"]),
        # the sweep aliases at its nearest range, so there is no table for
        # the probes to be read against
        ("grid", "range_min_m", 0.5, ["wavenumber.range_min_m"]),
    ],
)
def test_calibration_failure_reported_once(section, key, value, paths):
    data = _shipped("wavenumber_calibration.yaml")
    data[section][key] = value
    rep, cfg = scenario(data)
    assert [i.path for i in rep.issues] == paths
    assert cfg.readouts is None


def test_infeasible_sensing_counts_rejected():
    data = _shipped("rate_vs_sensing_budget.yaml")
    total = data["allocation"]["total_power_w"]
    p_min = data["allocation"]["sensing_power_w"]
    data["allocation"]["sensing_counts"] = [0, 4, int(total // p_min), 65]
    issues = _issues(data)
    assert set(issues) == {"allocation.sensing_counts[2]", "allocation.sensing_counts[3]"}
    assert "allocation.total_power_w" in issues["allocation.sensing_counts[2]"]
    assert "carrier.num_subcarriers" in issues["allocation.sensing_counts[3]"]


MISSING = object()

# (shipped config, dotted path, bad value): each value is past its key's
# bound, a bool, a string, or left out, and is reported at that path alone.
# The table is written out here rather than read from the schema, so a wrong
# bound in the schema cannot agree with it.
BAD_KEYS = [
    ("angular_spread.yaml", "experiment.name", True),
    ("squint_deviation.yaml", "experiment.seed", -1),
    ("squint_deviation.yaml", "experiment.seed", True),
    ("squint_deviation.yaml", "experiment.trials", 0),
    ("rmse_vs_snr.yaml", "experiment.snr_db", [0, "high"]),
    ("rmse_vs_snr.yaml", "experiment.snr_db", MISSING),
    ("squint_deviation.yaml", "array.ula.num_elements", 0),
    ("squint_deviation.yaml", "array.ula.spacing_wavelengths", 0.0),
    ("music_vs_wavenumber.yaml", "array.upa.nx", 7),
    ("music_vs_wavenumber.yaml", "array.upa.nx", True),
    ("music_vs_wavenumber.yaml", "array.upa.nx", "64"),
    ("music_vs_wavenumber.yaml", "array.upa.nz", MISSING),
    ("music_vs_wavenumber.yaml", "array.upa.dz_wavelengths", 0.0),
    ("squint_deviation.yaml", "carrier.center_hz", "300 GHz"),
    ("squint_deviation.yaml", "carrier.num_subcarriers", True),
    ("wavenumber_calibration.yaml", "carrier.spacing_hz", -1.0),
    ("squint_deviation.yaml", "design.range_m", -10.0),
    ("music_vs_wavenumber.yaml", "targets[0].angle_rad", 3.2),
    ("music_vs_wavenumber.yaml", "targets[0].range_m", MISSING),
    ("rmse_vs_snr.yaml", "arc.theta_end_rad", 3.2),
    ("rmse_vs_snr.yaml", "arc.range_m", 0.0),
    ("squint_deviation.yaml", "grid.num_angles", 1),
    ("squint_deviation.yaml", "grid.num_ranges", 1),
    ("squint_deviation.yaml", "grid.range_min_m", MISSING),
    ("squint_deviation.yaml", "grid.angle_min_rad", 0.0),
    ("rate_vs_sensing_budget.yaml", "allocation.total_power_w", MISSING),
    ("rate_vs_sensing_budget.yaml", "allocation.sensing_power_w", -0.5),
    ("rate_vs_sensing_budget.yaml", "allocation.sensing_counts", [0, -4]),
    ("rate_vs_sensing_budget.yaml", "allocation.sensing_counts", [0, True]),
    ("rate_vs_sensing_budget.yaml", "allocation.sensing_counts", []),
    ("rate_vs_sensing_budget.yaml", "users.count", 0),
    ("rate_vs_sensing_budget.yaml", "users.count", MISSING),
    ("rate_vs_sensing_budget.yaml", "users.mean_gain", 0.0),
    ("rate_vs_sensing_budget.yaml", "users.mean_gain", True),
    ("rate_vs_sensing_budget.yaml", "users.mean_gain", "1.0"),
    ("rmse_vs_snr.yaml", "isac.sensing_subcarriers", 2),
    ("rmse_vs_snr.yaml", "isac.conventional_slots", 2),
    ("rmse_vs_snr.yaml", "isac.sensing_energy_ratio", 0.99),
    ("rmse_vs_snr.yaml", "isac.sensing_energy_ratio", True),
    ("rmse_vs_snr.yaml", "isac.sensing_energy_ratio", MISSING),
    ("rmse_vs_snr.yaml", "isac.target_margin_rad", -0.01),
    ("rmse_vs_snr.yaml", "isac.target_margin_rad", "1 deg"),
    ("music_vs_wavenumber.yaml", "music.snapshot_count", 1),
    ("music_vs_wavenumber.yaml", "music.snapshot_count", 256.0),
    ("music_vs_wavenumber.yaml", "music.snapshot_count", MISSING),
    ("music_vs_wavenumber.yaml", "music.noise_power_w", 0.0),
    ("music_vs_wavenumber.yaml", "wavenumber.num_calibration_points", 7),
    ("music_vs_wavenumber.yaml", "wavenumber.num_calibration_points", 9.0),
    ("music_vs_wavenumber.yaml", "wavenumber.num_calibration_points", True),
    ("music_vs_wavenumber.yaml", "wavenumber.direction_angle_rad", 0.0),
    ("music_vs_wavenumber.yaml", "wavenumber.range_min_m", -4.0),
    ("music_vs_wavenumber.yaml", "wavenumber.threshold_frac", 1.0),
    ("music_vs_wavenumber.yaml", "wavenumber.threshold_frac", 0.0),
    ("music_vs_wavenumber.yaml", "wavenumber.threshold_frac", True),
]


@pytest.mark.parametrize("name, path, value", BAD_KEYS)
def test_each_key_bound_is_reported_at_its_path(name, path, value):
    data = _shipped(name)
    *parents, key = path.replace("[", ".").replace("]", "").split(".")
    sec = data
    for p in parents:
        sec = sec[int(p)] if isinstance(sec, list) else sec[p]
    if value is MISSING:
        del sec[key]
    else:
        sec[key] = value
    issues = _issues(data)
    assert set(issues) == {path}
    assert issues[path]


def test_config_hash_covers_the_file_not_the_defaults():
    explicit = copy.deepcopy(BASE)
    explicit["experiment"]["trials"] = 1
    explicit, implicit = _built(explicit), _built(copy.deepcopy(BASE))
    assert explicit.trials == implicit.trials == 1
    assert explicit.config_hash() != implicit.config_hash()


def test_minimal_configs_resolve_every_default():
    # each shipped config without its optional keys and sections
    optional = {"experiment": ("trials",), "grid": ("num_angles", "num_ranges"),
                "users": ("mean_gain",), "isac": ("target_margin_rad",)}
    ranges_by_default = {"squint-deviation": 80, "music-vs-wavenumber": 61, "wavenumber-calibration": 56}
    # music-vs-wavenumber's default sweep spans its grid's 4-40 m, past the
    # window where support radii fall with range, so it cannot be calibrated
    uncalibratable = {"music_vs_wavenumber.yaml": {"wavenumber.range_max_m"}}
    for p in sorted(CONFIG_DIR.glob("*.yaml")):
        data = _shipped(p.name)
        data.pop("wavenumber", None)
        for section, keys in optional.items():
            for key in keys:
                data.get(section, {}).pop(key, None)
        assert set(_issues(data)) == uncalibratable.get(p.name, set()), p.name
        cfg = _built(data)
        assert cfg.trials == 1
        if "users" in data:
            assert cfg.section("users")["mean_gain"] == 1.0
        if "isac" in data:
            assert cfg.section("isac")["target_margin_rad"] == math.radians(1.0)
        if "grid" in data:
            grid = evaluation_grid(cfg.section("grid"))
            # the run's grid is the one validation built
            assert np.array_equal(cfg.grid.angles_rad, grid.angles_rad)
            assert np.array_equal(cfg.grid.ranges_m, grid.ranges_m)
            assert cfg.section("grid")["num_angles"] == 721
            assert np.array_equal(grid.angles_rad, np.linspace(0.0, np.pi, 723)[1:-1])
            assert grid.ranges_m.size == ranges_by_default[cfg.name]
        if cfg.name in ("wavenumber-calibration", "music-vs-wavenumber"):
            wsec = cfg.section("wavenumber")
            assert (wsec["num_calibration_points"], wsec["direction_angle_rad"], wsec["threshold_frac"]) == (
                9, math.pi / 2, 0.1)
            angle, sweep, frac = wavenumber_calibration(wsec)
            assert angle == math.pi / 2
            assert (sweep.size, sweep[0], sweep[-1]) == (9, data["grid"]["range_min_m"], data["grid"]["range_max_m"])
            assert frac == 0.1
