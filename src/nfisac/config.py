"""Scenario configuration: YAML schema, validation, and typed loading.

Keys carry explicit unit suffixes (_hz, _m, _s, _rad, _w, _db,
_wavelengths) because unit mistakes are the dominant failure mode in this
kind of simulation. Validation is all-or-nothing: any unknown key, missing
key, or unit violation is reported with its full dotted path and nothing is
partially accepted.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np
import yaml

from .allocation import sensing_subcarriers
from .arrays import ArrayGeometry, CarrierGrid, PolarPoint
from .constants import SPEED_OF_LIGHT as C
from .delay_phase import Arc
from .errors import AliasingError, CalibrationError, OutOfCalibrationError
from .wavenumber import (
    PlanarArray,
    calibrate_radius_range,
    estimate_position,
    extract_support,
    upa_polar_snapshot,
    wavenumber_transform,
)


@dataclass(frozen=True)
class ValidationIssue:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass
class ValidationReport:
    issues: List[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, path: str, message: str) -> None:
        self.issues.append(ValidationIssue(path, message))

    def __str__(self) -> str:
        if self.ok:
            return "configuration valid"
        return "\n".join(str(i) for i in self.issues)


class ConfigError(ValueError):
    """Raised when loading a configuration that fails validation."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


# which sections each experiment reads; anything else present is an error
_COMMON = ("experiment",)
EXPERIMENT_SECTIONS: Dict[str, Dict[str, tuple]] = {
    "squint-deviation": {
        "required": _COMMON + ("array.ula", "carrier", "design", "grid"),
        "optional": (),
    },
    "angular-spread": {
        "required": _COMMON + ("array.ula", "carrier"),
        "optional": (),
    },
    "wavenumber-calibration": {
        "required": _COMMON + ("array.upa", "carrier", "grid"),
        "optional": ("wavenumber",),
    },
    "music-vs-wavenumber": {
        "required": _COMMON + ("array.ula", "array.upa", "carrier", "grid", "targets", "music"),
        "optional": ("wavenumber",),
    },
    "rmse-vs-snr": {
        "required": _COMMON + ("array.ula", "carrier", "arc", "isac"),
        "optional": (),
    },
    "rate-vs-sensing-budget": {
        "required": _COMMON + ("carrier", "arc", "allocation", "users"),
        "optional": (),
    },
}


# grid angle bounds used when a grid sets only one of angle_min_rad/angle_max_rad
GRID_ANGLE_DEFAULTS_RAD = (1e-3, np.pi - 1e-3)


def grid_angles(sec: dict) -> np.ndarray:
    """Angle axis of the evaluation grid described by a grid section.

    With either bound given, num_angles points span [angle_min_rad,
    angle_max_rad] (a missing bound takes its GRID_ANGLE_DEFAULTS_RAD value);
    with neither, they are the interior points of an even split of [0, pi].
    """
    num_angles = int(sec.get("num_angles", 721))
    if "angle_min_rad" in sec or "angle_max_rad" in sec:
        lo = float(sec.get("angle_min_rad", GRID_ANGLE_DEFAULTS_RAD[0]))
        hi = float(sec.get("angle_max_rad", GRID_ANGLE_DEFAULTS_RAD[1]))
        return np.linspace(lo, hi, num_angles)
    return np.linspace(0.0, np.pi, num_angles + 2)[1:-1]


def sweep_range_m(sections: dict) -> tuple:
    """(min, max) range of the wavenumber calibration sweep, in meters.

    wavenumber.range_min_m/range_max_m, each falling back to the grid's bound.
    """
    wsec = sections.get("wavenumber") or {}
    gsec = sections["grid"]
    return (
        float(wsec.get("range_min_m", gsec["range_min_m"])),
        float(wsec.get("range_max_m", gsec["range_max_m"])),
    )


def wavenumber_calibration(sections: dict) -> tuple:
    """(direction, range sweep, threshold_frac) of the wavenumber calibration.

    The sweep has wavenumber.num_calibration_points ranges, geometrically
    spaced over sweep_range_m; the direction is the unit vector in the
    array's x-y plane at wavenumber.direction_angle_rad from the x axis.
    """
    wsec = sections.get("wavenumber") or {}
    theta = float(wsec.get("direction_angle_rad", math.pi / 2.0))
    direction = np.array([math.cos(theta), math.sin(theta), 0.0])
    sweep = np.geomspace(*sweep_range_m(sections), int(wsec.get("num_calibration_points", 9)))
    return direction, sweep, float(wsec.get("threshold_frac", 0.1))


def _is_num(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_keys(rep: ValidationReport, path: str, section: dict, allowed: dict) -> None:
    for key in section:
        if key not in allowed:
            rep.add(f"{path}.{key}", "unknown key")
    for key, required in allowed.items():
        if required and key not in section:
            rep.add(f"{path}.{key}", "missing required key")


def _positive(rep: ValidationReport, path: str, value: Any, unit: str) -> None:
    if not _is_num(value) or value <= 0:
        rep.add(path, f"must be a positive number ({unit})")


def _nonneg(rep: ValidationReport, path: str, value: Any, unit: str) -> None:
    if not _is_num(value) or value < 0:
        rep.add(path, f"must be a number >= 0 ({unit})")


def _pos_int(rep: ValidationReport, path: str, value: Any, minimum: int = 1) -> None:
    if not _is_int(value) or value < minimum:
        rep.add(path, f"must be an integer >= {minimum}")


def _spacing(rep: ValidationReport, path: str, section: dict, meter_key: str, wl_key: str) -> None:
    has_m, has_wl = meter_key in section, wl_key in section
    if has_m == has_wl:
        rep.add(path, f"exactly one of {meter_key} (m) or {wl_key} required")
        return
    key = meter_key if has_m else wl_key
    unit = "meters" if has_m else "carrier wavelengths"
    _positive(rep, f"{path}.{key}", section[key], unit)


def _validate_experiment(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add("experiment", "must be a mapping")
        return
    _check_keys(rep, "experiment", sec, {"name": True, "seed": True, "trials": False, "snr_db": False})
    name = sec.get("name")
    if name is not None and name not in EXPERIMENT_SECTIONS:
        known = ", ".join(sorted(EXPERIMENT_SECTIONS))
        rep.add("experiment.name", f"unknown experiment (known: {known})")
    if "seed" in sec and (not _is_int(sec["seed"]) or sec["seed"] < 0):
        rep.add("experiment.seed", "must be an integer >= 0 (reproducibility seed)")
    if "trials" in sec:
        _pos_int(rep, "experiment.trials", sec["trials"])
    if "snr_db" in sec:
        v = sec["snr_db"]
        if not isinstance(v, list) or not v or not all(_is_num(x) for x in v):
            rep.add("experiment.snr_db", "must be a nonempty list of numbers (dB)")


def _validate_ula(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add("array.ula", "must be a mapping")
        return
    _check_keys(rep, "array.ula", sec, {"num_elements": True, "spacing_m": False, "spacing_wavelengths": False})
    if "num_elements" in sec:
        _pos_int(rep, "array.ula.num_elements", sec["num_elements"])
    _spacing(rep, "array.ula", sec, "spacing_m", "spacing_wavelengths")


def _validate_upa(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add("array.upa", "must be a mapping")
        return
    allowed = {"nx": True, "nz": True, "dx_m": False, "dx_wavelengths": False,
               "dz_m": False, "dz_wavelengths": False}
    _check_keys(rep, "array.upa", sec, allowed)
    for key in ("nx", "nz"):
        if key in sec:
            _pos_int(rep, f"array.upa.{key}", sec[key], minimum=8)
    _spacing(rep, "array.upa", sec, "dx_m", "dx_wavelengths")
    _spacing(rep, "array.upa", sec, "dz_m", "dz_wavelengths")


def _validate_carrier(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add("carrier", "must be a mapping")
        return
    _check_keys(rep, "carrier", sec, {"center_hz": True, "num_subcarriers": True, "spacing_hz": True})
    if "center_hz" in sec:
        _positive(rep, "carrier.center_hz", sec["center_hz"], "Hz")
    if "num_subcarriers" in sec:
        v = sec["num_subcarriers"]
        if not _is_int(v) or v < 1 or v % 2 == 0:
            rep.add("carrier.num_subcarriers", "must be an odd integer >= 1 (M even)")
    if "spacing_hz" in sec:
        v = sec["spacing_hz"]
        if not _is_num(v) or v < 0:
            rep.add("carrier.spacing_hz", "must be a number >= 0 (Hz)")


def _validate_point(rep: ValidationReport, path: str, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add(path, "must be a mapping")
        return
    _check_keys(rep, path, sec, {"angle_rad": True, "range_m": True})
    if "angle_rad" in sec:
        v = sec["angle_rad"]
        if not _is_num(v) or not 0 < v < np.pi:
            rep.add(f"{path}.angle_rad", "must lie in (0, pi) (radians)")
    if "range_m" in sec:
        _positive(rep, f"{path}.range_m", sec["range_m"], "meters")


def _validate_arc(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add("arc", "must be a mapping")
        return
    _check_keys(rep, "arc", sec, {"theta_start_rad": True, "theta_end_rad": True, "range_m": True})
    ok = True
    for key in ("theta_start_rad", "theta_end_rad"):
        v = sec.get(key)
        if v is None:
            ok = False
        elif not _is_num(v) or not 0 < v < np.pi:
            rep.add(f"arc.{key}", "must lie in (0, pi) (radians)")
            ok = False
    if ok and not sec["theta_start_rad"] < sec["theta_end_rad"]:
        rep.add("arc.theta_start_rad", "must be < arc.theta_end_rad")
    if "range_m" in sec:
        _positive(rep, "arc.range_m", sec["range_m"], "meters")


def _validate_grid(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add("grid", "must be a mapping")
        return
    allowed = {"num_angles": False, "range_min_m": True, "range_max_m": True,
               "angle_min_rad": False, "angle_max_rad": False, "num_ranges": False}
    _check_keys(rep, "grid", sec, allowed)
    if "num_angles" in sec:
        _pos_int(rep, "grid.num_angles", sec["num_angles"], minimum=2)
    if "num_ranges" in sec:
        _pos_int(rep, "grid.num_ranges", sec["num_ranges"], minimum=2)
    for key in ("range_min_m", "range_max_m"):
        if key in sec:
            _positive(rep, f"grid.{key}", sec[key], "meters")
    if _is_num(sec.get("range_min_m")) and _is_num(sec.get("range_max_m")):
        if not sec["range_min_m"] < sec["range_max_m"]:
            rep.add("grid.range_max_m", "must exceed grid.range_min_m")
    for key in ("angle_min_rad", "angle_max_rad"):
        if key in sec:
            v = sec[key]
            if not _is_num(v) or not 0 < v < np.pi:
                rep.add(f"grid.{key}", "must lie in (0, pi) (radians)")


def _validate_allocation(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add("allocation", "must be a mapping")
        return
    allowed = {"total_power_w": True, "noise_power_w": True,
               "sensing_counts": True, "sensing_power_w": True}
    _check_keys(rep, "allocation", sec, allowed)
    if "total_power_w" in sec:
        _positive(rep, "allocation.total_power_w", sec["total_power_w"], "watts")
    if "noise_power_w" in sec:
        _positive(rep, "allocation.noise_power_w", sec["noise_power_w"], "watts")
    if "sensing_power_w" in sec:
        _nonneg(rep, "allocation.sensing_power_w", sec["sensing_power_w"], "watts")
    if "sensing_counts" in sec:
        v = sec["sensing_counts"]
        if not isinstance(v, list) or not v or not all(_is_int(x) and x >= 0 for x in v):
            rep.add("allocation.sensing_counts", "must be a nonempty list of integers >= 0")


def _validate_users(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add("users", "must be a mapping")
        return
    _check_keys(rep, "users", sec, {"count": True, "mean_gain": False})
    if "count" in sec:
        _pos_int(rep, "users.count", sec["count"])
    if "mean_gain" in sec:
        _positive(rep, "users.mean_gain", sec["mean_gain"], "dimensionless")


def _validate_isac(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add("isac", "must be a mapping")
        return
    allowed = {"sensing_subcarriers": True, "conventional_slots": True,
               "sensing_energy_ratio": True, "target_margin_rad": False}
    _check_keys(rep, "isac", sec, allowed)
    if "sensing_subcarriers" in sec:
        _pos_int(rep, "isac.sensing_subcarriers", sec["sensing_subcarriers"], minimum=3)
    if "conventional_slots" in sec:
        _pos_int(rep, "isac.conventional_slots", sec["conventional_slots"], minimum=3)
    if "sensing_energy_ratio" in sec:
        v = sec["sensing_energy_ratio"]
        if not _is_num(v) or v < 1:
            rep.add("isac.sensing_energy_ratio", "must be a number >= 1")
    if "target_margin_rad" in sec:
        _nonneg(rep, "isac.target_margin_rad", sec["target_margin_rad"], "radians")


def _validate_music(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add("music", "must be a mapping")
        return
    _check_keys(rep, "music", sec, {"snapshot_count": True, "noise_power_w": True})
    if "snapshot_count" in sec:
        _pos_int(rep, "music.snapshot_count", sec["snapshot_count"], minimum=2)
    if "noise_power_w" in sec:
        _positive(rep, "music.noise_power_w", sec["noise_power_w"], "watts")


def _validate_wavenumber(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, dict):
        rep.add("wavenumber", "must be a mapping")
        return
    allowed = {"num_calibration_points": False, "direction_angle_rad": False,
               "range_min_m": False, "range_max_m": False, "threshold_frac": False}
    _check_keys(rep, "wavenumber", sec, allowed)
    if "num_calibration_points" in sec:
        _pos_int(rep, "wavenumber.num_calibration_points", sec["num_calibration_points"], minimum=8)
    if "direction_angle_rad" in sec:
        v = sec["direction_angle_rad"]
        if not _is_num(v) or not 0 < v < np.pi:
            rep.add("wavenumber.direction_angle_rad", "must lie in (0, pi) (radians)")
    for key in ("range_min_m", "range_max_m"):
        if key in sec:
            _positive(rep, f"wavenumber.{key}", sec[key], "meters")
    if "threshold_frac" in sec:
        v = sec["threshold_frac"]
        if not _is_num(v) or not 0 < v < 1:
            rep.add("wavenumber.threshold_frac", "must lie in (0, 1)")


def _validate_targets(rep: ValidationReport, sec: Any) -> None:
    if not isinstance(sec, list) or not sec:
        rep.add("targets", "must be a nonempty list of {angle_rad, range_m}")
        return
    for i, t in enumerate(sec):
        _validate_point(rep, f"targets[{i}]", t)


def _passes(check, *args) -> bool:
    """True when a section check finds nothing wrong with these arguments."""
    scratch = ValidationReport()
    check(scratch, *args)
    return scratch.ok


def _within(rep: ValidationReport, path: str, value: float, bounds: tuple, what: str) -> bool:
    lo, hi = bounds
    if lo <= value <= hi:
        return True
    rep.add(path, f"{value} lies outside {what} [{lo}, {hi}]")
    return False


def _validate_cross_fields(rep: ValidationReport, sections: dict) -> None:
    """Checks that relate keys of different sections.

    sections maps each section the experiment reads to its raw value. A check
    runs only on values that passed their own section's checks.
    """

    def get(section: str, key: str) -> Any:
        sec = sections.get(section)
        return sec.get(key) if isinstance(sec, dict) else None

    num_m = get("carrier", "num_subcarriers")
    if not (_is_int(num_m) and num_m >= 1 and num_m % 2 == 1):
        num_m = None
    count = get("isac", "sensing_subcarriers")
    if num_m is not None and _is_int(count) and count >= 3:
        try:
            sensing_subcarriers(num_m, count)
        except ValueError as exc:
            rep.add("isac.sensing_subcarriers", f"{exc} (carrier.num_subcarriers is {num_m})")

    grid = sections.get("grid")
    grid_ok = _passes(_validate_grid, grid)
    if isinstance(grid, dict) and ("angle_min_rad" in grid or "angle_max_rad" in grid):
        lo = grid.get("angle_min_rad", GRID_ANGLE_DEFAULTS_RAD[0])
        hi = grid.get("angle_max_rad", GRID_ANGLE_DEFAULTS_RAD[1])
        if all(_is_num(v) and 0 < v < np.pi for v in (lo, hi)) and not lo < hi:
            rep.add("grid.angle_max_rad", f"must exceed grid.angle_min_rad ({lo})")
            grid_ok = False

    # a wavenumber section may narrow the calibration sweep below the grid's
    sweep = None
    if grid_ok and "wavenumber" in sections and _passes(_validate_wavenumber, sections["wavenumber"]):
        sweep = sweep_range_m(sections)
        if not sweep[0] < sweep[1]:
            rep.add("wavenumber.range_max_m", f"must exceed the sweep's minimum range ({sweep[0]} m)")
            sweep = None

    # design and target points must lie inside the grid the experiment builds
    placed = []  # (path, point) of each point that does
    if grid_ok:
        targets = sections.get("targets")
        points = [("design", sections.get("design"))]
        points += [(f"targets[{i}]", t) for i, t in enumerate(targets if isinstance(targets, list) else ())]
        angles = grid_angles(grid)
        for path, point in points:
            if not _passes(_validate_point, path, point):
                continue
            in_angles = _within(rep, f"{path}.angle_rad", point["angle_rad"],
                                (float(angles[0]), float(angles[-1])), "the evaluation grid's angles")
            in_grid = _within(rep, f"{path}.range_m", point["range_m"],
                              (grid["range_min_m"], grid["range_max_m"]), "the evaluation grid's ranges")
            if in_grid and sweep is not None:
                in_grid = _within(rep, f"{path}.range_m", point["range_m"], sweep,
                                  "the wavenumber calibration sweep")
            if in_angles and in_grid:
                placed.append((path, point))

    # the planar-array readout of a target is noiseless, so running it here,
    # calibration included, shows whether the run would fail or misread it
    upa = sections.get("array.upa")
    if (
        placed
        and ("wavenumber" not in sections or sweep is not None)
        and _passes(_validate_upa, upa)
        and _passes(_validate_carrier, sections.get("carrier"))
    ):
        freq = float(sections["carrier"]["center_hz"])
        arr = _planar_array(upa, C / freq)
        direction, sweep_m, frac = wavenumber_calibration(sections)
        try:
            table = calibrate_radius_range(arr, freq, direction, sweep_m, threshold_frac=frac)
        except (AliasingError, CalibrationError):
            table = None  # the run reports the sweep; each target's forward step is still checked
        cos_bin = C / (freq * arr.nx * arr.dx_m)
        for path, point in placed:
            p = PolarPoint(float(point["range_m"]), float(point["angle_rad"]))
            snap = upa_polar_snapshot(arr, p, freq)
            try:
                if table is None:
                    extract_support(wavenumber_transform(snap), frac)
                    continue
                est, diag = estimate_position(arr, freq, snap, table, threshold_frac=frac)
            except AliasingError as exc:
                rep.add(path, f"the planar array's wavenumber readout aliases here ({exc})")
            except OutOfCalibrationError as exc:
                rep.add(path, f"the wavenumber readout falls outside its range calibration ({exc})")
            else:
                if abs(diag["cos_x"] - math.cos(p.angle_rad)) > cos_bin:
                    rep.add(
                        path,
                        f"the planar array's wavenumber readout aliases here: it reads angle "
                        f"{est.angle_rad:.4f} rad, more than one direction-cosine bin "
                        f"({cos_bin:.3g}) off",
                    )

    counts = get("allocation", "sensing_counts")
    total = get("allocation", "total_power_w")
    p_min = get("allocation", "sensing_power_w")
    powers_ok = _is_num(total) and total > 0 and _is_num(p_min) and p_min >= 0
    for i, c in enumerate(counts if isinstance(counts, list) else ()):
        if not _is_int(c) or c <= 0:
            continue  # 0 is the no-sensing baseline
        path = f"allocation.sensing_counts[{i}]"
        if num_m is not None and c >= num_m:
            rep.add(path, f"must be < carrier.num_subcarriers ({num_m})")
        elif powers_ok and c * float(p_min) >= float(total):
            rep.add(
                path,
                f"reserves {c} x allocation.sensing_power_w = {c * float(p_min)} W, "
                f"which must be < allocation.total_power_w ({total} W)",
            )


_SECTION_VALIDATORS = {
    "experiment": _validate_experiment,
    "carrier": _validate_carrier,
    "design": lambda rep, sec: _validate_point(rep, "design", sec),
    "arc": _validate_arc,
    "grid": _validate_grid,
    "allocation": _validate_allocation,
    "users": _validate_users,
    "isac": _validate_isac,
    "music": _validate_music,
    "wavenumber": _validate_wavenumber,
    "targets": _validate_targets,
}


def validate_data(data: Any) -> ValidationReport:
    """Schema-check a parsed configuration mapping."""
    rep = ValidationReport()
    if not isinstance(data, dict):
        rep.add("$", "configuration root must be a mapping")
        return rep
    exp = data.get("experiment")
    _validate_experiment(rep, exp if exp is not None else {})
    name = exp.get("name") if isinstance(exp, dict) else None
    if name not in EXPERIMENT_SECTIONS:
        return rep  # cannot judge section usage without a valid name

    rules = EXPERIMENT_SECTIONS[name]
    wanted = set(rules["required"]) | set(rules["optional"])
    if name == "rmse-vs-snr" and isinstance(exp, dict) and "snr_db" not in exp:
        rep.add("experiment.snr_db", f"required by experiment '{name}' but missing")

    present = set()
    for key, value in data.items():
        if key == "array":
            if not isinstance(value, dict):
                rep.add("array", "must be a mapping with ula and/or upa")
                continue
            for sub in value:
                if sub not in ("ula", "upa"):
                    rep.add(f"array.{sub}", "unknown key")
                else:
                    present.add(f"array.{sub}")
        elif key in _SECTION_VALIDATORS:
            present.add(key)
        else:
            rep.add(key, "unknown section")

    for section in sorted(set(rules["required"]) - present):
        rep.add(section, f"required by experiment '{name}' but missing")
    for section in sorted(present - wanted):
        conflict = ""
        if section.startswith("array."):
            used = [s for s in wanted if s.startswith("array.")]
            if used:
                conflict = f" (conflicts with {', '.join(sorted(used))})"
        rep.add(section, f"not used by experiment '{name}'{conflict}")

    array = data.get("array", {})
    if isinstance(array, dict):
        if "array.ula" in present and "array.ula" in wanted:
            _validate_ula(rep, array.get("ula"))
        if "array.upa" in present and "array.upa" in wanted:
            _validate_upa(rep, array.get("upa"))
    for key in data:
        if key in _SECTION_VALIDATORS and key != "experiment" and key in wanted:
            _SECTION_VALIDATORS[key](rep, data[key])
    sections = {key: data[key] for key in data if key in wanted}
    if "array.upa" in present and "array.upa" in wanted:
        sections["array.upa"] = array.get("upa")
    _validate_cross_fields(rep, sections)
    return rep


def _read_config(path: str) -> tuple:
    """Parse a YAML file once; returns (data, validation report)."""
    rep = ValidationReport()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        rep.add("$", f"file not found: {path}")
        return None, rep
    except yaml.YAMLError as exc:
        rep.add("$", f"not valid YAML: {exc}")
        return None, rep
    return data, validate_data(data)


def validate_config(path: str) -> ValidationReport:
    """Parse and schema-check a YAML configuration file."""
    return _read_config(path)[1]


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Validated configuration with domain objects built from the raw data."""

    raw: dict
    name: str
    seed: int
    trials: int
    snr_db: tuple
    ula: Optional[ArrayGeometry]
    upa: Optional[PlanarArray]
    carrier: Optional[CarrierGrid]
    design: Optional[PolarPoint]
    arc: Optional[Arc]

    def section(self, key: str) -> dict:
        return self.raw.get(key, {})

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _resolve_spacing(sec: dict, meter_key: str, wl_key: str, wavelength: float) -> float:
    if meter_key in sec:
        return float(sec[meter_key])
    return float(sec[wl_key]) * wavelength


def _planar_array(sec: dict, wavelength: float) -> PlanarArray:
    dx = _resolve_spacing(sec, "dx_m", "dx_wavelengths", wavelength)
    dz = _resolve_spacing(sec, "dz_m", "dz_wavelengths", wavelength)
    return PlanarArray(int(sec["nx"]), int(sec["nz"]), dx, dz)


def build_config(data: dict) -> ScenarioConfig:
    """Turn validated raw data into domain objects. Call after validation."""
    exp = data["experiment"]
    carrier = None
    if "carrier" in data:
        c = data["carrier"]
        carrier = CarrierGrid(float(c["center_hz"]), int(c["num_subcarriers"]), float(c["spacing_hz"]))
    wavelength = C / carrier.center_hz if carrier else None

    ula = None
    upa = None
    array = data.get("array", {})
    if "ula" in array:
        sec = array["ula"]
        spacing = _resolve_spacing(sec, "spacing_m", "spacing_wavelengths", wavelength)
        ula = ArrayGeometry.ula(int(sec["num_elements"]), spacing)
    if "upa" in array:
        upa = _planar_array(array["upa"], wavelength)

    design = None
    if "design" in data:
        d = data["design"]
        design = PolarPoint(float(d["range_m"]), float(d["angle_rad"]))
    arc = None
    if "arc" in data:
        a = data["arc"]
        arc = Arc(float(a["theta_start_rad"]), float(a["theta_end_rad"]), float(a["range_m"]))

    return ScenarioConfig(
        raw=data,
        name=exp["name"],
        seed=int(exp["seed"]),
        trials=int(exp.get("trials", 1)),
        snr_db=tuple(float(x) for x in exp.get("snr_db", ())),
        ula=ula,
        upa=upa,
        carrier=carrier,
        design=design,
        arc=arc,
    )


def load_config(path: str) -> ScenarioConfig:
    """Validate then build; raises ConfigError with the full report on failure."""
    data, report = _read_config(path)
    if not report.ok:
        raise ConfigError(report)
    return build_config(data)
