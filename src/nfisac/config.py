"""Scenario configuration: YAML schema, validation, and typed loading.

Keys carry explicit unit suffixes (_hz, _m, _s, _rad, _w, _db,
_wavelengths) because unit mistakes are the dominant failure mode in this
kind of simulation. Validation is all-or-nothing: any unknown key, missing
key, or unit violation is reported with its full dotted path and nothing is
partially accepted.

SCHEMA declares every section's keys once: each key's kind (a finite number
with bounds and unit, an integer with a minimum, an angle in (0, pi), a list)
and either REQUIRED or its default. _check walks a section against it, and
the same walk fills in the defaults of the ScenarioConfig that scenario builds
for the experiments. load_config reads a YAML file into one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np
import yaml

from .allocation import sensing_subcarriers
from .arrays import ArrayGeometry, CarrierGrid, PolarPoint, rayleigh_distance
from .codebook import PolarGrid, spread_ranges
from .constants import SPEED_OF_LIGHT as C
from .delay_phase import Arc, arc_trajectory_spec, fit_trajectory
from .errors import AliasingError, CalibrationError, IllConditionedSpecError, OutOfCalibrationError
from .wavenumber import (
    PlanarArray,
    RadiusRangeTable,
    calibrate_radius_range,
    estimate_position,
    extract_support,
    upa_snapshot,
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
        "required": _COMMON + ("carrier", "allocation", "users"),
        "optional": (),
    },
}


REQUIRED = "required"  # the default of a key that has none
_FLOAT_MAX = sys.float_info.max


def _is_num(x: Any) -> bool:
    """A finite int or float; bools, NaN and infinities are not numbers here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX


@dataclass(frozen=True)
class SameAs:
    """Default that copies a key of an earlier section."""

    section: str
    key: str


@dataclass(frozen=True, kw_only=True)
class _Kind:
    # REQUIRED, a value, a SameAs, or None: optional, and its absence means
    # something to the code that reads the section
    default: Any = REQUIRED


@dataclass(frozen=True)
class Num(_Kind):
    """A finite number above lo (at or above it when closed), below hi if set."""

    lo: float
    unit: str = ""
    closed: bool = False
    hi: Optional[float] = None

    def accepts(self, v: Any) -> bool:
        if not _is_num(v):
            return False
        return (v >= self.lo if self.closed else v > self.lo) and (self.hi is None or v < self.hi)

    @property
    def message(self) -> str:
        if self.hi is not None:
            text = f"must lie in {'[' if self.closed else '('}{self.lo:g}, {self.hi:g})"
        elif self.closed:
            text = f"must be a number >= {self.lo:g}"
        else:
            text = "must be a positive number"  # every open lower bound is 0
        return f"{text} ({self.unit})" if self.unit else text


@dataclass(frozen=True)
class Angle(_Kind):
    """A direction in (0, pi) radians."""

    message = "must lie in (0, pi) (radians)"

    def accepts(self, v: Any) -> bool:
        return _is_num(v) and 0 < v < math.pi


@dataclass(frozen=True)
class Int(_Kind):
    """An integer >= minimum, odd when odd is set; note explains the rule."""

    minimum: int
    note: str = ""
    odd: bool = False

    def accepts(self, v: Any) -> bool:
        is_int = isinstance(v, int) and not isinstance(v, bool)
        return is_int and v >= self.minimum and (not self.odd or v % 2 == 1)

    @property
    def message(self) -> str:
        text = f"must be an {'odd ' if self.odd else ''}integer >= {self.minimum}"
        return f"{text} ({self.note})" if self.note else text


@dataclass(frozen=True)
class Items(_Kind):
    """A nonempty list whose items are all of kind item."""

    item: Any
    what: str

    def accepts(self, v: Any) -> bool:
        return isinstance(v, list) and bool(v) and all(self.item.accepts(x) for x in v)

    @property
    def message(self) -> str:
        return f"must be a nonempty list of {self.what}"


@dataclass(frozen=True)
class Name(_Kind):
    """One of a fixed set of names."""

    known: tuple
    what: str

    def accepts(self, v: Any) -> bool:
        return isinstance(v, str) and v in self.known

    @property
    def message(self) -> str:
        return f"unknown {self.what} (known: {', '.join(sorted(self.known))})"


# grid angle bounds used when a grid sets only one of angle_min_rad/angle_max_rad
GRID_ANGLE_DEFAULTS_RAD = (1e-3, np.pi - 1e-3)

_POINT = {"angle_rad": Angle(), "range_m": Num(0, "meters")}
_METERS = Num(0, "meters", default=None)
_WAVELENGTHS = Num(0, "carrier wavelengths", default=None)

# A section maps each key to its kind; "targets" is a nonempty list of points.
# Sections are checked in this order, so a SameAs default refers to a
# section above its own.
SCHEMA: Dict[str, Any] = {
    "experiment": {
        "name": Name(tuple(EXPERIMENT_SECTIONS), "experiment"),
        "seed": Int(0, "reproducibility seed"),
        "trials": Int(1, default=1),
        # rmse-vs-snr's echo energies 10**(snr / 10) saturate every scheme's
        # readout near +-300 dB and overflow or vanish past it
        "snr_db": Items(Num(-300, hi=300), "numbers in (-300, 300) dB", default=()),
    },
    "array.ula": {"num_elements": Int(1), "spacing_m": _METERS, "spacing_wavelengths": _WAVELENGTHS},
    "array.upa": {
        "nx": Int(8),
        "nz": Int(8),
        "dx_m": _METERS,
        "dx_wavelengths": _WAVELENGTHS,
        "dz_m": _METERS,
        "dz_wavelengths": _WAVELENGTHS,
    },
    "carrier": {
        "center_hz": Num(0, "Hz"),
        "num_subcarriers": Int(1, "M even", odd=True),
        "spacing_hz": Num(0, "Hz", closed=True),
    },
    "design": _POINT,
    "targets": [_POINT],
    "arc": {"theta_start_rad": Angle(), "theta_end_rad": Angle(), "range_m": Num(0, "meters")},
    "grid": {
        "num_angles": Int(2, default=721),
        "range_min_m": Num(0, "meters"),
        "range_max_m": Num(0, "meters"),
        "angle_min_rad": Angle(default=None),
        "angle_max_rad": Angle(default=None),
        # left out: max(2, ceil(60 log10(range_max_m / range_min_m)) + 1)
        "num_ranges": Int(2, default=None),
    },
    "allocation": {
        "total_power_w": Num(0, "watts"),
        "noise_power_w": Num(0, "watts"),
        "sensing_counts": Items(Int(0), "integers >= 0"),
        "sensing_power_w": Num(0, "watts", closed=True),
    },
    "users": {"count": Int(1), "mean_gain": Num(0, "dimensionless", default=1.0)},
    "isac": {
        "sensing_subcarriers": Int(3),
        "conventional_slots": Int(3),
        # sensing-only's echo energy is this ratio times isac's: at 1e308 it overflows
        "sensing_energy_ratio": Num(1, closed=True, hi=1e6),
        "target_margin_rad": Num(0, "radians", closed=True, default=math.radians(1.0)),
    },
    "music": {"snapshot_count": Int(2), "noise_power_w": Num(0, "watts")},
    "wavenumber": {
        "num_calibration_points": Int(8, default=9),
        "direction_angle_rad": Angle(default=math.pi / 2.0),
        "range_min_m": Num(0, "meters", default=SameAs("grid", "range_min_m")),
        "range_max_m": Num(0, "meters", default=SameAs("grid", "range_max_m")),
        "threshold_frac": Num(0, hi=1, default=0.1),
    },
}

# keys of which a section gives exactly one: a spacing in meters or in
# carrier wavelengths
_EXACTLY_ONE = {
    "array.ula": (("spacing_m", "spacing_wavelengths"),),
    "array.upa": (("dx_m", "dx_wavelengths"), ("dz_m", "dz_wavelengths")),
}

# (low key, high key): after defaults, the first must lie below the second
_ORDERED = {
    "arc": (("theta_start_rad", "theta_end_rad"),),
    "grid": (("range_min_m", "range_max_m"),),
    "wavenumber": (("range_min_m", "range_max_m"),),
}

# keys whose kind differs for one experiment
_EXPERIMENT_KEYS = {
    "rmse-vs-snr": {
        "experiment": {"snr_db": dataclasses.replace(SCHEMA["experiment"]["snr_db"], default=REQUIRED)},
        # the delay-phase fit regresses phase on frequency across subcarriers
        "carrier": {"spacing_hz": Num(0, "Hz; rmse-vs-snr fits a trajectory across subcarriers")},
    },
    # MUSIC splits the elements into a one-source signal and a noise subspace
    "music-vs-wavenumber": {"array.ula": {"num_elements": Int(2, "MUSIC needs a noise subspace")}},
    # one element has no aperture, so its Rayleigh distance 2 D^2 / lambda is 0
    "angular-spread": {"array.ula": {"num_elements": Int(2, "the Rayleigh distance needs an aperture")}},
}

# smallest mean SNR users.mean_gain * total_power_w / noise_power_w. Every
# rate ratio divides by a draw's comm-only rate; water-filling spends the
# whole budget however far below the noise floor it lies, so that rate is
# positive unless the SNR underflows, and -60 dB keeps the scenario in the
# regime the experiment models
MIN_MEAN_SNR = 1e-6


def _check(rep: ValidationReport, path: str, value: Any, spec: Any, out: dict) -> None:
    """Check one section (or list item) against its spec.

    When it passes, out[path] is the section with the spec's defaults filled
    in; each passing item of a list section is also out[f"{path}[i]"].
    """
    if isinstance(spec, list):
        if not isinstance(value, list) or not value:
            rep.add(path, "must be a nonempty list of {" + ", ".join(spec[0]) + "}")
            return
        paths = [f"{path}[{i}]" for i in range(len(value))]
        for p, item in zip(paths, value):
            _check(rep, p, item, spec[0], out)
        if all(p in out for p in paths):
            out[path] = [out[p] for p in paths]
        return
    if not isinstance(value, dict):
        rep.add(path, "must be a mapping")
        return
    before = len(rep.issues)
    for key in value:
        if key not in spec:
            rep.add(f"{path}.{key}", "unknown key")
    resolved = {}
    resolvable = True
    for key, kind in spec.items():
        if key in value:
            resolved[key] = value[key]
            if not kind.accepts(value[key]):
                rep.add(f"{path}.{key}", kind.message)
        elif kind.default is REQUIRED:
            rep.add(f"{path}.{key}", "missing required key")
        elif isinstance(kind.default, SameAs):
            resolvable = resolvable and kind.default.section in out
            if resolvable:
                resolved[key] = out[kind.default.section][kind.default.key]
        elif kind.default is not None:
            resolved[key] = kind.default
    for one, other in _EXACTLY_ONE.get(path, ()):
        if (one in value) == (other in value):
            rep.add(path, f"exactly one of {one} (m) or {other} required")
    if len(rep.issues) > before or not resolvable:
        return
    for lo, hi in _ORDERED.get(path, ()):
        if not resolved[lo] < resolved[hi]:
            rep.add(f"{path}.{hi}", f"must exceed {path}.{lo} ({resolved[lo]})")
            return
    if path == "grid":
        # the axis runs from its first bound to its last, a left-out one included
        angles = grid_angles(resolved)
        if not angles[0] < angles[-1]:
            rep.add("grid.angle_max_rad", f"must exceed grid.angle_min_rad ({angles[0]})")
            return
    out[path] = resolved


def grid_angles(grid: dict) -> np.ndarray:
    """Angle axis of the evaluation grid described by a resolved grid section.

    With either bound given, num_angles points span [angle_min_rad,
    angle_max_rad] (a missing bound takes its GRID_ANGLE_DEFAULTS_RAD value);
    with neither, they are the interior points of an even split of [0, pi].
    """
    num_angles = int(grid["num_angles"])
    if "angle_min_rad" in grid or "angle_max_rad" in grid:
        lo = float(grid.get("angle_min_rad", GRID_ANGLE_DEFAULTS_RAD[0]))
        hi = float(grid.get("angle_max_rad", GRID_ANGLE_DEFAULTS_RAD[1]))
        return np.linspace(lo, hi, num_angles)
    return np.linspace(0.0, np.pi, num_angles + 2)[1:-1]


def evaluation_grid(grid: dict) -> PolarGrid:
    """Polar evaluation grid of a resolved grid section: grid_angles by
    num_ranges ranges geometrically spaced over [range_min_m, range_max_m].
    """
    rmin = float(grid["range_min_m"])
    rmax = float(grid["range_max_m"])
    if "num_ranges" in grid:
        num_ranges = int(grid["num_ranges"])
    else:
        num_ranges = max(2, int(np.ceil(60 * np.log10(rmax / rmin))) + 1)
    return PolarGrid(grid_angles(grid), np.geomspace(rmin, rmax, num_ranges))


def wavenumber_calibration(wavenumber: dict) -> tuple:
    """(direction angle, range sweep, threshold_frac) of a resolved wavenumber
    section.

    The sweep has num_calibration_points ranges, geometrically spaced over
    [range_min_m, range_max_m], along direction_angle_rad from the x axis.
    """
    sweep = np.geomspace(
        float(wavenumber["range_min_m"]),
        float(wavenumber["range_max_m"]),
        int(wavenumber["num_calibration_points"]),
    )
    return float(wavenumber["direction_angle_rad"]), sweep, float(wavenumber["threshold_frac"])


def _within(rep: ValidationReport, path: str, value: float, bounds: tuple, what: str) -> bool:
    lo, hi = bounds
    if lo <= value <= hi:
        return True
    rep.add(path, f"{value} lies outside {what} [{lo}, {hi}]")
    return False


def _spacing(sec: dict, axis: str, wavelength: Optional[float]) -> Optional[float]:
    """An array section's spacing along axis in meters: {axis}_m, or
    {axis}_wavelengths carrier wavelengths (None without a carrier)."""
    if f"{axis}_m" in sec:
        return float(sec[f"{axis}_m"])
    return None if wavelength is None else float(sec[f"{axis}_wavelengths"]) * wavelength


def _built(rep: ValidationReport, path: str, make, *args) -> Any:
    """make(*args), or None with the ValueError it raises reported at path."""
    try:
        return make(*args)
    except ValueError as exc:
        rep.add(path, str(exc))
        return None


def _resolve(rep: ValidationReport, data: dict) -> dict:
    """Check data's sections against the schema, reporting into rep.

    Returns each section (and targets item) that passed with its defaults
    filled in; cross-field checks are left to scenario.
    """
    res: dict = {}
    exp = data.get("experiment")
    name = exp.get("name") if isinstance(exp, dict) else None
    known = isinstance(name, str) and name in EXPERIMENT_SECTIONS
    override = _EXPERIMENT_KEYS.get(name, {}) if known else {}
    schema = {path: {**spec, **override[path]} if path in override else spec for path, spec in SCHEMA.items()}
    _check(rep, "experiment", exp if exp is not None else {}, schema["experiment"], res)
    if not known:
        return res  # cannot judge section usage without a valid name

    rules = EXPERIMENT_SECTIONS[name]
    wanted = set(rules["required"]) | set(rules["optional"])
    values = {}  # path -> value of each section present
    for key, value in data.items():
        if key == "array":
            if not isinstance(value, dict):
                rep.add("array", "must be a mapping with ula and/or upa")
                continue
            for sub in value:
                if sub not in ("ula", "upa"):
                    rep.add(f"array.{sub}", "unknown key")
                else:
                    values[f"array.{sub}"] = value[sub]
        elif key in SCHEMA and "." not in key:
            values[key] = value
        else:
            rep.add(key, "unknown section")

    for section in sorted(set(rules["required"]) - set(values)):
        rep.add(section, f"required by experiment '{name}' but missing")
    for section in sorted(set(values) - wanted):
        conflict = ""
        if section.startswith("array."):
            used = [s for s in wanted if s.startswith("array.")]
            if used:
                conflict = f" (conflicts with {', '.join(sorted(used))})"
        rep.add(section, f"not used by experiment '{name}'{conflict}")

    for path, spec in schema.items():
        if path == "experiment" or path not in wanted:
            continue
        if path in values:
            _check(rep, path, values[path], spec, res)
        elif path in rules["optional"]:
            _check(rep, path, {}, spec, res)  # all defaults
    return res


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Validated configuration with domain objects built from the raw data.

    raw is the data as read (config_hash covers it); sections holds each
    section the experiment reads with the schema's defaults filled in. Each
    object, the evaluation grid, the targets, the wavenumber sweep's
    radius-to-range table, the planar readouts and the arc's delay-phase fit
    among them, is the one validation checked, or None where its sections
    are absent or failed.
    """

    raw: dict
    sections: dict
    name: str
    seed: int
    trials: int
    snr_db: tuple
    ula: Optional[ArrayGeometry]
    carrier: Optional[CarrierGrid]
    design: Optional[PolarPoint]
    arc: Optional[Arc]
    grid: Optional[PolarGrid]
    targets: Optional[tuple]
    table: Optional[RadiusRangeTable]
    # validation's planar readouts: (point, estimate, diagnostics) per target,
    # or per calibration probe, in reading order
    readouts: Optional[tuple]
    fit: Optional[tuple]  # (fitted delay-phase Beamformer, rms residual in rad) along the arc

    def section(self, key: str) -> Any:
        return self.sections.get(key, {})

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def scenario(data: Any) -> tuple:
    """Check data and build its scenario in one pass: (report, config).

    Each domain object is built once from the sections that passed, and the
    checks that relate sections run on those objects, so a run uses what
    validation checked. The config is None only when the experiment section
    fails; cross-field issues leave it built.
    """
    rep = ValidationReport()
    if not isinstance(data, dict):
        rep.add("$", "configuration root must be a mapping")
        return rep, None
    res = _resolve(rep, data)
    exp = res.get("experiment")
    if exp is None:
        return rep, None

    carrier = None
    if "carrier" in res:
        c = res["carrier"]
        args = float(c["center_hz"]), int(c["num_subcarriers"]), float(c["spacing_hz"])
        carrier = _built(rep, "carrier", CarrierGrid, *args)  # its band may reach 0 Hz
    wavelength = C / carrier.center_hz if carrier is not None else None
    ula = upa = None
    if "array.ula" in res:
        sec = res["array.ula"]
        spacing = _spacing(sec, "spacing", wavelength)
        if spacing is not None:
            ula = ArrayGeometry.ula(int(sec["num_elements"]), spacing)
    if "array.upa" in res:
        sec = res["array.upa"]
        dx, dz = _spacing(sec, "dx", wavelength), _spacing(sec, "dz", wavelength)
        if dx is not None and dz is not None:
            upa = PlanarArray(int(sec["nx"]), int(sec["nz"]), dx, dz)
    arc = None
    if "arc" in res:
        a = res["arc"]
        arc = Arc(float(a["theta_start_rad"]), float(a["theta_end_rad"]), float(a["range_m"]))
    # too many points for its bounds collapse neighbouring grid lines
    grid = _built(rep, "grid", evaluation_grid, res["grid"]) if "grid" in res else None
    # the design point and each target item that passed, by path
    points = {
        path: PolarPoint(float(p["range_m"]), float(p["angle_rad"]))
        for path, p in res.items()
        if path == "design" or path.startswith("targets[")
    }
    targets = tuple(p for path, p in points.items() if path != "design") if "targets" in res else None

    if carrier is not None and "isac" in res:
        try:
            sensing_subcarriers(carrier.num_subcarriers, res["isac"]["sensing_subcarriers"])
        except ValueError as exc:
            m = carrier.num_subcarriers
            rep.add("isac.sensing_subcarriers", f"{exc} (carrier.num_subcarriers is {m})")

    # design and target points must lie inside the grid the experiment builds,
    # and targets inside the wavenumber calibration sweep
    placed = []  # (path, point) of each point that does
    wsec = res.get("wavenumber")
    sweep = (wsec["range_min_m"], wsec["range_max_m"]) if wsec is not None else None
    if grid is not None:
        angles = (float(grid.angles_rad[0]), float(grid.angles_rad[-1]))
        ranges = (res["grid"]["range_min_m"], res["grid"]["range_max_m"])
        for path, point in points.items():
            angle, r = res[path]["angle_rad"], res[path]["range_m"]
            in_angles = _within(rep, f"{path}.angle_rad", angle, angles, "the evaluation grid's angles")
            in_grid = _within(rep, f"{path}.range_m", r, ranges, "the evaluation grid's ranges")
            if in_grid and sweep is not None:
                in_grid = _within(rep, f"{path}.range_m", r, sweep, "the wavenumber calibration sweep")
            if in_angles and in_grid:
                placed.append((path, point))

    # the planar-array readout is noiseless, so running it here, the sweep's
    # calibration and then each target's or probe's estimate, shows whether
    # the run would fail or misread it
    table = readouts = None
    if sweep is not None and upa is not None and carrier is not None:
        freq = carrier.center_hz
        theta, sweep_m, frac = wavenumber_calibration(wsec)
        try:
            table = calibrate_radius_range(upa, freq, theta, sweep_m, threshold_frac=frac)
        except CalibrationError as exc:
            # the sweep runs past the window where radii fall with range
            rep.add("wavenumber.range_max_m", f"the calibration sweep cannot be calibrated ({exc})")
        except AliasingError as exc:
            # the nearest ranges' support disks are the widest
            rep.add("wavenumber.range_min_m", f"the calibration sweep's wavenumber readout aliases ({exc})")
        # a calibration run writes the readouts of probes along the sweep's
        # direction at its geometric midpoints, the worst case for
        # interpolating an inverse law; they are read against the table only
        calibrating = table is not None and exp["name"] == "wavenumber-calibration"
        mids = np.sqrt(sweep_m[:-1] * sweep_m[1:]) if calibrating else ()
        probes = [("wavenumber.direction_angle_rad", PolarPoint(float(r), theta)) for r in mids]
        cos_bin = C / (freq * upa.nx * upa.dx_m)
        reads = []  # (point, estimate, diagnostics) of each point read
        before = len(rep.issues)
        for path, p in placed + probes:
            if any(i.path == path for i in rep.issues[before:]):
                continue  # the probes share one path, reported once
            snap = upa_snapshot(upa, p, freq)
            try:
                if table is None:  # each target's forward step is still checked
                    extract_support(wavenumber_transform(snap), frac)
                    continue
                est, diag = estimate_position(table, snap)
            except AliasingError as exc:
                rep.add(path, f"the planar array's wavenumber readout aliases here ({exc})")
            except OutOfCalibrationError as exc:
                rep.add(path, f"the wavenumber readout falls outside its range calibration ({exc})")
            else:
                reads.append((p, est, diag))
                if abs(diag["cos_x"] - math.cos(p.angle_rad)) > cos_bin:
                    rep.add(
                        path,
                        f"the planar array's wavenumber readout aliases here: it reads angle "
                        f"{est.angle_rad:.4f} rad, more than one direction-cosine bin "
                        f"({cos_bin:.3g}) off",
                    )
        # the run writes the readouts once every point and probe was read
        if table is not None and len(reads) == len(points) + len(probes):
            readouts = tuple(reads)

    # a linear array evaluated over the grid, or steered along the arc, needs
    # every such range past its half-aperture, as a steering vector's source
    # does: closer in, the point-source phase model breaks down
    fit = None
    if ula is not None:
        half = ula.aperture_m() / 2
        for sec, key in (("grid", "range_min_m"), ("arc", "range_m")):
            if sec in res and res[sec][key] <= half:
                rep.add(f"{sec}.{key}", f"must exceed the linear array's half-aperture (N-1)*d/2 = {half:.6g} m")
        # angular-spread's nearest range, 0.05 Rayleigh distances or 0.1 D^2 /
        # lambda, lies inside the half-aperture once (N-1)*d <= 5 wavelengths
        if exp["name"] == "angular-spread" and carrier is not None:
            nearest = float(spread_ranges(rayleigh_distance(ula, carrier))[0])
            if nearest <= half:
                rep.add(
                    "array.ula.num_elements",
                    f"leaves angular-spread's nearest range, 0.05 Rayleigh distances = {nearest:.6g} m, "
                    f"inside the linear array's half-aperture (N-1)*d/2 = {half:.6g} m",
                )
        # the delay-phase front end that steers the arc across the band
        if arc is not None and carrier is not None and arc.range_m > half:
            try:
                fit = fit_trajectory(ula, carrier, arc_trajectory_spec(carrier, arc))
            except IllConditionedSpecError as exc:
                rep.add("arc", f"cannot be fit by a delay-phase front end across the band ({exc})")

    if arc is not None and "isac" in res:
        # trial targets are drawn from [start + margin, end - margin]
        margin = float(res["isac"]["target_margin_rad"])
        lo, hi = arc.theta_start_rad + margin, arc.theta_end_rad - margin
        if lo > hi:
            rep.add(
                "isac.target_margin_rad",
                f"leaves no target angles on the arc: arc.theta_start_rad + margin ({lo}) "
                f"exceeds arc.theta_end_rad - margin ({hi})",
            )

    alloc = res.get("allocation")
    if alloc is not None:
        total = float(alloc["total_power_w"])
        p_min = float(alloc["sensing_power_w"])
        snr = res["users"]["mean_gain"] * total / alloc["noise_power_w"] if "users" in res else math.inf
        if snr < MIN_MEAN_SNR:
            rep.add(
                "users.mean_gain",
                f"gives a mean SNR mean_gain x allocation.total_power_w / allocation.noise_power_w "
                f"of {snr:.3g}, below {MIN_MEAN_SNR:g}: the comm-only baseline rate can round to 0",
            )
        for i, c in enumerate(alloc["sensing_counts"]):
            if c == 0:
                continue  # the no-sensing baseline
            path = f"allocation.sensing_counts[{i}]"
            if carrier is not None and c >= carrier.num_subcarriers:
                rep.add(path, f"must be < carrier.num_subcarriers ({carrier.num_subcarriers})")
            elif c * p_min >= total:
                rep.add(
                    path,
                    f"reserves {c} x allocation.sensing_power_w = {c * p_min} W, "
                    f"which must be < allocation.total_power_w ({alloc['total_power_w']} W)",
                )

    return rep, ScenarioConfig(
        raw=data,
        sections=res,
        name=exp["name"],
        seed=int(exp["seed"]),
        trials=int(exp["trials"]),
        snr_db=tuple(float(x) for x in exp["snr_db"]),
        ula=ula,
        carrier=carrier,
        design=points.get("design"),
        arc=arc,
        grid=grid,
        targets=targets,
        table=table,
        readouts=readouts,
        fit=fit,
    )


def load_config(path: str) -> ScenarioConfig:
    """Parse a YAML file once and build its scenario.

    Raises ConfigError with the full report when the file cannot be read or
    parsed, or its scenario fails validation.
    """
    report = ValidationReport()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        report.add("$", f"file not found: {path}")
    except yaml.YAMLError as exc:
        report.add("$", f"not valid YAML: {exc}")
    else:
        report, cfg = scenario(data)
    if not report.ok:
        raise ConfigError(report)
    return cfg
