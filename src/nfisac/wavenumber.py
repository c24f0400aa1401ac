"""Wavenumber-domain localization with a planar array.

A spherical wavefront sampled by a planar array spreads over a disk of
plane-wave components; the disk center encodes direction and its radius
shrinks as the source recedes, which gives a monotone radius-to-range map.
The whole pipeline runs on the magnitude spectrum, so it needs no timing or
phase synchronization: a global phase or delay on the snapshot cannot change
the output at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import PolarPoint
from .constants import SPEED_OF_LIGHT as C
from .errors import AliasingError, CalibrationError, OutOfCalibrationError

# centroid snap (in bins) that makes estimates bit-identical under global phase
_CENTROID_SNAP = 1e-6


@dataclass(frozen=True)
class PlanarArray:
    """Uniform planar array in the x-z plane, centered at the origin.

    Spacings above half a wavelength shrink the alias-free wavenumber window;
    extract_support raises once the support disk touches the window border,
    which is the failure that actually matters here.
    """

    nx: int
    nz: int
    dx_m: float
    dz_m: float

    def __post_init__(self) -> None:
        if self.nx < 8 or self.nz < 8:
            raise ValueError("planar array needs at least 8x8 elements")
        if self.dx_m <= 0 or self.dz_m <= 0:
            raise ValueError("spacings must be > 0")

    def x_positions(self) -> np.ndarray:
        i = np.arange(self.nx, dtype=float)
        return (i - (self.nx - 1) / 2.0) * self.dx_m

    def z_positions(self) -> np.ndarray:
        k = np.arange(self.nz, dtype=float)
        return (k - (self.nz - 1) / 2.0) * self.dz_m

    def aperture_m(self) -> float:
        """Diagonal aperture, the longest baseline."""
        return float(np.hypot((self.nx - 1) * self.dx_m, (self.nz - 1) * self.dz_m))


@dataclass(frozen=True, eq=False)
class RadiusRangeTable:
    """A range calibration: (range, support radius) pairs that arr read at
    freq_hz with threshold_frac; radius strictly decreasing with range."""

    ranges_m: np.ndarray
    radii_bins: np.ndarray
    arr: PlanarArray
    freq_hz: float
    threshold_frac: float

    def __post_init__(self) -> None:
        r = np.asarray(self.ranges_m, dtype=float)
        q = np.asarray(self.radii_bins, dtype=float)
        if r.size != q.size or r.size < 2:
            raise ValueError("table needs matching arrays of >= 2 entries")
        if np.any(np.diff(r) <= 0):
            raise ValueError("ranges_m must be strictly increasing")
        if np.any(np.diff(q) >= 0):
            raise CalibrationError(
                "support radius must decrease strictly with range; radii that stop "
                "decreasing mean the sweep leaves the valid near-field window"
            )
        object.__setattr__(self, "ranges_m", r)
        object.__setattr__(self, "radii_bins", q)

    def range_for_radius(self, radius_bins: float) -> float:
        lo, hi = float(self.radii_bins[-1]), float(self.radii_bins[0])
        if not lo <= radius_bins <= hi:
            raise OutOfCalibrationError(
                f"radius {radius_bins:.3f} bins outside calibrated [{lo:.3f}, {hi:.3f}]"
            )
        # radii decrease with range; reverse for increasing-x interpolation
        return float(np.interp(radius_bins, self.radii_bins[::-1], self.ranges_m[::-1]))


def upa_snapshot(arr: PlanarArray, p: PolarPoint, freq_hz: float) -> np.ndarray:
    """Pure-phase spherical wavefront from a source at polar point p in the
    array's x-y plane, sampled on the planar array.

    The angle is measured from the x axis, as for the linear array.
    """
    sx = p.range_m * math.cos(p.angle_rad)
    sy = p.range_m * math.sin(p.angle_rad)
    x = arr.x_positions()[:, None]
    z = arr.z_positions()[None, :]
    dist = np.sqrt((x - sx) ** 2 + sy**2 + z**2)
    return np.exp(-2j * np.pi * freq_hz / C * dist)


def upa_rayleigh_distance(arr: PlanarArray, freq_hz: float) -> float:
    d_ap = arr.aperture_m()
    return 2.0 * d_ap * d_ap / (C / freq_hz)


def wavenumber_transform(snapshot: np.ndarray) -> np.ndarray:
    """Magnitude-squared unitary 2-D DFT of a snapshot, zero wavenumber at
    bin (nx // 2, nz // 2)."""
    snap = np.asarray(snapshot, dtype=complex)
    return np.abs(np.fft.fftshift(np.fft.fft2(snap, norm="ortho"))) ** 2


def extract_support(s: np.ndarray, threshold_frac: float = 0.1) -> tuple:
    """Threshold a wavenumber spectrum and summarize its support as a disk:
    ((u0, v0) center relative to the zero-wavenumber bin, radius), in bins.

    Support touching the spectrum border means wavenumber content is aliased
    (array too small or source too close), so no disk can be trusted.
    """
    peak = float(s.max())
    if not peak > 0:
        raise ValueError("spectrum must have a positive peak")
    mask = s >= threshold_frac * peak
    iu, iv = np.nonzero(mask)
    if (
        iu.min() == 0
        or iv.min() == 0
        or iu.max() == s.shape[0] - 1
        or iv.max() == s.shape[1] - 1
    ):
        raise AliasingError("wavenumber support touches the spectrum border")
    energy = s[mask]
    u0 = float((iu * energy).sum() / energy.sum()) - s.shape[0] // 2
    v0 = float((iv * energy).sum() / energy.sum()) - s.shape[1] // 2
    # snap so a global snapshot phase cannot wiggle the last float ulps
    u0 = round(u0 / _CENTROID_SNAP) * _CENTROID_SNAP
    v0 = round(v0 / _CENTROID_SNAP) * _CENTROID_SNAP
    return (u0, v0), float(np.sqrt(mask.sum() / np.pi))


def calibrate_radius_range(
    arr: PlanarArray,
    freq_hz: float,
    angle_rad: float,
    range_sweep_m,
    threshold_frac: float = 0.1,
) -> RadiusRangeTable:
    """Run the forward pipeline over a range sweep along one direction.

    The sources are the polar points (range, angle_rad) that upa_snapshot
    places. The table records arr, freq_hz and threshold_frac, and raises
    CalibrationError when the radii do not fall strictly.
    """
    sweep = np.asarray(range_sweep_m, dtype=float)
    if sweep.size < 8:
        raise ValueError("range sweep needs at least 8 points")
    if np.any(np.diff(sweep) <= 0):
        raise ValueError("range sweep must be strictly increasing")
    radii = []
    for r in sweep:
        snap = upa_snapshot(arr, PolarPoint(float(r), angle_rad), freq_hz)
        radii.append(extract_support(wavenumber_transform(snap), threshold_frac)[1])
    return RadiusRangeTable(sweep, radii, arr, freq_hz, threshold_frac)


def estimate_position(table: RadiusRangeTable, snapshot: np.ndarray) -> tuple:
    """Invert the calibrated map: snapshot -> (PolarPoint estimate, diagnostics).

    The snapshot is read on the table's array at its frequency and threshold.
    The polar angle is measured from the array's x axis, matching the linear
    array convention. Any global phase or timing offset on the snapshot leaves
    the result bit-identical. A direction cosine that reads outside (-1, 1)
    names no direction: the support has wrapped round the alias-free window,
    and AliasingError is raised.
    """
    arr = table.arr
    if np.shape(snapshot) != (arr.nx, arr.nz):
        raise ValueError(f"snapshot must be the calibrated array's ({arr.nx}, {arr.nz})")
    center, radius = extract_support(wavenumber_transform(snapshot), table.threshold_frac)
    cos_x = float(C * center[0] / (table.freq_hz * arr.nx * arr.dx_m))
    if not -1.0 < cos_x < 1.0:
        raise AliasingError(f"direction cosine {cos_x:.6f} reads outside (-1, 1)")
    estimate = PolarPoint(table.range_for_radius(radius), float(np.arccos(cos_x)))
    return estimate, {"radius_bins": radius, "center_bins": center, "cos_x": cos_x}
