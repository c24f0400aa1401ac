"""Uniform linear array geometry and wavefront steering models.

The spherical model keeps the exact per-element propagation distance, so it is
valid arbitrarily close to the array; the planar model linearizes the distance
in the element offset and is the classical far-field approximation. Both are
pure phase models: element amplitudes are identically one.

All quantities are SI (Hz, m, s, rad). Angles are measured from the array
axis, so broadside is pi/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT as C


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Uniform linear array on a line, described by signed element offsets.

    element_offsets_s[n] is the signed propagation time from the array center
    to element n along the array axis; offsets are symmetric about zero and
    strictly increasing.
    """

    num_elements: int
    spacing_m: float
    element_offsets_s: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n, d = self.num_elements, self.spacing_m
        if n < 1:
            raise ValueError("num_elements must be >= 1")
        if d <= 0:
            raise ValueError("spacing_m must be > 0")
        t = np.asarray(self.element_offsets_s, dtype=float)
        if t.shape != (n,):
            raise ValueError("element_offsets_s must have one entry per element")
        if abs(float(t.sum())) > 1e-15:
            raise ValueError("element offsets must be symmetric about zero")
        if n > 1:
            steps = np.diff(t)
            if np.any(steps <= 0):
                raise ValueError("element offsets must be strictly increasing")
            if np.any(np.abs(steps - d / C) > 1e-12 * d / C):
                raise ValueError("adjacent offset difference must equal spacing_m/c")
        object.__setattr__(self, "element_offsets_s", t)

    @classmethod
    def ula(cls, num_elements: int, spacing_m: float) -> "ArrayGeometry":
        """Centered ULA: offset of element n is (n - (N-1)/2) * d / c."""
        n = np.arange(num_elements, dtype=float)
        t = (n - (num_elements - 1) / 2.0) * spacing_m / C
        return cls(num_elements, spacing_m, t)

    def aperture_m(self) -> float:
        return (self.num_elements - 1) * self.spacing_m


@dataclass(frozen=True)
class PolarPoint:
    """A location (range, angle) relative to the array center."""

    range_m: float
    angle_rad: float

    def __post_init__(self) -> None:
        if not self.range_m > 0:
            raise ValueError("range_m must be > 0")
        if not 0.0 < self.angle_rad < np.pi:
            raise ValueError("angle_rad must lie in (0, pi)")

    def delay_s(self) -> float:
        return self.range_m / C


@dataclass(frozen=True)
class CarrierGrid:
    """Uniformly spaced OFDM subcarriers around a center frequency.

    num_subcarriers is M+1 with M even, so subcarrier M/2 sits exactly at the
    center frequency.
    """

    center_hz: float
    num_subcarriers: int
    spacing_hz: float

    def __post_init__(self) -> None:
        if self.center_hz <= 0:
            raise ValueError("center_hz must be > 0")
        if self.num_subcarriers < 1 or self.num_subcarriers % 2 == 0:
            raise ValueError("num_subcarriers must be odd (M even)")
        if self.spacing_hz < 0:
            raise ValueError("spacing_hz must be >= 0")
        if self.freq(0) <= 0:
            raise ValueError("lowest subcarrier frequency must be > 0")

    @property
    def half_m(self) -> int:
        """M/2, the center subcarrier index."""
        return (self.num_subcarriers - 1) // 2

    def freq(self, m: int) -> float:
        if not 0 <= m < self.num_subcarriers:
            raise IndexError(f"subcarrier index {m} out of range 0..{self.num_subcarriers - 1}")
        return self.center_hz + (m - self.half_m) * self.spacing_hz

    def freqs(self, ms=None) -> np.ndarray:
        m = np.arange(self.num_subcarriers, dtype=float)
        if ms is not None:
            ms = np.asarray(ms, dtype=int)
            if np.any((ms < 0) | (ms >= m.size)):
                raise IndexError(f"subcarrier indices {ms.tolist()} out of range 0..{m.size - 1}")
            m = m[ms]
        return self.center_hz + (m - self.half_m) * self.spacing_hz

    def bandwidth_hz(self) -> float:
        return (self.num_subcarriers - 1) * self.spacing_hz


def spherical_delays(geom: ArrayGeometry, p: PolarPoint) -> np.ndarray:
    """Exact per-element propagation delay (seconds) from point p."""
    tau = p.delay_s()
    t = geom.element_offsets_s
    return np.sqrt(tau * tau + t * t - 2.0 * tau * t * np.cos(p.angle_rad))


def spherical_delay_matrix(
    geom: ArrayGeometry, taus: np.ndarray, cosines: np.ndarray
) -> np.ndarray:
    """Per-element delays for many points at once, shape (len(taus), N).

    taus and cosines are matched 1-D arrays of point delays r/c and cos(angle).
    """
    t = geom.element_offsets_s[None, :]
    taus = np.asarray(taus, dtype=float)[:, None]
    cosines = np.asarray(cosines, dtype=float)[:, None]
    return np.sqrt(taus * taus + t * t - 2.0 * taus * t * cosines)


# chunk rows so a chunk's delays, steering and subcarrier step (~1.3 MB at
# 32 K entries) stay in a core's L2 cache while every subcarrier revisits them
_CHUNK_ENTRIES = 32_768


def steering_chunks(geom: ArrayGeometry, freq_hz: float, taus: np.ndarray, cosines: np.ndarray, offsets_s=None):
    """Spherical-wavefront steering rows at freq_hz over matched point arrays.

    Yields (lo, hi, delays, steering) for consecutive row ranges lo:hi of the
    1-D taus/cosines arrays: delays is their spherical_delay_matrix less the
    per-element offsets_s, if given (a front end's delays), and
    steering = exp(-2j*pi*freq_hz*delays). A chunk holds about _CHUNK_ENTRIES
    entries, sized so that a caller's repeated passes over it run in cache
    rather than streaming from memory, and never a single row
    unless there is only one point: numpy hands a one-row product to BLAS's
    dot routine, whose last bits differ from the matrix-vector kernel's, so a
    lone row would make a point's gain depend on where the chunks split.
    """
    chunk = max(2, _CHUNK_ENTRIES // geom.num_elements)
    lo = 0
    while lo < taus.size:
        hi = taus.size if taus.size - lo <= chunk + 1 else lo + chunk
        delays = spherical_delay_matrix(geom, taus[lo:hi], cosines[lo:hi])
        if offsets_s is not None:
            delays -= offsets_s
        # exp in place: a caller may still hold the previous chunk here
        steering = np.multiply(-2j * np.pi * freq_hz, delays)
        yield lo, hi, delays, np.exp(steering, out=steering)
        # hold no reference here, so a caller that drops its chunk frees it
        del delays, steering
        lo = hi


def _check_source_range(geom: ArrayGeometry, p: PolarPoint) -> None:
    # source inside the aperture breaks the point-source phase model
    if p.range_m <= geom.aperture_m() / 2:
        raise ValueError("source range must exceed half the aperture")


def near_field_steering(
    geom: ArrayGeometry, p: PolarPoint, grid: CarrierGrid, m: int
) -> np.ndarray:
    """Spherical-wavefront steering vector at subcarrier m; entries unit modulus."""
    _check_source_range(geom, p)
    f = grid.freq(m)
    return np.exp(-2j * np.pi * f * spherical_delays(geom, p))


def far_field_steering(
    geom: ArrayGeometry, p: PolarPoint, grid: CarrierGrid, m: int
) -> np.ndarray:
    """Planar-wavefront steering vector at subcarrier m; entries unit modulus."""
    _check_source_range(geom, p)
    f = grid.freq(m)
    delays = p.delay_s() - geom.element_offsets_s * np.cos(p.angle_rad)
    return np.exp(-2j * np.pi * f * delays)


def rayleigh_distance(geom: ArrayGeometry, grid: CarrierGrid) -> float:
    """Near/far boundary 2*D^2/lambda for aperture D at the center frequency."""
    wavelength = C / grid.center_hz
    d_ap = geom.aperture_m()
    return 2.0 * d_ap * d_ap / wavelength

