"""Beamforming front ends and polar-grid gain evaluation.

A front end is per-element phases p and delays d; at frequency f its gain at
a point is |sum_n conj(w_n) exp(-2j*pi*f*(tau_n - d_n))|^2 for the point's
spherical delays tau and the unit-norm weights w = exp(-j*p)/sqrt(N), at most
N. A phase-only codeword has d = 0, so its gain is |w^H a|^2 and reaches N
exactly when w conjugate-matches a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arrays import ArrayGeometry, CarrierGrid, PolarPoint, gains, near_field_steering, spherical_delays
from .arrays import steering_chunks
from .errors import HardwareBoundError


@dataclass(frozen=True, eq=False)
class Beamformer:
    """Per-element phases (rad) and delays (s), and the focus point if any.

    delays_s defaults to zeros: a phase-only codeword is a front end whose
    delays are zero. Delays are nonnegative. weights, exp(-j*phases)/sqrt(N),
    is derived on construction; it and both arrays are read-only copies, so
    the checks hold for the front end's lifetime.
    """

    phases_rad: np.ndarray
    delays_s: Optional[np.ndarray] = None
    design_point: Optional[PolarPoint] = None

    def __post_init__(self) -> None:
        p = np.array(self.phases_rad, dtype=float)
        d = np.zeros(p.shape) if self.delays_s is None else np.array(self.delays_s, dtype=float)
        if d.shape != p.shape or d.ndim != 1:
            raise ValueError("delays_s and phases_rad must be matching 1-D arrays")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(p))):
            raise ValueError("delays_s and phases_rad must be finite")
        if np.any(d < 0):
            raise HardwareBoundError("delays must be nonnegative")
        w = np.exp(-1j * p) / np.sqrt(p.size)
        p.flags.writeable = d.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "phases_rad", p)
        object.__setattr__(self, "delays_s", d)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """Cartesian product of sorted angle and range axes."""

    angles_rad: np.ndarray
    ranges_m: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.angles_rad, dtype=float)
        r = np.asarray(self.ranges_m, dtype=float)
        if a.size > 1 and np.any(np.diff(a) <= 0):
            raise ValueError("angles_rad must be strictly increasing")
        if r.size > 1 and np.any(np.diff(r) <= 0):
            raise ValueError("ranges_m must be strictly increasing")
        if np.any(r <= 0):
            raise ValueError("ranges_m must be positive")
        object.__setattr__(self, "angles_rad", a)
        object.__setattr__(self, "ranges_m", r)

    @property
    def shape(self) -> tuple:
        return (self.angles_rad.size, self.ranges_m.size)


def polar_codeword(geom: ArrayGeometry, grid: CarrierGrid, p: PolarPoint) -> Beamformer:
    """Codeword matched to the spherical wavefront at p at the center subcarrier.

    w equals the center-frequency steering vector scaled to unit norm, so
    |w^H a| is maximal (= sqrt(N)) exactly at the design point.
    """
    phase = 2.0 * np.pi * grid.center_hz * spherical_delays(geom, p)
    return Beamformer(phase, design_point=p)


def gains_at_freq(
    geom: ArrayGeometry,
    freq_hz: float,
    taus: np.ndarray,
    cosines: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """|w^H a|^2 at one frequency over matched (tau, cos) point arrays.

    weights is N (one front end: P gains for P points) or N x K (K front
    ends as columns: P x K gains), as for arrays.gains.
    """
    taus = np.asarray(taus, dtype=float)
    cosines = np.asarray(cosines, dtype=float)
    out = np.empty((taus.size,) + np.shape(weights)[1:])
    wc = np.conj(weights)
    for lo, hi, ((_, _, a),) in steering_chunks(geom, CarrierGrid(freq_hz, 1, 0.0), taus, cosines):
        out[lo:hi] = gains(a, wc) ** 2
    return out


def angular_spread(geom: ArrayGeometry, grid: CarrierGrid, p: PolarPoint) -> float:
    """Fraction of steering-vector energy in the strongest angular (DFT) bin.

    Far-field vectors at bin-aligned angles concentrate in one bin (fraction 1);
    shrinking the range diffuses energy across bins and lowers the fraction.
    """
    a = near_field_steering(geom, p, grid, grid.half_m)
    spectrum = np.abs(np.fft.fft(a, norm="ortho")) ** 2
    return float(spectrum.max() / spectrum.sum())


def spread_ranges(rayleigh_m: float) -> np.ndarray:
    """The 13 ranges angular-spread sweeps, geometric from 0.05 to 10 Rayleigh distances."""
    return np.geomspace(0.05 * rayleigh_m, 10.0 * rayleigh_m, 13)
