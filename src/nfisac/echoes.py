"""Echo synthesis and angle estimation from trajectory-swept sensing beams.

Each sensing subcarrier illuminates one arc point; a target near some arc
point returns the strongest normalized echo on the matching subcarrier.
The estimator takes the best subcarrier and sharpens it with a three-point
parabolic fit over neighboring arc angles.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .arrays import ArrayGeometry, CarrierGrid, PolarPoint, gains, phasors, spherical_delays
from .codebook import Beamformer


def simulate_echoes(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    w: Beamformer,
    sensing_m: Sequence[int],
    target: PolarPoint,
    reflectivity: complex,
    powers_w: np.ndarray,
    noise_power_w: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Forward model y_m = beta * G_m * sqrt(p_m) + n_m per sensing subcarrier.

    G_m = |w_m^H a_m(target)| is the one-way beam amplitude toward the target
    of the weights w_m that the front end w (a fit_trajectory result, say)
    realizes at subcarrier m; range attenuation is absorbed into the noise
    level (reflectivity and noise together set the operating SNR).
    """
    powers_w = np.asarray(powers_w, dtype=float)
    if powers_w.shape != (len(sensing_m),):
        raise ValueError("one power entry per sensing subcarrier required")
    # f_m * (tau_n - d_n) in turns; sensing subcarriers need not be evenly
    # spaced, so each row takes its own table phasors
    turns = np.multiply.outer(grid.freqs(sensing_m), spherical_delays(geom, target) - w.delays_s)
    a = phasors(1.0, turns, np.empty(turns.shape, dtype=complex), np.empty(4 * turns.size))
    echoes = complex(reflectivity) * gains(a, np.conj(w.weights)) * np.sqrt(powers_w)
    if noise_power_w > 0:
        k = len(sensing_m)
        echoes += np.sqrt(noise_power_w / 2) * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return echoes


def _at(values: np.ndarray, k):
    """values[..., k] for each leading index: k has the leading shape."""
    # a single vector is indexed directly: the tracking loop estimates one
    # per step, and take_along_axis costs several microseconds a call
    if values.ndim == 1:
        return values[k]
    return np.take_along_axis(values, k[..., None], axis=-1)[..., 0]


def parabolic_refine(values: np.ndarray, k):
    """Sub-sample peak offset in index units, clipped to [-0.5, 0.5].

    values has shape (..., K) and k, an index along the last axis, the
    leading shape: every leading index is refined at once, and a single
    vector gives a float. Uses the three points around k; the offset is 0
    at the edges or when the curvature is not a maximum.
    """
    values = np.asarray(values, dtype=float)
    size = values.shape[-1]
    # the neighbours wrap round (as negative indices) at the edges, where no
    # offset is taken
    v0 = _at(values, k - 1)
    v1 = _at(values, k)
    v2 = _at(values, k + (1 - size))
    den = v0 - 2.0 * v1 + v2
    # not "den < 0": a NaN curvature is divided, as a scalar test would
    refine = (k > 0) & (k < size - 1) & ~(den >= 0)
    off = np.divide(0.5 * (v0 - v2), den, out=np.zeros(den.shape), where=refine)
    off.clip(-0.5, 0.5, out=off)
    return float(off) if off.ndim == 0 else off


def peak_angle(angles: np.ndarray, stat: np.ndarray):
    """Angle of the largest statistic, refined by parabolic_refine.

    stat has shape (..., K), one statistic per angle along the last axis:
    every leading index is estimated at once, and a single vector gives a
    float. The index offset is scaled by the local half-spacing of the two
    neighboring angles, so unevenly spaced angles are handled; a peak at
    either end is not refined.
    """
    angles = np.asarray(angles, dtype=float)
    stat = np.asarray(stat, dtype=float)
    size = angles.size
    k = stat.argmax(axis=-1)
    off = parabolic_refine(stat, k)
    est = angles[k] + off * ((angles[k + (1 - size)] - angles[k - 1]) / 2.0)
    return float(est) if est.ndim == 0 else est


def sense_from_echoes(
    arc_angles,
    echoes: np.ndarray,
    powers_w: np.ndarray,
) -> Optional[float]:
    """Estimate the target angle from per-sensing-subcarrier echoes.

    arc_angles holds the arc angles the sensing subcarriers point at. Returns
    None when every echo is exactly zero (no detection). The statistic
    |y|^2/p is invariant to any common complex scaling of the echoes.
    """
    angles = np.asarray(arc_angles, dtype=float)
    echoes = np.asarray(echoes, dtype=complex)
    powers_w = np.asarray(powers_w, dtype=float)
    if angles.size < 3:
        raise ValueError("need at least 3 sensing subcarriers")
    if not (angles.size == echoes.size == powers_w.size):
        raise ValueError("angles, echoes and powers must align")
    if np.all(echoes == 0):
        return None
    return peak_angle(angles, np.abs(echoes) ** 2 / powers_w)
