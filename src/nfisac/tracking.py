"""Constant-velocity Kalman tracking with polar measurements.

The state is planar (x, y, vx, vy); measurements arrive as (range, angle) and
are converted to Cartesian with the measurement noise linearized at the
measured point. The predicted track feeds the sensing arc: angle plus a width
covering both a configured floor and the 3-sigma angular uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .arrays import PolarPoint, is_psd
from .delay_phase import Arc

_ANGLE_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class TrackState:
    """Planar position/velocity state with covariance."""

    state: np.ndarray  # (x_m, y_m, vx_mps, vy_mps)
    covariance: np.ndarray  # 4x4 symmetric PSD

    def __post_init__(self) -> None:
        s = np.asarray(self.state, dtype=float)
        p = np.asarray(self.covariance, dtype=float)
        if s.shape != (4,) or p.shape != (4, 4):
            raise ValueError("state must be length 4 with a 4x4 covariance")
        if np.abs(p - p.T).max() > 1e-9 * max(1.0, np.abs(p).max()):
            raise ValueError("covariance must be symmetric")
        p = (p + p.T) / 2
        if not is_psd(p, scale_floor=1.0):
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "state", s)
        object.__setattr__(self, "covariance", p)


def _cv_model(dt: float, process_noise: float) -> Tuple[np.ndarray, np.ndarray]:
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    g = np.array([[dt * dt / 2, 0.0], [0.0, dt * dt / 2], [dt, 0.0], [0.0, dt]])
    q = process_noise * (g @ g.T)
    return f, q


def polar_to_xy(p: PolarPoint) -> np.ndarray:
    return np.array([p.range_m * np.cos(p.angle_rad), p.range_m * np.sin(p.angle_rad)])


def xy_to_polar(x: float, y: float) -> PolarPoint:
    return PolarPoint(float(np.hypot(x, y)), float(np.arctan2(y, x)))


def kalman_predict_update(
    ts: TrackState,
    dt: float,
    measurement: Optional[PolarPoint],
    process_noise: float,
    meas_noise: Tuple[float, float],
) -> TrackState:
    """One constant-velocity predict, then an optional position update.

    process_noise is the white-acceleration power (m^2/s^3 scale feeding the
    discrete model); meas_noise is (sigma_range_m, sigma_angle_rad), linearized
    to a Cartesian covariance at the measured point. The Joseph-form update
    keeps the covariance PSD.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if process_noise < 0:
        raise ValueError("process_noise must be >= 0")
    f, q = _cv_model(dt, process_noise)
    x = f @ ts.state
    p = f @ ts.covariance @ f.T + q

    if measurement is not None:
        sig_r, sig_th = meas_noise
        if sig_r < 0 or sig_th < 0:
            raise ValueError("measurement noise must be >= 0")
        z = polar_to_xy(measurement)
        cos_t, sin_t = np.cos(measurement.angle_rad), np.sin(measurement.angle_rad)
        r = measurement.range_m
        jac = np.array([[cos_t, -r * sin_t], [sin_t, r * cos_t]])
        r_cart = jac @ np.diag([sig_r * sig_r, sig_th * sig_th]) @ jac.T
        # the measurement reads the position, x[:2]
        innovation = z - x[:2]
        s = p[:2, :2] + r_cart
        gain = p[:, :2] @ np.linalg.inv(s)
        x = x + gain @ innovation
        ikh = np.eye(4)
        ikh[:, :2] -= gain
        p = ikh @ p @ ikh.T + gain @ r_cart @ gain.T

    return TrackState(x, p)  # whose __post_init__ symmetrizes p


def predict_arc(ts: TrackState, dt: float, half_width_rad: float) -> Arc:
    """Arc of candidate angles around the dt-ahead predicted position.

    Width is the larger of the configured floor and the 3-sigma angular spread
    from projecting the propagated position covariance onto the tangential
    direction. The arc is clipped to (0, pi); a predicted position with
    y <= 0, not in front of the array, raises ValueError when nothing of
    the arc is left.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if half_width_rad <= 0:
        raise ValueError("half_width_rad must be > 0")
    f, _ = _cv_model(dt, 0.0)
    x = f @ ts.state
    p = f @ ts.covariance @ f.T
    r = float(np.hypot(x[0], x[1]))
    if r <= 0:
        raise ValueError("predicted range must be > 0")
    theta = float(np.arctan2(x[1], x[0]))
    tangent = np.array([-np.sin(theta), np.cos(theta)])
    sigma_tan = float(np.sqrt(max(tangent @ p[:2, :2] @ tangent, 0.0)))
    width = max(half_width_rad, 3.0 * sigma_tan / r)
    lo = max(theta - width, _ANGLE_EPS)
    hi = min(theta + width, np.pi - _ANGLE_EPS)
    if not lo < hi:
        raise ValueError(
            f"predicted angle {theta:.6g} rad leaves no arc in (0, pi): "
            "the predicted position is not in front of the array (y <= 0)"
        )
    return Arc(lo, hi, r)
