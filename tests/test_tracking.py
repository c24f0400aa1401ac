"""Constant-velocity Kalman tracking and sensing-arc prediction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfisac.arrays import PolarPoint
from nfisac.tracking import (
    TrackState,
    kalman_predict_update,
    polar_to_xy,
    predict_arc,
    xy_to_polar,
)


def test_noise_free_prediction_is_exact():
    # with zero process noise and no updates, the filter is pure integration
    ts = TrackState(np.array([1.0, 2.0, 0.3, -0.1]), np.zeros((4, 4)))
    dt = 0.1
    for _ in range(1000):
        ts = kalman_predict_update(ts, dt, None, 0.0, (0.0, 0.0))
    assert abs(ts.state[0] - (1.0 + 0.3 * 100.0)) < 1e-9
    assert abs(ts.state[1] - (2.0 - 0.1 * 100.0)) < 1e-9
    assert abs(ts.state[2] - 0.3) < 1e-12
    assert abs(ts.state[3] - (-0.1)) < 1e-12
    assert np.abs(ts.covariance).max() == 0.0


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=40, deadline=None)
def test_updated_covariance_stays_symmetric_psd(seed):
    rng = np.random.default_rng(seed)
    ts = TrackState(
        np.array([5.0, 8.0, 0.5, -0.2]), np.diag([0.5, 0.5, 0.1, 0.1])
    )
    for _ in range(5):
        meas = PolarPoint(
            float(rng.uniform(4.0, 12.0)), float(rng.uniform(0.5, 2.5))
        )
        ts = kalman_predict_update(ts, 0.1, meas, 1e-3, (0.05, 0.01))
    p = ts.covariance
    assert np.abs(p - p.T).max() < 1e-12
    assert np.linalg.eigvalsh(p)[0] > -1e-12


def test_measurements_shrink_position_uncertainty():
    ts = TrackState(np.array([0.0, 10.0, 0.0, 0.0]), np.diag([4.0, 4.0, 1.0, 1.0]))
    before = np.trace(ts.covariance[:2, :2])
    meas = PolarPoint(10.0, np.pi / 2)
    ts = kalman_predict_update(ts, 0.1, meas, 1e-3, (0.05, 0.005))
    after = np.trace(ts.covariance[:2, :2])
    assert after < before


def test_filtered_track_beats_open_loop_on_noisy_runs():
    rng = np.random.default_rng(8)
    dt, steps = 0.1, 60
    sig_r, sig_th = 0.05, 0.01
    err_f, err_o = [], []
    for _ in range(30):
        pos = np.array([0.0, 15.0])
        vel = np.array([0.8, -0.3])
        ts = TrackState(
            np.concatenate([pos, vel]) + rng.normal(0, 0.1, 4),
            np.diag([0.5, 0.5, 0.2, 0.2]),
        )
        open_loop = ts.state.copy()
        for _ in range(steps):
            pos = pos + vel * dt
            true_polar = xy_to_polar(pos[0], pos[1])
            meas = PolarPoint(
                true_polar.range_m + rng.normal(0, sig_r),
                true_polar.angle_rad + rng.normal(0, sig_th),
            )
            ts = kalman_predict_update(ts, dt, meas, 1e-3, (sig_r, sig_th))
            open_loop[:2] += open_loop[2:] * dt
        err_f.append(np.linalg.norm(ts.state[:2] - pos))
        err_o.append(np.linalg.norm(open_loop[:2] - pos))
    assert np.sqrt(np.mean(np.array(err_f) ** 2)) < np.sqrt(np.mean(np.array(err_o) ** 2))


def test_polar_xy_round_trip():
    p = PolarPoint(12.5, 1.234)
    xy = polar_to_xy(p)
    back = xy_to_polar(xy[0], xy[1])
    assert back.range_m == pytest.approx(12.5, rel=1e-12)
    assert back.angle_rad == pytest.approx(1.234, rel=1e-12)


def test_predicted_arc_contains_moved_target():
    ts = TrackState(np.array([0.0, 10.0, 1.0, 0.0]), np.diag([0.01, 0.01, 0.01, 0.01]))
    dt = 0.5
    arc = predict_arc(ts, dt, half_width_rad=0.05)
    true_theta = np.arctan2(10.0, 0.5)
    assert arc.theta_start_rad < true_theta < arc.theta_end_rad
    assert arc.theta_end_rad - arc.theta_start_rad >= 2 * 0.05 - 1e-12
    assert arc.range_m == pytest.approx(np.hypot(0.5, 10.0), rel=1e-9)


def test_arc_width_grows_with_uncertainty():
    tight = TrackState(np.array([0.0, 10.0, 0.0, 0.0]), np.diag([1e-4, 1e-4, 1e-4, 1e-4]))
    loose = TrackState(np.array([0.0, 10.0, 0.0, 0.0]), np.diag([4.0, 4.0, 0.1, 0.1]))
    a_tight = predict_arc(tight, 0.1, 0.02)
    a_loose = predict_arc(loose, 0.1, 0.02)
    w_tight = a_tight.theta_end_rad - a_tight.theta_start_rad
    w_loose = a_loose.theta_end_rad - a_loose.theta_start_rad
    assert w_loose > w_tight
    assert w_tight == pytest.approx(0.04, rel=1e-6)


def test_track_state_validation():
    with pytest.raises(ValueError, match="length 4"):
        TrackState(np.zeros(3), np.zeros((4, 4)))
    asym = np.zeros((4, 4))
    asym[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        TrackState(np.zeros(4), asym)
    with pytest.raises(ValueError, match="positive semidefinite"):
        TrackState(np.zeros(4), np.diag([1.0, 1.0, 1.0, -1.0]))


def test_step_input_validation():
    ts = TrackState(np.zeros(4), np.eye(4))
    with pytest.raises(ValueError, match="dt"):
        kalman_predict_update(ts, 0.0, None, 0.0, (0.0, 0.0))
    with pytest.raises(ValueError, match="process_noise"):
        kalman_predict_update(ts, 0.1, None, -1.0, (0.0, 0.0))
    with pytest.raises(ValueError, match="measurement noise"):
        kalman_predict_update(ts, 0.1, PolarPoint(1.0, 1.0), 0.0, (-0.1, 0.0))
    with pytest.raises(ValueError, match="half_width"):
        predict_arc(ts, 0.1, 0.0)


def test_track_state_psd_boundary():
    # rounding-sized negative eigenvalues pass, anything larger is rejected
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]

    def with_smallest(rel):
        p = (q * np.array([-rel * 4.0, 0.5, 1.0, 4.0])) @ q.T
        return (p + p.T) / 2

    TrackState(np.zeros(4), with_smallest(1e-12))
    TrackState(np.zeros(4), np.zeros((4, 4)))
    v = np.array([1.0, 2.0, 0.5, 0.1])
    TrackState(np.zeros(4), np.outer(v, v))
    with pytest.raises(ValueError, match="positive semidefinite"):
        TrackState(np.zeros(4), with_smallest(1e-6))


def test_track_predicted_behind_the_array_names_the_angle():
    # clipped to (0, pi), the arc around a predicted angle of -0.05 rad is
    # empty: the error says why rather than the arc's own ordering message
    ts = TrackState(np.array([20.0, -1.0, 0.0, 0.0]), 0.01 * np.eye(4))
    with pytest.raises(ValueError, match=r"predicted angle -0\.04995.*not in front of the array \(y <= 0\)"):
        predict_arc(ts, 0.05, np.radians(1.5))


def test_near_edge_prediction_keeps_its_clipped_arc():
    # slightly behind the array, the arc still reaches into (0, pi) and is
    # clipped at its lower edge
    ts = TrackState(np.array([20.0, -0.02, 0.0, 0.0]), 0.01 * np.eye(4))
    arc = predict_arc(ts, 0.05, np.radians(1.5))
    theta = np.arctan2(-0.02, 20.0)
    assert arc.theta_start_rad == 1e-9
    assert arc.theta_end_rad == theta + np.radians(1.5)
    assert arc.range_m == np.hypot(20.0, -0.02)
