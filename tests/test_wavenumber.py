"""Planar-array wavenumber spectra, support disks, and range calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfisac.arrays import PolarPoint
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.errors import AliasingError, CalibrationError, OutOfCalibrationError
from nfisac.wavenumber import (
    PlanarArray,
    RadiusRangeTable,
    calibrate_radius_range,
    estimate_position,
    extract_support,
    upa_rayleigh_distance,
    upa_snapshot,
    wavenumber_transform,
)

FC = 3.0e11
WL = C / FC
ARR = PlanarArray(64, 64, 4 * WL, 4 * WL)
BROADSIDE = np.pi / 2
# the shipped calibration sweep
SWEEP = np.geomspace(2.0, 16.0, 9)


def test_transform_conserves_energy():
    rng = np.random.default_rng(2)
    snap = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    spec = wavenumber_transform(snap)
    assert spec.sum() == pytest.approx(np.abs(snap) ** 2 @ np.ones(16) @ np.ones(16), rel=1e-12)


def test_transform_centers_zero_wavenumber():
    # a constant snapshot is pure zero wavenumber, whose support disk sits
    # at the center
    spec = wavenumber_transform(np.ones((16, 12), dtype=complex))
    assert np.argmax(spec) == np.ravel_multi_index((8, 6), (16, 12))
    assert extract_support(spec)[0] == (0.0, 0.0)


def test_support_radius_decreases_with_range():
    radii = []
    for r in [2.0, 4.0, 8.0, 16.0, 32.0]:
        snap = upa_snapshot(ARR, PolarPoint(r, BROADSIDE), FC)
        radii.append(extract_support(wavenumber_transform(snap))[1])
    assert all(b < a for a, b in zip(radii, radii[1:]))


def test_global_phase_leaves_estimate_bit_identical():
    table = calibrate_radius_range(ARR, FC, BROADSIDE, SWEEP)
    snap0 = upa_snapshot(ARR, PolarPoint(5.0, BROADSIDE), FC)
    snap1 = snap0 * np.exp(2.0313j)
    est0, diag0 = estimate_position(table, snap0)
    est1, diag1 = estimate_position(table, snap1)
    assert est0.range_m == est1.range_m
    assert est0.angle_rad == est1.angle_rad
    assert diag0["radius_bins"] == diag1["radius_bins"]
    assert diag0["center_bins"] == diag1["center_bins"]


def test_support_touching_border_raises_aliasing():
    # at 4-wavelength spacing the alias-free direction window is
    # |cos(theta)| <= 1/8; at the limit the disk center sits on the border
    snap = upa_snapshot(ARR, PolarPoint(10.0, np.arccos(0.125)), FC)
    with pytest.raises(AliasingError, match="border"):
        extract_support(wavenumber_transform(snap))
    # a direction well inside the window is fine at the same range
    extract_support(wavenumber_transform(upa_snapshot(ARR, PolarPoint(10.0, np.arccos(0.05)), FC)))


def test_direction_cosine_past_endfire_raises_aliasing():
    # at 0.4-wavelength x spacing a source 0.04 rad from endfire reads a
    # direction cosine just below -1, which names no angle in (0, pi)
    arr = PlanarArray(64, 64, 0.4 * WL, 4 * WL)
    table = calibrate_radius_range(arr, FC, 3.1, SWEEP)
    snap = upa_snapshot(arr, PolarPoint(6.0, 3.1), FC)
    with pytest.raises(AliasingError, match=r"outside \(-1, 1\)"):
        estimate_position(table, snap)


def test_table_reads_snapshots_with_its_calibration():
    # the table records the array, frequency and threshold it was calibrated
    # with, and estimate_position reads every snapshot with those
    table = calibrate_radius_range(ARR, FC, BROADSIDE, SWEEP, threshold_frac=0.2)
    assert (table.arr, table.freq_hz, table.threshold_frac) == (ARR, FC, 0.2)
    snap = upa_snapshot(ARR, PolarPoint(5.0, BROADSIDE), FC)
    _, diag = estimate_position(table, snap)
    spec = wavenumber_transform(snap)
    assert diag["radius_bins"] == extract_support(spec, 0.2)[1]
    assert diag["radius_bins"] != extract_support(spec, 0.1)[1]
    other = PlanarArray(32, 64, 4 * WL, 4 * WL)
    with pytest.raises(ValueError, match="calibrated array"):
        estimate_position(table, upa_snapshot(other, PolarPoint(5.0, BROADSIDE), FC))

def test_calibration_rejects_non_decreasing_radii():
    # past the window where the disk shrinks, radii plateau; the closed loop
    # must refuse to build a table from such a sweep
    with pytest.raises(CalibrationError, match="decreasing"):
        calibrate_radius_range(ARR, FC, BROADSIDE, np.geomspace(20.0, 60.0, 8))


def test_radius_range_table_interpolates_nodes_exactly():
    table = RadiusRangeTable(np.array([2.0, 4.0, 8.0]), np.array([10.0, 6.0, 3.0]), ARR, FC, 0.1)
    assert table.range_for_radius(10.0) == 2.0
    assert table.range_for_radius(6.0) == 4.0
    assert table.range_for_radius(3.0) == 8.0
    assert table.range_for_radius(4.5) == pytest.approx(6.0)


def test_radius_outside_table_raises():
    table = RadiusRangeTable(np.array([2.0, 4.0]), np.array([10.0, 6.0]), ARR, FC, 0.1)
    with pytest.raises(OutOfCalibrationError, match="outside"):
        table.range_for_radius(5.9)
    with pytest.raises(OutOfCalibrationError, match="outside"):
        table.range_for_radius(10.1)


def test_table_validation():
    with pytest.raises(ValueError, match=">= 2"):
        RadiusRangeTable(np.array([2.0]), np.array([10.0]), ARR, FC, 0.1)
    with pytest.raises(ValueError, match="increasing"):
        RadiusRangeTable(np.array([4.0, 2.0]), np.array([10.0, 6.0]), ARR, FC, 0.1)
    with pytest.raises(CalibrationError, match="decrease"):
        RadiusRangeTable(np.array([2.0, 4.0]), np.array([6.0, 6.0]), ARR, FC, 0.1)


def test_planar_array_validation():
    with pytest.raises(ValueError, match="8x8"):
        PlanarArray(4, 64, WL, WL)
    with pytest.raises(ValueError, match="> 0"):
        PlanarArray(16, 16, 0.0, WL)


def test_snapshot_source_validation():
    # a source is a polar point in the x-y plane, so one on the array plane
    # (angle 0 or pi) or at its center cannot be placed
    for r, theta, message in [(5.0, 0.0, r"\(0, pi\)"), (5.0, np.pi, r"\(0, pi\)"), (0.0, BROADSIDE, "> 0")]:
        with pytest.raises(ValueError, match=message):
            upa_snapshot(ARR, PolarPoint(r, theta), FC)


def test_upa_rayleigh_distance_uses_diagonal_aperture():
    arr = PlanarArray(8, 8, WL, WL)
    d = np.hypot(7 * WL, 7 * WL)
    assert upa_rayleigh_distance(arr, FC) == pytest.approx(2 * d * d / WL)


def test_calibration_sweep_validation():
    with pytest.raises(ValueError, match="at least 8"):
        calibrate_radius_range(ARR, FC, BROADSIDE, np.geomspace(2.0, 16.0, 5))
    bad = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 8.0])
    with pytest.raises(ValueError, match="increasing"):
        calibrate_radius_range(ARR, FC, BROADSIDE, bad)


@given(st.floats(min_value=0.0, max_value=2 * np.pi))
@settings(max_examples=15, deadline=None)
def test_spectrum_magnitude_invariant_under_global_phase(phi):
    snap = upa_snapshot(ARR, PolarPoint(6.0, BROADSIDE), FC)
    spec0 = wavenumber_transform(snap)
    spec1 = wavenumber_transform(snap * np.exp(1j * phi))
    np.testing.assert_allclose(spec1, spec0, rtol=1e-9, atol=1e-12)


def test_closed_loop_range_estimates_track_truth():
    table = calibrate_radius_range(ARR, FC, BROADSIDE, SWEEP)
    for true_r in [2.8, 5.7, 11.0]:
        est, _ = estimate_position(table, upa_snapshot(ARR, PolarPoint(true_r, BROADSIDE), FC))
        spacing = true_r * (16.0 / 2.0) ** (1 / 8) - true_r
        assert abs(est.range_m - true_r) <= spacing
        assert abs(est.angle_rad - np.pi / 2) < 0.01


# at 4-wavelength spacing the direction window is |cos(theta)| < 1/8, and the
# sweep's 2 m support disk is wide enough to touch the border past about 0.057
@given(st.floats(min_value=-0.05, max_value=0.05))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_calibration_and_readout_share_one_path(cos_theta):
    # a snapshot at a calibrated node, placed as the calibration placed it,
    # reads back the node's radius and so its range, exactly
    theta = float(np.arccos(cos_theta))
    table = calibrate_radius_range(ARR, FC, theta, SWEEP)
    for k, r in enumerate(table.ranges_m):
        est, diag = estimate_position(table, upa_snapshot(ARR, PolarPoint(float(r), theta), FC))
        assert est.range_m == r
        assert diag["radius_bins"] == table.radii_bins[k]
        assert abs(diag["cos_x"] - cos_theta) <= C / (FC * ARR.nx * ARR.dx_m)
