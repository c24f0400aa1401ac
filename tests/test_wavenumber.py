"""Planar-array wavenumber spectra, support disks, and range calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
BROADSIDE = np.array([0.0, 1.0, 0.0])


def _source(range_m, direction=BROADSIDE):
    d = direction / np.linalg.norm(direction)
    return range_m * d


def test_transform_conserves_energy():
    rng = np.random.default_rng(2)
    snap = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    spec = wavenumber_transform(snap)
    assert spec.values.sum() == pytest.approx(np.abs(snap) ** 2 @ np.ones(16) @ np.ones(16), rel=1e-12)


def test_transform_centers_zero_wavenumber():
    # a constant snapshot is pure zero wavenumber
    spec = wavenumber_transform(np.ones((16, 12), dtype=complex))
    assert spec.center_bins == (8, 6)
    assert np.argmax(spec.values) == np.ravel_multi_index((8, 6), (16, 12))


def test_support_radius_decreases_with_range():
    radii = []
    for r in [2.0, 4.0, 8.0, 16.0, 32.0]:
        snap = upa_snapshot(ARR, _source(r), FC)
        circle = extract_support(wavenumber_transform(snap))
        radii.append(circle.radius_bins)
    assert all(b < a for a, b in zip(radii, radii[1:]))


def test_global_phase_leaves_estimate_bit_identical():
    table = calibrate_radius_range(ARR, FC, BROADSIDE, np.geomspace(2.0, 16.0, 9))
    snap0 = upa_snapshot(ARR, _source(5.0), FC, global_phase_rad=0.0)
    snap1 = upa_snapshot(ARR, _source(5.0), FC, global_phase_rad=2.0313)
    est0, diag0 = estimate_position(table, snap0)
    est1, diag1 = estimate_position(table, snap1)
    assert est0.range_m == est1.range_m
    assert est0.angle_rad == est1.angle_rad
    assert diag0["radius_bins"] == diag1["radius_bins"]
    assert diag0["center_bins"] == diag1["center_bins"]


def test_support_touching_border_raises_aliasing():
    # at 4-wavelength spacing the alias-free direction window is
    # |cos(theta)| <= 1/8; at the limit the disk center sits on the border
    theta = np.arccos(0.125)
    direction = np.array([np.cos(theta), np.sin(theta), 0.0])
    snap = upa_snapshot(ARR, _source(10.0, direction), FC)
    with pytest.raises(AliasingError, match="border"):
        extract_support(wavenumber_transform(snap))
    # a direction well inside the window is fine at the same range
    theta_in = np.arccos(0.05)
    ok = np.array([np.cos(theta_in), np.sin(theta_in), 0.0])
    extract_support(wavenumber_transform(upa_snapshot(ARR, _source(10.0, ok), FC)))


def test_direction_cosine_past_endfire_raises_aliasing():
    # at 0.4-wavelength x spacing a source 0.04 rad from endfire reads a
    # direction cosine just below -1, which names no angle in (0, pi)
    arr = PlanarArray(64, 64, 0.4 * WL, 4 * WL)
    direction = np.array([np.cos(3.1), np.sin(3.1), 0.0])
    sweep = np.geomspace(2.0, 16.0, 9)
    table = calibrate_radius_range(arr, FC, direction, sweep)
    snap = upa_snapshot(arr, _source(6.0, direction), FC)
    with pytest.raises(AliasingError, match=r"outside \(-1, 1\)"):
        estimate_position(table, snap)


def test_table_reads_snapshots_with_its_calibration():
    # the table records the array, frequency and threshold it was calibrated
    # with, and estimate_position reads every snapshot with those
    table = calibrate_radius_range(ARR, FC, BROADSIDE, np.geomspace(2.0, 16.0, 9), threshold_frac=0.2)
    assert (table.arr, table.freq_hz, table.threshold_frac) == (ARR, FC, 0.2)
    snap = upa_snapshot(ARR, _source(5.0), FC)
    _, diag = estimate_position(table, snap)
    spec = wavenumber_transform(snap)
    assert diag["radius_bins"] == extract_support(spec, 0.2).radius_bins
    assert diag["radius_bins"] != extract_support(spec, 0.1).radius_bins
    assert diag["threshold_used"] == 0.2
    other = PlanarArray(32, 64, 4 * WL, 4 * WL)
    with pytest.raises(ValueError, match="calibrated array"):
        estimate_position(table, upa_snapshot(other, _source(5.0), FC))

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
    with pytest.raises(ValueError, match="3-vector"):
        upa_snapshot(ARR, [1.0, 2.0], FC)
    with pytest.raises(ValueError, match="plane"):
        upa_snapshot(ARR, [1.0, 0.0, 2.0], FC)


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
    snap = upa_snapshot(ARR, _source(6.0), FC)
    spec0 = wavenumber_transform(snap).values
    spec1 = wavenumber_transform(snap * np.exp(1j * phi)).values
    np.testing.assert_allclose(spec1, spec0, rtol=1e-9, atol=1e-12)


def test_closed_loop_range_estimates_track_truth():
    table = calibrate_radius_range(ARR, FC, BROADSIDE, np.geomspace(2.0, 16.0, 9))
    for true_r in [2.8, 5.7, 11.0]:
        est, _ = estimate_position(table, upa_snapshot(ARR, _source(true_r), FC))
        spacing = true_r * (16.0 / 2.0) ** (1 / 8) - true_r
        assert abs(est.range_m - true_r) <= spacing
        assert abs(est.angle_rad - np.pi / 2) < 0.01
