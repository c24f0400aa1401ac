"""Focal-point trajectories of frequency-flat codewords across subcarriers."""

import numpy as np
import pytest

import nfisac.arrays as arrays
from nfisac.arrays import ArrayGeometry, CarrierGrid, PolarPoint
from nfisac.codebook import Beamformer, PolarGrid, dft_codeword, gains_at_freq, polar_codeword
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.squint import focal_points, squint_deviation

FC = 3.0e11
WL = C / FC


def test_far_field_squint_follows_analytic_law():
    # a DFT codeword at theta_c steers subcarrier f toward arccos(fc/f cos(theta_c))
    n = 256
    geom = ArrayGeometry.ula(n, WL / 2)
    grid = CarrierGrid(FC, 17, 1.875e9)
    theta_c = np.pi / 3
    w = dft_codeword(geom, grid, theta_c)
    angles = np.linspace(0.8, 1.3, 2001)
    pg = PolarGrid(angles, np.array([1.0e5]))
    traj = focal_points(geom, grid, w, pg)
    cell = angles[1] - angles[0]
    for m in [0, 4, 8, 12, 16]:
        f = grid.freq(m)
        expected = np.arccos(np.clip(FC / f * np.cos(theta_c), -1.0, 1.0))
        assert abs(traj.points[m].angle_rad - expected) <= cell + 1e-12


def test_center_subcarrier_focuses_at_design_point():
    geom = ArrayGeometry.ula(128, WL / 2)
    grid = CarrierGrid(FC, 9, 4.6875e8)
    design = PolarPoint(10.0, 1.1)
    w = polar_codeword(geom, grid, design)
    pg = PolarGrid(np.linspace(0.9, 1.3, 81), np.geomspace(4.0, 30.0, 60))
    traj = focal_points(geom, grid, w, pg)
    mid = grid.half_m
    p = traj.points[mid]
    assert abs(p.angle_rad - 1.1) <= 0.01
    assert abs(p.range_m - 10.0) / 10.0 <= 0.1
    assert traj.gains[mid] == pytest.approx(128.0, rel=1e-3)


def test_exact_gain_ties_resolve_to_smaller_angle():
    # two angles this close to zero share the same float cosine, so their
    # gain columns are bit-identical and the argmax must keep the smaller one
    geom = ArrayGeometry.ula(32, WL / 2)
    grid = CarrierGrid(FC, 1, 0.0)
    w = Beamformer(np.ones(32, dtype=complex) / np.sqrt(32.0))
    assert np.cos(1.0e-12) == np.cos(2.0e-12) == 1.0
    pg = PolarGrid(np.array([1.0e-12, 2.0e-12]), np.array([5.0, 9.0]))
    traj = focal_points(geom, grid, w, pg)
    assert traj.points[0].angle_rad == 1.0e-12


@pytest.mark.parametrize("rows", [None, 7])
def test_flat_carrier_matches_single_frequency_argmax(monkeypatch, rows):
    # with spacing_hz 0 every subcarrier sits at f0 and no step is applied, so
    # each one must report the one-frequency grid argmax bit for bit, whether
    # the grid is one chunk or split into chunks of `rows` rows
    geom = ArrayGeometry.ula(64, WL / 2)
    grid = CarrierGrid(FC, 5, 0.0)
    w = polar_codeword(geom, grid, PolarPoint(6.0, 1.2))
    pg = PolarGrid(np.linspace(1.0, 1.4, 41), np.geomspace(3.0, 12.0, 30))
    aa, rr = np.meshgrid(pg.angles_rad, pg.ranges_m, indexing="xy")
    gains = gains_at_freq(geom, grid.freq(0), (rr / C).ravel(), np.cos(aa).ravel(), w.weights)
    ir, ia = divmod(int(np.argmax(gains)), pg.angles_rad.size)
    expected = PolarPoint(float(pg.ranges_m[ir]), float(pg.angles_rad[ia]))

    monkeypatch.setattr(arrays, "_CHUNK_ENTRIES", (rows or gains.size) * geom.num_elements)
    traj = focal_points(geom, grid, w, pg)
    assert np.array_equal(traj.gains, np.full(grid.num_subcarriers, gains.max()))
    assert traj.points == (expected,) * grid.num_subcarriers
    assert not traj.boundary_warning


def test_boundary_peak_sets_warning():
    geom = ArrayGeometry.ula(64, WL / 2)
    grid = CarrierGrid(FC, 1, 0.0)
    design = PolarPoint(8.0, 1.5)
    w = polar_codeword(geom, grid, design)
    # grid covers the design point but stops right at its angle
    pg = PolarGrid(np.linspace(1.0, 1.5, 26), np.geomspace(4.0, 16.0, 30))
    traj = focal_points(geom, grid, w, pg)
    assert traj.boundary_warning
    # a grid with interior margin does not warn
    wide = PolarGrid(np.linspace(1.2, 1.8, 41), np.geomspace(4.0, 16.0, 30))
    assert not focal_points(geom, grid, w, wide).boundary_warning


def test_grid_must_cover_design_point():
    geom = ArrayGeometry.ula(64, WL / 2)
    grid = CarrierGrid(FC, 1, 0.0)
    w = polar_codeword(geom, grid, PolarPoint(8.0, 2.0))
    pg = PolarGrid(np.linspace(1.0, 1.5, 11), np.geomspace(4.0, 16.0, 10))
    with pytest.raises(ValueError, match="design point"):
        focal_points(geom, grid, w, pg)


def test_empty_grid_rejected():
    geom = ArrayGeometry.ula(16, WL / 2)
    grid = CarrierGrid(FC, 1, 0.0)
    w = Beamformer(np.ones(16, dtype=complex) / 4.0)
    with pytest.raises(ValueError, match="nonempty"):
        focal_points(geom, grid, w, PolarGrid(np.array([1.0]), np.array([])))


def test_squint_deviation_is_max_abs_offset():
    from nfisac.squint import SquintTrajectory

    pts = (PolarPoint(9.0, 1.00), PolarPoint(11.5, 1.04), PolarPoint(10.2, 0.97))
    traj = SquintTrajectory(np.arange(3), pts, np.ones(3), False)
    d_ang, d_rng = squint_deviation(traj, PolarPoint(10.0, 1.0))
    assert d_ang == pytest.approx(0.04)
    assert d_rng == pytest.approx(1.5)


def test_wideband_near_field_codeword_drifts_both_coordinates():
    # at 512 elements and 30 GHz of bandwidth the flat codeword walks away
    # from the design point by degrees and meters
    geom = ArrayGeometry.ula(512, WL / 2)
    grid = CarrierGrid(FC, 65, 4.6875e8)
    design = PolarPoint(10.0, np.pi / 6)
    w = polar_codeword(geom, grid, design)
    pg = PolarGrid(np.linspace(0.35, 0.75, 161), np.geomspace(3.0, 40.0, 90))
    traj = focal_points(geom, grid, w, pg)
    d_ang, d_rng = squint_deviation(traj, design)
    assert np.degrees(d_ang) > 2.0
    assert d_rng > 1.5
