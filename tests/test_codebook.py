"""Codeword matching, polar-grid gains, and angular-spread behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfisac.arrays import ArrayGeometry, CarrierGrid, PolarPoint, near_field_steering, spherical_delays
from nfisac.codebook import (
    Beamformer,
    PolarGrid,
    angular_spread,
    gains_at_freq,
    polar_codeword,
)
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.errors import HardwareBoundError
from oracles import dft_codeword

FC = 3.0e11
WL = C / FC
GEOM = ArrayGeometry.ula(64, WL / 2)
GRID = CarrierGrid(FC, 1, 0.0)


def test_polar_codeword_gain_is_n_at_design_point():
    p = PolarPoint(8.0, 1.2)
    w = polar_codeword(GEOM, GRID, p)
    a = near_field_steering(GEOM, p, GRID, 0)
    gain = abs(np.vdot(w.weights, a)) ** 2
    assert gain == pytest.approx(64.0, rel=1e-12)


def test_dft_codeword_gain_is_n_at_far_field_angle():
    theta = 1.9
    w = dft_codeword(GEOM, GRID, theta)
    t = GEOM.element_offsets_s
    a = np.exp(-2j * np.pi * FC * (1000.0 / C - t * np.cos(theta)))
    gain = abs(np.vdot(w.weights, a)) ** 2
    assert gain == pytest.approx(64.0, rel=1e-12)


def test_polar_codeword_reduces_to_dft_in_far_field():
    theta = 0.8
    far = PolarPoint(5.0e4, theta)
    wp = polar_codeword(GEOM, GRID, far).weights
    wd = dft_codeword(GEOM, GRID, theta).weights
    # equal up to one common phase
    ratio = wp * np.conj(wd)
    np.testing.assert_allclose(ratio, ratio[0], atol=1e-5)


def test_codeword_weights_keep_their_bits():
    # a codeword's weights are exp(-j*phases)/sqrt(N) of the phases it is
    # built from, bit for bit the weights each codeword computed directly
    n = GEOM.num_elements
    for p in (PolarPoint(8.0, 1.2), PolarPoint(0.5, 0.3), PolarPoint(300.0, 2.9)):
        phase = 2.0 * np.pi * GRID.center_hz * spherical_delays(GEOM, p)
        want = np.exp(-1j * phase) / np.sqrt(n)
        assert polar_codeword(GEOM, GRID, p).weights.tobytes() == want.tobytes()
    for theta in (0.1, 1.2, np.pi / 2, 2.9):
        phase = 2.0 * np.pi * GRID.center_hz * GEOM.element_offsets_s * np.cos(theta)
        want = np.exp(1j * phase) / np.sqrt(n)
        assert dft_codeword(GEOM, GRID, theta).weights.tobytes() == want.tobytes()


def test_beamformer_requires_one_delay_per_weight():
    # a single delay would broadcast silently over every element
    for delays in (np.zeros(3), np.zeros(1)):
        with pytest.raises(ValueError, match="matching 1-D"):
            Beamformer(np.zeros(4), delays_s=delays)
    with pytest.raises(ValueError, match="matching 1-D"):
        Beamformer(np.zeros((2, 2)))
    assert Beamformer(np.zeros(4), delays_s=np.zeros(4)).delays_s.shape == (4,)
    # a phase-only codeword is a front end whose delays are zero
    assert np.array_equal(Beamformer(np.zeros(4)).delays_s, np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_delays_or_phases_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Beamformer(np.zeros(2), np.array([0.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        Beamformer(np.array([0.0, bad]), np.zeros(2))


def test_negative_delay_rejected():
    with pytest.raises(HardwareBoundError, match="nonnegative"):
        Beamformer(np.zeros(2), np.array([0.0, -1e-12]))


def test_beamformer_arrays_are_read_only_copies():
    # the checks run once, at construction, on copies that cannot be written
    # later, and the weights are derived from those copies
    phases, delays = np.array([0.0, 0.5]), np.array([0.0, 1e-12])
    w = Beamformer(phases, delays)
    weights = w.weights.copy()
    phases[1], delays[1] = 3.0, -1.0
    assert w.phases_rad[1] == 0.5 and w.delays_s[1] == 1e-12
    for arr, value in ((w.phases_rad, 1.0), (w.delays_s, 3e-12), (w.weights, 1.0)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = value
    assert w.weights.tobytes() == weights.tobytes()
    assert np.array_equal(w.weights, np.exp(-1j * np.array([0.0, 0.5])) / np.sqrt(2.0))


def test_gains_at_freq_peaks_at_design_point():
    p = PolarPoint(6.0, np.pi / 2)
    w = polar_codeword(GEOM, GRID, p)
    # design point sits exactly on a grid node, so the peak gain is exactly N
    pg = PolarGrid(np.linspace(np.pi / 2 - 0.35, np.pi / 2 + 0.35, 41), np.geomspace(3.0, 12.0, 25))
    rr, aa = np.meshgrid(pg.ranges_m, pg.angles_rad, indexing="xy")
    gains = gains_at_freq(GEOM, FC, (rr / C).ravel(), np.cos(aa).ravel(), w.weights).reshape(pg.shape)
    ia, ir = np.unravel_index(np.argmax(gains), gains.shape)
    assert abs(pg.angles_rad[ia] - np.pi / 2) < 0.02
    assert abs(pg.ranges_m[ir] - 6.0) / 6.0 < 0.15
    assert gains.max() == pytest.approx(64.0, rel=1e-6)


def test_chunked_gain_evaluation_matches_direct():
    # the chunked path must agree with a plain loop over points
    w = polar_codeword(GEOM, GRID, PolarPoint(5.0, 1.4)).weights
    rng = np.random.default_rng(7)
    rs = rng.uniform(2.0, 30.0, 300)
    ths = rng.uniform(0.3, np.pi - 0.3, 300)
    gains = gains_at_freq(GEOM, FC, rs / C, np.cos(ths), w)
    for i in [0, 17, 299]:
        a = near_field_steering(GEOM, PolarPoint(rs[i], ths[i]), GRID, 0)
        assert gains[i] == pytest.approx(abs(np.vdot(w, a)) ** 2, rel=1e-10)


@given(st.floats(min_value=0.3, max_value=np.pi - 0.3), st.floats(min_value=2.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_gain_never_exceeds_element_count(theta, r):
    w = polar_codeword(GEOM, GRID, PolarPoint(9.0, 1.0)).weights
    a = near_field_steering(GEOM, PolarPoint(r, theta), GRID, 0)
    assert abs(np.vdot(w, a)) ** 2 <= 64.0 + 1e-9


def test_angular_spread_far_field_bin_aligned_angle_is_one():
    # cos(theta) on the DFT bin lattice concentrates all energy in one bin
    n = 64
    geom = ArrayGeometry.ula(n, WL / 2)
    cos_t = 10 / (n * 0.5)  # k / (N d / lambda)
    theta = float(np.arccos(cos_t))
    frac = angular_spread(geom, GRID, PolarPoint(1.0e5, theta))
    assert frac == pytest.approx(1.0, abs=1e-6)


def test_angular_spread_drops_in_near_field():
    geom = ArrayGeometry.ula(256, WL / 2)
    rd = 2 * geom.aperture_m() ** 2 / WL
    theta = 1.3
    near = angular_spread(geom, GRID, PolarPoint(0.05 * rd, theta))
    far = angular_spread(geom, GRID, PolarPoint(10 * rd, theta))
    assert near < far


def test_polar_grid_axis_validation():
    with pytest.raises(ValueError, match="increasing"):
        PolarGrid(np.array([1.0, 0.5]), np.array([2.0]))
    with pytest.raises(ValueError, match="positive"):
        PolarGrid(np.array([1.0]), np.array([-2.0]))
