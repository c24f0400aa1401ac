"""Steering-vector correctness.

The extended-precision oracle recomputes the spherical-wavefront phase with
mpmath at 50 digits; float64 evaluation must agree entry by entry to ~1e-9
rad even though the absolute phase winds through ~1e4 cycles.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nfisac.arrays as arrays
from nfisac.arrays import (
    ArrayGeometry,
    CarrierGrid,
    PolarPoint,
    far_field_steering,
    near_field_steering,
    rayleigh_distance,
    spherical_delays,
)
from nfisac.codebook import PolarGrid, gains_at_freq, polar_codeword
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.music import collect_snapshots, music_spectra, music_spectrum, sample_covariance
from nfisac.squint import focal_points

FC = 3.0e11
WL = C / FC


def make_ula(n=64, spacing=WL / 2):
    return ArrayGeometry.ula(n, spacing)


def make_grid(m=0, spacing=4.6875e8):
    # m even subcarrier count halves; num_subcarriers = m + 1
    return CarrierGrid(FC, m + 1, spacing)


def test_near_field_phase_against_mpmath_oracle():
    mpmath.mp.dps = 50
    geom = make_ula(256, 0.0005)
    grid = make_grid()
    p = PolarPoint(10.0, np.pi / 3)
    vec = near_field_steering(geom, p, grid, 0)

    tau = mpmath.mpf("10.0") / mpmath.mpf(repr(C))
    cos_t = mpmath.cos(mpmath.pi / 3)
    for n in [0, 1, 127, 128, 200, 255]:
        t_n = (mpmath.mpf(n) - mpmath.mpf("127.5")) * mpmath.mpf("0.0005") / mpmath.mpf(repr(C))
        delay = mpmath.sqrt(tau**2 + t_n**2 - 2 * tau * t_n * cos_t)
        phase = -2 * mpmath.pi * mpmath.mpf(repr(FC)) * delay
        expected = complex(mpmath.cos(phase), mpmath.sin(phase))
        assert abs(vec[n] - expected) < 1e-8


def test_far_field_phase_formula():
    geom = make_ula(16)
    grid = make_grid()
    p = PolarPoint(1000.0, 1.1)
    vec = far_field_steering(geom, p, grid, 0)
    t = geom.element_offsets_s
    expected = np.exp(-2j * np.pi * FC * (p.range_m / C - t * np.cos(1.1)))
    np.testing.assert_allclose(vec, expected, rtol=0, atol=1e-12)


def test_element_offsets_are_centered_and_uniform():
    geom = make_ula(8, 0.001)
    t = geom.element_offsets_s
    assert abs(t.sum()) < 1e-18
    np.testing.assert_allclose(np.diff(t), 0.001 / C, rtol=1e-12)


def test_rayleigh_distance_value():
    geom = make_ula(256, WL / 2)
    d = (256 - 1) * WL / 2
    assert rayleigh_distance(geom, make_grid()) == pytest.approx(2 * d * d / WL, rel=1e-12)


def test_subcarrier_frequencies_centered():
    grid = CarrierGrid(FC, 65, 4.6875e8)
    freqs = grid.freqs()
    assert freqs[32] == FC
    assert freqs[0] == FC - 32 * 4.6875e8
    assert grid.bandwidth_hz() == pytest.approx(3.0e10)
    with pytest.raises(IndexError):
        grid.freq(65)


def test_source_inside_aperture_rejected():
    geom = make_ula(512, WL / 2)
    with pytest.raises(ValueError, match="aperture"):
        near_field_steering(geom, PolarPoint(0.05, np.pi / 2), make_grid(), 0)


angles = st.floats(min_value=0.2, max_value=np.pi - 0.2)
ranges = st.floats(min_value=1.0, max_value=100.0)


@given(angles, ranges)
@settings(max_examples=50, deadline=None)
def test_steering_entries_unit_modulus(theta, r):
    geom = make_ula(32)
    vec = near_field_steering(geom, PolarPoint(r, theta), make_grid(), 0)
    np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-12)


@given(angles, ranges)
@settings(max_examples=50, deadline=None)
def test_geometry_reversal_mirrors_angle(theta, r):
    # flipping the array end for end looks like the mirrored source angle
    geom = make_ula(32)
    grid = make_grid()
    fwd = near_field_steering(geom, PolarPoint(r, theta), grid, 0)
    rev = near_field_steering(geom, PolarPoint(r, np.pi - theta), grid, 0)
    np.testing.assert_allclose(fwd[::-1], rev, atol=1e-9)


@given(angles)
@settings(max_examples=30, deadline=None)
def test_far_field_shape_independent_of_range(theta):
    geom = make_ula(32)
    grid = make_grid()
    a1 = far_field_steering(geom, PolarPoint(10.0, theta), grid, 0)
    a2 = far_field_steering(geom, PolarPoint(1.0e6, theta), grid, 0)
    # range enters only through a common phase; tolerance covers float
    # rounding of the ~1e9-cycle absolute phase at the long range
    np.testing.assert_allclose(a1 * np.conj(a1[0]), a2 * np.conj(a2[0]), atol=2e-5)


def test_spherical_delay_matches_law_of_cosines():
    geom = make_ula(16, 0.002)
    p = PolarPoint(3.0, 0.9)
    taus = spherical_delays(geom, p)
    t = geom.element_offsets_s
    tau = 3.0 / C
    expected = np.sqrt(tau**2 + t**2 - 2 * tau * t * np.cos(0.9))
    np.testing.assert_allclose(taus, expected, rtol=1e-14)



def _adjacent_twins(x, f):
    """First two adjacent doubles from x upward that f maps to the same float."""
    while f(x) != f(np.nextafter(x, np.inf)):
        x = np.nextafter(x, np.inf)
    return float(x), float(np.nextafter(x, np.inf))


@pytest.mark.parametrize("rows", [2, 3, 5, 7])
def test_chunk_boundaries_leave_results_bit_identical(monkeypatch, rows):
    # every manifold pass is first run in one chunk, then split into chunks
    # of `rows` rows; the point counts (41, 63, 16) leave every tail length,
    # including the one-row tail that is merged into the chunk before it
    geom = make_ula(32)
    grid = CarrierGrid(FC, 5, 4.6875e8)
    rng = np.random.default_rng(3)
    taus = rng.uniform(0.05, 0.5, 41) / C
    cosines = np.cos(rng.uniform(0.3, np.pi - 0.3, 41))
    w = polar_codeword(geom, grid, PolarPoint(0.2, 1.2))

    music_pg = PolarGrid(np.linspace(1.0, 1.4, 9), np.geomspace(0.1, 0.4, 7))
    sources = [PolarPoint(0.15, 1.1), PolarPoint(0.3, 1.3)]
    covs = [
        sample_covariance(collect_snapshots(geom, grid, sources, 64, 0.01, seed=s))
        for s in range(5, 10)
    ]

    # an exact four-way gain tie at the design point: two angles that share a
    # cosine and two ranges that share a delay r/c give bit-identical rows at
    # flat indices 5, 6, 9 and 10, which every chunking here splits apart
    a1, a2 = _adjacent_twins(0.1, np.cos)
    r1, r2 = _adjacent_twins(0.1, lambda r: r / C)
    focal_pg = PolarGrid(np.array([0.05, a1, a2, 0.15]), np.array([0.08, r1, r2, 0.125]))
    w_tie = polar_codeword(geom, grid, PolarPoint(r1, a1))

    def spectra(num_sources):
        # one by one, then batched from a generator: with `rows` set, a pass
        # over the 63-point grid serves 1 (rows 2, 3), 2 (rows 5) or 3 (rows 7)
        # of the 5 covariances, so the batch splits into several passes
        single = [music_spectrum(c, geom, grid, music_pg, num_sources).values for c in covs]
        batched = music_spectra(iter(covs), geom, grid, music_pg, num_sources)
        return np.array(single), np.array([s.values for s in batched])

    def evaluate():
        return (
            gains_at_freq(geom, FC, taus, cosines, w.weights),
            {k: spectra(k) for k in (1, 2)},
            focal_points(geom, grid, w_tie, focal_pg),
        )

    gains, spectrum, traj = evaluate()
    monkeypatch.setattr(arrays, "_CHUNK_ENTRIES", rows * geom.num_elements)
    c_gains, c_spectrum, c_traj = evaluate()

    assert np.array_equal(c_gains, gains)
    for k in (1, 2):
        single, batched = spectrum[k]
        assert single.shape == (len(covs), *music_pg.shape)
        assert np.array_equal(batched, single)
        assert np.array_equal(c_spectrum[k][0], single)
        assert np.array_equal(c_spectrum[k][1], single)
    assert np.array_equal(c_traj.gains, traj.gains)
    assert c_traj.points == traj.points
    assert c_traj.boundary_warning == traj.boundary_warning
    # the tie resolves to the smaller range, then the smaller angle
    assert c_traj.points[grid.half_m] == PolarPoint(r1, a1)
