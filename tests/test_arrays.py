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
import nfisac.squint as squint
from nfisac.arrays import (
    ArrayGeometry,
    CarrierGrid,
    PolarPoint,
    near_field_steering,
    rayleigh_distance,
    spherical_delays,
)
from nfisac.codebook import Beamformer, PolarGrid, gains_at_freq, polar_codeword
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.music import collect_snapshots, music_spectrum, sample_covariance
from nfisac.squint import focal_points
from oracles import far_field_steering
from test_squint import exhaustive_focal_points

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


@given(st.integers(1, 2048), st.floats(1e-6, 1.0))
@settings(max_examples=300, deadline=None)
def test_element_offsets_are_exactly_antisymmetric(n, spacing):
    # the mirrored focal search reads the offsets at -cos(theta) as those at
    # cos(theta) reversed, which needs t[N-1-n] == -t[n] to the bit; the
    # offsets are derived, so no caller can pass an array that breaks this
    t = ArrayGeometry.ula(n, spacing).element_offsets_s
    assert np.array_equal(t, -t[::-1])
    assert np.all(np.diff(t) > 0)


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


@given(st.integers(0, 512), st.sampled_from([0.0, 1.0e8, 2.34375e8, 4.6875e8]), st.data())
@settings(max_examples=200, deadline=None)
def test_frequencies_at_indices_are_the_full_lists_entries(half_m, spacing, data):
    # freqs(ms) computes only the requested subcarriers, with the bits they
    # have in the full list; an index off the grid raises
    grid = CarrierGrid(FC, 2 * half_m + 1, spacing)
    ms = data.draw(st.lists(st.integers(0, 2 * half_m), max_size=20))
    assert grid.freqs(ms).tobytes() == grid.freqs()[ms].tobytes()
    for bad in ([2 * half_m + 1], [0, -1]):
        with pytest.raises(IndexError):
            grid.freqs(bad)


@given(
    st.sampled_from([1, 2, 32, 128, 512]),
    st.integers(1, 9),
    st.sampled_from([(), (1,), (11,)]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_each_row_of_a_product_has_its_bits_alone(n, num_rows, cols, seed):
    # the rule every grid product rests on: a row's gains from a product of
    # several rows are its gains multiplied alone, bit for bit, for 1-D,
    # (N, 1) and (N, 11) weights, so no result depends on how points group
    rng = np.random.default_rng(seed)
    a = np.exp(2j * np.pi * rng.random((num_rows, n)))
    w = rng.standard_normal((n, *cols)) + 1j * rng.standard_normal((n, *cols))
    g = arrays.gains(a, w)
    assert g.shape == (num_rows, *cols)
    for i in range(num_rows):
        assert np.array_equal(arrays.gains(a[i : i + 1], w), g[i : i + 1])
    out = np.empty_like(g)
    assert arrays.gains(a, w, out=out) is out
    assert np.array_equal(out, g)


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


def test_delay_matrix_into_buffers_has_the_same_bits():
    # the law of cosines rounded in the order written, whether the delays go
    # into given buffers (here full of NaN) or into ones allocated inside.
    # Points within a few apertures make the cross term large enough that
    # another rounding order changes some of the 3200 delays
    geom = make_ula()
    rng = np.random.default_rng(5)
    taus = rng.uniform(0.02, 0.5, 50) / C
    cosines = np.cos(rng.uniform(0.1, np.pi - 0.1, 50))
    t, tau, cos = geom.element_offsets_s, taus[:, None], cosines[:, None]
    expected = np.sqrt(tau * tau + t * t - 2.0 * tau * t * cos)
    out, work = np.full((50, 64), np.nan), np.full((50, 64), np.nan)
    got = arrays.spherical_delay_matrix(geom, taus, cosines, out=out, work=work)
    assert got is out
    assert np.array_equal(out, expected)
    assert np.array_equal(arrays.spherical_delay_matrix(geom, taus, cosines), expected)


# a power-of-two frequency: at d = k / (_TURN_STEPS * _F_EXACT), f * d is
# exactly k table steps, whole or half, with no rounding anywhere
_F_EXACT = 2.0**38


@st.composite
def phasor_points(draw):
    """(freq_hz, delays): any delays, or whole and half table steps, zero included."""
    kind = draw(st.sampled_from(["any", "step", "half"]))
    if kind == "any":
        f = draw(st.sampled_from([0.0, 4.0e11]) | st.floats(0.0, 4.0e11))
        d = draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-2.0e-7, 2.0e-7), min_size=1, max_size=16))
        return f, np.array(d)
    # j whole steps of 1/_TURN_STEPS turn, negative j included; a half step
    # puts t = j + 1/2 on a rounding tie, which goes to the even neighbour
    top = int(2.0e-7 * arrays._TURN_STEPS * _F_EXACT)
    j = np.array(draw(st.lists(st.integers(-top, top) | st.sampled_from([0, -1, 1, 2047, 2048, 4095, 4096]),
                                min_size=1, max_size=16)), dtype=float)
    return _F_EXACT, (j + (0.5 if kind == "half" else 0.0)) / (arrays._TURN_STEPS * _F_EXACT)


def _exact_phasor(f, d):
    turns = mpmath.mpf(f) * mpmath.mpf(d)  # exact: 106 bits fit the working precision
    return complex(mpmath.expjpi(-2 * (turns - mpmath.nint(turns))))


@given(phasor_points())
@settings(max_examples=300, deadline=None)
def test_phasors_match_exp_within_the_argument_rounding(point):
    # phasors rounds only the product f * d, as np.exp's argument does, so
    # both sit within a few ulps of that product (in turns, times 2 pi) of the
    # exact value; the table and the series add a few 1e-16 at most
    f, d = point
    z = arrays.phasors(f, d, np.empty(d.shape, dtype=complex), np.full(4 * d.size + 3, np.nan))
    ulp = np.spacing(np.abs(f * d))
    assert np.all(np.abs(np.abs(z) - 1.0) <= 4e-16)
    with mpmath.workprec(160):
        exact = np.array([_exact_phasor(f, x) for x in d])
    assert np.all(np.abs(z - exact) <= 2 * np.pi * ulp + 1e-15)
    # np.exp's argument -2 pi f d rounds three times (pi, * f, * d)
    reference = np.exp(-2j * np.pi * f * d)
    assert np.all(np.abs(z - reference) <= 2 * np.pi * (ulp + 4 * np.abs(f * d) * 2.0**-53) + 2e-15)
    if f == _F_EXACT:
        # a whole step has no remainder and is the table entry, bit for bit
        t = d * (arrays._TURN_STEPS * f)
        whole = t == np.round(t)
        steps = t[whole].astype(np.int64) % arrays._TURN_STEPS
        assert np.array_equal(z[whole], arrays._PHASOR_TABLE[steps])


def _adjacent_twins(x, f):
    """First two adjacent doubles from x upward that f maps to the same float."""
    while f(x) != f(np.nextafter(x, np.inf)):
        x = np.nextafter(x, np.inf)
    return float(x), float(np.nextafter(x, np.inf))


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 7])
def test_chunk_boundaries_leave_results_bit_identical(monkeypatch, rows):
    # every manifold pass is first run in one chunk, then split into chunks
    # of `rows` rows; the point counts (41, 63, 16) leave every tail length,
    # the one-row tail included, and at one row every product is of one row
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
    # the same tie at ranges 9 and 10 of 19, which the screen's bisection
    # reaches at the angles it keeps, more than 8 of the 13 (checked below):
    # its passes at the end ranges and at the tie ranges split into chunks,
    # and so does its confirm pass, which rebuilds the four tied points' rows
    screen_pg = PolarGrid(
        np.array([0.05, 0.07, 0.08, 0.09, a1, a2, 0.11, 0.12, 0.13, 0.15, 0.2, 0.3, 0.45]),
        np.concatenate([np.geomspace(0.05, 0.095, 9), [r1, r2], np.geomspace(0.105, 0.3, 8)]),
    )
    screen_passes = []

    def recorded(geom, grid, taus, cosines, offsets_s=None, dtype=complex, spans=None):
        screen_passes.append((taus.copy(), cosines.copy(), np.dtype(dtype)))
        return arrays.steering_chunks(geom, grid, taus, cosines, offsets_s, dtype, spans)

    def spectra(num_sources):
        # one spectrum per covariance's top eigenvectors: a steering pass over
        # the 63-point grid, split into chunks of `rows` rows
        bases = [np.linalg.eigh(c.matrix)[1][:, -num_sources:] for c in covs]
        return np.array([music_spectrum(e, geom, grid, music_pg) for e in bases])

    # symmetric angle axes, where the screen builds only the angles with
    # cos >= 0 and screens the angles past pi/2 through reversed weights,
    # while every result comes from the point's own row. A broadside
    # codeword whose weights equal their reverse peaks at the pair around
    # pi/2 (angle indices 4 and 5 of ten), tied in exact arithmetic
    t = geom.element_offsets_s
    w_sym = Beamformer(-2.0 * np.pi * FC * np.sqrt((0.2 / C) ** 2 + t * t))
    assert np.array_equal(w_sym.weights, w_sym.weights[::-1])
    sym_pg = PolarGrid(np.linspace(0.0, np.pi, 12)[1:-1], np.geomspace(0.1, 0.4, 6))
    # two angles sharing a cosine build bit-identical rows, so they tie
    # exactly; with the codeword focused past pi/2 the peak is that tie, at
    # angle indices 2 and 3, and must resolve to index 2. The screen reads
    # both from the mirror rows 1 and 0, and 3-row chunks split the tie
    b1, b2 = _adjacent_twins(0.1, np.cos)
    c1 = np.pi - b1
    twin_pg = PolarGrid(np.array([b1, b2, np.nextafter(c1, 0.0), c1]), np.array([0.08, 0.1, 0.125, 0.16]))
    w_twin = polar_codeword(geom, grid, PolarPoint(0.1, c1))

    def evaluate():
        return (
            gains_at_freq(geom, FC, taus, cosines, w.weights),
            {k: spectra(k) for k in (1, 2)},
            [focal_points(geom, grid, v, pg) for v, pg in
             [(w_tie, focal_pg), (w_sym, sym_pg), (w_twin, twin_pg), (w_tie, screen_pg)]],
        )

    gains, spectrum, trajs = evaluate()
    with monkeypatch.context() as m:
        m.setattr(squint, "steering_chunks", recorded)
        focal_points(geom, grid, w_tie, screen_pg)
    *screen, (confirm_taus, confirm_cosines, confirm_dtype) = screen_passes
    # the two tie ranges share their delay and lie at two bisection levels,
    # so two complex64 passes hold their rows
    tie_passes = [np.count_nonzero(taus == r1 / C) for taus, _, dtype in screen if dtype == np.complex64]
    tie_passes = [count for count in tie_passes if count]
    assert len(tie_passes) == 2 and min(tie_passes) > 8
    assert confirm_dtype == complex
    tie_rows = (confirm_taus == r1 / C) & (confirm_cosines == np.cos(screen_pg.angles_rad)[4])
    assert np.count_nonzero(tie_rows) == 4
    monkeypatch.setattr(arrays, "_CHUNK_ENTRIES", rows * geom.num_elements)
    c_gains, c_spectrum, c_trajs = evaluate()

    assert np.array_equal(c_gains, gains)
    for k in (1, 2):
        assert spectrum[k].shape == (len(covs), *music_pg.shape)
        assert np.array_equal(c_spectrum[k], spectrum[k])
    for traj, c_traj in zip(trajs, c_trajs):
        assert np.array_equal(c_traj.gains, traj.gains)
        assert c_traj.points == traj.points
        assert c_traj.boundary_warning == traj.boundary_warning
    # the tie resolves to the smaller range, then the smaller angle
    assert c_trajs[0].points[grid.half_m] == PolarPoint(r1, a1)
    assert {p.angle_rad for p in c_trajs[1].points} <= {sym_pg.angles_rad[4], sym_pg.angles_rad[5]}
    # and the mirrored screen's results are the direct evaluation's
    for c_traj, (v, pg) in zip(c_trajs[1:3], [(w_sym, sym_pg), (w_twin, twin_pg)]):
        ref = exhaustive_focal_points(geom, grid, v, pg)
        assert np.array_equal(c_traj.gains, ref.gains) and c_traj.points == ref.points
    assert {p.angle_rad for p in c_trajs[2].points} == {twin_pg.angles_rad[2]}
    assert c_trajs[2].points[grid.half_m] == PolarPoint(0.1, twin_pg.angles_rad[2])
    assert c_trajs[3].points[grid.half_m] == PolarPoint(r1, a1)
    assert c_trajs[3].evaluated_points < screen_pg.angles_rad.size * screen_pg.ranges_m.size
