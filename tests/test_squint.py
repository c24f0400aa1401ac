"""Focal-point trajectories of codewords and delay-phase front ends across subcarriers."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nfisac.arrays as arrays
import nfisac.squint as squint
from nfisac.arrays import ArrayGeometry, CarrierGrid, PolarPoint, steering_chunks
from nfisac.codebook import Beamformer, PolarGrid, dft_codeword, gains_at_freq, polar_codeword
from nfisac.config import evaluation_grid, load_config
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.delay_phase import Arc, arc_trajectory_spec, fit_trajectory
from nfisac.errors import IllConditionedSpecError
from nfisac.music import collect_snapshots, single_source_peaks, snapshot_subspace
from nfisac.squint import SquintTrajectory, focal_points, squint_deviation

FC = 3.0e11
WL = C / FC
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def exhaustive_argmax(geom, grid, weights, delays_s, pg, music=False):
    """The unscreened search: every column's value at every grid point.

    The reference for squint.screened_argmax, which must return its values
    and full-grid indices bit for bit. Column m * B + b pairs subcarrier m
    with weight row b. It walks the grid in range-major order through the
    same steering rows, subcarrier recurrence and matrix-vector products
    (arrays.gains per weight), every point on its own row, so only the
    screen differs. A value is |g|^2, or with music the one-source MUSIC
    spectrum 1 / max(N - |g|^2, tiny); ties go to the smaller full index.
    """
    aa, rr = np.meshgrid(pg.angles_rad, pg.ranges_m, indexing="xy")
    wc = np.conj(weights)
    num_b, n = wc.shape
    cols = grid.num_subcarriers * num_b
    best_val = np.full(cols, -np.inf)
    best_idx = np.zeros(cols, dtype=np.int64)
    for lo, hi, rows in steering_chunks(geom, grid, (rr / C).ravel(), np.cos(aa).ravel(), delays_s):
        g = np.empty((grid.num_subcarriers, num_b, hi - lo))
        for m, _, a in rows:
            for b in range(num_b):
                arrays.gains(a, wc[b], out=g[m, b])
        val = np.square(g.reshape(cols, -1))
        if music:
            val = 1.0 / np.maximum(n - val, np.finfo(float).tiny)
        top = val.max(axis=1)
        # the chunk's first maximum; an equal one in a later chunk has a larger index
        better = top > best_val
        best_val[better] = top[better]
        best_idx[better] = lo + np.argmax(val == top[:, None], axis=1)[better]
    return best_val, best_idx


def exhaustive_focal_points(geom, grid, w, pg):
    """focal_points' result from exhaustive_argmax: points, gains and boundary flag."""
    n_ang, n_rng = pg.shape
    num_m = grid.num_subcarriers
    best_val, best_idx = exhaustive_argmax(geom, grid, w.weights[None], w.delays_s, pg)
    ir, ia = np.divmod(best_idx, n_ang)
    points = tuple(PolarPoint(float(pg.ranges_m[r]), float(pg.angles_rad[a])) for r, a in zip(ir, ia))
    on_boundary = bool(np.any((ia == 0) | (ia == n_ang - 1) | (ir == 0) | (ir == n_rng - 1)))
    every = n_ang * n_rng
    return SquintTrajectory(points, best_val, on_boundary, every, np.full(num_m, every))


def assert_matches_exhaustive(geom, grid, w, pg):
    """focal_points against the unscreened reference, bit for bit; returns it."""
    traj = focal_points(geom, grid, w, pg)
    ref = exhaustive_focal_points(geom, grid, w, pg)
    assert np.array_equal(traj.gains, ref.gains)
    assert traj.points == ref.points
    assert traj.boundary_warning == ref.boundary_warning
    assert 0 < traj.evaluated_points <= pg.angles_rad.size * pg.ranges_m.size
    return traj


def direct_exp_gains(geom, freq_hz, pg, w):
    """|w^H a|^2 over the whole grid, range-major, from a plain np.exp per entry.

    The delays are recomputed here, less w's delays (zeros for a codeword), and their
    phase f * tau is reduced to a fraction of a turn before the exp, so the
    exp's argument rounds no worse than the one product f * tau.
    """
    aa, rr = np.meshgrid(pg.angles_rad, pg.ranges_m, indexing="xy")
    tau, cosines, t = (rr / C).reshape(-1, 1), np.cos(aa).reshape(-1, 1), geom.element_offsets_s
    delays = np.sqrt(tau * tau + t * t - 2.0 * tau * t * cosines) - w.delays_s
    turns = freq_hz * delays
    turns -= np.round(turns)
    return np.abs(np.exp(-2j * np.pi * turns) @ np.conj(w.weights)) ** 2


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
    w = Beamformer(np.zeros(32))
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


@pytest.mark.parametrize("front", ["codeword", "delay-phase"])
def test_wideband_search_matches_direct_exp_evaluation(front):
    # the table-driven manifold and subcarrier recurrence against np.exp
    # evaluated afresh at every subcarrier: the same argmax at every
    # subcarrier, gains within 1e-11 relative (at most 1.04e-12 is seen
    # here). The codeword's symmetric angle axis takes the mirrored screen,
    # the front end's shifted delays do not
    geom = ArrayGeometry.ula(64, WL / 2)
    grid = CarrierGrid(FC, 9, 1.875e9)
    if front == "codeword":
        w = polar_codeword(geom, grid, PolarPoint(3.0, 1.1))
        pg = PolarGrid(np.linspace(0.0, np.pi, 63)[1:-1], np.geomspace(1.0, 8.0, 40))
    else:
        rng = np.random.default_rng(4)
        front_delays = rng.uniform(0.0, 2.0 * geom.aperture_m() / C, 64)
        w = Beamformer(rng.uniform(-np.pi, np.pi, 64), front_delays)
        pg = PolarGrid(np.linspace(0.3, 2.2, 57), np.geomspace(0.5, 6.0, 35))
    traj = assert_matches_exhaustive(geom, grid, w, pg)
    n_ang, n_rng = pg.shape
    boundary = False
    for m, p in enumerate(traj.points):
        gains = direct_exp_gains(geom, grid.freq(m), pg, w)
        ir, ia = divmod(int(np.argmax(gains)), n_ang)
        assert p == PolarPoint(float(pg.ranges_m[ir]), float(pg.angles_rad[ia]))
        assert traj.gains[m] == pytest.approx(gains.max(), rel=1e-11, abs=0)
        boundary |= ia in (0, n_ang - 1) or ir in (0, n_rng - 1)
    assert traj.boundary_warning == boundary


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
    w = Beamformer(np.zeros(16))
    with pytest.raises(ValueError, match="nonempty"):
        focal_points(geom, grid, w, PolarGrid(np.array([1.0]), np.array([])))


def test_squint_deviation_is_max_abs_offset():
    pts = (PolarPoint(9.0, 1.00), PolarPoint(11.5, 1.04), PolarPoint(10.2, 0.97))
    traj = SquintTrajectory(pts, np.ones(3), False, 3, np.ones(3, dtype=int))
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


@st.composite
def focal_scenarios(draw):
    """Small random focal searches over symmetric and asymmetric angle axes.

    The front end is a polar codeword or a delay-phase config: fitted to an
    arc across the grid, or random nonnegative delays and phases,
    asymmetric (the mirror must switch off even on a symmetric axis) or
    exactly equal to their reverse (it may stay on). Up to 40 ranges give
    the range screen several intervals to prune; the nearest ranges can sit
    inside the array's half-aperture, where it evaluates everything.
    """
    n = draw(st.integers(16, 64))
    geom = ArrayGeometry.ula(n, WL / 2)
    num_m = draw(st.sampled_from([1, 3, 5]))
    grid = CarrierGrid(FC, num_m, draw(st.sampled_from([0.0, 4.6875e8, 1.875e9])))
    n_ang = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["interior", "centered", "asymmetric"]))
    if kind == "interior":
        # the shipped default axis, symmetric about pi/2
        angles = np.linspace(0.0, np.pi, n_ang + 2)[1:-1]
    elif kind == "centered":
        half = draw(st.floats(0.05, 1.4))
        angles = np.linspace(np.pi / 2 - half, np.pi / 2 + half, n_ang)
    else:
        lo = draw(st.floats(0.1, 2.5))
        angles = np.linspace(lo, draw(st.floats(lo + 0.05, np.pi - 0.1)), n_ang)
    r_lo = draw(st.floats(0.01, 1.0))
    ranges = np.geomspace(r_lo, r_lo * draw(st.floats(1.5, 10.0)), draw(st.integers(2, 40)))
    # a design point on a grid node, the edge nodes included, gives exact and
    # boundary peaks; broadside gives mirror-symmetric codewords
    ia = draw(st.integers(0, n_ang - 1))
    angle = draw(st.sampled_from([float(angles[ia]), float(np.pi / 2)]))
    if not angles[0] <= angle <= angles[-1]:
        angle = float(angles[ia])
    design = PolarPoint(float(ranges[draw(st.integers(0, ranges.size - 1))]), angle)
    pg = PolarGrid(angles, ranges)
    front = draw(st.sampled_from(["codeword", "fitted", "random", "symmetric"]))
    if front == "codeword":
        return geom, grid, polar_codeword(geom, grid, design), pg
    if front == "fitted":
        ia, ib = sorted(draw(st.lists(st.integers(0, n_ang - 1), min_size=2, max_size=2, unique=True)))
        arc = Arc(float(angles[ia]), float(angles[ib]), design.range_m)
        # a single-tone grid cannot fit a slope; a fast arc cannot be unwrapped
        try:
            spec = arc_trajectory_spec(grid, arc, None if grid.spacing_hz else [grid.half_m])
            w, _ = fit_trajectory(geom, grid, spec)
        except IllConditionedSpecError:
            w, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, arc, [grid.half_m]))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        delays = rng.uniform(0.0, 2.0 * geom.aperture_m() / C, n)
        if front == "symmetric":
            delays = (delays + delays[::-1]) / 2.0
        w = Beamformer(rng.uniform(-np.pi, np.pi, n), delays)
    return geom, grid, w, pg


@given(focal_scenarios())
@settings(max_examples=300, deadline=None)
def test_focal_points_equal_exhaustive_argmax(scenario):
    # the screened search (range screen, subcarrier recurrence on shifted
    # delays, mirrored half screened through reversed weights) is bit for bit
    # the unscreened one, and both agree with a plain np.exp evaluation of every
    # grid point at every subcarrier. The two round each element's phase
    # differently, which moves a gain by up to ~5e-13 N (N elements, the
    # largest gain), so np.exp gains within 1e-12 N of the max are ties that
    # may go either way
    geom, grid, w, pg = scenario
    n_ang, n_rng = pg.shape
    tol = 1e-12 * geom.num_elements
    traj = assert_matches_exhaustive(geom, grid, w, pg)
    boundary = False
    for m, p in enumerate(traj.points):
        gains = direct_exp_gains(geom, grid.freq(m), pg, w)
        ir = int(np.searchsorted(pg.ranges_m, p.range_m))
        ia = int(np.searchsorted(pg.angles_rad, p.angle_rad))
        chosen = ir * n_ang + ia
        top, second = np.sort(gains)[-2:][::-1]
        if top - second <= tol:
            assert gains[chosen] >= top - tol
        else:
            assert chosen == int(np.argmax(gains))
        assert traj.gains[m] == pytest.approx(gains[chosen], rel=0, abs=2 * tol)
        boundary |= ia in (0, n_ang - 1) or ir in (0, n_rng - 1)
    assert traj.boundary_warning == boundary


def _random_front(geom, seed, symmetric):
    rng = np.random.default_rng(seed)
    delays = rng.uniform(0.0, 2.0 * geom.aperture_m() / C, geom.num_elements)
    if symmetric:
        delays = (delays + delays[::-1]) / 2.0
    return Beamformer(rng.uniform(-np.pi, np.pi, geom.num_elements), delays)


# cos(theta_k) + cos(theta_{n-1-k}) is nonzero at 33 of these 37 angles, and
# within _MIRROR_COS_TOL at all of them
SKEWED_AXIS = np.linspace(0.3, np.pi - 0.3, 37)


def _music_screen_case():
    # three one-source MUSIC bases on SKEWED_AXIS at the center frequency:
    # noisy steering vectors of targets past pi/2 and at broadside, unit norm
    geom = ArrayGeometry.ula(64, WL / 2)
    rng = np.random.default_rng(5)
    bases = []
    for p in (PolarPoint(2.1, 2.0), PolarPoint(1.4, 1.9), PolarPoint(3.0, np.pi / 2)):
        e = np.exp(-2j * np.pi * FC * arrays.spherical_delays(geom, p))
        e += 0.3 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        bases.append(e / np.linalg.norm(e))
    return geom, CarrierGrid(FC, 1, 0.0), np.array(bases), PolarGrid(SKEWED_AXIS, np.geomspace(0.5, 6.0, 40))


def _screen_case(name):
    geom = ArrayGeometry.ula(64, WL / 2)
    grid = CarrierGrid(FC, 5, 1.875e9)
    sym_axis = np.linspace(0.0, np.pi, 63)[1:-1]
    near = np.geomspace(0.5, 6.0, 40)
    if name == "far-design":
        # 40-200 m is far beyond the 2 m Rayleigh distance: gains plateau in
        # range, so near-ties are everywhere and little is screened away
        pg = PolarGrid(sym_axis, np.geomspace(40.0, 200.0, 33))
        return geom, grid, polar_codeword(geom, grid, PolarPoint(float(pg.ranges_m[20]), 1.2)), pg
    if name == "asymmetric-axis":
        pg = PolarGrid(np.linspace(0.4, 1.9, 37), near)
        return geom, grid, polar_codeword(geom, grid, PolarPoint(float(near[13]), 1.15)), pg
    if name in ("one-range", "two-range"):
        ranges = np.array([2.0]) if name == "one-range" else np.array([1.5, 3.0])
        pg = PolarGrid(sym_axis, ranges)
        return geom, grid, polar_codeword(geom, grid, PolarPoint(float(ranges[-1]), 1.3)), pg
    if name == "flat-carrier":
        grid = CarrierGrid(FC, 5, 0.0)
        pg = PolarGrid(sym_axis, near)
        return geom, grid, polar_codeword(geom, grid, PolarPoint(float(near[21]), 1.0)), pg
    if name in ("delay-phase", "symmetric-delay"):
        return geom, grid, _random_front(geom, 4, name == "symmetric-delay"), PolarGrid(sym_axis, near)
    if name == "skewed-axis":
        # the screen mirrors, and the design past pi/2 peaks on mirrored points
        pg = PolarGrid(SKEWED_AXIS, near)
        return geom, grid, polar_codeword(geom, grid, PolarPoint(float(near[17]), 2.0)), pg
    if name == "straddles-aperture":
        # the first ranges lie inside the 16 mm half-aperture, where the bound
        # does not hold and the screen must evaluate every point
        half = geom.aperture_m() / 2
        pg = PolarGrid(sym_axis, np.geomspace(0.3 * half, 40.0 * half, 40))
        return geom, grid, polar_codeword(geom, grid, PolarPoint(float(pg.ranges_m[25]), 1.1)), pg
    # the first range at the half-aperture X, within 1e-6 X of it (not clear)
    # or just clear of it: a half-level's bound is taken at every point before
    # the points not clear keep every column, and must stay finite there (a
    # RuntimeWarning fails the run)
    offset = {"at-aperture": 0.0, "within-1e-6-of-aperture": 5e-7, "just-clear-of-aperture": 2e-6}[name]
    half = float(np.max(np.abs(geom.element_offsets_s * C)))
    pg = PolarGrid(sym_axis, half * (1 + offset) * np.geomspace(1.0, 40.0, 40))
    return geom, grid, polar_codeword(geom, grid, PolarPoint(float(pg.ranges_m[25]), 1.1)), pg


@pytest.mark.parametrize(
    "name",
    ["far-design", "asymmetric-axis", "one-range", "two-range", "flat-carrier",
     "delay-phase", "symmetric-delay", "skewed-axis", "straddles-aperture",
     "at-aperture", "within-1e-6-of-aperture", "just-clear-of-aperture"],
)
def test_screened_search_matches_exhaustive_reference(name):
    geom, grid, w, pg = _screen_case(name)
    traj = assert_matches_exhaustive(geom, grid, w, pg)
    if pg.ranges_m.size <= 2:
        # no range lies between two evaluated ones
        assert traj.evaluated_points == pg.angles_rad.size * pg.ranges_m.size


@pytest.mark.parametrize(
    "name",
    ["far-design", "asymmetric-axis", "two-range", "flat-carrier",
     "delay-phase", "symmetric-delay", "skewed-axis", "music-skewed-axis", "straddles-aperture"],
)
def test_screen_errors_within_its_certificate_leave_the_result(monkeypatch, name):
    # every complex64 screen row scaled by 1 +- half of _screen_error at its
    # subcarrier, the sign drawn per point: each screened |g| moves by up to
    # eps / 2 on top of its own rounding, which reorders near-ties in the
    # screen, and the confirm pass still returns the exhaustive search's bits.
    # On SKEWED_AXIS the screen mirrors, a focal and a MUSIC search alike
    if name == "music-skewed-axis":
        geom, grid, weights, pg = _music_screen_case()
    else:
        geom, grid, w, pg = _screen_case(name)
    if "skewed" in name:
        c = np.cos(pg.angles_rad)
        skew = np.abs(c + c[::-1])
        assert 0 < skew.max() and np.all(skew <= squint._MIRROR_COS_TOL)
    rng = np.random.default_rng(11)
    half = squint._screen_error(geom.num_elements, grid.num_subcarriers) / 2

    def perturbed(rows, count):
        sign = rng.choice([-1.0, 1.0], size=(count, 1))
        for m, i, a in rows:
            if a.dtype != complex:
                a = (a * (1 + half[m] * sign[i : i + len(a)])).astype(a.dtype)
            yield m, i, a

    def chunks(*args):
        for lo, hi, rows in steering_chunks(*args):
            yield lo, hi, perturbed(rows, hi - lo)

    monkeypatch.setattr(squint, "steering_chunks", chunks)
    if name != "music-skewed-axis":
        assert_matches_exhaustive(geom, grid, w, pg)
        return
    no_delays = np.zeros(geom.num_elements)
    val, idx, _, _ = squint.screened_argmax(geom, grid, weights, no_delays, pg, music=True)
    ref_val, ref_idx = exhaustive_argmax(geom, grid, weights, no_delays, pg, music=True)
    assert np.array_equal(val, ref_val) and np.array_equal(idx, ref_idx)
    # the two targets past pi/2 peak there
    assert np.all(pg.angles_rad[idx[:2] % pg.angles_rad.size] > np.pi / 2)


@pytest.mark.parametrize("name", ["far-design", "asymmetric-axis", "flat-carrier", "straddles-aperture"])
def test_columns_of_several_weights_are_each_weights_search(name):
    # one search over B codewords at M subcarriers returns in column m * B + b
    # codeword b's focal point and gain at subcarrier m, bit for bit as its
    # own focal_points call, although the columns share every steering pass
    geom, grid, w, pg = _screen_case(name)
    n_ang = pg.angles_rad.size
    fronts = [
        w,
        polar_codeword(geom, grid, PolarPoint(float(pg.ranges_m[-2]), float(pg.angles_rad[3]))),
        dft_codeword(geom, grid, 1.4),
    ]
    weights = np.array([f.weights for f in fronts])
    val, idx, _, _ = squint.screened_argmax(geom, grid, weights, np.zeros(geom.num_elements), pg)
    ref_val, ref_idx = exhaustive_argmax(geom, grid, weights, np.zeros(geom.num_elements), pg)
    assert np.array_equal(val, ref_val) and np.array_equal(idx, ref_idx)
    for b, front in enumerate(fronts):
        traj = focal_points(geom, grid, front, pg)
        assert np.array_equal(val.reshape(-1, len(fronts))[:, b], traj.gains)
        ir, ia = np.divmod(idx.reshape(-1, len(fronts))[:, b], n_ang)
        assert tuple(PolarPoint(float(pg.ranges_m[r]), float(pg.angles_rad[a])) for r, a in zip(ir, ia)) == traj.points


def test_lone_survivor_row_keeps_its_bits():
    # two angles, eleven ranges: ranges 0 and 10 are evaluated at both
    # angles, and the screen rules angle 1.3 out of the interval between
    # them, so each of ranges 1-9 is bisected at angle 1.0 alone, the design
    # point at range 9, which peaks every subcarrier, among them. Each of
    # those is a one-row product, whose gains must keep the bits they have
    # in the exhaustive search's many-row products
    geom = ArrayGeometry.ula(32, WL / 2)
    grid = CarrierGrid(FC, 3, 4.6875e8)
    pg = PolarGrid(np.array([1.0, 1.3]), np.geomspace(0.1, 0.2, 11))
    w = polar_codeword(geom, grid, PolarPoint(float(pg.ranges_m[9]), 1.0))
    traj = assert_matches_exhaustive(geom, grid, w, pg)
    assert traj.evaluated_points == 2 * 2 + 9
    assert set(traj.points) == {PolarPoint(float(pg.ranges_m[9]), 1.0)}


def _shipped_squint_search():
    cfg = load_config(str(CONFIG_DIR / "squint_deviation.yaml"))
    return cfg.ula, cfg.carrier, polar_codeword(cfg.ula, cfg.carrier, cfg.design), evaluation_grid(cfg.section("grid"))


def test_shipped_squint_scenario_evaluates_under_8_percent_of_the_grid():
    # the squint-deviation experiment's search: 721 x 120 points, 512
    # elements, 65 subcarriers; the screen keeps its bits and skips most of it
    geom, grid, w, pg = _shipped_squint_search()
    traj = assert_matches_exhaustive(geom, grid, w, pg)
    assert pg.shape == (721, 120)
    assert traj.evaluated_points < 0.08 * 721 * 120


def _criterion_07_search():
    # acceptance criterion 07's arc search: a delay-phase front end fitted to
    # a 60-80 degree arc at 20 m, 512 elements, 129 subcarriers, 261 x 90 points
    geom = ArrayGeometry.ula(512, WL / 2)
    grid = CarrierGrid(FC, 129, 2.34375e8)
    arc = Arc(np.radians(60.0), np.radians(80.0), 20.0)
    front, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, arc))
    pg = PolarGrid(np.linspace(np.radians(56.0), np.radians(84.0), 261), np.geomspace(14.0, 28.0, 90))
    return geom, grid, front, pg


def _traced_peak(search):
    tracemalloc.start()
    try:
        focal_points(*search)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shipped_squint_search_peaks_under_6_mb():
    # the bisection keeps g32 only at the angles each pending interval still
    # reaches, never a whole range's 65 x 721 row per evaluated range, and
    # the candidate list is pruned as the best rises, not kept whole
    assert _traced_peak(_shipped_squint_search()) <= 6e6


def test_criterion_07_search_peaks_under_12_mb():
    # the same for 129 subcarriers of a 261 x 90 grid
    assert _traced_peak(_criterion_07_search()) <= 12e6


_BLAS_PROBE = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_squint import _criterion_07_search
from nfisac.config import load_config
from nfisac.music import collect_snapshots, single_source_peaks, snapshot_subspace
from nfisac.squint import focal_points

traj = focal_points(*_criterion_07_search())
cfg = load_config(sys.argv[2])
(target,) = cfg.targets
snaps, noise = int(cfg.section("music")["snapshot_count"]), float(cfg.section("music")["noise_power_w"])
bases = [snapshot_subspace(collect_snapshots(cfg.ula, cfg.carrier, [target], snaps, noise, s), 1) for s in range(12)]
peaks = list(single_source_peaks(bases, cfg.ula, cfg.carrier, cfg.grid))
print(json.dumps({
    "points": np.array([(p.range_m, p.angle_rad) for p in traj.points]).tobytes().hex(),
    "gains": traj.gains.tobytes().hex(),
    "peaks": np.array([(p.range_m, p.angle_rad, v) for p, v in peaks]).tobytes().hex(),
}))
"""


def test_searches_do_not_depend_on_blas_thread_count():
    # the complex64 screen's products may take other bits at another BLAS
    # thread count, and so screen other points; criterion 07's focal points
    # and a 12-basis MUSIC search must not move a bit
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    config = str(CONFIG_DIR / "music_vs_wavenumber.yaml")
    found = [
        subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE, str(root / "tests"), config],
            env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True, capture_output=True, text=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert json.loads(found[0]) == json.loads(found[1])


def test_direct_only_rows_skip_the_mirrored_product(monkeypatch):
    # each bisection level is one complex64 steering pass over the
    # direct-half rows its middle ranges need, and evaluated_points counts
    # exactly the gains screened: every angle at the two end ranges, then at
    # each middle range its direct rows and the mirror point of each angle
    # kept in the mirrored half. One complex128 pass then builds the confirm
    # set's own rows
    geom, grid, w, pg = _shipped_squint_search()
    n_ang = pg.shape[0]
    n_dir, n_mir = (n_ang + 1) // 2, n_ang // 2
    cos_axis = np.cos(pg.angles_rad)
    passes, kept = [], []  # kept: per pass measured, its points (ranges, angles) and their rows
    screen_rows = squint._screen_rows

    def recorded(geom, grid, taus, cosines, offsets_s=None, dtype=complex, spans=None):
        passes.append((taus.copy(), cosines.copy(), np.dtype(dtype)))
        return steering_chunks(geom, grid, taus, cosines, offsets_s, dtype, spans)

    def rows_for(r, angles, *args):
        rows = screen_rows(r, angles, *args)
        kept.append((len(passes), r.copy(), angles.copy(), rows))
        return rows

    monkeypatch.setattr(squint, "steering_chunks", recorded)
    monkeypatch.setattr(squint, "_screen_rows", rows_for)
    traj = focal_points(geom, grid, w, pg)
    *screen, (confirm_taus, confirm_cosines, confirm_dtype) = passes
    assert {dtype for _, _, dtype in screen} == {np.dtype(np.complex64)}
    assert confirm_dtype == np.dtype(complex)
    assert len(screen) <= 9
    # one row mapping per screen pass, just before it
    assert [q for q, *_ in kept] == list(range(len(screen)))
    # the two end ranges first, each at every direct-half angle
    ends = screen[0][0]
    assert np.array_equal(ends, np.repeat(pg.ranges_m[[0, -1]] / C, n_dir))
    for half in np.split(screen[0][1], 2):
        assert np.array_equal(np.sort(half), np.sort(cos_axis[:n_dir]))
    # and no (range, angle) row passed twice
    rows = [(t, c) for taus, cosines, _ in screen for t, c in zip(taus, cosines)]
    assert len(set(rows)) == len(rows)
    # each level's ranges were measured at the angles their rows screen:
    # angle a >= n_ang - n_mir is read from direct row n_ang - 1 - a, and
    # every point from exactly one row
    direct = mirrored = 0
    for p, ((taus, cosines, _), (_, r, angles, (row_r, row_k, to_dir, to_mir))) in enumerate(zip(screen, kept)):
        assert np.unique(r).size == np.unique(taus).size
        own = to_dir != to_mir
        assert np.array_equal(np.sort(np.concatenate([to_dir[own], to_mir[to_mir >= 0]])), np.arange(angles.size))
        assert np.array_equal(r[to_dir], row_r) and np.array_equal(angles[to_dir[own]], row_k[own])
        assert np.array_equal(angles[to_mir[to_mir >= 0]], n_ang - 1 - row_k[to_mir >= 0])
        for rr in np.unique(r):
            at = angles[r == rr]
            k, j = row_k[row_r == rr], np.count_nonzero(to_mir[row_r == rr] >= 0)
            mirror_of = at[at >= n_ang - n_mir]
            needed = np.union1d(at[at < n_dir], n_ang - 1 - mirror_of)
            assert np.array_equal(np.sort(k), needed) and j == mirror_of.size
            assert np.array_equal(np.sort(cosines[taus == pg.ranges_m[rr] / C]), np.sort(cos_axis[k]))
            if p > 0:
                direct += k.size
                mirrored += j
    assert direct == len(rows) - 2 * n_dir
    assert traj.evaluated_points == 2 * n_ang + direct + mirrored
    # the confirm pass builds each confirmed point's own row once, the focal
    # points' among them, and a few points decide each subcarrier
    confirm_rows = set(zip(confirm_taus, confirm_cosines))
    assert len(confirm_rows) == confirm_taus.size <= traj.confirmed_points.sum()
    for p in traj.points:
        a = int(np.searchsorted(pg.angles_rad, p.angle_rad))
        assert (p.range_m / C, cos_axis[a]) in confirm_rows
    assert traj.confirmed_points.shape == (grid.num_subcarriers,)
    assert 1 <= traj.confirmed_points.min() and traj.confirmed_points.max() <= 12
    # the shipped figures, and most kept rows need only their direct point
    assert (traj.evaluated_points, direct, mirrored) == (5697, 3125, 1130)
    assert mirrored < direct / 2


def test_a_level_that_keeps_no_point_ends_the_bisection(monkeypatch):
    # a focal point at the nearest of 18 ranges, at one subcarrier: the
    # bisection's last level would hold one interval, and its bound keeps no
    # point of it, so the search ends a level early with the exhaustive bits
    geom = ArrayGeometry.ula(32, WL / 2)
    grid = CarrierGrid(FC, 1, 0.0)
    pg = PolarGrid(np.array([1.0, 1.3]), np.geomspace(0.05, 0.5, 18))
    w = polar_codeword(geom, grid, PolarPoint(float(pg.ranges_m[0]), 1.0))
    passes = []

    def recorded(geom, grid, taus, cosines, offsets_s=None, dtype=complex, spans=None):
        if dtype == np.complex64:
            passes.append(taus.size)
        return steering_chunks(geom, grid, taus, cosines, offsets_s, dtype, spans)

    monkeypatch.setattr(squint, "steering_chunks", recorded)
    traj = assert_matches_exhaustive(geom, grid, w, pg)
    assert len(passes) < _bisection_levels(18).max() + 1
    assert traj.evaluated_points == sum(passes) == 10


@pytest.mark.parametrize(
    "search, rows, built",
    [("squint-deviation", 3_847, 132_397), ("criterion-07", 8_495, 75_375)],
)
def test_screen_builds_each_row_only_over_its_span(monkeypatch, search, rows, built):
    # the complex64 screen builds and multiplies a middle range's row only at
    # the subcarriers from the first to the last one that its (point,
    # column) pairs still need; the two end ranges take every row over the
    # whole band. A level's rows, of all its ranges, go in order of (first,
    # last), and a window also steps the rows between that end earlier. The
    # (row, subcarrier) pairs built, of rows times M + 1 without spans:
    # 132 397 of 250 055 and 75 375 of 1 095 855, of which the end ranges
    # take 46 930 and 67 338; the spans alone hold 119 351 and 75 375
    geom, grid, w, pg = _shipped_squint_search() if search == "squint-deviation" else _criterion_07_search()
    passes = []  # per screen pass: rows, and (row, subcarrier) pairs built

    def counted(rows_at):
        for m, i, a in rows_at:
            passes[-1][1] += len(a)
            yield m, i, a

    def recorded(geom, grid, taus, cosines, offsets_s=None, dtype=complex, spans=None):
        chunks = steering_chunks(geom, grid, taus, cosines, offsets_s, dtype, spans)
        if dtype != np.complex64:
            return chunks
        passes.append([taus.size, 0])
        return ((lo, hi, counted(rows_at)) for lo, hi, rows_at in chunks)

    monkeypatch.setattr(squint, "steering_chunks", recorded)
    traj = focal_points(geom, grid, w, pg)
    num_m = grid.num_subcarriers
    assert passes[0][1] == passes[0][0] * num_m
    assert sum(p[0] for p in passes) == rows
    assert sum(p[1] for p in passes) == built
    assert all(p[1] < p[0] * num_m for p in passes[1:])
    if search == "criterion-07":
        assert traj.evaluated_points == rows


def _bisection_levels(n_rng):
    """Bisection level of each range index: 0 at the two ends, 1 at the middle, and so on."""
    level = np.zeros(n_rng, dtype=int)
    intervals, depth = [(0, n_rng - 1)], 1
    while intervals:
        halves = []
        for c0, c1 in intervals:
            if c1 - c0 > 1:
                mid = (c0 + c1) // 2
                level[mid] = depth
                halves += [(c0, mid), (mid, c1)]
        intervals, depth = halves, depth + 1
    return level


def _music_12_bases_search():
    # single_source_peaks on 12 one-source bases of music-vs-wavenumber's
    # shipped target: 256 elements, a 181 x 60 grid, one subcarrier
    cfg = load_config(str(CONFIG_DIR / "music_vs_wavenumber.yaml"))
    (target,) = cfg.targets
    snaps, noise = int(cfg.section("music")["snapshot_count"]), float(cfg.section("music")["noise_power_w"])
    bases = [
        snapshot_subspace(collect_snapshots(cfg.ula, cfg.carrier, [target], snaps, noise, s), 1) for s in range(12)
    ]
    return bases, cfg.ula, cfg.carrier, cfg.grid


@pytest.mark.parametrize("search", ["squint-deviation", "criterion-07", "music-12-bases"])
def test_screen_makes_one_pass_per_bisection_level(monkeypatch, search):
    # every interval of a bisection level decides what its middle range
    # needs as the level starts, so the complex64 screen makes one steering
    # pass for the two end ranges and then one per level that needs a row,
    # in order of level, and builds no (range, angle) row twice
    args = {
        "squint-deviation": _shipped_squint_search, "criterion-07": _criterion_07_search,
        "music-12-bases": _music_12_bases_search,
    }[search]()
    pg = args[-1]
    passes = []

    def recorded(geom, grid, taus, cosines, offsets_s=None, dtype=complex, spans=None):
        if dtype == np.complex64:
            passes.append((taus.copy(), cosines.copy()))
        return steering_chunks(geom, grid, taus, cosines, offsets_s, dtype, spans)

    monkeypatch.setattr(squint, "steering_chunks", recorded)
    if search == "music-12-bases":
        list(single_source_peaks(*args))
    else:
        focal_points(*args)
    n_rng = pg.shape[1]
    index = {tau: r for r, tau in enumerate(pg.ranges_m / C)}
    assert len(index) == n_rng
    level = _bisection_levels(n_rng)
    measured = [[index[t] for t in taus] for taus, _ in passes]
    assert set(measured[0]) == {0, n_rng - 1}
    assert [np.unique(level[r]).tolist() for r in measured] == [[p] for p in range(len(passes))]
    assert len(passes) <= level.max() + 1 < len({r for rs in measured for r in rs})
    rows = [(t, c) for taus, cosines in passes for t, c in zip(taus, cosines)]
    assert len(set(rows)) == len(rows)


@given(focal_scenarios(), st.data())
@settings(max_examples=200, deadline=None)
def test_interval_peak_bounds_every_range_between(scenario, data):
    # the certificate behind the range screen: from exact |g| at two ranges
    # clear of the half-aperture, the interval's peak bounds |g| at every
    # range between, at every angle and subcarrier, within the margin
    geom, grid, w, pg = scenario
    bound = squint._RangeBound(geom, grid, w.weights, w.delays_s, pg)
    clear = [c for c in range(pg.ranges_m.size) if bound.clear(c)]
    assume(len(clear) >= 2)
    c0, c1 = sorted(data.draw(st.lists(st.sampled_from(clear), min_size=2, max_size=2, unique=True)))
    angles = np.arange(pg.angles_rad.size)
    between = PolarGrid(pg.angles_rad, pg.ranges_m[c0 : c1 + 1])
    g = np.array([np.sqrt(direct_exp_gains(geom, grid.freq(m), between, w)) for m in range(grid.num_subcarriers)])
    g = g.reshape(grid.num_subcarriers, c1 - c0 + 1, angles.size)
    peak = bound.peak(g[:, 0], g[:, -1], angles, c0, c1)
    assert np.all(g[:, 1:-1] <= peak[:, None, :] + bound.margin)


@st.composite
def screen_rows(draw):
    """Steering rows over a band with weights of any scale, for the screen's certificate.

    1..48 elements at three pitches, up to 33 subcarriers (the top ones
    wide of the centre), 1..9 points at ranges down to 1 cm, 1..4 weight
    vectors scaled by 1e-3..1e3, and zero or random front-end delays. Each
    point also gets a span of subcarriers first..last, as the screen's
    rows take them: ordered by first, some of them the whole band.
    """
    n = draw(st.integers(1, 48))
    geom = ArrayGeometry.ula(n, WL * draw(st.sampled_from([0.5, 1.0, 2.0])))
    grid = CarrierGrid(FC, 2 * draw(st.integers(0, 16)) + 1, draw(st.sampled_from([0.0, 2.34375e8, 4.6875e9])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 9))
    taus = rng.uniform(0.01, 30.0, rows) / C
    cosines = np.cos(rng.uniform(0.05, np.pi - 0.05, rows))
    num_b = draw(st.integers(1, 4))
    weights = rng.standard_normal((num_b, n)) + 1j * rng.standard_normal((num_b, n))
    weights *= 10.0 ** rng.uniform(-3.0, 3.0, (num_b, 1))
    delays = rng.uniform(-1e-9, 1e-9, n) if draw(st.booleans()) else np.zeros(n)
    num_m = grid.num_subcarriers
    whole = rng.random(rows) < 0.3
    first = np.sort(np.where(whole, 0, rng.integers(0, num_m, rows)))
    last = np.where(whole[np.argsort(whole, kind="stable")], num_m - 1, rng.integers(first, num_m))
    return geom, grid, taus, cosines, weights, delays, (first, last)


def _screen_and_float64_rows(geom, grid, taus, cosines, delays):
    # (complex64, complex128) rows at every subcarrier, in one chunk
    (_, _, rows32), = steering_chunks(geom, grid, taus, cosines, delays, np.complex64)
    (_, _, rows64), = steering_chunks(geom, grid, taus, cosines, delays)
    for (_, _, a32), (_, _, a64) in zip(rows32, rows64, strict=True):
        yield a32.copy(), a64.copy()


def _windows(geom, grid, taus, cosines, delays, dtype, spans, chunk_rows):
    # (m, row index, rows) of every window, over chunks of chunk_rows rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arrays, "_CHUNK_ENTRIES", chunk_rows * geom.num_elements)
        for lo, _, rows in steering_chunks(geom, grid, taus, cosines, delays, dtype, spans):
            for m, i, a in rows:
                yield m, lo + i, a.copy()


@given(screen_rows(), st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_spans_build_each_row_over_its_subcarriers(case, chunk_rows):
    # steering_chunks with spans: every row is in a window at each subcarrier
    # of its span, windows are never empty, and rows started at subcarrier 0
    # keep the bits of the rows without spans, in complex128; a row started
    # later is another float64 evaluation of the same manifold, so its gains
    # lie within two float64 margins of the plain row's, however the rows
    # are chunked
    geom, grid, taus, cosines, weights, delays, (first, last) = case
    plain = [a64 for _, a64 in _screen_and_float64_rows(geom, grid, taus, cosines, delays)]
    margin = squint._RangeBound(geom, grid, weights, delays, PolarGrid(np.array([1.0]), np.array([1.0]))).margin
    wc = np.conj(weights)
    for starts in (np.zeros_like(first), first):
        spans = (starts, np.maximum(last, starts))
        covered = np.zeros((grid.num_subcarriers, taus.size), dtype=bool)
        for m, i, a in _windows(geom, grid, taus, cosines, delays, complex, spans, chunk_rows):
            assert len(a) > 0 and not covered[m, i : i + len(a)].any()
            covered[m, i : i + len(a)] = True
            if starts is not first:
                assert a.tobytes() == plain[m][i : i + len(a)].tobytes()
            for w in wc:
                assert np.all(np.abs(arrays.gains(a, w) - arrays.gains(plain[m][i : i + len(a)], w)) <= 2 * margin)
        span_m = np.arange(grid.num_subcarriers)[:, None]
        assert np.all(covered[(span_m >= spans[0]) & (span_m <= spans[1])])


@given(screen_rows())
@settings(max_examples=150, deadline=None)
def test_screen_gains_stay_within_the_certificate(case):
    # the screen's g32, from complex64 rows and one product of them with all
    # weights as screened_argmax takes it, lies within _RangeBound.eps of
    # the g64 the float64 path computes (arrays.gains per weight), at every
    # subcarrier m = 0..M: on rows built over the whole band, and on the
    # windows of rows started late, at the first subcarrier of their span
    geom, grid, taus, cosines, weights, delays, spans = case
    wc = np.conj(weights)
    wc32 = wc.astype(np.complex64)
    pg = PolarGrid(np.array([1.0]), np.array([1.0]))  # eps does not depend on the grid
    eps = squint._RangeBound(geom, grid, weights, delays, pg).eps.reshape(grid.num_subcarriers, -1)
    plain = list(_screen_and_float64_rows(geom, grid, taus, cosines, delays))
    for m, (a32, a64) in enumerate(plain):
        g32 = np.abs(wc32 @ a32.T)
        g64 = np.array([arrays.gains(a64, w) for w in wc])
        assert np.all(np.abs(g32 - g64) <= eps[m][:, None])
    for m, i, a32 in _windows(geom, grid, taus, cosines, delays, np.complex64, spans, taus.size):
        g32 = np.abs(wc32 @ a32.T)
        g64 = np.array([arrays.gains(plain[m][1][i : i + len(a32)], w) for w in wc])
        assert np.all(np.abs(g32 - g64) <= eps[m][:, None])


@given(screen_rows())
@settings(max_examples=40, deadline=None)
def test_screen_error_terms_hold_in_exact_arithmetic(case):
    # each term of _screen_error against mpmath at 40 digits, on the first
    # row and weight: the complex64 recurrence departs from the exact
    # a_0 * step^m of the float64 phasors by (m + 1) u + sqrt(5) m u (the
    # float64 one by sqrt(5) m ulps of its own), the float32 product from the
    # exact sum of its rounded inputs by sqrt(2) gamma_{N+2} sum |a||w|, and
    # the float32 modulus from the exact one by 4 u
    geom, grid, taus, cosines, weights, delays, _ = case
    u, u64 = 2.0**-24, 2.0**-53
    n = geom.num_elements
    w32 = np.conj(weights[0]).astype(np.complex64)

    def exact(z):
        return mpmath.mpc(float(z.real), float(z.imag))

    def within(err, k, unit, scale):
        # k rounding errors of unit, to second order
        return err <= k * unit / (1 - 2 * k * unit) * scale

    # the float64 step that steering_chunks takes, if it takes one
    d = arrays.spherical_delay_matrix(geom, taus[:1], cosines[:1]) - delays
    stepping = grid.num_subcarriers > 1 and grid.spacing_hz
    step = arrays.phasors(grid.spacing_hz, d, np.empty(d.shape, dtype=complex), np.empty(4 * d.size))[0]
    with mpmath.workdps(40):
        a = None
        for m, (a32, a64) in enumerate(_screen_and_float64_rows(geom, grid, taus[:1], cosines[:1], delays)):
            if a is None:
                a = [exact(z) for z in a64[0]]
            elif stepping:
                a = [x * exact(s) for x, s in zip(a, step)]
            for x, z32, z64 in zip(a, a32[0], a64[0]):
                assert within(abs(exact(z32) - x), (m + 1) + np.sqrt(5.0) * m, u, abs(x))
                assert within(abs(exact(z64) - x), np.sqrt(5.0) * m + 1, u64, abs(x))
            z = (w32[None] @ a32.T)[0, 0]
            dot = mpmath.fsum(exact(x) * exact(y) for x, y in zip(a32[0], w32))
            scale = mpmath.fsum(abs(exact(x)) * abs(exact(y)) for x, y in zip(a32[0], w32))
            assert within(abs(exact(z) - dot), np.sqrt(2.0) * (n + 2), u, scale)
            assert abs(mpmath.mpf(float(np.abs(z))) - abs(exact(z))) <= 4 * u * abs(exact(z))
