"""Delay-plus-phase front end: fitting, hardware bounds, gauge freedom."""

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import nfisac.delay_phase as delay_phase
from nfisac.allocation import sensing_subcarriers
from nfisac.arrays import ArrayGeometry, CarrierGrid, PolarPoint, near_field_steering, spherical_delay_matrix
from nfisac.codebook import Beamformer
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.delay_phase import (
    Arc,
    TrajectorySpec,
    apply_delay_phase,
    arc_trajectory_spec,
    fit_trajectory,
    subcarrier_weights,
)
from nfisac.errors import IllConditionedSpecError

FC = 3.0e11
WL = C / FC
GEOM = ArrayGeometry.ula(128, WL / 2)
GRID = CarrierGrid(FC, 65, 4.6875e8)


def test_fixed_focal_point_is_exactly_representable():
    # holding one point across the band needs delay_n = spherical delay_n,
    # which the regression recovers to float accuracy
    p = PolarPoint(12.0, 1.2)
    spec = TrajectorySpec(tuple((m, p) for m in range(GRID.num_subcarriers)))
    cfg, rms = fit_trajectory(GEOM, GRID, spec)
    assert rms < 1e-6
    for m in [0, GRID.half_m, GRID.num_subcarriers - 1]:
        w = apply_delay_phase(cfg, GRID, m)
        a = near_field_steering(GEOM, p, GRID, m)
        assert abs(np.vdot(w.weights, a)) ** 2 == pytest.approx(128.0, rel=1e-6)


def test_single_point_spec_fits_with_zero_residual():
    spec = TrajectorySpec(((3, PolarPoint(9.0, 0.9)),))
    cfg, rms = fit_trajectory(GEOM, GRID, spec)
    assert rms == 0.0
    assert np.all(cfg.delays_s == 0.0)


def test_arc_fit_keeps_small_residual_and_zero_min_delay():
    arc = Arc(np.pi / 3, np.pi * 4 / 9, 20.0)
    spec = arc_trajectory_spec(GRID, arc)
    cfg, rms = fit_trajectory(GEOM, GRID, spec)
    assert rms < 0.5
    assert cfg.delays_s.min() == 0.0
    assert np.all(cfg.delays_s >= 0.0)
    # the fit is the front end: one Beamformer, weights from its phases
    assert isinstance(cfg, Beamformer)
    assert cfg.weights.tobytes() == (np.exp(-1j * cfg.phases_rad) / np.sqrt(GEOM.num_elements)).tobytes()


def test_too_fast_trajectory_raises_ill_conditioned():
    geom = ArrayGeometry.ula(256, WL / 2)
    grid = CarrierGrid(FC, 3, 4.6875e8)
    arc = Arc(0.35, 2.8, 5.0)
    spec = arc_trajectory_spec(grid, arc)
    with pytest.raises(IllConditionedSpecError, match="unwrap"):
        fit_trajectory(geom, grid, spec)


def test_single_frequency_spec_raises_ill_conditioned():
    # with zero subcarrier spacing every spec entry sits at the centre
    # frequency, so there is no slope to fit a delay to
    grid = CarrierGrid(FC, 5, 0.0)
    spec = arc_trajectory_spec(grid, Arc(1.0, 1.2, 10.0))
    with pytest.raises(IllConditionedSpecError, match="one frequency"):
        fit_trajectory(ArrayGeometry.ula(16, WL / 2), grid, spec)


@given(st.floats(min_value=0.0, max_value=5e-11))
@settings(max_examples=20, deadline=None)
def test_common_delay_shift_leaves_gains_unchanged(delta):
    # adding the same delay to every antenna multiplies each subcarrier's
    # weights by one common phase, so matched gains cannot change
    arc = Arc(1.0, 1.3, 15.0)
    spec = arc_trajectory_spec(GRID, arc)
    cfg, _ = fit_trajectory(GEOM, GRID, spec)
    shifted = Beamformer(cfg.phases_rad, cfg.delays_s + delta)
    p = PolarPoint(15.0, 1.15)
    for m in [0, 32, 64]:
        a = near_field_steering(GEOM, p, GRID, m)
        g0 = abs(np.vdot(apply_delay_phase(cfg, GRID, m).weights, a))
        g1 = abs(np.vdot(apply_delay_phase(shifted, GRID, m).weights, a))
        assert g1 == pytest.approx(g0, rel=1e-9)


def test_dropping_a_spec_point_cannot_raise_the_error_sum():
    # the fit minimizes a sum of squared phase errors over spec entries, so
    # refitting without one entry can only lower that sum
    arc = Arc(np.pi / 3, np.pi * 4 / 9, 20.0)
    full = arc_trajectory_spec(GRID, arc)
    cfg_f, rms_f = fit_trajectory(GEOM, GRID, full)
    sum_f = rms_f**2 * len(full.entries) * GEOM.num_elements
    reduced = TrajectorySpec(full.entries[:-1])
    cfg_r, rms_r = fit_trajectory(GEOM, GRID, reduced)
    sum_r = rms_r**2 * len(reduced.entries) * GEOM.num_elements
    assert sum_r <= sum_f + 1e-9


def test_arc_validation():
    with pytest.raises(ValueError, match="theta_start"):
        Arc(1.5, 1.2, 10.0)
    with pytest.raises(ValueError, match="0, pi"):
        Arc(-0.1, 1.0, 10.0)
    with pytest.raises(ValueError, match="range_m"):
        Arc(1.0, 1.2, 0.0)


def test_trajectory_spec_validation():
    with pytest.raises(ValueError, match="nonempty"):
        TrajectorySpec(())
    p = PolarPoint(5.0, 1.0)
    with pytest.raises(ValueError, match="unique and sorted"):
        TrajectorySpec(((2, p), (1, p)))
    with pytest.raises(ValueError, match="unique and sorted"):
        TrajectorySpec(((1, p), (1, p)))


def test_arc_spec_maps_endpoints_and_subsets():
    arc = Arc(1.0, 1.5, 10.0)
    spec = arc_trajectory_spec(GRID, arc)
    assert spec.points()[0].angle_rad == pytest.approx(1.0)
    assert spec.points()[-1].angle_rad == pytest.approx(1.5)
    sub = arc_trajectory_spec(GRID, arc, subcarriers=[0, 32, 64])
    assert sub.points()[1].angle_rad == pytest.approx(1.25)
    assert all(p.range_m == 10.0 for p in sub.points())


def test_applied_weights_have_unit_norm():
    cfg = Beamformer(np.array([0.1, -0.2, 0.3]), np.array([0.0, 1e-12, 2e-12]))
    w = apply_delay_phase(cfg, CarrierGrid(FC, 5, 1e8), 4)
    assert np.linalg.norm(w.weights) == pytest.approx(1.0, rel=1e-12)


def test_spec_subcarrier_indices_are_range_checked():
    # a negative index must not wrap around to the top of the band
    p = PolarPoint(9.0, 0.9)
    for ms in ((-1, 2), (2, GRID.num_subcarriers)):
        with pytest.raises(IndexError):
            fit_trajectory(GEOM, GRID, TrajectorySpec(tuple((m, p) for m in ms)))


def test_subcarrier_weights_equal_per_subcarrier_rows():
    # the batched rows are bit-identical to one subcarrier at a time, both
    # through apply_delay_phase and through the per-subcarrier expression
    cfg, _ = fit_trajectory(GEOM, GRID, arc_trajectory_spec(GRID, Arc(1.0, 1.3, 15.0)))
    ms = np.arange(GRID.num_subcarriers)
    rows = subcarrier_weights(cfg, GRID, ms)
    for m in ms:
        phase = 2.0 * np.pi * GRID.freq(int(m)) * cfg.delays_s + cfg.phases_rad
        assert rows[m].tobytes() == apply_delay_phase(cfg, GRID, int(m)).weights.tobytes()
        assert rows[m].tobytes() == (np.exp(-1j * phase) / np.sqrt(GEOM.num_elements)).tobytes()
    for bad in ([-1, 2, 4], [0, GRID.num_subcarriers]):
        with pytest.raises(IndexError):
            subcarrier_weights(cfg, GRID, bad)


def np_unwrap_seeded(wrapped, dd, seed_row):
    """The seeded unwrap as two np.unwrap calls, outward from seed_row: the
    reference for delay_phase._unwrap_seeded, which reuses dd."""
    lower = np.unwrap(wrapped[: seed_row + 1][::-1], axis=0)[::-1]
    upper = np.unwrap(wrapped[seed_row:], axis=0)
    return np.concatenate([lower[:-1], upper], axis=0)


@given(
    subset=st.lists(st.integers(0, GRID.num_subcarriers - 1), min_size=2, max_size=GRID.num_subcarriers, unique=True),
    theta=st.floats(0.3, 2.5),
    width=st.floats(0.01, 0.5),
    range_m=st.floats(3.0, 60.0),
)
@example(subset=[10, 40], theta=1.2, width=0.05, range_m=20.0)
@example(subset=[0, 32, 64], theta=0.9, width=0.3, range_m=8.0)
@example(subset=list(range(65)), theta=np.pi / 3, width=np.pi / 9, range_m=20.0)
@settings(max_examples=150, deadline=None)
def test_seeded_unwrap_equals_np_unwrap_bit_for_bit(subset, theta, width, range_m):
    # K = 2, 3 and the full band among the examples: closed-loop specs are
    # 16-subcarrier subsets of a 65-subcarrier band
    spec = arc_trajectory_spec(GRID, Arc(theta, min(theta + width, 3.0), range_m), sorted(subset))
    try:
        cfg, rms = fit_trajectory(GEOM, GRID, spec)
    except IllConditionedSpecError:
        assume(False)
    with mock.patch.object(delay_phase, "_unwrap_seeded", np_unwrap_seeded):
        ref_cfg, ref_rms = fit_trajectory(GEOM, GRID, spec)
    assert cfg.delays_s.tobytes() == ref_cfg.delays_s.tobytes()
    assert cfg.phases_rad.tobytes() == ref_cfg.phases_rad.tobytes()
    assert rms == ref_rms


@given(
    rows=st.integers(2, 40),
    cols=st.integers(1, 8),
    seed_frac=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_seeded_unwrap_equals_np_unwrap_on_random_phases(rows, cols, seed_frac, seed):
    # phases that wind through many turns in steps of up to 2.9 rad, seeded
    # at any row: fitted specs rarely hit the differences' last bits, where
    # the remainders of -dd and dd part
    rng = np.random.default_rng(seed)
    wrapped = delay_phase._wrap(np.cumsum(rng.uniform(-2.9, 2.9, (rows, cols)), axis=0) + rng.uniform(-50, 50, cols))
    dd = np.diff(wrapped, axis=0)
    seed_row = int(seed_frac * rows)
    got = delay_phase._unwrap_seeded(wrapped, dd, seed_row)
    assert got.tobytes() == np_unwrap_seeded(wrapped, dd, seed_row).tobytes()


def percent_wrap(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def percent_wrap_fit(geom, grid, spec):
    """fit_trajectory as first written, every wrap a float %, the detrend
    three of them: the reference for the rint wraps. np.unwrap is its
    seeded unwrap, which _unwrap_seeded matched bit for bit."""
    ms = spec.subcarriers()
    pts = spec.points()
    freqs = grid.freqs(ms)
    dist = spherical_delay_matrix(geom, [p.delay_s() for p in pts], np.cos([p.angle_rad for p in pts]))
    targets = 2.0 * np.pi * freqs[:, None] * dist
    wrapped = percent_wrap(targets)
    if len(ms) == 1:
        return Beamformer(wrapped[0]), 0.0
    mid = len(ms) // 2
    trend = 2.0 * np.pi * freqs[:, None] * dist[mid][None, :]
    detrended = percent_wrap(wrapped - percent_wrap(trend))
    dd = np.diff(detrended, axis=0)
    if np.abs(percent_wrap(dd)).max() >= delay_phase._UNWRAP_GUARD:
        raise IllConditionedSpecError("unwrap")
    unwrapped = np_unwrap_seeded(detrended, dd, mid) + trend
    x = freqs - grid.center_hz
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise IllConditionedSpecError("one frequency")
    slopes = (xc @ unwrapped) / denom
    intercepts = unwrapped.mean(axis=0) - slopes * x.mean()
    delays = slopes / (2.0 * np.pi)
    phases = percent_wrap(intercepts - 2.0 * np.pi * grid.center_hz * delays)
    resid = percent_wrap(targets - (2.0 * np.pi * freqs[:, None] * delays[None, :] + phases[None, :]))
    return Beamformer(phases, delays - delays.min()), float(np.sqrt(np.mean(resid**2)))


# the closed loop's sensing subcarriers, and criterion 07's array and band
LOOP_SUBCARRIERS = sensing_subcarriers(GRID.num_subcarriers, 16).tolist()
CRITERION_07 = (ArrayGeometry.ula(512, WL / 2), CarrierGrid(FC, 129, 2.34375e8))


@given(
    setup=st.just((GEOM, GRID)),
    subset=st.one_of(
        st.just(LOOP_SUBCARRIERS),
        st.lists(st.integers(0, GRID.num_subcarriers - 1), min_size=16, max_size=16, unique=True),
        st.none(),  # the full band
    ),
    theta=st.floats(0.3, 2.5),
    width=st.floats(0.01, 0.5),
    range_m=st.floats(3.0, 60.0),
)
@example(setup=CRITERION_07, subset=None, theta=np.radians(60.0), width=np.radians(20.0), range_m=20.0)
@example(setup=(GEOM, GRID), subset=LOOP_SUBCARRIERS, theta=np.radians(68.5), width=np.radians(3.0), range_m=20.0)
@example(setup=(GEOM, GRID), subset=[3], theta=0.9, width=0.2, range_m=9.0)  # one point: one row wrapped
@settings(max_examples=120, deadline=None)
def test_fit_matches_the_percent_wrap_fit(setup, subset, theta, width, range_m):
    # the rint wraps move only low bits: the same specs raise, and the fits
    # agree far below any phase the front end can resolve
    geom, grid = setup
    ms = None if subset is None else sorted(subset)
    spec = arc_trajectory_spec(grid, Arc(theta, min(theta + width, 3.0), range_m), ms)
    try:
        ref, ref_rms = percent_wrap_fit(geom, grid, spec)
    except IllConditionedSpecError:
        with pytest.raises(IllConditionedSpecError):
            fit_trajectory(geom, grid, spec)
        return
    cfg, rms = fit_trajectory(geom, grid, spec)
    assert np.abs(percent_wrap(cfg.phases_rad - ref.phases_rad)).max() <= 1e-9
    assert np.abs(cfg.delays_s - ref.delays_s).max() <= 1e-21
    assert rms == pytest.approx(ref_rms, rel=1e-10, abs=0.0)


@given(st.floats(-1e7, 1e7))
@example(17 * np.pi)  # rounds past pi
@example(np.pi)
@example(-np.pi)
@example(0.0)
@settings(max_examples=300, deadline=None)
def test_wrap_moves_by_whole_turns_into_the_half_turn(x):
    # x - 2pi*rint(x/2pi) rounds three times, each by at most half an ulp
    # of about |x|: it stays x inside [-pi, pi] and may pass +-pi by that
    # much outside
    slack = 4.0 * abs(x) * np.finfo(float).eps
    y = float(delay_phase._wrap(np.array([x]))[0])
    if abs(x) <= np.pi:
        assert y == x
    assert abs(y) <= np.pi + slack
    with mpmath.workdps(60):
        turns = (mpmath.mpf(x) - mpmath.mpf(y)) / (2 * mpmath.pi)
        assert abs(turns - mpmath.nint(turns)) * 2 * mpmath.pi <= slack
