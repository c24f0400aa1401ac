"""Echo synthesis and the three-point refined angle estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nfisac.arrays import ArrayGeometry, CarrierGrid, PolarPoint, near_field_steering, spherical_delays
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.delay_phase import Arc, apply_delay_phase, arc_trajectory_spec, fit_trajectory
from nfisac.echoes import parabolic_refine, peak_angle, sense_from_echoes, simulate_echoes

FC = 3.0e11
WL = C / FC


def scalar_parabolic_refine(values, k):
    """One vector's offset as scalar arithmetic: the reference."""
    if k == 0 or k == len(values) - 1:
        return 0.0
    den = values[k - 1] - 2.0 * values[k] + values[k + 1]
    if den >= 0:
        return 0.0
    return float(np.clip(0.5 * (values[k - 1] - values[k + 1]) / den, -0.5, 0.5))


def scalar_peak_angle(angles, stat):
    """One vector's refined peak angle as scalar arithmetic: the reference."""
    k = int(np.argmax(stat))
    off = scalar_parabolic_refine(stat, k)
    if off == 0.0:
        return float(angles[k])
    return float(angles[k] + off * ((angles[k + 1] - angles[k - 1]) / 2.0))


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# small integers make ties, plateaus and edge peaks common; the floats do not
stat_values = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3))


@st.composite
def stat_stacks(draw):
    """(angles, stat, k): uneven ascending angles, a (B, S, K) statistic
    with K >= 3, and an arbitrary index per vector (so non-concave triples)."""
    b, s, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(3, 9))
    angles = np.cumsum(draw(arrays(float, k, elements=st.floats(1e-3, 0.5)))) + 0.5
    stat = draw(arrays(float, (b, s, k), elements=stat_values))
    if draw(st.booleans()):  # force a peak onto an edge of some vectors
        stat[..., draw(st.sampled_from([0, k - 1]))] = 2e3
    idx = draw(arrays(np.intp, (b, s), elements=st.integers(0, k - 1)))
    return angles, stat, idx


@given(stat_stacks())
@settings(max_examples=200, deadline=None)
def test_stacked_peak_angle_equals_per_vector_calls(case):
    # the trial-blocked experiments estimate (trial, SNR, K) stacks at once;
    # each estimate must be bit for bit the single vector's, and that the
    # scalar reference's
    angles, stat, idx = case
    got = peak_angle(angles, stat)
    off = parabolic_refine(stat, idx)
    assert got.shape == off.shape == stat.shape[:2]
    for i in np.ndindex(*stat.shape[:2]):
        one = peak_angle(angles, stat[i])
        assert isinstance(one, float)
        assert same_bits(got[i], one)
        assert same_bits(one, scalar_peak_angle(angles, stat[i]))
        one_off = parabolic_refine(stat[i], int(idx[i]))
        assert same_bits(off[i], one_off)
        assert same_bits(one_off, scalar_parabolic_refine(stat[i], int(idx[i])))


def test_parabolic_refine_recovers_sampled_quadratic_peak():
    # samples of c - (x - x0)^2 on the integer lattice refine to x0 exactly
    for x0 in [3.3, 4.0, 2.5, 3.86]:
        x = np.arange(7, dtype=float)
        vals = 5.0 - (x - x0) ** 2
        k = int(np.argmax(vals))
        off = parabolic_refine(vals, k)
        assert k + off == pytest.approx(x0, abs=1e-12)


def test_parabolic_refine_edge_and_flat_cases():
    vals = np.array([3.0, 2.0, 1.0])
    assert parabolic_refine(vals, 0) == 0.0
    assert parabolic_refine(vals, 2) == 0.0
    flat = np.ones(5)
    assert parabolic_refine(flat, 2) == 0.0


@given(st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_parabolic_refine_offset_is_clipped(x0):
    x = np.arange(9, dtype=float)
    vals = 10.0 - np.abs(x - 4.0 - x0) ** 1.2
    off = parabolic_refine(vals, 4)
    assert -0.5 <= off <= 0.5


def test_all_zero_echoes_mean_no_detection():
    angles = np.linspace(1.0, 1.3, 8)
    assert sense_from_echoes(angles, np.zeros(8, dtype=complex), np.ones(8)) is None


def test_estimator_input_validation():
    with pytest.raises(ValueError, match="at least 3"):
        sense_from_echoes(np.array([1.0, 1.1]), np.ones(2, dtype=complex), np.ones(2))
    with pytest.raises(ValueError, match="align"):
        sense_from_echoes(np.linspace(1.0, 1.2, 4), np.ones(3, dtype=complex), np.ones(4))


def test_estimate_invariant_to_common_echo_scaling():
    angles = np.linspace(1.0, 1.3, 16)
    rng = np.random.default_rng(4)
    echoes = rng.normal(size=16) + 1j * rng.normal(size=16)
    est0 = sense_from_echoes(angles, echoes, np.ones(16))
    est1 = sense_from_echoes(angles, echoes * (2.0 - 1.5j), np.ones(16))
    assert est0 == pytest.approx(est1, abs=1e-12)


def test_noiseless_sweep_recovers_target_angle():
    # a delay-phase sweep across an arc, probed on 16 sensing subcarriers,
    # places the echo peak at the subcarrier pointing at the target
    geom = ArrayGeometry.ula(128, WL / 2)
    grid = CarrierGrid(FC, 65, 4.6875e8)
    arc = Arc(np.pi / 3, np.pi * 4 / 9, 20.0)
    cfg, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, arc))
    sensing_m = np.round(np.linspace(0, 64, 16)).astype(int)
    arc_angles = np.array([arc.angle_at(m / 64.0) for m in sensing_m])
    target = PolarPoint(20.0, arc.angle_at(0.55))
    powers = np.full(16, 2.0)
    echoes = simulate_echoes(
        geom, grid, cfg, sensing_m, target, 0.8 + 0.3j, powers,
        0.0, np.random.default_rng(0),
    )
    est = sense_from_echoes(arc_angles, echoes, powers)
    step = arc_angles[1] - arc_angles[0]
    assert abs(est - target.angle_rad) < step


def test_echo_power_shape_validation():
    geom = ArrayGeometry.ula(16, WL / 2)
    grid = CarrierGrid(FC, 5, 1e8)
    arc = Arc(1.0, 1.2, 10.0)
    cfg, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, arc))
    with pytest.raises(ValueError, match="per sensing subcarrier"):
        simulate_echoes(
            geom, grid, cfg, [0, 2, 4], PolarPoint(10.0, 1.1), 1.0,
            np.ones(2), 0.0, np.random.default_rng(0),
        )


def test_echoes_are_deterministic_given_rng_state():
    geom = ArrayGeometry.ula(16, WL / 2)
    grid = CarrierGrid(FC, 5, 1e8)
    arc = Arc(1.0, 1.2, 10.0)
    cfg, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, arc))
    args = (geom, grid, cfg, [0, 2, 4], PolarPoint(10.0, 1.1), 1.0, np.ones(3))
    e0 = simulate_echoes(*args, 0.05, np.random.default_rng(33))
    e1 = simulate_echoes(*args, 0.05, np.random.default_rng(33))
    assert np.array_equal(e0, e1)


def test_noiseless_echoes_match_per_subcarrier_weights():
    # the one-pass gains on the front end's shifted delays equal the gains of
    # the weights the front end realizes at each sensing subcarrier against
    # the steering vector there. At 20 m each element's phase 2 pi f tau is
    # about 1.3e5 rad, which both forms round to ~1e-11 rad in their own way,
    # so the difference is absolute, not relative to each echo: against a
    # 40-digit evaluation both forms stay within 2e-12 sqrt(N), the peak gain
    geom = ArrayGeometry.ula(128, WL / 2)
    grid = CarrierGrid(FC, 65, 4.6875e8)
    arc = Arc(np.pi / 3, np.pi * 4 / 9, 20.0)
    sensing_m = np.round(np.linspace(0, 64, 16)).astype(int)
    cfg, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, arc))
    for s in np.linspace(0.0, 1.0, 11):
        target = PolarPoint(20.0 + 3.0 * s, arc.angle_at(s))
        echoes = simulate_echoes(
            geom, grid, cfg, sensing_m, target, 1.0, np.ones(16), 0.0, np.random.default_rng(0)
        )
        old = [
            abs(np.vdot(apply_delay_phase(cfg, grid, int(m)).weights, near_field_steering(geom, target, grid, int(m))))
            for m in sensing_m
        ]
        np.testing.assert_allclose(echoes.real, old, rtol=0.0, atol=4e-12 * np.sqrt(128))
        assert np.all(echoes.imag == 0.0)


def test_an_echo_does_not_depend_on_the_subcarriers_simulated_with_it():
    # each sensing subcarrier's echo, simulated alone, has the bits of its
    # entry in a 17-subcarrier call: a product of one steering row must not
    # take BLAS's dot where a product of many takes its matrix-vector kernel
    geom = ArrayGeometry.ula(128, WL / 2)
    grid = CarrierGrid(FC, 65, 4.6875e8)
    arc = Arc(np.pi / 3, np.pi * 4 / 9, 20.0)
    sensing_m = np.round(np.linspace(0, 64, 17)).astype(int)
    w, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, arc))
    rng = np.random.default_rng(0)
    for s in np.linspace(0.0, 1.0, 40):
        target = PolarPoint(20.0 + 3.0 * s, arc.angle_at(s))
        together = simulate_echoes(geom, grid, w, sensing_m, target, 0.8 + 0.3j, np.ones(17), 0.0, rng)
        for m, echo in zip(sensing_m, together):
            alone = simulate_echoes(geom, grid, w, [m], target, 0.8 + 0.3j, np.ones(1), 0.0, rng)
            assert alone.tobytes() == echo.tobytes()


def test_noiseless_echoes_match_exp_on_shifted_delays():
    # simulate_echoes takes table phasors of f_m (tau_n - d_n) rather than
    # np.exp(-2j pi f_m (tau_n - d_n)); both round a phase of ~1e5 rad to
    # ~1e-11 rad, so on random arcs, uneven sensing subsets and powers the
    # beam gains agree within 1e-11 of sqrt(N), the peak
    geom = ArrayGeometry.ula(128, WL / 2)
    grid = CarrierGrid(FC, 65, 4.6875e8)
    rng = np.random.default_rng(4)
    for _ in range(8):
        sensing_m = np.sort(rng.choice(grid.num_subcarriers, 16, replace=False))
        theta = rng.uniform(0.6, 2.4)
        arc = Arc(theta, theta + 0.05, rng.uniform(8.0, 40.0))
        w, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, arc, sensing_m))
        powers = rng.uniform(0.5, 2.0, 16)
        for s in np.linspace(0.0, 1.0, 5):
            target = PolarPoint(arc.range_m + rng.uniform(-1.0, 1.0), arc.angle_at(s))
            echoes = simulate_echoes(geom, grid, w, sensing_m, target, 1.0, powers, 0.0, rng)
            shifted = spherical_delays(geom, target) - w.delays_s
            a = np.exp(-2j * np.pi * grid.freqs(sensing_m)[:, None] * shifted)
            np.testing.assert_allclose(
                echoes.real / np.sqrt(powers), np.abs(a @ np.conj(w.weights)), rtol=0.0, atol=1e-11 * np.sqrt(128)
            )
            assert np.all(echoes.imag == 0.0)


def test_sensing_subcarrier_indices_are_range_checked():
    # a negative index must not wrap around to the top of the band
    geom = ArrayGeometry.ula(16, WL / 2)
    grid = CarrierGrid(FC, 5, 1e8)
    cfg, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, Arc(1.0, 1.2, 10.0)))
    for sensing_m in ([-1, 2, 4], [0, 2, 5]):
        with pytest.raises(IndexError):
            simulate_echoes(
                geom, grid, cfg, sensing_m, PolarPoint(10.0, 1.1), 1.0,
                np.ones(3), 0.0, np.random.default_rng(0),
            )
