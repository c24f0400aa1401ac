"""Acceptance suite: every release gate in one place.

Each test prints exactly one [PASS]/[FAIL] line (visible without -s) and then
asserts its clauses, so a red run still shows the full scoreboard.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from nfisac.allocation import (
    SensingRequirement,
    partition_and_allocate,
    sensing_subcarriers,
)
from nfisac.arrays import (
    ArrayGeometry,
    CarrierGrid,
    PolarPoint,
    near_field_steering,
    rayleigh_distance,
)
from nfisac.codebook import PolarGrid, angular_spread
from nfisac.config import load_config
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.delay_phase import Arc, TrajectorySpec, arc_trajectory_spec, fit_trajectory
from nfisac.experiments import run_experiment
from nfisac.music import (
    collect_snapshots,
    music_localize,
    sample_covariance,
    single_source_peaks,
    snapshot_subspace,
)
from nfisac.squint import focal_points
from nfisac.tracking import TrackState, kalman_predict_update, xy_to_polar
from nfisac.wavenumber import (
    PlanarArray,
    calibrate_radius_range,
    estimate_position,
    extract_support,
    upa_snapshot,
    wavenumber_transform,
)
from oracles import dft_codeword, far_field_steering

FC = 3.0e11
WL = C / FC
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _emit(capsys, num, label, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {num:02d}: {label} | {detail}")


def test_criterion_01_near_field_phase_model(capsys):
    # far-field phases deviate from the exact spherical model by at most
    # pi/8 at the Rayleigh distance and become negligible far beyond it
    t0 = time.monotonic()
    geom = ArrayGeometry.ula(256, WL / 2)
    grid = CarrierGrid(FC, 1, 0.0)
    rd = rayleigh_distance(geom, grid)
    angles = np.linspace(0.0, np.pi, 2003)[1:-1]

    def max_phase_err(r):
        worst = 0.0
        for th in angles:
            p = PolarPoint(r, float(th))
            near = near_field_steering(geom, p, grid, 0)
            far = far_field_steering(geom, p, grid, 0)
            worst = max(worst, float(np.abs(np.angle(near * np.conj(far))).max()))
        return worst

    err_rayleigh = max_phase_err(rd)
    err_deep_far = max_phase_err(1e6 * geom.aperture_m())
    elapsed = time.monotonic() - t0
    ok = err_rayleigh < np.pi / 8 and err_deep_far < 1e-3 and elapsed < 1.0
    _emit(
        capsys, 1, "spherical vs planar phase error",
        ok,
        f"err(rayleigh)={err_rayleigh:.6f} < pi/8={np.pi / 8:.6f}, "
        f"err(1e6*aperture)={err_deep_far:.2e} < 1e-3, {elapsed:.2f}s",
    )
    assert err_rayleigh < np.pi / 8
    assert err_deep_far < 1e-3
    assert elapsed < 1.0


def test_criterion_02_wideband_focal_drift(capsys, tmp_path):
    # the shipped 512-element 30 GHz scenario walks the focal point by
    # degrees and meters; both deviations sit inside +/-40% design windows
    t0 = time.monotonic()
    cfg = load_config(str(CONFIG_DIR / "squint_deviation.yaml"))
    result = run_experiment(cfg, tmp_path / "out")
    dev_deg = np.degrees(result.summary["max_angle_deviation_rad"])
    dev_m = result.summary["max_range_deviation_m"]
    bounded = not result.summary["boundary_warning"]
    elapsed = time.monotonic() - t0
    ok = 4.2 <= dev_deg <= 9.8 and 3.6 <= dev_m <= 8.4 and bounded and elapsed < 120.0
    _emit(
        capsys, 2, "focal drift of a flat codeword",
        ok,
        f"angle dev {dev_deg:.2f} deg in [4.2, 9.8], "
        f"range dev {dev_m:.2f} m in [3.6, 8.4], {elapsed:.1f}s",
    )
    assert 4.2 <= dev_deg <= 9.8
    assert 3.6 <= dev_m <= 8.4
    assert bounded
    assert elapsed < 120.0


def test_criterion_03_far_field_squint_law(capsys):
    # an edge subcarrier of a 60-degrees-from-axis beam lands where
    # arccos((fc/f) cos(theta)) says, within one cell of a 4001-point scan
    t0 = time.monotonic()
    geom = ArrayGeometry.ula(512, WL / 2)
    grid = CarrierGrid(FC, 65, 4.6875e8)
    theta_c = np.pi / 3
    w = dft_codeword(geom, grid, theta_c)
    m_edge = 64
    f_edge = grid.freq(m_edge)
    angles = np.linspace(0.9, 1.25, 4001)
    gains = np.empty(angles.size)
    for i, th in enumerate(angles):
        a = far_field_steering(geom, PolarPoint(1.0e6, float(th)), grid, m_edge)
        gains[i] = abs(np.vdot(w.weights, a)) ** 2
    peak = angles[int(np.argmax(gains))]
    want = np.arccos(FC / f_edge * np.cos(theta_c))
    cell = angles[1] - angles[0]
    err_cells = abs(peak - want) / cell
    elapsed = time.monotonic() - t0
    ok = err_cells <= 1.0 and elapsed < 30.0
    _emit(
        capsys, 3, "edge-subcarrier squint law",
        ok,
        f"peak {peak:.6f} rad vs arccos((fc/f)cos60deg)={want:.6f}, "
        f"err {err_cells:.2f} cells <= 1, {elapsed:.1f}s",
    )
    assert err_cells <= 1.0
    assert elapsed < 30.0


def test_criterion_04_energy_concentration_vs_range(capsys):
    # inside the near field the beamspace energy of a point source smears;
    # every drawn angle concentrates strictly better at 10x Rayleigh than
    # at 0.05x
    t0 = time.monotonic()
    geom = ArrayGeometry.ula(256, WL / 2)
    grid = CarrierGrid(FC, 1, 0.0)
    rd = rayleigh_distance(geom, grid)
    rng = np.random.default_rng(np.random.SeedSequence((3, 0)))
    angles = np.arccos(rng.uniform(-0.9, 0.9, 10))
    near_fracs, far_fracs = [], []
    for th in angles:
        near_fracs.append(angular_spread(geom, grid, PolarPoint(0.05 * rd, float(th))))
        far_fracs.append(angular_spread(geom, grid, PolarPoint(10.0 * rd, float(th))))
    strict = all(n < f for n, f in zip(near_fracs, far_fracs))
    elapsed = time.monotonic() - t0
    ok = strict and elapsed < 10.0
    _emit(
        capsys, 4, "near-field beamspace spreading",
        ok,
        f"max near frac {max(near_fracs):.3f} < min far frac {min(far_fracs):.3f}, "
        f"strict for 10/10 angles, {elapsed:.1f}s",
    )
    assert strict
    assert elapsed < 10.0


def test_criterion_05_wavenumber_radius_calibration(capsys):
    # support radii shrink strictly with range, the calibrated inverse map
    # stays within half a sweep step at geometric midpoints, and a global
    # snapshot phase changes nothing, bit for bit
    t0 = time.monotonic()
    arr = PlanarArray(64, 64, 4 * WL, 4 * WL)
    broadside = np.pi / 2

    radii = []
    for r in [2.0, 4.0, 8.0, 16.0, 32.0]:
        snap = upa_snapshot(arr, PolarPoint(r, broadside), FC)
        radii.append(extract_support(wavenumber_transform(snap))[1])
    decreasing = all(b < a for a, b in zip(radii, radii[1:]))

    sweep = np.geomspace(2.0, 16.0, 9)
    table = calibrate_radius_range(arr, FC, broadside, sweep)
    probes = np.sqrt(sweep[:-1] * sweep[1:])
    worst_frac = 0.0
    for lo, hi, r in zip(sweep[:-1], sweep[1:], probes):
        est, _ = estimate_position(table, upa_snapshot(arr, PolarPoint(float(r), broadside), FC))
        worst_frac = max(worst_frac, abs(est.range_m - r) / ((hi - lo) / 2.0))
    within_half_step = worst_frac <= 1.0

    base = upa_snapshot(arr, PolarPoint(5.0, broadside), FC)
    est0, _ = estimate_position(table, base)
    bit_identical = True
    for phi in [0.7, 2.0313, 5.5]:
        est1, _ = estimate_position(table, base * np.exp(1j * phi))
        bit_identical &= est1.range_m == est0.range_m and est1.angle_rad == est0.angle_rad

    elapsed = time.monotonic() - t0
    ok = decreasing and within_half_step and bit_identical and elapsed < 60.0
    _emit(
        capsys, 5, "support-radius range map",
        ok,
        f"radii {['%.2f' % r for r in radii]} strictly decreasing, "
        f"worst midpoint err {worst_frac:.2f} of half-step, "
        f"phase-invariant={bit_identical}, {elapsed:.1f}s",
    )
    assert decreasing
    assert within_half_step
    assert bit_identical
    assert elapsed < 60.0


def test_criterion_06_subspace_localization(capsys):
    # noiseless: the on-grid source comes back exactly; at 20 dB with 256
    # snapshots, 100 trials stay within 2 grid cells RMSE in both axes
    t0 = time.monotonic()
    geom = ArrayGeometry.ula(256, WL / 2)
    grid = CarrierGrid(FC, 1, 0.0)
    angles = np.linspace(0.0, np.pi, 183)[1:-1]
    ranges = np.geomspace(4.0, 40.0, 60)

    pg = PolarGrid(angles, ranges)
    truth = PolarPoint(float(ranges[30]), float(angles[120]))
    assert truth.angle_rad == pytest.approx(2.088641269694313, abs=1e-12)
    assert truth.range_m == pytest.approx(12.898362181185576, abs=1e-12)

    x = collect_snapshots(geom, grid, [truth], 32, 0.0, seed=11)
    exact = music_localize(sample_covariance(x), geom, grid, pg, 1)
    noiseless_exact = (
        len(exact) == 1
        and exact[0].angle_rad == truth.angle_rad
        and exact[0].range_m == truth.range_m
    )

    bases = (
        snapshot_subspace(
            collect_snapshots(geom, grid, [truth], 256, 0.01, seed=np.random.SeedSequence((11, tr))), 1
        )
        for tr in range(100)
    )
    errs = []
    for peak, _ in single_source_peaks(bases, geom, grid, pg):
        errs.append((peak.angle_rad - truth.angle_rad, peak.range_m - truth.range_m))
    errs = np.array(errs)
    rmse_angle = float(np.sqrt(np.mean(errs[:, 0] ** 2)))
    rmse_range = float(np.sqrt(np.mean(errs[:, 1] ** 2)))
    cell_angle = angles[1] - angles[0]
    cell_range = ranges[31] - ranges[30]
    elapsed = time.monotonic() - t0
    ok = (
        noiseless_exact
        and rmse_angle <= 2 * cell_angle
        and rmse_range <= 2 * cell_range
        and elapsed < 120.0
    )
    _emit(
        capsys, 6, "subspace point localization",
        ok,
        f"noiseless exact={noiseless_exact}, 20 dB RMSE "
        f"{rmse_angle:.2e} rad (cell {cell_angle:.2e}) / {rmse_range:.3f} m "
        f"(cell {cell_range:.3f}), 100 trials, {elapsed:.1f}s",
    )
    assert noiseless_exact
    assert rmse_angle <= 2 * cell_angle
    assert rmse_range <= 2 * cell_range
    assert elapsed < 120.0


def test_criterion_07_beam_trajectory_tracking(capsys):
    # a delay-phase fit pins one point exactly; across a 60-to-80 degree
    # arc at 20 m, at least 90% of per-subcarrier focal points stay within
    # 1 degree and 1 meter of the request
    t0 = time.monotonic()
    geom = ArrayGeometry.ula(512, WL / 2)
    grid = CarrierGrid(FC, 129, 2.34375e8)

    single = TrajectorySpec(((64, PolarPoint(20.0, np.radians(70.0))),))
    _, rms_single = fit_trajectory(geom, grid, single)

    arc = Arc(np.radians(60.0), np.radians(80.0), 20.0)
    cfg, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, arc))
    pg = PolarGrid(np.linspace(np.radians(56.0), np.radians(84.0), 261), np.geomspace(14.0, 28.0, 90))
    traj = focal_points(geom, grid, cfg, pg)
    # the range screen skips most of the grid: 8 495 of 23 490 points screened
    assert traj.evaluated_points < 12_120
    assert traj.evaluated_points == 8495
    # and a few float64 gains decide each subcarrier's focal point
    assert traj.confirmed_points.max() <= 12
    m_top = grid.num_subcarriers - 1
    hits = sum(
        abs(p.angle_rad - arc.angle_at(m / m_top)) <= np.radians(1.0) and abs(p.range_m - 20.0) <= 1.0
        for m, p in enumerate(traj.points)
    )
    frac = hits / grid.num_subcarriers
    elapsed = time.monotonic() - t0
    ok = rms_single < 1e-6 and frac >= 0.90 and elapsed < 120.0
    _emit(
        capsys, 7, "delay-phase beam trajectory",
        ok,
        f"single-point residual {rms_single:.1e} < 1e-6, "
        f"{frac:.1%} of 129 subcarriers within 1 deg and 1 m (need 90%), "
        f"{elapsed:.1f}s",
    )
    assert rms_single < 1e-6
    assert frac >= 0.90
    assert elapsed < 120.0


def test_criterion_08_tracking_rmse_vs_snr(capsys, tmp_path):
    # trajectory-probed sensing beats slot-swept beams at every SNR, all
    # curves improve with SNR, and the shared-waveform penalty at 30 dB is
    # at most 1.5x the sensing-only floor
    t0 = time.monotonic()
    cfg = load_config(str(CONFIG_DIR / "rmse_vs_snr.yaml"))
    assert cfg.trials == 200
    result = run_experiment(cfg, tmp_path / "out")
    rmse = result.records["rmse"]
    snrs = sorted({k[0] for k in rmse})
    schemes = ("sensing-only", "isac", "conventional")
    ordering = all(
        rmse[(s, "sensing-only")] <= rmse[(s, "isac")] <= rmse[(s, "conventional")]
        for s in snrs
    )
    monotone = all(
        rmse[(a, sch)] >= rmse[(b, sch)]
        for sch in schemes
        for a, b in zip(snrs, snrs[1:])
    )
    ratio30 = rmse[(30.0, "isac")] / rmse[(30.0, "sensing-only")]
    elapsed = time.monotonic() - t0
    ok = ordering and monotone and ratio30 <= 1.5 and elapsed < 600.0
    _emit(
        capsys, 8, "angle RMSE vs SNR ordering",
        ok,
        f"sensing-only <= isac <= conventional at {len(snrs)} SNRs: {ordering}, "
        f"monotone: {monotone}, 30 dB isac/sensing ratio {ratio30:.3f} <= 1.5, "
        f"200 trials, {elapsed:.1f}s",
    )
    assert ordering
    assert monotone
    assert ratio30 <= 1.5
    assert elapsed < 600.0


def test_criterion_09_rate_retention_with_sensing(capsys, tmp_path):
    # reserving 4 of 65 subcarriers for sensing keeps at least 90% of the
    # no-sensing sum rate on every one of the 50 channel draws
    t0 = time.monotonic()
    cfg = load_config(str(CONFIG_DIR / "rate_vs_sensing_budget.yaml"))
    assert cfg.trials == 50
    result = run_experiment(cfg, tmp_path / "out")
    worst = result.summary["min_ratio_by_count"]["4"]
    elapsed = time.monotonic() - t0
    ok = worst >= 0.90 and elapsed < 60.0
    _emit(
        capsys, 9, "sum-rate retention at 4 sensing subcarriers",
        ok,
        f"worst ratio over 50 draws {worst:.4f} >= 0.90, {elapsed:.1f}s",
    )
    assert worst >= 0.90
    assert elapsed < 60.0


def test_criterion_10_allocation_exactness(capsys):
    # on a 2-user 6-subcarrier fixture, greedy assignment plus water-filling
    # lands within 2% of the exhaustive assignment optimum
    t0 = time.monotonic()
    gains = np.array(
        [
            [0.8, 1.1, 0.3, 1.2, 0.2, 0.5],
            [0.6, 0.9, 1.2, 0.7, 1.1, 0.8],
        ]
    )
    sreq = SensingRequirement(2, 1.0)
    total, noise = 12.0, 1.0
    rate = float(partition_and_allocate(gains, sreq, total, noise).rates)

    def exact_water_fill(g, budget):
        floors = np.sort(noise / g)
        for k in range(g.size, 0, -1):
            mu = (budget + floors[:k].sum()) / k
            if mu >= floors[k - 1] and (k == g.size or mu <= floors[k]):
                return np.maximum(0.0, mu - noise / g)
        raise AssertionError("no active set")

    sensing = set(sensing_subcarriers(6, 2).tolist())
    comm = [m for m in range(6) if m not in sensing]
    budget = total - 2 * 1.0
    best = 0.0
    for code in range(2 ** len(comm)):
        owners = [(code >> k) & 1 for k in range(len(comm))]
        g = np.array([gains[u][m] for u, m in zip(owners, comm)])
        p = exact_water_fill(g, budget)
        best = max(best, float(np.log2(1.0 + p * g / noise).sum()))
    gap = abs(rate - best) / best
    elapsed = time.monotonic() - t0
    ok = gap <= 0.02 and elapsed < 60.0
    _emit(
        capsys, 10, "allocation vs exhaustive optimum",
        ok,
        f"rate {rate:.6f} vs best {best:.6f} bps/Hz, gap {gap:.2e} <= 2%, "
        f"{elapsed:.1f}s",
    )
    assert gap <= 0.02
    assert elapsed < 60.0


def test_criterion_11_kalman_track_quality(capsys):
    # noise-free constant velocity integrates exactly; with noisy polar
    # measurements the filtered endpoint beats dead reckoning in RMSE over
    # 100 tracks
    t0 = time.monotonic()
    ts = TrackState(np.array([1.0, 2.0, 0.3, -0.1]), np.zeros((4, 4)))
    for _ in range(1000):
        ts = kalman_predict_update(ts, 0.1, None, 0.0, (0.0, 0.0))
    exact = (
        abs(ts.state[0] - 31.0) < 1e-9
        and abs(ts.state[1] - (-8.0)) < 1e-9
        and abs(ts.state[2] - 0.3) < 1e-12
        and abs(ts.state[3] + 0.1) < 1e-12
    )

    rng = np.random.default_rng(11)
    dt, steps, sig_r, sig_th = 0.1, 60, 0.05, 0.05
    err_f, err_o = [], []
    for _ in range(100):
        pos = np.array([0.0, 15.0])
        vel = np.array([0.8, -0.3])
        ts = TrackState(
            np.concatenate([pos, vel]) + rng.normal(0.0, 0.1, 4),
            np.diag([0.5, 0.5, 0.2, 0.2]),
        )
        open_loop = ts.state.copy()
        for _ in range(steps):
            pos = pos + vel * dt
            true_polar = xy_to_polar(pos[0], pos[1])
            meas = PolarPoint(
                true_polar.range_m + rng.normal(0.0, sig_r),
                true_polar.angle_rad + rng.normal(0.0, sig_th),
            )
            ts = kalman_predict_update(ts, dt, meas, 1e-3, (sig_r, sig_th))
            open_loop[:2] += open_loop[2:] * dt
        err_f.append(float(np.linalg.norm(ts.state[:2] - pos)))
        err_o.append(float(np.linalg.norm(open_loop[:2] - pos)))
    rmse_f = float(np.sqrt(np.mean(np.array(err_f) ** 2)))
    rmse_o = float(np.sqrt(np.mean(np.array(err_o) ** 2)))
    elapsed = time.monotonic() - t0
    ok = exact and rmse_f < rmse_o and elapsed < 30.0
    _emit(
        capsys, 11, "constant-velocity tracking",
        ok,
        f"noise-free exact to 1e-9 over 1000 steps: {exact}, filtered RMSE "
        f"{rmse_f:.3f} m < open-loop {rmse_o:.3f} m over 100 tracks, "
        f"{elapsed:.1f}s",
    )
    assert exact
    assert rmse_f < rmse_o
    assert elapsed < 30.0


def test_criterion_12_byte_identical_reruns(capsys, tmp_path):
    # the same config and seed must reproduce every artifact byte for byte
    t0 = time.monotonic()
    cfg = load_config(str(CONFIG_DIR / "angular_spread.yaml"))
    res_a = run_experiment(cfg, tmp_path / "a")
    res_b = run_experiment(cfg, tmp_path / "b")
    names = sorted(res_a.csv_files) + ["meta.json", "plot.json"]
    identical = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names
    )
    elapsed = time.monotonic() - t0
    ok = identical and res_a.csv_files == res_b.csv_files and elapsed < 60.0
    _emit(
        capsys, 12, "deterministic artifacts",
        ok,
        f"{len(names)} files byte-identical across reruns: {identical}, "
        f"{elapsed:.1f}s",
    )
    assert identical
    assert res_a.csv_files == res_b.csv_files
    assert elapsed < 60.0
