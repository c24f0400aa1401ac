"""Runnable experiments: deterministic, config-driven, CSV-producing.

Every experiment is a function (config, outdir) -> ExperimentResult.  All
randomness is derived from the config's master seed; per-trial streams use
``np.random.SeedSequence((master_seed, *indices))`` so trials are independent
of execution order and of each other.  Output CSVs are byte-stable across
runs and platforms (floats serialized via repr, LF newlines, no timestamps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .allocation import SensingRequirement, partition_and_allocate, sensing_subcarriers
from .arrays import ArrayGeometry, CarrierGrid, PolarPoint, gains, rayleigh_distance, steering_chunks
from .codebook import angular_spread, polar_codeword, spread_ranges
from .config import EXPERIMENT_SECTIONS, ScenarioConfig
from .constants import SPEED_OF_LIGHT as C
from .csvio import write_csv, write_plot_description, write_sidecar
from .delay_phase import subcarrier_weights
from .echoes import peak_angle
from .music import single_source_peaks, snapshot_subspace, snapshot_trials
from .squint import focal_points, squint_deviation
from .wavenumber import upa_rayleigh_distance


@dataclass
class ExperimentResult:
    name: str
    summary: dict
    csv_files: list[str] = field(default_factory=list)
    records: dict = field(default_factory=dict)


def _trial_rng(master_seed: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, *indices)))


def _complex_normal(rng: np.random.Generator, shape, power: float = 1.0) -> np.ndarray:
    scale = math.sqrt(power / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# squint-deviation: focal-point drift of a fixed polar codeword across the band
# ---------------------------------------------------------------------------


def run_squint_deviation(cfg: ScenarioConfig, outdir) -> ExperimentResult:
    geom = cfg.ula
    grid = cfg.carrier
    design = cfg.design
    w = polar_codeword(geom, grid, design)
    traj = focal_points(geom, grid, w, cfg.grid)
    dev_angle, dev_range = squint_deviation(traj, design)

    rows = []
    for m, p in enumerate(traj.points):
        rows.append((m, grid.freq(m), p.angle_rad, p.range_m, float(traj.gains[m])))
    write_csv(outdir / "trajectory.csv", ["m", "freq_hz", "angle_rad", "range_m", "gain"], rows)

    summary = {
        "num_subcarriers": grid.num_subcarriers,
        "bandwidth_hz": grid.bandwidth_hz(),
        "design_angle_rad": design.angle_rad,
        "design_range_m": design.range_m,
        "max_angle_deviation_rad": dev_angle,
        "max_range_deviation_m": dev_range,
        "boundary_warning": traj.boundary_warning,
        "rayleigh_distance_m": rayleigh_distance(geom, grid),
    }
    write_plot_description(
        outdir,
        {
            "kind": "polar_trajectory",
            "csv": "trajectory.csv",
            "x": "angle_rad",
            "y": "range_m",
            "color": "freq_hz",
            "title": "Focal point per subcarrier for a fixed polar codeword",
        },
    )
    return ExperimentResult(
        "squint-deviation", summary, ["trajectory.csv"], {"trajectory": traj}
    )


# ---------------------------------------------------------------------------
# angular-spread: energy spread of spherical wavefronts in the DFT domain
# ---------------------------------------------------------------------------


def run_angular_spread(cfg: ScenarioConfig, outdir) -> ExperimentResult:
    geom = cfg.ula
    grid = cfg.carrier
    rng = _trial_rng(cfg.seed, 0)
    num_angles = cfg.trials
    rd = rayleigh_distance(geom, grid)

    # Draw broadside-ish angles; extreme endfire makes the DFT basis degenerate
    # for any range, which would mask the near/far contrast under study.
    angles = np.arccos(rng.uniform(-0.9, 0.9, size=num_angles))
    ranges = spread_ranges(rd)

    rows = []
    near_fracs = []
    far_fracs = []
    for ia, th in enumerate(sorted(angles)):
        for r in ranges:
            frac = angular_spread(geom, grid, PolarPoint(float(r), float(th)))
            rows.append((ia, float(th), float(r), float(r) / rd, frac))
            if math.isclose(r, ranges[0]):
                near_fracs.append(frac)
            if math.isclose(r, ranges[-1]):
                far_fracs.append(frac)
    write_csv(
        outdir / "spread.csv",
        ["angle_id", "angle_rad", "range_m", "range_over_rayleigh", "peak_energy_fraction"],
        rows,
    )

    summary = {
        "rayleigh_distance_m": rd,
        "num_angles": num_angles,
        "near_range_m": float(ranges[0]),
        "far_range_m": float(ranges[-1]),
        "max_near_fraction": max(near_fracs),
        "min_far_fraction": min(far_fracs),
    }
    write_plot_description(
        outdir,
        {
            "kind": "line",
            "csv": "spread.csv",
            "x": "range_over_rayleigh",
            "y": "peak_energy_fraction",
            "group": "angle_id",
            "xscale": "log",
            "title": "Peak DFT-bin energy fraction vs range",
        },
    )
    return ExperimentResult("angular-spread", summary, ["spread.csv"], {})


# ---------------------------------------------------------------------------
# wavenumber-calibration: support radius vs range for a planar array
# ---------------------------------------------------------------------------


def run_wavenumber_calibration(cfg: ScenarioConfig, outdir) -> ExperimentResult:
    table = cfg.table
    write_csv(
        outdir / "calibration.csv",
        ["range_m", "radius_bins"],
        list(zip(table.ranges_m.tolist(), table.radii_bins.tolist())),
    )

    rows = []
    errs = []
    for probe, est, diag in cfg.readouts:
        err = abs(est.range_m - probe.range_m)
        errs.append(err)
        rows.append((probe.range_m, est.range_m, err, diag["radius_bins"], est.angle_rad))
    write_csv(
        outdir / "estimates.csv",
        ["true_range_m", "est_range_m", "abs_error_m", "radius_bins", "est_angle_rad"],
        rows,
    )

    summary = {
        "freq_hz": table.freq_hz,
        "num_calibration_points": table.ranges_m.size,
        "threshold_frac": table.threshold_frac,
        "rayleigh_distance_m": upa_rayleigh_distance(table.arr, table.freq_hz),
        "radius_min_bins": float(table.radii_bins[-1]),
        "radius_max_bins": float(table.radii_bins[0]),
        "max_midpoint_error_m": max(errs),
    }
    write_plot_description(
        outdir,
        {
            "kind": "line",
            "csv": "calibration.csv",
            "x": "range_m",
            "y": "radius_bins",
            "xscale": "log",
            "title": "Wavenumber support radius vs source range",
        },
    )
    return ExperimentResult("wavenumber-calibration", summary, ["calibration.csv", "estimates.csv"], {})


# ---------------------------------------------------------------------------
# music-vs-wavenumber: subspace search against the FFT-domain shortcut
# ---------------------------------------------------------------------------


def run_music_vs_wavenumber(cfg: ScenarioConfig, outdir) -> ExperimentResult:
    """MUSIC trials per target against validation's wavenumber readouts.

    Trial tr of target k draws its snapshots from SeedSequence((seed, k, tr))
    through music.snapshot_trials, which draws trial tr + 1 on a helper
    thread, one for all the target's trials, while this thread takes trial
    tr's one-source signal subspace; the trials' bases then share one
    certified peak search. Every row has the bits of drawing and reducing
    its trial alone, in trial order, however the threads are timed.
    """
    geom = cfg.ula
    grid = cfg.carrier
    msec = cfg.section("music")
    targets = cfg.targets
    snap_count = int(msec["snapshot_count"])
    noise_power = float(msec["noise_power_w"])
    trials = cfg.trials

    rows = []
    music_errs = []
    for k, target in enumerate(targets):
        # trials stream into one certified peak search per target, each as
        # the one-source signal subspace of its snapshots
        seeds = (np.random.SeedSequence((cfg.seed, k, tr)) for tr in range(trials))
        bases = (
            snapshot_subspace(x, 1)
            for x in snapshot_trials(geom, grid, [target], snap_count, noise_power, seeds)
        )
        for tr, (est, _) in enumerate(single_source_peaks(bases, geom, grid, cfg.grid)):
            err_r = abs(est.range_m - target.range_m)
            err_a = abs(est.angle_rad - target.angle_rad)
            music_errs.append((err_a, err_r))
            rows.append(
                ("music", k, tr, target.angle_rad, target.range_m, est.angle_rad, est.range_m)
            )

    # The planar-array readout is noiseless and deterministic: one row per
    # target, the readout validation made.
    wn_errs = []
    for k, (target, est, _) in enumerate(cfg.readouts):
        wn_errs.append((abs(est.angle_rad - target.angle_rad), abs(est.range_m - target.range_m)))
        rows.append(
            ("wavenumber", k, 0, target.angle_rad, target.range_m, est.angle_rad, est.range_m)
        )

    write_csv(
        outdir / "results.csv",
        ["method", "target_id", "trial", "true_angle_rad", "true_range_m", "est_angle_rad", "est_range_m"],
        rows,
    )

    ma = np.array(music_errs)
    wa = np.array(wn_errs)
    summary = {
        "num_targets": len(targets),
        "trials": trials,
        "snapshot_count": snap_count,
        "noise_power_w": noise_power,
        "music_rmse_angle_rad": float(np.sqrt(np.mean(ma[:, 0] ** 2))),
        "music_rmse_range_m": float(np.sqrt(np.mean(ma[:, 1] ** 2))),
        "wavenumber_max_err_angle_rad": float(wa[:, 0].max()),
        "wavenumber_max_err_range_m": float(wa[:, 1].max()),
    }
    write_plot_description(
        outdir,
        {
            "kind": "scatter",
            "csv": "results.csv",
            "x": "est_angle_rad",
            "y": "est_range_m",
            "group": "method",
            "title": "Localization estimates by method",
        },
    )
    return ExperimentResult("music-vs-wavenumber", summary, ["results.csv"], {})


# ---------------------------------------------------------------------------
# rmse-vs-snr: beam-squint-assisted sensing against two baselines
# ---------------------------------------------------------------------------


# trials whose estimates are formed together; each keeps its own stream
_TRIAL_BLOCK = 8
_SCHEMES = ("isac", "sensing-only", "conventional")


def _echo_power(y: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """|y + noise|^2 per probe, y's echoes overwritten in place."""
    y += noise
    power = np.abs(y)
    return np.square(power, out=power)


def _beam_gains(
    geom: ArrayGeometry, grid: CarrierGrid, w_ttd: np.ndarray, w_ps: np.ndarray, range_m: float, angles
) -> np.ndarray:
    """|w^H a_m| at the points (range_m, angle) for every subcarrier m.

    w_ttd holds one weight row per subcarrier (a front end's weights there)
    and w_ps the rows of frequency-flat codewords. Returns shape
    (len(angles), 1 + len(w_ps), M): along axis 1 the gain of w_ttd[m], then
    of each codeword. The manifold comes from steering_chunks, one phasor
    pass at the lowest subcarrier and a recurrence across the band, and each
    subcarrier takes one product (arrays.gains) of the points' steering rows
    with its (N, 1 + len(w_ps)) weight columns, so every point's gains keep
    their bits however the points are grouped.
    """
    angles = np.asarray(angles, dtype=float)
    taus = np.full(angles.size, range_m / C)
    wcols = np.empty((geom.num_elements, 1 + len(w_ps)), dtype=complex)
    np.conj(w_ps.T, out=wcols[:, 1:])
    wc_ttd = np.conj(w_ttd)
    g = np.empty((grid.num_subcarriers, angles.size, wcols.shape[1]))
    for lo, hi, rows in steering_chunks(geom, grid, taus, np.cos(angles)):
        for m, _, a in rows:
            wcols[:, 0] = wc_ttd[m]
            gains(a, wcols, out=g[m, lo:hi])
    # (point, weight, subcarrier) in C order: sums over subcarriers then run
    # along contiguous rows, as they do on one point's gains
    return np.ascontiguousarray(g.transpose(1, 2, 0))


def run_rmse_vs_snr(cfg: ScenarioConfig, outdir) -> ExperimentResult:
    geom = cfg.ula
    grid = cfg.carrier
    arc = cfg.arc
    isec = cfg.section("isac")
    n = geom.num_elements
    num_m = grid.num_subcarriers

    ks = int(isec["sensing_subcarriers"])
    kc = int(isec["conventional_slots"])
    e_ratio = float(isec["sensing_energy_ratio"])
    margin = float(isec["target_margin_rad"])
    trials = cfg.trials
    snrs = [float(s) for s in cfg.snr_db]

    # One fitted delay-phase front end steers the whole arc across the band.
    front, fit_rms = cfg.fit
    w_ttd = subcarrier_weights(front, grid, np.arange(num_m))
    arc_angles = np.array([arc.angle_at(m / (num_m - 1)) for m in range(num_m)])
    sense_rel = sensing_subcarriers(num_m, ks)
    sense_angles = arc_angles[sense_rel]

    # Conventional baseline: kc sequential phase-shifter slots at the arc range.
    slot_angles = np.linspace(arc.theta_start_rad, arc.theta_end_rad, kc)
    w_ps = np.stack(
        [
            polar_codeword(geom, grid, PolarPoint(arc.range_m, float(th))).weights
            for th in slot_angles
        ]
    )

    lo = arc.theta_start_rad + margin
    hi = arc.theta_end_rad - margin
    # per-SNR energies, each a scalar expression as a single trial would take it
    e_isac = np.array([10.0 ** (s / 10.0) / n for s in snrs])
    e_sense = e_ratio * e_isac
    e_slot = e_isac
    e_conv = e_slot / num_m
    amp = {scheme: np.sqrt(e) for scheme, e in zip(_SCHEMES, (e_isac, e_sense, e_conv))}
    sq_err = {(s, scheme): 0.0 for s in snrs for scheme in _SCHEMES}

    for start in range(0, trials, _TRIAL_BLOCK):
        block = range(start, min(start + _TRIAL_BLOCK, trials))
        b = len(block)
        th_t = np.empty(b)
        beta = np.empty(b, dtype=complex)
        n_i = np.empty((b, ks), dtype=complex)
        n_s = np.empty((b, num_m), dtype=complex)
        n_c = np.empty((b, kc, num_m), dtype=complex)
        for j, tr in enumerate(block):
            rng = _trial_rng(cfg.seed, tr)
            th_t[j] = lo + (hi - lo) * rng.random()
            beta[j] = np.exp(2j * np.pi * rng.random())
            n_i[j] = _complex_normal(rng, ks)
            n_s[j] = _complex_normal(rng, num_m)
            n_c[j] = _complex_normal(rng, (kc, num_m))
        gains = _beam_gains(geom, grid, w_ttd, w_ps, arc.range_m, th_t)
        g_ttd, g_ps = gains[:, 0], gains[:, 1:]

        # every trial x SNR at once: axes (trial, SNR, ...)
        beta = beta[:, None, None]
        # ISAC: the arc is probed only on the sensing subcarrier subset.
        stat = _echo_power(beta * g_ttd[:, None, sense_rel] * amp["isac"][:, None], n_i[:, None])
        stat /= e_isac[:, None]
        est_i = peak_angle(sense_angles, stat)
        # Sensing-only: every subcarrier probes the arc at higher energy.
        stat = _echo_power(beta * g_ttd[:, None] * amp["sensing-only"][:, None], n_s[:, None])
        stat /= e_sense[:, None]
        est_s = peak_angle(arc_angles, stat)
        # Conventional: kc narrowband slots, energy split across the band;
        # one SNR at a time keeps the (trial, slot, subcarrier) echoes small.
        stat = np.empty((b, len(snrs), kc))
        for i in range(len(snrs)):
            y = beta * g_ps
            y *= amp["conventional"][i]
            stat[:, i] = _echo_power(y, n_c).sum(axis=-1) / e_slot[i]
        est_c = peak_angle(slot_angles, stat)

        # squared errors summed in trial order, as one trial at a time would
        for th, *ests in zip(th_t.tolist(), est_i.tolist(), est_s.tolist(), est_c.tolist()):
            for scheme, row in zip(_SCHEMES, ests):
                for snr_db, est in zip(snrs, row):
                    sq_err[(snr_db, scheme)] += (est - th) ** 2

    rows = []
    rmse = {}
    for snr_db in snrs:
        for scheme in _SCHEMES:
            val = math.sqrt(sq_err[(snr_db, scheme)] / trials)
            rmse[(snr_db, scheme)] = val
            rows.append((snr_db, scheme, val, math.degrees(val), trials))
    write_csv(outdir / "rmse.csv", ["snr_db", "scheme", "rmse_rad", "rmse_deg", "trials"], rows)

    summary = {
        "trials": trials,
        "sensing_subcarriers": ks,
        "conventional_slots": kc,
        "sensing_energy_ratio": e_ratio,
        "fit_rms_rad": fit_rms,
        "rmse_rad": {f"{s:g}|{sch}": rmse[(s, sch)] for s, sch in rmse},
    }
    write_plot_description(
        outdir,
        {
            "kind": "line",
            "csv": "rmse.csv",
            "x": "snr_db",
            "y": "rmse_deg",
            "group": "scheme",
            "yscale": "log",
            "title": "Angle RMSE vs SNR",
        },
    )
    return ExperimentResult("rmse-vs-snr", summary, ["rmse.csv"], {"rmse": rmse})


# ---------------------------------------------------------------------------
# rate-vs-sensing-budget: sum rate as subcarriers are ceded to sensing
# ---------------------------------------------------------------------------


def run_rate_vs_sensing_budget(cfg: ScenarioConfig, outdir) -> ExperimentResult:
    grid = cfg.carrier
    asec = cfg.section("allocation")
    usec = cfg.section("users")
    num_m = grid.num_subcarriers
    num_users = int(usec["count"])
    mean_gain = float(usec["mean_gain"])
    total_power = float(asec["total_power_w"])
    noise_power = float(asec["noise_power_w"])
    p_min = float(asec["sensing_power_w"])
    counts = [int(c) for c in asec["sensing_counts"]]
    trials = cfg.trials

    gains = np.stack(
        [_trial_rng(cfg.seed, tr).exponential(mean_gain, size=(num_users, num_m)) for tr in range(trials)]
    )
    # comm-only baseline: full band and full power to communication
    base = partition_and_allocate(gains, None, total_power, noise_power).rates.tolist()
    sums = {}
    ratios = {}
    for c in counts:
        rates = base
        if c != 0:
            sreq = SensingRequirement(c, p_min)
            rates = partition_and_allocate(gains, sreq, total_power, noise_power).rates.tolist()
        # summed in trial order, as one trial at a time would
        sums[c] = 0.0
        for rate in rates:
            sums[c] += rate
        ratios[c] = [rate / b for rate, b in zip(rates, base)]

    rows = []
    for c in counts:
        arr = ratios[c]
        rows.append((c, sums[c] / trials, min(arr), sum(arr) / len(arr)))
    write_csv(
        outdir / "rate.csv",
        ["sensing_count", "mean_sum_rate_bps_hz", "min_rate_ratio", "mean_rate_ratio"],
        rows,
    )

    summary = {
        "trials": trials,
        "num_users": num_users,
        "total_power_w": total_power,
        "sensing_power_w": p_min,
        "mean_rate_by_count": {str(c): sums[c] / trials for c in counts},
        "min_ratio_by_count": {str(c): min(ratios[c]) for c in counts},
    }
    write_plot_description(
        outdir,
        {
            "kind": "line",
            "csv": "rate.csv",
            "x": "sensing_count",
            "y": "mean_sum_rate_bps_hz",
            "title": "Sum rate vs sensing subcarrier budget",
        },
    )
    return ExperimentResult("rate-vs-sensing-budget", summary, ["rate.csv"], {})


EXPERIMENTS: dict[str, Callable[[ScenarioConfig, object], ExperimentResult]] = {
    "squint-deviation": run_squint_deviation,
    "angular-spread": run_angular_spread,
    "wavenumber-calibration": run_wavenumber_calibration,
    "music-vs-wavenumber": run_music_vs_wavenumber,
    "rmse-vs-snr": run_rmse_vs_snr,
    "rate-vs-sensing-budget": run_rate_vs_sensing_budget,
}

# The config validator and the registry must agree on what exists.
assert set(EXPERIMENTS) == set(EXPERIMENT_SECTIONS)


def list_experiment_names() -> list[str]:
    return sorted(EXPERIMENTS)


def run_experiment(cfg: ScenarioConfig, outdir) -> ExperimentResult:
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = EXPERIMENTS[cfg.name](cfg, outdir)
    write_sidecar(outdir, cfg.name, cfg.config_hash(), cfg.seed, result.csv_files)
    return result
