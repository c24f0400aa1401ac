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

from .allocation import SensingRequirement, UserDemand, partition_and_allocate, sensing_subcarriers
from .arrays import CarrierGrid, PolarPoint, rayleigh_distance, spherical_delays
from .codebook import PolarGrid, angular_spread, polar_codeword
from .config import EXPERIMENT_SECTIONS, ScenarioConfig, grid_angles, sweep_range_m
from .csvio import write_csv, write_plot_description, write_sidecar
from .delay_phase import Arc, apply_delay_phase, arc_trajectory_spec, fit_trajectory
from .echoes import peak_angle
from .music import collect_snapshots, music_peaks, music_spectra, sample_covariance
from .squint import focal_points, squint_deviation
from .wavenumber import (
    calibrate_radius_range,
    estimate_position,
    upa_rayleigh_distance,
    upa_snapshot,
)


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


def _grid_from_section(cfg: ScenarioConfig) -> PolarGrid:
    sec = cfg.section("grid")
    rmin = float(sec["range_min_m"])
    rmax = float(sec["range_max_m"])
    angles = grid_angles(sec)
    if "num_ranges" in sec:
        ranges = np.geomspace(rmin, rmax, int(sec["num_ranges"]))
        return PolarGrid(angles, ranges)
    pg = PolarGrid.regular(rmin, rmax, num_angles=angles.size)
    return PolarGrid(angles, pg.ranges_m)


# ---------------------------------------------------------------------------
# squint-deviation: focal-point drift of a fixed polar codeword across the band
# ---------------------------------------------------------------------------


def run_squint_deviation(cfg: ScenarioConfig, outdir) -> ExperimentResult:
    geom = cfg.ula
    grid = cfg.carrier
    design = cfg.design
    pg = _grid_from_section(cfg)
    w = polar_codeword(geom, grid, design)
    traj = focal_points(geom, grid, w, pg)
    dev_angle, dev_range = squint_deviation(traj, design)

    rows = []
    for k, m in enumerate(traj.subcarriers):
        p = traj.points[k]
        rows.append((int(m), grid.freq(int(m)), p.angle_rad, p.range_m, float(traj.gains[k])))
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
    ranges = np.geomspace(0.05 * rd, 10.0 * rd, 13)

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
    arr = cfg.upa
    grid = cfg.carrier
    sec = cfg.section("wavenumber")
    freq = grid.center_hz
    npts = int(sec.get("num_calibration_points", 9))
    frac = float(sec.get("threshold_frac", 0.1))
    theta = float(sec.get("direction_angle_rad", math.pi / 2.0))
    direction = np.array([math.cos(theta), math.sin(theta), 0.0])

    sweep = np.geomspace(*sweep_range_m(cfg.raw), npts)
    table = calibrate_radius_range(arr, freq, direction, sweep, threshold_frac=frac)
    write_csv(
        outdir / "calibration.csv",
        ["range_m", "radius_bins"],
        list(zip(table.ranges_m.tolist(), table.radii_bins.tolist())),
    )

    # Probe at geometric midpoints: worst case for interpolating an inverse law.
    mids = np.sqrt(sweep[:-1] * sweep[1:])
    rows = []
    errs = []
    for r in mids:
        snap = upa_snapshot(arr, r * direction, freq)
        est, diag = estimate_position(arr, freq, snap, table, threshold_frac=frac)
        err = abs(est.range_m - r)
        errs.append(err)
        rows.append((float(r), est.range_m, err, diag["radius_bins"], est.angle_rad))
    write_csv(
        outdir / "estimates.csv",
        ["true_range_m", "est_range_m", "abs_error_m", "radius_bins", "est_angle_rad"],
        rows,
    )

    summary = {
        "freq_hz": freq,
        "num_calibration_points": npts,
        "threshold_frac": frac,
        "rayleigh_distance_m": upa_rayleigh_distance(arr, freq),
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
    return ExperimentResult(
        "wavenumber-calibration", summary, ["calibration.csv", "estimates.csv"], {"table": table}
    )


# ---------------------------------------------------------------------------
# music-vs-wavenumber: subspace search against the FFT-domain shortcut
# ---------------------------------------------------------------------------


def run_music_vs_wavenumber(cfg: ScenarioConfig, outdir) -> ExperimentResult:
    geom = cfg.ula
    arr = cfg.upa
    grid = cfg.carrier
    pg = _grid_from_section(cfg)
    msec = cfg.section("music")
    wsec = cfg.section("wavenumber")
    targets = [
        PolarPoint(float(t["range_m"]), float(t["angle_rad"])) for t in cfg.raw["targets"]
    ]
    snap_count = int(msec["snapshot_count"])
    noise_power = float(msec["noise_power_w"])
    trials = cfg.trials
    freq = grid.center_hz

    npts = int(wsec.get("num_calibration_points", 9))
    frac = float(wsec.get("threshold_frac", 0.1))

    rows = []
    music_errs = []
    for k, target in enumerate(targets):
        # trials stream into one steering pass over the grid per target
        covs = (
            sample_covariance(
                collect_snapshots(
                    geom, grid, [target], snap_count, noise_power,
                    np.random.SeedSequence((cfg.seed, k, tr)),
                )
            )
            for tr in range(trials)
        )
        for tr, spec in enumerate(music_spectra(covs, geom, grid, pg, num_sources=1)):
            est = music_peaks(spec)[0]
            err_r = abs(est.range_m - target.range_m)
            err_a = abs(est.angle_rad - target.angle_rad)
            music_errs.append((err_a, err_r))
            rows.append(
                ("music", k, tr, target.angle_rad, target.range_m, est.angle_rad, est.range_m)
            )

    # The planar-array readout is noiseless and deterministic: one row per target.
    theta = float(wsec.get("direction_angle_rad", math.pi / 2.0))
    direction = np.array([math.cos(theta), math.sin(theta), 0.0])
    sweep = np.geomspace(*sweep_range_m(cfg.raw), npts)
    table = calibrate_radius_range(arr, freq, direction, sweep, threshold_frac=frac)
    wn_errs = []
    for k, target in enumerate(targets):
        src = target.range_m * np.array(
            [math.cos(target.angle_rad), math.sin(target.angle_rad), 0.0]
        )
        snap = upa_snapshot(arr, src, freq)
        est, _ = estimate_position(arr, freq, snap, table, threshold_frac=frac)
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


def run_rmse_vs_snr(cfg: ScenarioConfig, outdir) -> ExperimentResult:
    geom = cfg.ula
    grid = cfg.carrier
    arc = cfg.arc
    isec = cfg.section("isac")
    n = geom.num_elements
    num_m = grid.num_subcarriers
    freqs = grid.freqs()

    ks = int(isec["sensing_subcarriers"])
    kc = int(isec["conventional_slots"])
    e_ratio = float(isec.get("sensing_energy_ratio", 2.0))
    margin = float(isec.get("target_margin_rad", math.radians(1.0)))
    trials = cfg.trials
    snrs = [float(s) for s in cfg.snr_db]

    # One fitted delay-phase config steers the whole arc across the band.
    spec = arc_trajectory_spec(grid, arc)
    dp_cfg, fit_rms = fit_trajectory(geom, grid, spec)
    w_ttd = np.stack([apply_delay_phase(dp_cfg, grid, m).weights for m in range(num_m)])
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
    sq_err = {(s, scheme): 0.0 for s in snrs for scheme in ("isac", "sensing-only", "conventional")}

    for tr in range(trials):
        rng = _trial_rng(cfg.seed, tr)
        th_t = lo + (hi - lo) * rng.random()
        beta = np.exp(2j * np.pi * rng.random())
        n_i = _complex_normal(rng, ks)
        n_s = _complex_normal(rng, num_m)
        n_c = _complex_normal(rng, (kc, num_m))

        target = PolarPoint(arc.range_m, float(th_t))
        taus = spherical_delays(geom, target)
        a_all = np.exp(-2j * np.pi * freqs[:, None] * taus[None, :])
        g_ttd = np.abs(np.einsum("mn,mn->m", np.conj(w_ttd), a_all))
        g_ps = np.abs(np.conj(w_ps) @ a_all.T)

        for snr_db in snrs:
            s_lin = 10.0 ** (snr_db / 10.0)
            e_isac = s_lin / n
            e_sense = e_ratio * e_isac
            e_slot = e_isac
            e_conv = e_slot / num_m

            # ISAC: the arc is probed only on the sensing subcarrier subset.
            y = beta * g_ttd[sense_rel] * math.sqrt(e_isac) + n_i
            est = peak_angle(sense_angles, np.abs(y) ** 2 / e_isac)
            sq_err[(snr_db, "isac")] += (est - th_t) ** 2

            # Sensing-only: every subcarrier probes the arc at higher energy.
            y = beta * g_ttd * math.sqrt(e_sense) + n_s
            est = peak_angle(arc_angles, np.abs(y) ** 2 / e_sense)
            sq_err[(snr_db, "sensing-only")] += (est - th_t) ** 2

            # Conventional: kc narrowband slots, energy split across the band.
            y = beta * g_ps * math.sqrt(e_conv) + n_c
            est = peak_angle(slot_angles, np.sum(np.abs(y) ** 2, axis=1) / e_slot)
            sq_err[(snr_db, "conventional")] += (est - th_t) ** 2

    rows = []
    rmse = {}
    for snr_db in snrs:
        for scheme in ("isac", "sensing-only", "conventional"):
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
    arc = cfg.arc
    asec = cfg.section("allocation")
    usec = cfg.section("users")
    num_m = grid.num_subcarriers
    num_users = int(usec["count"])
    mean_gain = float(usec.get("mean_gain", 1.0))
    total_power = float(asec["total_power_w"])
    noise_power = float(asec["noise_power_w"])
    p_min = float(asec["sensing_power_w"])
    counts = [int(c) for c in asec["sensing_counts"]]
    trials = cfg.trials

    sums = {c: 0.0 for c in counts}
    ratios = {c: [] for c in counts}
    for tr in range(trials):
        rng = _trial_rng(cfg.seed, tr)
        gains = rng.exponential(mean_gain, size=(num_users, num_m))
        users = [UserDemand(u, gains[u]) for u in range(num_users)]
        # comm-only baseline: full band and full power to communication
        _, base_rate = partition_and_allocate(
            users, None, total_power, noise_power, num_subcarriers=num_m
        )
        for c in counts:
            if c == 0:
                rate = base_rate
            else:
                sreq = SensingRequirement(arc, c, p_min)
                _, rate = partition_and_allocate(
                    users, sreq, total_power, noise_power, num_subcarriers=num_m
                )
            sums[c] += rate
            ratios[c].append(rate / base_rate)

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
