"""Experiment registry wiring and artifact layout."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import importlib.util
import math

import nfisac.arrays as arrays
import nfisac.experiments as experiments
import nfisac.music as music
from nfisac.allocation import SensingRequirement, partition_and_allocate, sensing_subcarriers
from nfisac.arrays import PolarPoint, spherical_delays
from nfisac.codebook import polar_codeword
from nfisac.config import EXPERIMENT_SECTIONS, load_config, scenario
from nfisac.csvio import write_csv
from nfisac.delay_phase import Arc, arc_trajectory_spec, fit_trajectory, subcarrier_weights
from nfisac.echoes import peak_angle
from nfisac.experiments import EXPERIMENTS, list_experiment_names, run_experiment

SPREAD = {
    "experiment": {"name": "angular-spread", "seed": 9, "trials": 3},
    "array": {"ula": {"num_elements": 64, "spacing_wavelengths": 0.5}},
    "carrier": {"center_hz": 3.0e11, "num_subcarriers": 1, "spacing_hz": 0.0},
}

RATE = {
    "experiment": {"name": "rate-vs-sensing-budget", "seed": 5, "trials": 4},
    "carrier": {"center_hz": 3.0e11, "num_subcarriers": 17, "spacing_hz": 4.6875e8},
    "allocation": {
        "total_power_w": 100.0,
        "noise_power_w": 1.0,
        "sensing_counts": [0, 2, 4],
        "sensing_power_w": 5.0,
    },
    "users": {"count": 2, "mean_gain": 1.0},
}


def _load(raw):
    rep, cfg = scenario(raw)
    assert rep.ok, str(rep)
    return cfg


def test_registry_matches_config_schema():
    assert set(EXPERIMENTS) == set(EXPERIMENT_SECTIONS)
    assert list_experiment_names() == sorted(EXPERIMENTS)


def test_run_emits_declared_artifacts(tmp_path):
    result = run_experiment(_load(SPREAD), tmp_path / "out")
    assert result.name == "angular-spread"
    for name in result.csv_files:
        assert (tmp_path / "out" / name).exists()
    assert (tmp_path / "out" / "meta.json").exists()
    assert (tmp_path / "out" / "plot.json").exists()
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["csv_files"] == sorted(result.csv_files)
    assert meta["experiment"] == "angular-spread"


def test_rerun_is_byte_identical(tmp_path):
    cfg = _load(SPREAD)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for name in ["spread.csv", "meta.json", "plot.json"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_rate_experiment_reuses_baseline_for_zero_sensing(tmp_path):
    result = run_experiment(_load(RATE), tmp_path / "out")
    rows = (tmp_path / "out" / "rate.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header == ["sensing_count", "mean_sum_rate_bps_hz", "min_rate_ratio", "mean_rate_ratio"]
    by_count = {int(r.split(",")[0]): r.split(",") for r in rows[1:]}
    assert set(by_count) == {0, 2, 4}
    # no reservation means the plan is the baseline itself
    assert float(by_count[0][2]) == 1.0
    assert float(by_count[0][3]) == 1.0
    rates = [float(by_count[k][1]) for k in [0, 2, 4]]
    assert rates[0] >= rates[1] >= rates[2]


def test_unknown_experiment_name_rejected(tmp_path):
    cfg = _load(SPREAD)
    object.__setattr__(cfg, "name", "not-an-experiment")
    with pytest.raises(KeyError):
        run_experiment(cfg, tmp_path / "out")


PKG_ROOT = Path(__file__).resolve().parent.parent


def test_music_trials_do_not_depend_on_trial_count_or_passes(tmp_path, monkeypatch):
    # trials share one certified peak search over the grid; each trial's
    # estimate must still depend only on its own seed, however many trials
    # share a search.
    # At the shipped noise every trial finds the same cell, which would hide a
    # mix-up, so noise is raised until the estimates vary from trial to trial
    raw = yaml.safe_load((PKG_ROOT / "configs" / "music_vs_wavenumber.yaml").read_text())
    raw["targets"].append({"angle_rad": 1.5, "range_m": 8.0})
    raw["music"] = {"snapshot_count": 16, "noise_power_w": 3.0}
    grid_points = raw["grid"]["num_angles"] * raw["grid"]["num_ranges"]

    def music_rows(trials, tag):
        data = dict(raw, experiment=dict(raw["experiment"], trials=trials))
        run_experiment(_load(data), tmp_path / tag)
        rows = (tmp_path / tag / "results.csv").read_text().splitlines()[1:]
        return [r for r in rows if r.startswith("music,")]

    ten = music_rows(10, "ten")
    assert len(ten) == 20
    for k in ("0", "1"):
        assert len({r.split(",", 5)[5] for r in ten if r.split(",")[1] == k}) > 2
    first_three = [r for r in ten if int(r.split(",")[2]) < 3]
    assert music_rows(3, "three") == first_three
    # two trials per peak search: 3 trials take 2 searches, 10 take 5, each
    # over steering chunks of another size
    monkeypatch.setattr(arrays, "_CHUNK_ENTRIES", 2 * grid_points)
    monkeypatch.setattr(music, "_SEARCH_BLOCK", 2)
    assert music_rows(3, "three-split") == first_three
    assert music_rows(10, "ten-split") == ten


def test_music_trial_bases_equal_serial_draws(tmp_path, monkeypatch):
    # each trial's next draw runs on a helper thread while the caller takes
    # the trial's subspace; every basis must still be the bits of drawing
    # and reducing its trial alone, in trial order
    cfg = load_config(str(PKG_ROOT / "configs" / "music_vs_wavenumber.yaml"))
    subspace, bases = music.snapshot_subspace, []

    def kept(x, k):
        bases.append(subspace(x, k))
        return bases[-1]

    monkeypatch.setattr(experiments, "snapshot_subspace", kept)
    run_experiment(cfg, tmp_path / "out")
    msec = cfg.section("music")
    want = [
        music.snapshot_subspace(
            music.collect_snapshots(
                cfg.ula, cfg.carrier, [target], msec["snapshot_count"], msec["noise_power_w"],
                np.random.SeedSequence((cfg.seed, k, tr)),
            ),
            1,
        ).tobytes()
        for k, target in enumerate(cfg.targets)
        for tr in range(cfg.trials)
    ]
    assert [b.tobytes() for b in bases] == want


def _chunk_entries(name, rows, extra=0):
    """arrays._CHUNK_ENTRIES giving chunks of `rows` rows of the config's linear array, plus extra entries."""
    raw = yaml.safe_load((PKG_ROOT / "configs" / name).read_text())
    return rows * raw["array"]["ula"]["num_elements"] + extra


@pytest.mark.parametrize(
    "name, module, knob, value",
    [
        ("rmse_vs_snr.yaml", experiments, "_TRIAL_BLOCK", 1),
        ("rmse_vs_snr.yaml", experiments, "_TRIAL_BLOCK", 3),
        ("rmse_vs_snr.yaml", experiments, "_TRIAL_BLOCK", 64),
        ("music_vs_wavenumber.yaml", music, "_SEARCH_BLOCK", 1),
        ("music_vs_wavenumber.yaml", music, "_SEARCH_BLOCK", 5),
    ]
    + [
        (name, arrays, "_CHUNK_ENTRIES", _chunk_entries(name, rows, extra))
        for name in ("squint_deviation.yaml", "music_vs_wavenumber.yaml", "rmse_vs_snr.yaml")
        for rows, extra in ((3, 0), (64, 7))
    ],
)
def test_batching_knobs_leave_the_csvs_unchanged(tmp_path, monkeypatch, name, module, knob, value):
    # how many trials are formed or searched together, and how many steering
    # rows one chunk holds, must not reach a byte
    cfg = load_config(str(PKG_ROOT / "configs" / name))

    def csvs(tag):
        result = run_experiment(cfg, tmp_path / tag)
        return {f: (tmp_path / tag / f).read_bytes() for f in result.csv_files}

    default = csvs("default")
    monkeypatch.setattr(module, knob, value)
    assert csvs("knob") == default


def test_shipped_music_run_never_falls_back_to_eigh(tmp_path, monkeypatch):
    # at the shipped SNR the signal subspace is far from the noise floor, so
    # subspace iteration converges for every trial without a full eigh
    raw = yaml.safe_load((PKG_ROOT / "configs" / "music_vs_wavenumber.yaml").read_text())
    eigh = np.linalg.eigh
    eigh_calls = []

    def counted_eigh(a, *args, **kwargs):
        eigh_calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    run_experiment(_load(raw), tmp_path / "out")
    assert eigh_calls == []


@pytest.mark.parametrize(
    "name, module, func, count",
    [
        ("music_vs_wavenumber.yaml", "nfisac.wavenumber", "calibrate_radius_range", 1),
        # one target
        ("music_vs_wavenumber.yaml", "nfisac.wavenumber", "estimate_position", 1),
        ("wavenumber_calibration.yaml", "nfisac.wavenumber", "calibrate_radius_range", 1),
        # one probe between each pair of the sweep's 9 ranges
        ("wavenumber_calibration.yaml", "nfisac.wavenumber", "estimate_position", 8),
        ("rmse_vs_snr.yaml", "nfisac.delay_phase", "fit_trajectory", 1),
    ],
)
def test_load_and_run_calibrate_and_fit_once(tmp_path, monkeypatch, name, module, func, count):
    # validation calibrates the wavenumber sweep, reads each of its probes
    # and targets back once and fits the arc, and the run uses those results
    # instead of deriving them again
    original = getattr(sys.modules[module], func)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every package module that imported the function by name
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("nfisac") and getattr(mod, func, None) is original:
            monkeypatch.setattr(mod, func, counted)
    run_experiment(load_config(str(PKG_ROOT / "configs" / name)), tmp_path / "out")
    assert len(calls) == count


def test_shipped_music_run_builds_no_covariance(tmp_path, monkeypatch):
    # each trial's signal subspace comes from its snapshots; no covariance is
    # formed or checked while every trial's iteration converges
    original = music.sample_covariance
    calls = []

    def counted(*args, **kwargs):
        calls.append("sample_covariance")
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("nfisac") and getattr(mod, "sample_covariance", None) is original:
            monkeypatch.setattr(mod, "sample_covariance", counted)
    post_init = music.SampleCovariance.__post_init__

    def counted_post_init(self):
        calls.append("SampleCovariance")
        post_init(self)

    monkeypatch.setattr(music.SampleCovariance, "__post_init__", counted_post_init)
    run_experiment(load_config(str(PKG_ROOT / "configs" / "music_vs_wavenumber.yaml")), tmp_path / "out")
    assert calls == []
    # the counters see the covariance path when it runs
    music.sample_covariance(np.ones((3, 2), dtype=complex))
    assert calls == ["sample_covariance", "SampleCovariance"]


def test_shipped_music_run_searches_without_the_spectrum(tmp_path, monkeypatch):
    # one certified search per target finds every trial's peak: no spectrum
    # is built, and the search steers at most 1 200 of the grid's 10 860
    # points per target, where the spectra steered all of them
    cfg = load_config(str(PKG_ROOT / "configs" / "music_vs_wavenumber.yaml"))
    spectrum, chunks = music.music_spectrum, arrays.steering_chunks
    calls, rows = [], []

    def counted_spectrum(*args, **kwargs):
        calls.append(args)
        return spectrum(*args, **kwargs)

    def counted_chunks(geom, grid, taus, *args, **kwargs):
        rows.append(taus.size)
        return chunks(geom, grid, taus, *args, **kwargs)

    # every package module that imported either function by name
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("nfisac"):
            if getattr(mod, "music_spectrum", None) is spectrum:
                monkeypatch.setattr(mod, "music_spectrum", counted_spectrum)
            if getattr(mod, "steering_chunks", None) is chunks:
                monkeypatch.setattr(mod, "steering_chunks", counted_chunks)
    run_experiment(cfg, tmp_path / "out")
    assert calls == []
    assert 0 < sum(rows) <= 1200 * len(cfg.targets)


def test_shipped_music_run_peaks_under_one_covariance_past_its_snapshots(tmp_path):
    # beyond drawing one trial's snapshots, the run holds less than one N x N
    # complex matrix: no trial forms its covariance. Forming it, symmetrizing
    # and checking it lifted the traced peak about 2.5 MB (2.4 N^2 x 16 bytes)
    # past the draw. A first run does the imports a first run makes
    cfg = load_config(str(PKG_ROOT / "configs" / "music_vs_wavenumber.yaml"))
    run_experiment(cfg, tmp_path / "warm")
    n = cfg.ula.num_elements
    msec = cfg.section("music")
    tracemalloc.start()
    try:
        music.collect_snapshots(
            cfg.ula, cfg.carrier, cfg.targets[:1], msec["snapshot_count"], msec["noise_power_w"], 0
        )
        draw_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_experiment(cfg, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - draw_peak < 16 * n * n


# every shipped config; squint-deviation is the one whose matrix-vector
# products change shape with the chunk size
BLAS_CONFIGS = [
    "squint_deviation.yaml",
    "music_vs_wavenumber.yaml",
    "rmse_vs_snr.yaml",
    "rate_vs_sensing_budget.yaml",
    "angular_spread.yaml",
    "wavenumber_calibration.yaml",
]


def test_artifacts_do_not_depend_on_blas_thread_count(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    for name in BLAS_CONFIGS:
        shutil.copy(PKG_ROOT / "configs" / name, configs / name)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PKG_ROOT / "src"), env.get("PYTHONPATH")]))

    def run_all(out, **extra_env):
        subprocess.run(
            [sys.executable, str(PKG_ROOT / "scripts" / "run_all_experiments.py"),
             "--configs", str(configs), "--out", str(out)],
            env=dict(env, **extra_env), check=True, capture_output=True,
        )
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    default = run_all(tmp_path / "default")
    single = run_all(tmp_path / "single", OPENBLAS_NUM_THREADS="1")
    assert len(default) == 3 * len(BLAS_CONFIGS) + 1  # wavenumber-calibration writes two CSVs
    assert sorted(single) == sorted(default)
    assert [rel for rel in default if single[rel] != default[rel]] == []


# ---------------------------------------------------------------------------
# trial-blocked ISAC experiments against one-trial-at-a-time references
# ---------------------------------------------------------------------------


def per_trial_rmse_csv(cfg, path):
    """rmse-vs-snr one trial and one SNR at a time: the reference.

    Each trial's gains are _beam_gains on that trial's angle alone, which
    test_beam_gains_match_a_per_point_exp_evaluation pins to np.exp; every
    estimate is a single-vector peak_angle call, and the squared errors are
    summed in trial order.
    """
    geom, grid, arc, isec = cfg.ula, cfg.carrier, cfg.arc, cfg.section("isac")
    n, num_m = geom.num_elements, grid.num_subcarriers
    ks, kc = int(isec["sensing_subcarriers"]), int(isec["conventional_slots"])
    e_ratio, margin = float(isec["sensing_energy_ratio"]), float(isec["target_margin_rad"])
    snrs = [float(s) for s in cfg.snr_db]
    dp_cfg, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, arc))
    w_ttd = subcarrier_weights(dp_cfg, grid, np.arange(num_m))
    arc_angles = np.array([arc.angle_at(m / (num_m - 1)) for m in range(num_m)])
    sense_rel = sensing_subcarriers(num_m, ks)
    sense_angles = arc_angles[sense_rel]
    slot_angles = np.linspace(arc.theta_start_rad, arc.theta_end_rad, kc)
    w_ps = np.stack(
        [polar_codeword(geom, grid, PolarPoint(arc.range_m, float(th))).weights for th in slot_angles]
    )
    lo, hi = arc.theta_start_rad + margin, arc.theta_end_rad - margin
    schemes = ("isac", "sensing-only", "conventional")
    sq_err = {(s, scheme): 0.0 for s in snrs for scheme in schemes}
    for tr in range(cfg.trials):
        rng = experiments._trial_rng(cfg.seed, tr)
        th_t = lo + (hi - lo) * rng.random()
        beta = np.exp(2j * np.pi * rng.random())
        n_i = experiments._complex_normal(rng, ks)
        n_s = experiments._complex_normal(rng, num_m)
        n_c = experiments._complex_normal(rng, (kc, num_m))
        gains = experiments._beam_gains(geom, grid, w_ttd, w_ps, arc.range_m, [th_t])[0]
        g_ttd, g_ps = gains[0], gains[1:]
        for snr_db in snrs:
            e_isac = 10.0 ** (snr_db / 10.0) / n
            e_sense = e_ratio * e_isac
            e_conv = e_isac / num_m
            y = beta * g_ttd[sense_rel] * math.sqrt(e_isac) + n_i
            sq_err[(snr_db, "isac")] += (peak_angle(sense_angles, np.abs(y) ** 2 / e_isac) - th_t) ** 2
            y = beta * g_ttd * math.sqrt(e_sense) + n_s
            sq_err[(snr_db, "sensing-only")] += (peak_angle(arc_angles, np.abs(y) ** 2 / e_sense) - th_t) ** 2
            y = beta * g_ps * math.sqrt(e_conv) + n_c
            est = peak_angle(slot_angles, np.sum(np.abs(y) ** 2, axis=1) / e_isac)
            sq_err[(snr_db, "conventional")] += (est - th_t) ** 2
    rows = []
    for snr_db in snrs:
        for scheme in schemes:
            val = math.sqrt(sq_err[(snr_db, scheme)] / cfg.trials)
            rows.append((snr_db, scheme, val, math.degrees(val), cfg.trials))
    write_csv(path, ["snr_db", "scheme", "rmse_rad", "rmse_deg", "trials"], rows)


def per_trial_rate_csv(cfg, path):
    """rate-vs-sensing-budget one trial at a time, each trial's (users,
    subcarriers) gains planned alone: the reference. Rates are summed in
    trial order."""
    asec, usec, num_m = cfg.section("allocation"), cfg.section("users"), cfg.carrier.num_subcarriers
    total, noise, p_min = (float(asec[k]) for k in ("total_power_w", "noise_power_w", "sensing_power_w"))
    counts = [int(c) for c in asec["sensing_counts"]]
    sums = {c: 0.0 for c in counts}
    ratios = {c: [] for c in counts}
    for tr in range(cfg.trials):
        rng = experiments._trial_rng(cfg.seed, tr)
        gains = rng.exponential(float(usec["mean_gain"]), size=(int(usec["count"]), num_m))
        base = float(partition_and_allocate(gains, None, total, noise).rates)
        for c in counts:
            rate = base
            if c:
                rate = float(partition_and_allocate(gains, SensingRequirement(c, p_min), total, noise).rates)
            sums[c] += rate
            ratios[c].append(rate / base)
    rows = [(c, sums[c] / cfg.trials, min(ratios[c]), sum(ratios[c]) / len(ratios[c])) for c in counts]
    write_csv(path, ["sensing_count", "mean_sum_rate_bps_hz", "min_rate_ratio", "mean_rate_ratio"], rows)


@pytest.mark.parametrize(
    "name, csv, reference",
    [("rmse_vs_snr.yaml", "rmse.csv", per_trial_rmse_csv),
     ("rate_vs_sensing_budget.yaml", "rate.csv", per_trial_rate_csv)],
)
@pytest.mark.parametrize("trials", [1, 17, None])
def test_blocked_isac_experiments_equal_per_trial_reference(tmp_path, name, csv, reference, trials):
    # blocks of trials share their estimation and water-filling, but every
    # trial keeps its own stream and the sums run in trial order, so the CSV
    # has the reference's bytes; 17 trials are not a whole number of blocks,
    # None is the shipped count
    raw = yaml.safe_load((PKG_ROOT / "configs" / name).read_text())
    if trials is not None:
        raw["experiment"]["trials"] = trials
    cfg = _load(raw)
    run_experiment(cfg, tmp_path / "blocked")
    reference(cfg, tmp_path / "reference.csv")
    assert (tmp_path / "blocked" / csv).read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_beam_gains_match_a_per_point_exp_evaluation():
    # _beam_gains' table phasors and subcarrier recurrence against np.exp at
    # every point and subcarrier, on random arcs and target angles: both
    # round 2 pi f tau (~1e5 rad at 20 m) to ~1e-11 rad in their own way, so
    # the bound is absolute, 1e-11 of sqrt(N), the peak gain. Each point of
    # a block also has the bits of that point passed alone
    cfg = load_config(PKG_ROOT / "configs" / "rmse_vs_snr.yaml")
    geom, grid = cfg.ula, cfg.carrier
    n, num_m = geom.num_elements, grid.num_subcarriers
    rng = np.random.default_rng(15)
    for b in (1, 2, 8, 8):
        th0 = rng.uniform(0.4, 2.3)
        arc = Arc(th0, th0 + rng.uniform(0.05, 0.4), rng.uniform(10.0, 40.0))
        dp_cfg, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, arc))
        w_ttd = subcarrier_weights(dp_cfg, grid, np.arange(num_m))
        w_ps = np.stack([
            polar_codeword(geom, grid, PolarPoint(arc.range_m, float(th))).weights
            for th in np.linspace(arc.theta_start_rad, arc.theta_end_rad, 3)
        ])
        angles = rng.uniform(arc.theta_start_rad, arc.theta_end_rad, b)
        gains = experiments._beam_gains(geom, grid, w_ttd, w_ps, arc.range_m, angles)
        assert gains.shape == (b, 1 + len(w_ps), num_m)
        for j, th in enumerate(angles):
            taus = spherical_delays(geom, PolarPoint(arc.range_m, float(th)))
            want = np.empty((1 + len(w_ps), num_m))
            for m in range(num_m):
                a = np.exp(-2j * np.pi * grid.freq(m) * taus)
                want[:, m] = [abs(np.vdot(w, a)) for w in (w_ttd[m], *w_ps)]
            np.testing.assert_allclose(gains[j], want, rtol=0.0, atol=1e-11 * math.sqrt(n))
            alone = experiments._beam_gains(geom, grid, w_ttd, w_ps, arc.range_m, angles[j : j + 1])
            assert np.array_equal(alone[0], gains[j])


def test_shipped_rmse_run_peaks_under_1_25_mb(tmp_path):
    # gains are taken one subcarrier at a time from (N, 1 + slots) weight
    # columns; stacking every subcarrier's weights into one (M, N, 1 + slots)
    # tensor would add about 1.5 MB to the traced peak (0.75 MB at 400
    # trials). A one-trial run first does the imports a first run makes
    raw = yaml.safe_load((PKG_ROOT / "configs" / "rmse_vs_snr.yaml").read_text())
    raw["experiment"]["trials"] = 1
    run_experiment(_load(raw), tmp_path / "warm")
    raw["experiment"]["trials"] = 400
    cfg = _load(raw)
    tracemalloc.start()
    try:
        run_experiment(cfg, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25e6


def _artifact_hashes_module():
    spec = importlib.util.spec_from_file_location("artifact_hashes", PKG_ROOT / "scripts" / "artifact_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_list_names_existing_functions():
    # perfbench traces these functions by name; a renamed or removed one
    # would make every --trace 1 run fail or report a layer that never runs
    spec = importlib.util.spec_from_file_location("perfbench_layers", PKG_ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names = [(m, f) for m, f in layers.LAYERS if m.startswith("nfisac.")]
    assert names
    for module, func in names:
        assert callable(getattr(importlib.import_module(module), func, None)), f"{module}.{func}"


def test_fast_shipped_artifacts_match_committed_hashes(tmp_path):
    # every shipped config writes the bytes listed in scripts/artifacts.sha256
    hashes = _artifact_hashes_module()
    names = set()
    for path in sorted((PKG_ROOT / "configs").glob("*.yaml")):
        cfg = load_config(path)
        names.add(cfg.name)
        run_experiment(cfg, tmp_path / cfg.name)
    assert len(names) == 6
    expected = hashes.read_hashes(PKG_ROOT / "scripts" / "artifacts.sha256")
    assert hashes.mismatches(hashes.tree_hashes(tmp_path), expected) == []


def test_compare_artifacts_fails_only_on_exact_columns(tmp_path):
    # numeric columns report their largest differences; index, count and
    # string columns, headers, row counts and missing CSVs must match
    def tree(name, files):
        for rel, text in files.items():
            path = tmp_path / name / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return str(tmp_path / name)

    def compare(a, b):
        run = subprocess.run(
            [sys.executable, str(PKG_ROOT / "scripts" / "compare_artifacts.py"), a, b],
            capture_output=True, text=True,
        )
        return run.returncode, run.stdout

    base = {"exp/x.csv": "id,scheme,value\n0,isac,1.0\n1,sweep,-2.0\n", "exp/meta.json": "{}"}
    a = tree("a", base)
    code, out = compare(a, tree("b", {**base, "exp/meta.json": '{"other": 1}'}))
    assert code == 0
    assert "exp/x.csv id (int): equal" in out and "exp/x.csv scheme (str): equal" in out
    assert "exp/x.csv value: max abs 0, max rel 0" in out

    code, out = compare(a, tree("moved", {"exp/x.csv": "id,scheme,value\n0,isac,1.0\n1,sweep,-2.000000002\n"}))
    assert code == 0
    assert "exp/x.csv value: max abs 2e-09, max rel 1e-09" in out

    for name, text in [
        ("index", "id,scheme,value\n0,isac,1.0\n2,sweep,-2.0\n"),
        ("string", "id,scheme,value\n0,isac,1.0\n1,conv,-2.0\n"),
        ("header", "id,scheme,rmse\n0,isac,1.0\n1,sweep,-2.0\n"),
        ("rows", "id,scheme,value\n0,isac,1.0\n"),
    ]:
        assert compare(a, tree(name, {"exp/x.csv": text}))[0] == 1, name
    code, out = compare(a, tree("extra", {**base, "exp/y.csv": "id\n0\n"}))
    assert code == 1
    assert "exp/y.csv: only in" in out
