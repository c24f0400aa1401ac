"""The four benchmark workloads: inputs from a seed, one repetition, checks.

Each workload class has
  ``setup(seed, workdir)``  builds the inputs (writes and loads its configs),
  ``rep(step_times)``       runs one repetition and returns its outputs,
                            appending the (start, end) ``calib.clock()``
                            times of each benchmark-timed step to
                            ``step_times``,
  ``ops``                   the number of operations one repetition attempts,
  ``calibration``           the calib.KERNELS kernel that tracks its speed,
  ``check(out)``            returns a list of failure messages, each one a
                            failed operation.

Inputs depend only on the seed. Checks compare against stored reference
outputs when the seed has them (``refs.json``) and always apply the
acceptance-suite invariants.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import numpy as np
import yaml

import nfisac.allocation as allocation
import nfisac.codebook as codebook
import nfisac.config as config
import nfisac.delay_phase as delay_phase
import nfisac.echoes as echoes
import nfisac.experiments as experiments
import nfisac.tracking as tracking
from nfisac.arrays import ArrayGeometry, CarrierGrid, PolarPoint
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.delay_phase import Arc, TrajectorySpec
from nfisac.errors import BoundaryPeakWarning
from nfisac.tracking import TrackState

from calib import clock as _clock
from compare import compare_outputs


def _write_config(configs_dir: Path, name: str, workdir: Path, edit) -> Path:
    data = yaml.safe_load((configs_dir / name).read_text(encoding="utf-8"))
    edit(data)
    path = workdir / name
    path.write_text(yaml.safe_dump(data, sort_keys=True), encoding="utf-8")
    return path


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


class Workload:
    name = ""
    ops = 1
    calibration = "grid"

    def __init__(self, configs_dir: Path, refs: dict):
        self.configs_dir = configs_dir
        self.refs = refs.get(self.name, {})

    def check(self, out: dict) -> list:
        failures = self.invariants(out)
        ref = self.reference()
        if ref is not None:
            failures += [f"ref: {msg}" for msg in compare_outputs(ref, out)]
        return failures

    def reference(self):
        """Stored outputs for this seed, or None."""
        return self.refs.get(str(self.seed))

    def any_reference(self):
        """Stored outputs for some seed, for outputs the seed does not affect."""
        return next(iter(self.refs.values()), None)

    def invariants(self, out: dict) -> list:
        return []


class SquintFocal(Workload):
    """Shipped squint-deviation scenario, design point as shipped.

    The seed only sets experiment.seed (which the scenario does not draw
    from), so every seed does the same work and must give the same focal
    points. The design point is not nudged: the criterion-02 range window
    holds only near the shipped point, whose range deviation (3.79 m) sits
    one range cell above the window's 3.6 m edge; nudging the design angle
    by -0.05 deg already gives 3.63 m and +0.3 deg gives 3.55 m.
    """

    name = "squint-focal"

    def setup(self, seed, workdir):
        self.seed = seed

        def edit(data):
            data["experiment"]["seed"] = int(seed)

        self.cfg = config.load_config(str(_write_config(self.configs_dir, "squint_deviation.yaml", workdir, edit)))
        self.outdir = workdir / "out"

    def reference(self):
        return self.any_reference()

    def rep(self, step_times):
        t0 = _clock()
        result = experiments.run_experiment(self.cfg, self.outdir)
        step_times.append((t0, _clock()))
        traj = result.records["trajectory"]
        return {
            "angle_rad": [p.angle_rad for p in traj.points],
            "range_m": [p.range_m for p in traj.points],
            "gain": [float(g) for g in traj.gains],
            "boundary_warning": bool(traj.boundary_warning),
            "max_angle_deviation_rad": float(result.summary["max_angle_deviation_rad"]),
            "max_range_deviation_m": float(result.summary["max_range_deviation_m"]),
        }

    def invariants(self, out):
        # criterion 02: both deviations inside their design windows, no boundary peak
        fails = []
        dev_deg = math.degrees(out["max_angle_deviation_rad"])
        dev_m = out["max_range_deviation_m"]
        if not 4.2 <= dev_deg <= 9.8:
            fails.append(f"angle deviation {dev_deg:.3f} deg outside [4.2, 9.8]")
        if not 3.6 <= dev_m <= 8.4:
            fails.append(f"range deviation {dev_m:.3f} m outside [3.6, 8.4]")
        if out["boundary_warning"]:
            fails.append("focal point on the grid boundary")
        return fails


class MusicTrials(Workload):
    """music-vs-wavenumber with the seed as experiment seed and more trials."""

    name = "music-trials"
    trials = 12

    def setup(self, seed, workdir):
        self.seed = seed

        def edit(data):
            data["experiment"]["seed"] = int(seed)
            data["experiment"]["trials"] = self.trials

        self.cfg = config.load_config(str(_write_config(self.configs_dir, "music_vs_wavenumber.yaml", workdir, edit)))
        self.outdir = workdir / "out"
        angles = np.linspace(0.0, math.pi, int(self.cfg.raw["grid"]["num_angles"]) + 2)[1:-1]
        g = self.cfg.raw["grid"]
        ranges = np.geomspace(g["range_min_m"], g["range_max_m"], int(g["num_ranges"]))
        target = self.cfg.raw["targets"][0]
        ir = int(np.argmin(np.abs(ranges - target["range_m"])))
        self.cell_angle = float(angles[1] - angles[0])
        self.cell_range = float(ranges[ir + 1] - ranges[ir])

    def rep(self, step_times):
        t0 = _clock()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BoundaryPeakWarning)
            experiments.run_experiment(self.cfg, self.outdir)
        step_times.append((t0, _clock()))
        with open(self.outdir / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        out = {"boundary_warnings": sum(issubclass(w.category, BoundaryPeakWarning) for w in caught)}
        for method in ("music", "wavenumber"):
            picked = [r for r in rows if r["method"] == method]
            out[f"{method}_trial"] = [int(r["trial"]) for r in picked]
            out[f"{method}_true"] = [[float(r["true_angle_rad"]), float(r["true_range_m"])] for r in picked]
            out[f"{method}_est"] = [[float(r["est_angle_rad"]), float(r["est_range_m"])] for r in picked]
        return out

    def invariants(self, out):
        # criterion 06: 20 dB, 256 snapshots -> RMSE within 2 grid cells
        fails = []
        err = np.array(out["music_est"]) - np.array(out["music_true"])
        if len(err) != self.trials:
            fails.append(f"{len(err)} MUSIC rows for {self.trials} trials")
            return fails
        rmse_a, rmse_r = np.sqrt(np.mean(err**2, axis=0))
        if rmse_a > 2 * self.cell_angle:
            fails.append(f"MUSIC angle RMSE {rmse_a:.3e} > 2 cells")
        if rmse_r > 2 * self.cell_range:
            fails.append(f"MUSIC range RMSE {rmse_r:.3f} > 2 cells")
        if out["boundary_warnings"]:
            fails.append("MUSIC peak on the grid boundary")
        # the wavenumber readout is noiseless, so it is the same for every seed
        ref = self.any_reference()
        if ref is not None and out["wavenumber_est"] != ref["wavenumber_est"]:
            fails.append(f"wavenumber estimates {out['wavenumber_est']} != reference")
        return fails


class TrajectoryFocus(Workload):
    """Criterion-07 geometry: delay-phase fit, then grid gains per subcarrier."""

    name = "trajectory-focus"
    subcarriers = (0, 32, 64, 96, 128)

    def setup(self, seed, workdir):
        self.seed = seed
        rng = _rng(seed, 0)
        wl = C / 3.0e11
        self.geom = ArrayGeometry.ula(512, wl / 2)
        self.grid = CarrierGrid(3.0e11, 129, 2.34375e8)
        lo, hi = 60.0 + rng.uniform(-0.5, 0.5), 80.0 + rng.uniform(-0.5, 0.5)
        self.arc = Arc(math.radians(lo), math.radians(hi), 20.0)
        self.angles = np.linspace(math.radians(56.0), math.radians(84.0), 261)
        self.ranges = np.geomspace(14.0, 28.0, 90)
        aa, rr = np.meshgrid(self.angles, self.ranges, indexing="ij")
        self.taus = (rr / C).ravel()
        self.cosines = np.cos(aa).ravel()
        self.single = TrajectorySpec(((64, PolarPoint(20.0, self.arc.angle_at(0.5))),))
        self.ops = 1 + len(self.subcarriers)

    def rep(self, step_times):
        _, rms_single = delay_phase.fit_trajectory(self.geom, self.grid, self.single)
        cfg, rms = delay_phase.fit_trajectory(self.geom, self.grid, delay_phase.arc_trajectory_spec(self.grid, self.arc))
        idx, peak = [], []
        for m in self.subcarriers:
            t0 = _clock()
            w = delay_phase.apply_delay_phase(cfg, self.grid, m).weights
            g = codebook.gains_at_freq(self.geom, self.grid.freq(m), self.taus, self.cosines, w)
            k = int(np.argmax(g))
            step_times.append((t0, _clock()))
            idx.append(list(divmod(k, self.ranges.size)))
            peak.append(float(g[k]))
        return {"rms_single_rad": rms_single, "fit_rms_rad": rms, "focal_index": idx, "peak_gain": peak}

    def invariants(self, out):
        # criterion 07: single-point fit exact; focal points within 1 deg and 1 m
        fails = []
        if not out["rms_single_rad"] < 1e-6:
            fails.append(f"single-point residual {out['rms_single_rad']:.2e} >= 1e-6")
        m_top = self.grid.num_subcarriers - 1
        for m, (ia, ir) in zip(self.subcarriers, out["focal_index"]):
            want = self.arc.angle_at(m / m_top)
            if abs(self.angles[ia] - want) > math.radians(1.0) or abs(self.ranges[ir] - 20.0) > 1.0:
                fails.append(f"subcarrier {m} focal point off the requested arc point")
        return fails


class IsacLoop(Workload):
    """Many small calls: four light experiments plus a closed sensing loop.

    The loop tracks a fresh random target per track. Each step predicts the
    sensing arc from the track, fits the delay-phase front end on the
    allocator's sensing subcarriers, simulates echoes, estimates the angle,
    and updates the Kalman track. The echoes carry angle only, so the
    measurement's range is the predicted arc range (with a wide range sigma).
    """

    name = "isac-loop"
    calibration = "loop"
    tracks = 16
    steps = 30
    dt = 0.05
    sensing_count = 16
    half_width_rad = math.radians(1.5)
    sig_range_m = 0.5
    sig_angle_rad = 2e-3
    noise_w = 1.28

    def setup(self, seed, workdir):
        self.seed = seed

        def seeded(trials=None):
            def edit(data):
                data["experiment"]["seed"] = int(seed)
                if trials is not None:
                    data["experiment"]["trials"] = trials
            return edit

        names = [
            ("rmse_vs_snr.yaml", 400),
            ("rate_vs_sensing_budget.yaml", 100),
            ("angular_spread.yaml", None),
            ("wavenumber_calibration.yaml", None),
        ]
        self.cfgs = [
            config.load_config(str(_write_config(self.configs_dir, n, workdir, seeded(t)))) for n, t in names
        ]
        self.outdirs = [workdir / "out" / c.name for c in self.cfgs]
        rmse_cfg = self.cfgs[0]
        self.geom = rmse_cfg.ula
        self.grid = rmse_cfg.carrier
        self.sensing_m = allocation.sensing_subcarriers(self.grid.num_subcarriers, self.sensing_count)
        self.powers = np.ones(self.sensing_count)
        rng = _rng(seed, 1)
        self.starts = []
        for _ in range(self.tracks):
            r0 = 20.0 + rng.uniform(-1.0, 1.0)
            th0 = math.radians(70.0 + rng.uniform(-3.0, 3.0))
            omega = rng.uniform(-0.2, 0.2)  # rad/s, tangential
            v_r = rng.uniform(-0.5, 0.5)
            radial = np.array([math.cos(th0), math.sin(th0)])
            tangent = np.array([-math.sin(th0), math.cos(th0)])
            pos = r0 * radial
            vel = v_r * radial + r0 * omega * tangent
            init = np.concatenate([pos, vel]) + rng.normal(0.0, [0.3, 0.3, 0.2, 0.2])
            self.starts.append((pos, vel, init, np.exp(2j * math.pi * rng.random())))
        self.ops = len(self.cfgs) + 1

    def rep(self, step_times):
        results = [experiments.run_experiment(c, d) for c, d in zip(self.cfgs, self.outdirs)]
        rmse = results[0].records["rmse"]
        rate = results[1]
        with open(self.outdirs[1] / "rate.csv", newline="") as fh:
            counts = [int(r["sensing_count"]) for r in csv.DictReader(fh)]
        out = {
            "rmse_snr_db": [k[0] for k in rmse],
            "rmse_scheme": [k[1] for k in rmse],
            "rmse_rad": [float(v) for v in rmse.values()],
            "sensing_counts": counts,
            "min_rate_ratio": [float(rate.summary["min_ratio_by_count"][str(c)]) for c in counts],
            "max_near_fraction": float(results[2].summary["max_near_fraction"]),
            "min_far_fraction": float(results[2].summary["min_far_fraction"]),
            "max_midpoint_error_m": float(results[3].summary["max_midpoint_error_m"]),
        }
        out.update(self._closed_loop(step_times))
        return out

    def _closed_loop(self, step_times):
        geom, grid, sm, powers = self.geom, self.grid, self.sensing_m, self.powers
        rng = _rng(self.seed, 2)
        err_f, err_o, misses = [], [], 0
        for pos, vel, init, beta in self.starts:
            pos = pos.copy()
            ts = TrackState(init, np.diag([0.09, 0.09, 0.04, 0.04]))
            open_loop = init.copy()
            for _ in range(self.steps):
                t0 = _clock()
                pos = pos + vel * self.dt
                arc = tracking.predict_arc(ts, self.dt, self.half_width_rad)
                spec = delay_phase.arc_trajectory_spec(grid, arc, sm)
                cfg, _ = delay_phase.fit_trajectory(geom, grid, spec)
                target = tracking.xy_to_polar(pos[0], pos[1])
                y = echoes.simulate_echoes(geom, grid, cfg, sm, target, beta, powers, self.noise_w, rng)
                angles = [p.angle_rad for p in spec.points()]
                est = echoes.sense_from_echoes(angles, y, powers)
                meas = None if est is None else PolarPoint(arc.range_m, est)
                ts = tracking.kalman_predict_update(
                    ts, self.dt, meas, 1e-3, (self.sig_range_m, self.sig_angle_rad)
                )
                step_times.append((t0, _clock()))
                misses += meas is None
                open_loop[:2] += open_loop[2:] * self.dt
            err_f.append(float(np.linalg.norm(ts.state[:2] - pos)))
            err_o.append(float(np.linalg.norm(open_loop[:2] - pos)))
        return {"loop_err_filtered_m": err_f, "loop_err_open_m": err_o, "loop_misses": misses}

    def invariants(self, out):
        fails = []
        # criterion 08: sensing-only <= isac <= conventional at every SNR
        by = {(s, k): v for s, k, v in zip(out["rmse_snr_db"], out["rmse_scheme"], out["rmse_rad"])}
        for s in sorted({s for s, _ in by}):
            if not by[(s, "sensing-only")] <= by[(s, "isac")] <= by[(s, "conventional")]:
                fails.append(f"RMSE ordering broken at {s} dB")
        want = [int(c) for c in self.cfgs[1].raw["allocation"]["sensing_counts"]]
        if out["sensing_counts"] != want:
            fails.append(f"sensing counts {out['sensing_counts']} != {want}")
        # criterion 11, closed over the sensing loop: filtered beats open loop
        rmse_f = math.sqrt(np.mean(np.square(out["loop_err_filtered_m"])))
        rmse_o = math.sqrt(np.mean(np.square(out["loop_err_open_m"])))
        if not rmse_f < rmse_o:
            fails.append(f"closed loop RMSE {rmse_f:.3f} m not below open loop {rmse_o:.3f} m")
        if out["loop_misses"]:
            fails.append(f"{out['loop_misses']} loop steps without a detection")
        return fails


WORKLOADS = {w.name: w for w in (SquintFocal, MusicTrials, TrajectoryFocus, IsacLoop)}
