#!/usr/bin/env python3
"""Wall and process time of the shipped certified grid searches (squint.screened_argmax).

    python scripts/focal_timing.py --repeat 7

The searches are squint.focal_points on squint-deviation's grid
(configs/squint_deviation.yaml: 512 elements, 65 subcarriers, a 721 x 120
grid) and on acceptance criterion 07's arc search (512 elements, 129
subcarriers, a delay-phase front end fitted to a 60-80 degree arc at 20 m,
a 261 x 90 grid), and music.single_source_peaks on 12 one-source bases of
music-vs-wavenumber's shipped target (configs/music_vs_wavenumber.yaml: 256
elements, a 181 x 60 grid; seeds 0..11 at the shipped snapshot count and
noise power). After one warm-up call each, the three run in alternation,
--repeat times each, in this process. Per search the script prints the
minimum and median wall time (time.perf_counter) and process time, the
points screened and the points confirmed (their total and the most for one
column: a subcarrier, or a MUSIC basis). Set OPENBLAS_NUM_THREADS to fix the
BLAS thread count; the script prints the value it ran with, "default" when
it is unset.
"""

import argparse
import os
import time
from pathlib import Path

import numpy as np

from nfisac.arrays import ArrayGeometry, CarrierGrid
from nfisac.codebook import PolarGrid, polar_codeword
from nfisac.config import evaluation_grid, load_config
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.delay_phase import Arc, arc_trajectory_spec, fit_trajectory
from nfisac.music import collect_snapshots, single_source_peaks, snapshot_subspace
from nfisac.squint import focal_points, screened_argmax

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def searches() -> dict:
    """(function, arguments) of each search, by name."""
    cfg = load_config(str(CONFIG_DIR / "squint_deviation.yaml"))
    codeword = polar_codeword(cfg.ula, cfg.carrier, cfg.design)
    squint = (cfg.ula, cfg.carrier, codeword, evaluation_grid(cfg.section("grid")))
    geom = ArrayGeometry.ula(512, C / 3.0e11 / 2)
    grid = CarrierGrid(3.0e11, 129, 2.34375e8)
    front, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, Arc(np.radians(60.0), np.radians(80.0), 20.0)))
    pg = PolarGrid(np.linspace(np.radians(56.0), np.radians(84.0), 261), np.geomspace(14.0, 28.0, 90))
    cfg = load_config(str(CONFIG_DIR / "music_vs_wavenumber.yaml"))
    (target,) = cfg.targets
    snaps, noise = int(cfg.section("music")["snapshot_count"]), float(cfg.section("music")["noise_power_w"])
    bases = [snapshot_subspace(collect_snapshots(cfg.ula, cfg.carrier, [target], snaps, noise, s), 1) for s in range(12)]
    return {
        "squint-deviation": (focal_points, squint),
        "criterion-07": (focal_points, (geom, grid, front, pg)),
        "music-12-bases": (lambda *a: list(single_source_peaks(*a)), (bases, cfg.ula, cfg.carrier, cfg.grid)),
    }


def counts(name: str, args: tuple) -> tuple:
    """Points screened and confirmed (per column) by one search."""
    if name != "music-12-bases":
        traj = focal_points(*args)
        return traj.evaluated_points, traj.confirmed_points
    # the one screened_argmax call single_source_peaks makes for 12 bases
    bases, geom, grid, pg = args
    weights = np.array([e[:, 0] for e in bases])
    center = CarrierGrid(grid.center_hz, 1, 0.0)
    col, _, _, screened = screened_argmax(geom, center, weights, np.zeros(geom.num_elements), pg)
    return screened, np.bincount(col, minlength=len(bases))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7, help="timed calls per search (default 7)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    runs = searches()
    found = {name: counts(name, search) for name, (_, search) in runs.items()}  # warm-up
    wall = {name: [] for name in runs}
    cpu = {name: [] for name in runs}
    for _ in range(args.repeat):
        for name, (fn, search) in runs.items():
            w0, c0 = time.perf_counter(), time.process_time()
            fn(*search)
            wall[name].append(time.perf_counter() - w0)
            cpu[name].append(time.process_time() - c0)
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'default')}")
    for name, (screened, confirmed) in found.items():
        w, c = wall[name], cpu[name]
        print(
            f"{name}: wall min {min(w):.4f} s, median {float(np.median(w)):.4f} s; "
            f"process min {min(c):.4f} s, median {float(np.median(c)):.4f} s over {len(w)} calls; "
            f"{screened} points screened, {int(confirmed.sum())} confirmed "
            f"(at most {int(confirmed.max())} for one column)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
