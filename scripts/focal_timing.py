#!/usr/bin/env python3
"""Process time of squint.focal_points on the two shipped focal searches.

    python scripts/focal_timing.py --repeat 7

The searches are squint-deviation's (configs/squint_deviation.yaml: 512
elements, 65 subcarriers, a 721 x 120 grid) and acceptance criterion 07's
arc search (512 elements, 129 subcarriers, a delay-phase front end fitted
to a 60-80 degree arc at 20 m, a 261 x 90 grid). After one warm-up call
each, the two run in alternation, --repeat times each, in this process.
Per search the script prints the minimum and median process time, the
points screened (evaluated_points) and the points confirmed
(confirmed_points: their total and the most for one subcarrier). Set
OPENBLAS_NUM_THREADS to fix the BLAS thread count.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from nfisac.arrays import ArrayGeometry, CarrierGrid
from nfisac.codebook import PolarGrid, polar_codeword
from nfisac.config import evaluation_grid, load_config
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.delay_phase import Arc, arc_trajectory_spec, fit_trajectory
from nfisac.squint import focal_points

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "squint_deviation.yaml"


def searches() -> dict:
    """focal_points arguments of each search, by name."""
    cfg = load_config(str(CONFIG))
    codeword = polar_codeword(cfg.ula, cfg.carrier, cfg.design)
    squint = (cfg.ula, cfg.carrier, codeword, evaluation_grid(cfg.section("grid")))
    geom = ArrayGeometry.ula(512, C / 3.0e11 / 2)
    grid = CarrierGrid(3.0e11, 129, 2.34375e8)
    front, _ = fit_trajectory(geom, grid, arc_trajectory_spec(grid, Arc(np.radians(60.0), np.radians(80.0), 20.0)))
    pg = PolarGrid(np.linspace(np.radians(56.0), np.radians(84.0), 261), np.geomspace(14.0, 28.0, 90))
    return {"squint-deviation": squint, "criterion-07": (geom, grid, front, pg)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7, help="timed calls per search (default 7)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    runs = searches()
    trajs = {name: focal_points(*search) for name, search in runs.items()}  # warm-up
    times = {name: [] for name in runs}
    for _ in range(args.repeat):
        for name, search in runs.items():
            t0 = time.process_time()
            focal_points(*search)
            times[name].append(time.process_time() - t0)
    for name, traj in trajs.items():
        t = times[name]
        print(
            f"{name}: min {min(t):.3f} s, median {float(np.median(t)):.3f} s over {len(t)} calls; "
            f"{traj.evaluated_points} points screened, {int(traj.confirmed_points.sum())} confirmed "
            f"(at most {int(traj.confirmed_points.max())} for one subcarrier)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
