#!/usr/bin/env python3
"""Replay the certified range bisection of squint.screened_argmax under other bounds.

    python scripts/bound_replay.py
    python scripts/bound_replay.py --search criterion-07 --fifo

For each focal search of scripts/focal_timing.py (squint-deviation's
721 x 120 grid, 65 subcarriers; criterion 07's 261 x 90 arc grid, 129
subcarriers) the script first computes, over the whole grid, every
point's float64 gain g and its exact derivative dg/dh along range, with
h = 1 / (r - X), X the half-aperture, and the common delay r/c left out
of both (|g| does not see it). It then replays the search's bisection
with no mirrored screen and no complex64 eps: a middle range is screened
at the (angle, subcarrier) pairs whose bound reaches the floor, the best
|g| so far less two float64 margins and the tie allowance. The floor is
held for a whole bisection level, as in the shipped search, or with
--fifo raised after every middle range, as in the first-in first-out
queue the search used before. The bounds on |g| inside an interval:

  linear    the shipped one, squint._RangeBound.peak
  hermite   from each end, |g + g' D| + L2 D^2 / 2, D the step in h; at
            each grid range inside, the smaller of the two, then the
            largest over those ranges. SIZING ONLY: L2 is sampled at the
            grid's ranges, not proved. Two L2 per (angle, subcarrier):
            triangle, the largest sum_n |w_n| (phi_n'^2 + |phi_n''|) with
            phi_n the element's phase in h, the form a proof would bound;
            coherent, the largest |g''| as difference quotients of g'
            between adjacent ranges
  oracle    the true largest |g| at the ranges strictly between, a floor
            for any certified bound

Per bound and bisection level it prints the points screened (rows) and the
(row, subcarrier) pairs that a row spanning its first to last needed
subcarrier builds; level 0 is the two end ranges, built over the whole
band. A miss is an (interval, angle, subcarrier) whose bound lies below the
true largest |g| at the grid ranges inside. The squint-deviation replay
holds about 0.5 GB and takes 15-20 s at one BLAS thread.
"""

import argparse
import time

import numpy as np

from focal_timing import searches
from nfisac.arrays import spherical_delay_matrix, steering_chunks
from nfisac.constants import SPEED_OF_LIGHT as C
from nfisac.squint import _RangeBound

def grid_gains(geom, grid, w, pg) -> tuple:
    """g and dg/dh without the common delay r/c, each (range, subcarrier, angle), and a sampled L2.

    With u_n = |p - x_n| - r, g = sum_n conj(w_n) exp(-2j pi f u_n / c)
    times the dropped common phase. L2 (subcarrier, angle) is the largest,
    over the grid's ranges, of the triangle bound on |d^2 g / dh^2|:
    sum_n |w_n| (phi_n'^2 + |phi_n''|), phi_n = 2 pi f u_n / c.
    """
    n_ang, n_rng = pg.shape
    x = geom.element_offsets_s * C
    half_ap = float(np.max(np.abs(x)))
    k = 2 * np.pi * grid.freqs() / C
    wc = np.conj(w.weights)
    w_abs = np.abs(w.weights)
    g = np.empty((n_rng, grid.num_subcarriers, n_ang), dtype=complex)
    dg = np.empty_like(g)
    l2 = np.zeros((grid.num_subcarriers, n_ang))
    cos_axis = np.cos(pg.angles_rad)
    sin2 = np.sin(pg.angles_rad) ** 2
    for r, range_m in enumerate(pg.ranges_m):
        taus = np.full(n_ang, range_m / C)
        dist = spherical_delay_matrix(geom, taus, cos_axis) * C
        # du/dr and d2u/dr2, then through r = X + 1 / h: dr/dh = -(r - X)^2
        # and d2r/dh2 = 2 (r - X)^3
        du = (range_m - np.multiply.outer(cos_axis, x)) / dist - 1.0
        d2u = np.multiply.outer(sin2, x * x) / dist**3
        du, d2u = -du * (range_m - half_ap) ** 2, d2u * (range_m - half_ap) ** 4 + 2 * du * (range_m - half_ap) ** 3
        slope = du / C  # d(tau_n - r / c)/dh
        for lo, hi, rows in steering_chunks(geom, grid, taus, cos_axis, w.delays_s):
            for m, _, a in rows:
                g[r, m, lo:hi] = a @ wc
                dg[r, m, lo:hi] = (a * slope[lo:hi]) @ wc
        common = np.exp(1j * k * range_m)[:, None]
        g[r] *= common
        dg[r] *= common * (-1j * k[:, None] * C)
        np.maximum(l2, np.outer(k * k, (du * du) @ w_abs) + np.outer(k, np.abs(d2u) @ w_abs), out=l2)
    return g, dg, l2


def coherent_l2(bound: _RangeBound, dg: np.ndarray) -> np.ndarray:
    """The largest |dg'/dh| between adjacent ranges, per (subcarrier, angle)."""
    h = 1.0 / (bound.ranges - bound.half_ap)
    l2 = np.zeros(dg.shape[1:])
    for r in range(dg.shape[0] - 1):
        np.maximum(l2, np.abs(dg[r + 1] - dg[r]) / abs(h[r + 1] - h[r]), out=l2)
    return l2


def replay(bound: _RangeBound, g: np.ndarray, dg: np.ndarray, l2, num_elements: int, kind: str, fifo: bool) -> tuple:
    """(points, pairs) screened per bisection level under one bound, and its misses.

    kind is "linear", "oracle" or "hermite", the last with the given L2 per
    (subcarrier, angle). A miss is an (interval, angle, subcarrier) whose
    bound lies below the true largest |g| at the grid ranges inside the
    interval; a certified bound has none.
    """
    n_rng, num_m, n_ang = g.shape
    mag = np.abs(g)
    h = 1.0 / (bound.ranges - bound.half_ap)
    tie = np.sqrt(8 * np.finfo(float).eps * num_elements)
    best = np.maximum(mag[0], mag[-1]).max(axis=1)
    every = np.arange(n_ang)
    found, misses = [(2 * n_ang, 2 * n_ang * num_m)], 0
    level = [(0, n_rng - 1, every, mag[0], mag[-1])] if n_rng > 2 else []
    while level:
        floor = best - 2 * bound.margin - tie
        points = pairs = 0
        halves = []
        for c0, c1, k, lower, upper in level:
            if fifo:
                floor = best - 2 * bound.margin - tie
            inside = np.arange(c0 + 1, c1)
            truth = mag[inside][:, :, k].max(axis=0)
            if kind == "linear":
                peak = bound.peak(lower, upper, k, c0, c1)
            elif kind == "oracle":
                peak = truth
            else:
                d0 = (h[inside] - h[c0])[:, None, None]
                d1 = (h[inside] - h[c1])[:, None, None]
                from0 = np.abs(g[c0][:, k] + dg[c0][:, k] * d0) + l2[:, k] * d0 * d0 / 2
                from1 = np.abs(g[c1][:, k] + dg[c1][:, k] * d1) + l2[:, k] * d1 * d1 / 2
                peak = np.minimum(from0, from1).max(axis=0)
            # a pair screened out of a wider interval stays out
            out = np.isneginf(lower) | np.isneginf(upper)
            misses += int(np.count_nonzero((peak < truth) & ~out))
            peak[out] = -np.inf
            need = peak >= floor[:, None] if bound.clear(c0) else np.ones_like(peak, dtype=bool)
            keep = np.flatnonzero(need.any(axis=0))
            if not keep.size:
                continue
            k, lower, upper, need = k[keep], lower[:, keep], upper[:, keep], need[:, keep]
            mid = (c0 + c1) // 2
            middle = np.where(need, mag[mid][:, k], -np.inf)
            np.maximum(best, middle.max(axis=1), out=best)
            points += k.size
            pairs += int((num_m - need[::-1].argmax(axis=0) - need.argmax(axis=0)).sum())
            if mid - c0 > 1:
                halves.append((c0, mid, k, lower, middle))
            if c1 - mid > 1:
                halves.append((mid, c1, k, middle, upper))
        level = halves
        if points:
            found.append((points, pairs))
    return found, misses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--search", choices=["squint-deviation", "criterion-07"], action="append",
                    help="search to replay (default both; may repeat)")
    ap.add_argument("--fifo", action="store_true",
                    help="raise the floor after every middle range, as a first-in first-out queue would, "
                         "rather than once per level")
    args = ap.parse_args(argv)
    runs = searches()
    for name in args.search or ["squint-deviation", "criterion-07"]:
        t0 = time.perf_counter()
        _, (geom, grid, w, pg) = runs[name]
        bound = _RangeBound(geom, grid, w.weights, w.delays_s, pg)
        g, dg, l2 = grid_gains(geom, grid, w, pg)
        print(f"{name}: {pg.shape[0]} x {pg.shape[1]} grid, {grid.num_subcarriers} subcarriers, "
              f"{pg.shape[0] * pg.shape[1]} points")
        bounds = {
            "linear": ("linear", None),
            "hermite, triangle L2 (sizing only)": ("hermite", l2),
            "hermite, coherent L2 (sizing only)": ("hermite", coherent_l2(bound, dg)),
            "oracle": ("oracle", None),
        }
        for label, (kind, l2_of) in bounds.items():
            found, misses = replay(bound, g, dg, l2_of, geom.num_elements, kind, args.fifo)
            points, pairs = (sum(col) for col in zip(*found))
            print(f"  {label}: {points} points, {pairs} (row, subcarrier) pairs, {misses} misses")
            for depth, (p, q) in enumerate(found):
                print(f"    level {depth}: {p} points, {q} pairs")
        print(f"  ({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
