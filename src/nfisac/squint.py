"""Per-subcarrier beam focal points and squint deviation metrics.

A frequency-flat codeword or a delay-phase front end focuses different
subcarriers at different points; the focal trajectory is the per-subcarrier
argmax of |w_m^H a_m| over a polar evaluation grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, CarrierGrid, PolarPoint, gains, steering_chunks
from .codebook import Beamformer, PolarGrid
from .constants import SPEED_OF_LIGHT as C

# an angle axis is mirror-symmetric when cos(theta_k) + cos(theta_{n-1-k}) is
# within a few ulps of zero for every k
_MIRROR_COS_TOL = 4 * np.finfo(float).eps
# a point is evaluated when its interval's bound comes within this fraction
# of sum |w_n|, the largest |g| can be, of a column's best; see _RangeBound
_SCREEN_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class SquintTrajectory:
    """Focal point and peak gain per subcarrier over an evaluation grid."""

    subcarriers: np.ndarray  # m = 0..M
    points: tuple  # of PolarPoint, length M+1
    gains: np.ndarray  # peak |w^H a_m|^2 per subcarrier
    boundary_warning: bool
    evaluated_points: int  # grid points whose gains were computed exactly

    def __len__(self) -> int:
        return len(self.points)


def focal_points(
    geom: ArrayGeometry, grid: CarrierGrid, w: Beamformer, pg: PolarGrid
) -> SquintTrajectory:
    """Grid-argmax focal point of w at every subcarrier.

    w is any front end: a codeword, whose delays are zero, or a fitted
    delay-phase one (delay_phase.fit_trajectory), whose delays_s shift the
    manifold's.
    Subcarrier m's focal point is the grid point with the largest computed
    gain |w^H a_m|^2, ties to the smaller range, then the smaller angle. The
    search is screened_argmax with one column per subcarrier; most of the
    grid is screened rather than evaluated, and the result is bit for bit
    that of evaluating every point. If any subcarrier peaks on the grid
    boundary the trajectory carries a boundary warning, meaning the grid is
    too small to trust that focal point.

    When w's delays equal their reverse (a codeword's are all zero) and the
    angle axis is symmetric about pi/2, the manifold is built only for the
    angles with cos >= 0, since ArrayGeometry's offsets are exactly
    antisymmetric; the gain at pi - theta is read as a(theta) .
    reverse(conj(w)), so it can differ from a direct evaluation in the last bits.
    """
    n_ang, n_rng = pg.shape
    if n_ang == 0 or n_rng == 0:
        raise ValueError("polar grid must be nonempty")
    if w.design_point is not None:
        p = w.design_point
        if not (
            pg.angles_rad[0] <= p.angle_rad <= pg.angles_rad[-1]
            and pg.ranges_m[0] <= p.range_m <= pg.ranges_m[-1]
        ):
            raise ValueError("evaluation grid does not cover the design point")

    # ArrayGeometry's offsets are antisymmetric, so with delays d equal to their
    # reverse the delays at -cos(theta) are those at cos(theta) in reverse
    # order; an asymmetric axis mirrors none
    d = w.delays_s
    cos_axis = np.cos(pg.angles_rad)
    mirror = np.array_equal(d, d[::-1]) and bool(np.all(np.abs(cos_axis + cos_axis[::-1]) <= _MIRROR_COS_TOL))
    best_val, best_idx, evaluated = screened_argmax(geom, grid, w.weights[None], d, pg, mirror=mirror)

    ir, ia = np.divmod(best_idx, n_ang)
    points = tuple(
        PolarPoint(float(pg.ranges_m[r]), float(pg.angles_rad[a_]))
        for r, a_ in zip(ir, ia)
    )
    on_boundary = bool(
        np.any((ia == 0) | (ia == n_ang - 1) | (ir == 0) | (ir == n_rng - 1))
    )
    return SquintTrajectory(np.arange(grid.num_subcarriers), points, best_val, on_boundary, evaluated)


def screened_argmax(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    weights: np.ndarray,
    delays_s: np.ndarray,
    pg: PolarGrid,
    mirror: bool = False,
    music: bool = False,
) -> tuple:
    """Grid argmax of every (subcarrier, weight) column, screened by range.

    weights is B x N. Column m * B + b pairs subcarrier m of grid with
    weight row w_b, and its gain at a point p is
    g = sum_n conj(w_bn) exp(-2j pi f_m (tau_n(p) - d_n)), with d = delays_s.
    A column ranks points by |g|^2, or with music by the one-source MUSIC
    spectrum 1 / max(N - |g|^2, tiny) of a unit-norm signal basis w_b,
    computed from |g| as music.music_spectrum computes it. Its best point
    has the largest value, ties to the smaller range, then the smaller
    angle.
    Returns each column's best value, the full-grid index
    range_index * num_angles + angle_index of its best point, and the
    number of gains computed.

    mirror may be set only when d equals its reverse and the angle axis is
    symmetric about pi/2 (see focal_points): then only the angles with
    cos >= 0 are built, and a mirrored point's gain is read from its mirror
    row's product with the reversed weights.

    Most of the grid is screened rather than evaluated, and each column's
    result is bit for bit that of evaluating every point. The first and last
    ranges are evaluated at every angle; then ranges are bisected, coarse
    intervals before fine ones. An interval between two evaluated ranges
    bounds |g| at every range inside it, for each angle and column
    (_RangeBound.peak), and its middle range is evaluated only at the angles
    where some column's bound reaches that column's floor: the least |g|
    that can tie its best value so far, less a margin for rounding in the
    computed gains and the bound. Both halves are then bisected on those
    angles alone, so an angle screened out of an interval is screened out
    of every range in it. The test is inclusive, so a point that ties the
    final best is evaluated and the tie-break holds. An interval whose lower
    range is not clear of the half-aperture, by one part in 1e6, keeps every
    angle. Each measured range is one steering pass over the direct-half
    rows it needs, and only the rows whose mirror point is kept take the
    mirrored product. Evaluated points run through the same steering rows
    and products (arrays.gains) as in a full evaluation, so their gains
    keep their bits; a column's products are its own, so its result does
    not depend on which columns share the search.
    """
    n_ang, n_rng = pg.shape
    n_dir = (n_ang + 1) // 2 if mirror else n_ang  # angles built directly
    n_mir = n_ang // 2 if mirror else 0  # of those, angles k < n_mir mirrored

    num_m = grid.num_subcarriers
    cos_axis = np.cos(pg.angles_rad)
    wc = np.conj(weights)
    wc_rev = np.ascontiguousarray(wc[:, ::-1])
    num_b, n = wc.shape
    cols = num_m * num_b

    best_val = np.full(cols, -1.0)
    best_idx = np.zeros(cols, dtype=np.int64)
    evaluated = 0
    row = np.empty((cols, n_ang))  # one range's |g| by angle index, reused

    def measure(r, angles):
        # |g| (column by angle) at range index r and the given ascending
        # angle indices, from one steering pass over the direct-half rows
        # they need: first the j rows whose mirror angle is wanted, which
        # also take the mirrored product, then the rest. Every gain computed
        # is exact and folded into the running best
        nonlocal evaluated
        hit = np.zeros(n_ang, dtype=bool)
        hit[angles] = True
        both = np.zeros(n_dir, dtype=bool)
        both[:n_mir] = hit[::-1][:n_mir]
        k = np.concatenate([np.flatnonzero(both), np.flatnonzero(hit[:n_dir] & ~both)])
        j = int(np.count_nonzero(both))
        evaluated += k.size + j
        taus = np.full(k.size, pg.ranges_m[r] / C)
        for lo, hi, rows in steering_chunks(geom, grid, taus, cos_axis[k], delays_s):
            kc = k[lo:hi]
            jc = min(max(j - lo, 0), hi - lo)  # the chunk's leading rows that mirror
            g = np.empty((num_m, num_b, hi - lo))
            gm = np.empty((num_m, num_b, jc))
            for m, a in enumerate(rows):
                # one matrix-vector product per weight, not one GEMM: a GEMM
                # would move the low bits of the gains
                for b in range(num_b):
                    gains(a, wc[b], out=g[m, b])
                    if jc:
                        gains(a[:jc], wc_rev[b], out=gm[m, b])
            g = g.reshape(cols, -1)
            # full-grid index r * n_ang + angle index, so the smallest full
            # index among exact ties is the smallest range, then angle
            idx = r * n_ang + kc
            row[:, kc] = g
            if jc:
                gm = gm.reshape(cols, -1)
                row[:, n_ang - 1 - kc[:jc]] = gm
                g = np.concatenate([g, gm], axis=1)
                idx = np.concatenate([idx, r * n_ang + n_ang - 1 - kc[:jc]])
            np.square(g, out=g)
            if music:
                # music_spectrum's N - |e^H a|^2, floored, then inverted
                np.subtract(n, g, out=g)
                np.maximum(g, np.finfo(float).tiny, out=g)
                np.divide(1.0, g, out=g)
            # smallest full index among exact ties, within the chunk and across
            # chunks (a chunk's mirrored indices can exceed the next chunk's)
            val = g.max(axis=1)
            at = np.where(g == val[:, None], idx, np.iinfo(np.int64).max).min(axis=1)
            better = (val > best_val) | ((val == best_val) & (at < best_idx))
            best_val[better] = val[better]
            best_idx[better] = at[better]
        return row[:, angles]

    def level():
        # the least computed |g| whose value can tie a column's best. A MUSIC
        # value V = 1 / D needs N - |g|^2 to round to at most D = 1 / V, and
        # the allowance of 4 eps N covers the roundings of N - |g|^2 and 1 / D
        if music:
            return np.sqrt(np.maximum(n - 1.0 / best_val - 4 * np.finfo(float).eps * n, 0.0))
        return np.sqrt(best_val)

    bound = _RangeBound(geom, grid, weights, delays_s, pg)
    every = np.arange(n_ang)
    # intervals (c0, c1, angles, |g| at c0, |g| at c1) whose ranges between
    # are still to be screened, |g| only at their angles; first in, first out
    pending = deque()
    lowest = measure(0, every)
    if n_rng > 1:
        pending.append((0, n_rng - 1, every, lowest, measure(n_rng - 1, every)))
    while pending:
        c0, c1, k, lower, upper = pending.popleft()
        if c1 - c0 < 2:
            continue
        if bound.clear(c0):
            floor = level() - bound.margin
            reach = np.any(bound.peak(lower, upper, k, c0, c1) >= floor[:, None], axis=0)
            if not reach.any():
                continue
            k, lower, upper = k[reach], lower[:, reach], upper[:, reach]
        mid = (c0 + c1) // 2
        middle = measure(mid, k)
        pending.append((c0, mid, k, lower, middle))
        pending.append((mid, c1, k, middle, upper))
    return best_val, best_idx, evaluated


class _RangeBound:
    """The certified bound that screens screened_argmax's ranges.

    With x_n the element positions, X = max |x_n| the half-aperture and
    g_m(p) = sum_n conj(w_n) exp(-2j pi f_m (tau_n(p) - d_n)), two points at
    one angle theta and ranges X < r1 < r2 satisfy

        | |g_m(p1)| - |g_m(p2)| | <= slope_m sin^2(theta) (h(r1) - h(r2)),

    slope_m = pi f_m sum_n |w_n| x_n^2 / c and h(r) = 1 / (r - X): |g|
    ignores the common delay r/c, the front end's delays d_n cancel, and the
    rest of tau_n moves with r at most x_n^2 sin^2(theta) / (2 c (r - X)^2).
    weights is one weight vector w or B of them (B x N); the bound has one
    column per (subcarrier, weight) pair, subcarrier-major.
    """

    def __init__(self, geom: ArrayGeometry, grid: CarrierGrid, weights: np.ndarray, delays_s: np.ndarray, pg: PolarGrid):
        x = geom.element_offsets_s * C
        self.half_ap = float(np.max(np.abs(x)))
        w_abs = np.abs(np.atleast_2d(weights))
        freqs = grid.freqs()
        self.slope = (np.pi * freqs[:, None] * (w_abs @ (x * x)) / C).ravel()
        self.sin2 = np.sin(pg.angles_rad) ** 2
        self.ranges = pg.ranges_m
        # a computed |g| differs from the exact one by at most sum |w_n| times a
        # few ulps of f * delay in phase (the phasors, the recurrence's steps)
        # plus the products' rounding; the margin allows hundreds of ulps of
        # each, and _SCREEN_MARGIN the bound's own rounding. One margin, from
        # the largest sum |w_n|, serves every column
        max_delay = (pg.ranges_m[-1] + self.half_ap) / C + float(np.max(np.abs(delays_s)))
        self.margin = float(w_abs.sum(axis=1).max()) * (
            _SCREEN_MARGIN + 2.0**-44 * (freqs[-1] * max_delay + geom.num_elements + grid.num_subcarriers)
        )

    def clear(self, c: int) -> bool:
        """Whether range index c is clear of the half-aperture, where the bound holds."""
        r = self.ranges[c]
        return r - self.half_ap > 1e-6 * r

    def peak(self, lower: np.ndarray, upper: np.ndarray, angles: np.ndarray, c0: int, c1: int) -> np.ndarray:
        """Bound on |g| at every range strictly between range indices c0 < c1.

        lower and upper are |g| (column by angle) at c0 and c1 at the given
        angle indices; c0 must be clear. At a range r between, |g| is at
        most lower + s (h0 - h(r)) and at most upper + s (h(r) - h1), with
        s = slope sin^2(theta) and h0, h1 = h at c0, c1. The two bounds sum
        to lower + upper + s (h0 - h1) whatever r is, so their mean bounds
        their minimum (the Piyavskii peak): it holds even when rounding puts
        lower and upper further apart than the slope allows.
        """
        h0, h1 = 1.0 / (self.ranges[[c0, c1]] - self.half_ap)
        return (lower + upper + np.multiply.outer(self.slope, self.sin2[angles] * (h0 - h1))) / 2


def squint_deviation(traj: SquintTrajectory, design: PolarPoint) -> tuple:
    """Max absolute (angle, range) deviation of the trajectory from a point."""
    if len(traj) == 0:
        raise ValueError("trajectory must be nonempty")
    d_ang = max(abs(p.angle_rad - design.angle_rad) for p in traj.points)
    d_rng = max(abs(p.range_m - design.range_m) for p in traj.points)
    return d_ang, d_rng
