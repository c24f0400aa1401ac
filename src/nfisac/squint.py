"""Per-subcarrier beam focal points and squint deviation metrics.

A frequency-flat codeword or a delay-phase front end focuses different
subcarriers at different points; the focal trajectory is the per-subcarrier
argmax of |w_m^H a_m| over a polar evaluation grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, CarrierGrid, PolarPoint, steering_chunks
from .codebook import Beamformer, PolarGrid
from .constants import SPEED_OF_LIGHT as C

# an angle axis is mirror-symmetric when cos(theta_k) + cos(theta_{n-1-k}) is
# within a few ulps of zero for every k
_MIRROR_COS_TOL = 4 * np.finfo(float).eps
# every _RANGE_STRIDE-th range, and the last, is evaluated at every angle; the
# ranges between are bounded from those two and evaluated only where it counts
_RANGE_STRIDE = 8
# a bounded point is evaluated when its bound comes within this fraction of
# sum |w_n|, the largest |g| can be, of a subcarrier's best; see focal_points
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

    w may be a delay-phase front end, whose delays_s shift the manifold's.
    Ties break toward smaller range, then smaller angle. If any subcarrier
    peaks on the grid boundary the trajectory carries a boundary warning,
    meaning the grid is too small to trust that focal point.

    When the array offsets are exactly antisymmetric (as ArrayGeometry.ula builds them),
    w's delays equal their reverse and the angle axis is symmetric about pi/2, the manifold
    is built only for the angles with cos >= 0; the gain at pi - theta is read as
    a(theta) . reverse(conj(w)), so it can differ from a direct evaluation in the last bits.

    Most of the grid is screened rather than evaluated, and the result is bit
    for bit that of evaluating every point. With x_n the element positions,
    X = max |x_n| the half-aperture and g_m(p) = sum_n conj(w_n)
    exp(-2j pi f_m (tau_n(p) - d_n)), two points at one angle theta and
    ranges X < r1 < r2 satisfy

        | |g_m(p1)| - |g_m(p2)| | <= (pi f_m sin^2(theta) / c)
                                     * sum_n |w_n| x_n^2 * (h(r1) - h(r2)),

    h(r) = 1 / (r - X): |g| ignores the common delay r/c, the front end's
    delays d_n cancel, and the rest of tau_n moves with r at most
    x_n^2 sin^2(theta) / (2 c (r - X)^2). Every _RANGE_STRIDE-th range and
    the last are evaluated at every angle, in ascending order. A range
    between two such is bounded at each angle and subcarrier by the smaller
    of the bounds from its two neighbours, and a point is evaluated when
    that bound reaches the best gain of some subcarrier so far, less a
    margin for rounding in the computed gains and the bound. The test is
    inclusive, so a point that ties the final best is evaluated and the
    tie-break holds. An interval whose lower range is not clear of X, by
    one part in 1e6, is evaluated in full. Evaluated points run through the
    same steering rows and products as in a full evaluation (never a lone
    row: see steering_chunks), so their gains keep their bits; a kept row
    whose mirror point is screened out skips the mirrored product.
    """
    n_ang, n_rng = pg.angles_rad.size, pg.ranges_m.size
    if n_ang == 0 or n_rng == 0:
        raise ValueError("polar grid must be nonempty")
    if w.design_point is not None:
        p = w.design_point
        if not (
            pg.angles_rad[0] <= p.angle_rad <= pg.angles_rad[-1]
            and pg.ranges_m[0] <= p.range_m <= pg.ranges_m[-1]
        ):
            raise ValueError("evaluation grid does not cover the design point")

    # antisymmetric offsets, shifted by delays d equal to their reverse, make the delays
    # at -cos(theta) those at cos(theta) in reverse order; an asymmetric axis mirrors none
    t, d = geom.element_offsets_s, w.delays_s
    cos_axis = np.cos(pg.angles_rad)
    mirror = np.array_equal(t, -t[::-1]) and (d is None or np.array_equal(d, d[::-1])) and bool(
        np.all(np.abs(cos_axis + cos_axis[::-1]) <= _MIRROR_COS_TOL)
    )
    n_dir = (n_ang + 1) // 2 if mirror else n_ang  # angles built directly
    n_mir = n_ang // 2 if mirror else 0  # of those, angles k < n_mir mirrored

    num_m = grid.num_subcarriers
    f0 = grid.freq(0)
    df = grid.spacing_hz
    wc = np.conj(w.weights)
    wc_rev = np.ascontiguousarray(wc[::-1])

    best_val = np.full(num_m, -1.0)
    best_idx = np.zeros(num_m, dtype=np.int64)
    evaluated = 0

    def evaluate(r, k, row=None, mirrored=True):
        # exact gains of the direct-half points (range index r, angle index k)
        # and, if mirrored, of their mirror points, folded into the running
        # best; with row, a range's |g| by angle index
        nonlocal evaluated
        evaluated += r.size + (int(np.count_nonzero(k < n_mir)) if mirrored else 0)
        if r.size == 1 and n_rng * n_dir > 1:
            # numpy hands a one-row product to BLAS's dot, whose last bits
            # differ from the matrix-vector kernel's; a duplicate keeps two rows
            r, k = np.repeat(r, 2), np.repeat(k, 2)
        taus, cosines = pg.ranges_m[r] / C, cos_axis[k]
        # full-grid index r * n_ang + angle index, so the smallest full index
        # among exact ties is the smallest range, then angle
        full = r * n_ang
        for lo, hi, a, step in steering_chunks(geom, f0, taus, cosines, d, df):
            kc = k[lo:hi]
            idx = full[lo:hi] + kc
            g = np.empty((num_m, hi - lo))
            gm = np.empty((num_m, hi - lo)) if n_mir and mirrored else None
            for m in range(num_m):
                # two matrix-vector products, not one GEMM: a GEMM would move the
                # low bits of the direct gains
                np.abs(a @ wc, out=g[m])
                if gm is not None:
                    np.abs(a @ wc_rev, out=gm[m])
                if step is not None and m + 1 < num_m:
                    a *= step
            if gm is not None:
                has = kc < n_mir
                if row is not None:
                    row[:, n_ang - 1 - kc[has]] = gm[:, has]
                g = np.concatenate([g, gm[:, has]], axis=1)
                idx = np.concatenate([idx, (full[lo:hi] + n_ang - 1 - kc)[has]])
            if row is not None:
                row[:, kc] = g[:, : hi - lo]
            np.square(g, out=g)
            # smallest full index among exact ties, within the chunk and across
            # chunks (a chunk's mirrored indices can exceed the next chunk's)
            val = g.max(axis=1)
            at = np.where(g == val[:, None], idx, np.iinfo(np.int64).max).min(axis=1)
            better = (val > best_val) | ((val == best_val) & (at < best_idx))
            best_val[better] = val[better]
            best_idx[better] = at[better]

    # the bound's constants: half-aperture X, its per-subcarrier slope factor
    # pi f_m sum_n |w_n| x_n^2 / c, and sin^2 per angle
    x = t * C
    half_ap = float(np.max(np.abs(x)))
    w_abs = np.abs(w.weights)
    freqs = grid.freqs()
    slope = np.pi * freqs * float(w_abs @ (x * x)) / C
    sin2 = np.sin(pg.angles_rad) ** 2
    # a computed |g| differs from the exact one by at most sum |w_n| times a
    # few ulps of f * delay in phase (the phasors, the recurrence's steps)
    # plus the products' rounding; the margin allows hundreds of ulps of
    # each, and _SCREEN_MARGIN the bound's own rounding
    max_delay = (pg.ranges_m[-1] + half_ap) / C + (0.0 if d is None else float(np.max(np.abs(d))))
    w_sum = float(w_abs.sum())
    margin = w_sum * (_SCREEN_MARGIN + 2.0**-44 * (freqs[-1] * max_delay + geom.num_elements + num_m))

    direct = np.arange(n_dir)
    coarse = sorted(set(range(0, n_rng, _RANGE_STRIDE)) | {n_rng - 1})
    lower = np.empty((num_m, n_ang))  # |g| at the evaluated range below, then above
    upper = np.empty((num_m, n_ang))
    evaluate(np.full(n_dir, coarse[0]), direct, lower)
    for c0, c1 in zip(coarse, coarse[1:]):
        evaluate(np.full(n_dir, c1), direct, upper)
        inner = np.arange(c0 + 1, c1)
        r0 = pg.ranges_m[c0]
        if r0 - half_ap > 1e-6 * r0:
            h = 1.0 / (pg.ranges_m[c0 : c1 + 1] - half_ap)
            floor = np.sqrt(best_val) - margin
            hit = _reachable(lower, upper, slope, sin2, h[0] - h[1:-1], h[1:-1] - h[-1], floor)
            # a direct row whose mirror is kept yields both gains; one whose
            # mirror is not skips the mirrored product
            with_mirror = np.zeros((inner.size, n_dir), dtype=bool)
            with_mirror[:, :n_mir] = hit[:, ::-1][:, :n_mir]
            direct_only = hit[:, :n_dir] & ~with_mirror
        else:  # the bound holds only past the half-aperture
            with_mirror = np.ones((inner.size, n_dir), dtype=bool)
            direct_only = np.zeros_like(with_mirror)
        for keep, mirrored in ((direct_only, False), (with_mirror, True)):
            ri, ki = np.nonzero(keep)
            if ri.size:
                evaluate(inner[ri], ki, mirrored=mirrored)
        lower, upper = upper, lower

    ir, ia = np.divmod(best_idx, n_ang)
    points = tuple(
        PolarPoint(float(pg.ranges_m[r]), float(pg.angles_rad[a_]))
        for r, a_ in zip(ir, ia)
    )
    on_boundary = bool(
        np.any((ia == 0) | (ia == n_ang - 1) | (ir == 0) | (ir == n_rng - 1))
    )
    return SquintTrajectory(np.arange(num_m), points, best_val, on_boundary, evaluated)


def _reachable(lower, upper, slope, sin2, rise_lo, rise_hi, floor) -> np.ndarray:
    """Which points between two fully evaluated ranges may reach floor.

    lower and upper are |g| (subcarrier by angle) at the ranges below and
    above. At the j-th range between, |g| exceeds lower by at most
    slope_m sin2_k rise_lo[j] and upper by at most slope_m sin2_k
    rise_hi[j]; a point is kept when both bounds reach floor_m at some
    subcarrier. Returns a bool array, range between by angle.
    """
    out = np.empty((rise_lo.size, sin2.size), dtype=bool)
    bound = np.empty(lower.shape)
    reach = np.empty(lower.shape, dtype=bool)
    reach_hi = np.empty(lower.shape, dtype=bool)
    floor = floor[:, None]
    for j in range(rise_lo.size):
        np.multiply(slope[:, None], sin2 * rise_lo[j], out=bound)
        np.add(bound, lower, out=bound)
        np.greater_equal(bound, floor, out=reach)
        np.multiply(slope[:, None], sin2 * rise_hi[j], out=bound)
        np.add(bound, upper, out=bound)
        np.greater_equal(bound, floor, out=reach_hi)
        np.logical_and(reach, reach_hi, out=reach)
        np.any(reach, axis=0, out=out[j])
    return out


def squint_deviation(traj: SquintTrajectory, design: PolarPoint) -> tuple:
    """Max absolute (angle, range) deviation of the trajectory from a point."""
    if len(traj) == 0:
        raise ValueError("trajectory must be nonempty")
    d_ang = max(abs(p.angle_rad - design.angle_rad) for p in traj.points)
    d_rng = max(abs(p.range_m - design.range_m) for p in traj.points)
    return d_ang, d_rng
