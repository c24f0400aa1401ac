"""Per-subcarrier beam focal points and squint deviation metrics.

A frequency-flat codeword or a delay-phase front end focuses different
subcarriers at different points; the focal trajectory is the per-subcarrier
argmax of |w_m^H a_m| over a polar evaluation grid.
"""

from __future__ import annotations

from bisect import bisect_left
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

    points: tuple  # of PolarPoint, at subcarriers m = 0..M
    gains: np.ndarray  # peak |w^H a_m|^2 per subcarrier
    boundary_warning: bool
    evaluated_points: int  # grid points screened, their gains computed in complex64 at one subcarrier or more
    confirmed_points: np.ndarray  # per subcarrier, points whose gains decided it in float64

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
    that of evaluating every point on its own row, on any angle axis. If any
    subcarrier peaks on the grid boundary the trajectory carries a boundary
    warning, meaning the grid is too small to trust that focal point.
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

    col, idx, g, evaluated = screened_argmax(geom, grid, w.weights[None], w.delays_s, pg)
    best_val, best_idx = best_per_column(col, idx, np.square(g, out=g))

    ir, ia = np.divmod(best_idx, n_ang)
    points = tuple(
        PolarPoint(float(pg.ranges_m[r]), float(pg.angles_rad[a_]))
        for r, a_ in zip(ir, ia)
    )
    on_boundary = bool(
        np.any((ia == 0) | (ia == n_ang - 1) | (ir == 0) | (ir == n_rng - 1))
    )
    return SquintTrajectory(points, best_val, on_boundary, evaluated,
                            np.bincount(col, minlength=grid.num_subcarriers))


def screened_argmax(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    weights: np.ndarray,
    delays_s: np.ndarray,
    pg: PolarGrid,
) -> tuple:
    """The confirm set of every (subcarrier, weight) column's grid argmax, screened by range.

    weights is B x N. Column m * B + b pairs subcarrier m of grid with
    weight row w_b, and its gain at a point p is
    g = sum_n conj(w_bn) exp(-2j pi f_m (tau_n(p) - d_n)), with d = delays_s.
    Returns, per candidate of the confirm set, its column, its full-grid
    index range_index * num_angles + angle_index and its float64 |g|, and
    then the number of points screened. A column's candidates hold its
    largest |g| and every point whose |g| a caller's value could round
    into a tie with it (see slack), so best_per_column over a value that
    grows with |g| (focal_points' |g|^2, music's one-source spectrum) is
    the column's grid argmax, ties to the smaller range, then the smaller
    angle.

    The search runs in two precisions, and each candidate's |g| is bit for
    bit that of evaluating every point on its own row, on any angle axis.
    The screen computes |g| in complex64: steering rows from
    steering_chunks(..., dtype=np.complex64) and, per chunk window and
    subcarrier, one product of the window's rows with all B weights. Such
    a g32 is within _RangeBound.eps of the g64 the float64 path computes
    at that point, also on a row started past subcarrier 0.
    With d equal to its reverse, on an angle axis symmetric about pi/2
    within _MIRROR_COS_TOL, the screen builds only the rows with cos >= 0
    and screens a point past pi/2 on its mirror row through the reversed
    weights (ArrayGeometry's offsets are exactly antisymmetric); eps then
    covers the step to the point's own row.
    The first and last ranges are screened at every angle and column, in
    one steering pass; then ranges are bisected level by level. A level
    holds flat arrays of points: an interval c0 < c1 between two screened
    ranges, an angle, the g32 at both ends and need, the columns whose
    bound on |g| inside the interval (_RangeBound.peak) reaches the
    column's floor: its best g32 as the level starts less 2 eps, two
    float64 margins and the allowance by which a smaller |g| can still tie
    in value. A column left out reads -inf, so both halves of the interval
    leave it out too. A point whose lower range is not clear of the
    half-aperture, by one part in 1e6, needs every column, as the end
    ranges do. A level is one steering pass over its points' direct-half
    rows (_screen_rows), each row spanning the subcarriers from the first
    to the last one that its point, or the mirror point it also screens,
    needs (steering_chunks' spans), so a row is built and multiplied only
    where the squint can still put a column's peak; then each half-level
    is bounded and pruned on its own, and the two join as the next level.
    The g32 values are kept in float32, which holds them exactly.
    Every screened pair whose g32 comes within 2 eps, a margin and that
    allowance of its column's best g32 is a candidate; the list is pruned
    as the best rises, and what is left is the confirm set. One more
    steering pass, in complex128, builds each candidate's own row from
    subcarrier 0 to the last one it is needed at, and takes the
    candidates' |g| through the same rows and products (arrays.gains) as an
    exhaustive search, so they keep its bits. A column's products are its
    own, so its confirmed |g| do not depend on which columns share the
    search, nor on the screen's BLAS thread count.
    """
    n_ang, n_rng = pg.shape
    cos_axis = np.cos(pg.angles_rad)
    skew = np.abs(cos_axis + cos_axis[::-1])
    mirror = np.array_equal(delays_s, delays_s[::-1]) and bool(np.all(skew <= _MIRROR_COS_TOL))
    n_dir = (n_ang + 1) // 2 if mirror else n_ang  # angles built directly

    num_m = grid.num_subcarriers
    wc = np.conj(weights)
    wc32 = wc.astype(np.complex64)
    wc32_rev = np.ascontiguousarray(wc32[:, ::-1])
    num_b, n = wc.shape
    cols = num_m * num_b

    bound = _RangeBound(geom, grid, weights, delays_s, pg, skew if mirror else None)
    # the search's contract: the confirm set holds every point whose |g| a
    # caller's value could round into a tie with the best's. Such a point's
    # g32 is at least its column's best g32 less this: its g64 and the
    # best's differ from their g32 by eps each, and the margin plus
    # sqrt(8 eps N) covers a value's rounding, a few ulps of |g| (as for
    # |g|^2) or a few eps N in |g|^2 (as for music's spectrum of a unit-norm
    # weight): a g64 smaller than another by more has a smaller value
    slack = 2 * bound.eps + bound.margin + np.sqrt(8 * np.finfo(float).eps * n)
    best = np.full(cols, -np.inf)  # each column's best g32 so far
    # the candidates: column, full-grid index and g32 of each screened point
    # within slack of its column's best
    cand_col = np.empty(0, dtype=np.int64)
    cand_idx = np.empty(0, dtype=np.int64)
    cand_g = np.empty(0)
    evaluated = 0

    def measure(r, ang, need):
        # g32 (column by point) at the points (range index r, angle index
        # ang), -inf where need (column by point) leaves a column out, from
        # one steering pass over their direct-half rows (_screen_rows). A
        # row runs from the first to the last subcarrier that its point, or
        # the mirror point it also screens, is needed at; rows go in order
        # of (first, last, range), within a range those that also take the
        # mirrored product first, then by angle. Each chunk writes its
        # values straight into the points' columns. Every value screened
        # raises its column's best and joins the candidates if near it
        nonlocal evaluated, cand_col, cand_idx, cand_g
        row_r, row_k, to_dir, to_mir = _screen_rows(r, ang, n_ang, n_dir)
        evaluated += row_r.size + np.count_nonzero(to_mir >= 0)
        per_m = need.reshape(num_m, num_b, -1).any(axis=1)  # by subcarrier, the points needed
        on = per_m[:, to_dir] | per_m[:, to_mir] & (to_mir >= 0)
        first, last = on.argmax(axis=0), num_m - 1 - on[::-1].argmax(axis=0)
        order = np.lexsort((to_mir < 0, row_r, last, first))
        row_r, row_k, to_dir, to_mir, first, last = (x[order] for x in (row_r, row_k, to_dir, to_mir, first, last))
        val = np.empty(need.shape, np.float32)
        for lo, hi, rows in steering_chunks(geom, grid, pg.ranges_m[row_r] / C, cos_axis[row_k], delays_s,
                                            np.complex64, (first, last)):
            size = hi - lo
            mirrors = np.flatnonzero(to_mir[lo:hi] >= 0)
            mir = mirrors.tolist()
            # the direct products, then the mirrored ones; outside the
            # windows they are left unset, where need masks them
            g = np.empty((num_m, num_b, size + mirrors.size), np.float32)
            for m, i, a in rows:
                # one product per block against every weight: screen values
                # need no particular bits, so arrays.gains is bypassed
                np.abs(wc32 @ a.T, out=g[m, :, i : i + len(a)])
                # the mirrored product over the window's mirroring rows j0:j1
                # and any rows between them
                j0, j1 = bisect_left(mir, i), bisect_left(mir, i + len(a))
                if j0 == j1:
                    continue
                p0, p1 = mir[j0] - i, mir[j1 - 1] + 1 - i
                if p1 - p0 == j1 - j0:
                    np.abs(wc32_rev @ a[p0:p1].T, out=g[m, :, size + j0 : size + j1])
                else:
                    g[m, :, size + j0 : size + j1] = np.abs(wc32_rev @ a[p0:p1].T)[:, mirrors[j0:j1] - i - p0]
            # a row that screens only its mirror point writes its direct
            # product there, and the mirrored product overwrites it
            g = g.reshape(cols, -1)
            val[:, to_dir[lo:hi]] = g[:, :size]
            val[:, to_mir[lo:hi][mirrors]] = g[:, size:]
        np.copyto(val, -np.inf, where=~need)
        np.maximum(best, val.max(axis=1), out=best)
        floor = best - slack
        live = cand_g >= floor[cand_col]
        c, at = np.nonzero(val >= floor[:, None])
        cand_col = np.concatenate([cand_col[live], c])
        cand_idx = np.concatenate([cand_idx[live], r[at] * n_ang + ang[at]])
        cand_g = np.concatenate([cand_g[live], val[c, at]])
        return val

    def prune(*points):
        # of points (c0, c1, angle, g32 at c0, g32 at c1), those with a range
        # between and a column whose bound reaches the floor held for the
        # level (a point below it has a g64 below the candidates' floor: the
        # bound is within eps of the one from g64 values, which is within a
        # margin of every g64 between), with need. A column at -inf on either
        # end was screened out of a wider interval, and stays out
        c0, c1, ang, lower, upper = points
        need = bound.peak(lower, upper, ang, c0, c1) >= (best - slack - bound.margin)[:, None]
        need |= ~bound.clear(c0)
        keep = np.flatnonzero((c1 - c0 > 1) & need.any(axis=0))
        return [x[..., keep] for x in (*points, need)]

    every = np.arange(n_ang)
    ends = np.unique([0, n_rng - 1])
    at_ends = measure(np.repeat(ends, n_ang), np.tile(every, ends.size), np.ones((cols, ends.size * n_ang), bool))
    # one bisection level, a flat array per field: points (c0, c1, angle),
    # their g32 at c0 and c1, and need. Each half-level is pruned before the
    # halves join, so the float64 bound is held for half a level at a time
    level = prune(np.zeros(n_ang, dtype=np.int64), np.full(n_ang, n_rng - 1), every,
                  at_ends[:, :n_ang], at_ends[:, -n_ang:])
    while level[0].size:
        c0, c1, ang, lower, upper, need = level
        mid = (c0 + c1) // 2
        middle = measure(mid, ang, need)
        level = [np.concatenate(x, axis=-1) for x in zip(prune(c0, mid, ang, lower, middle),
                                                         prune(mid, c1, ang, middle, upper))]

    # the confirm set's gains in float64: one complex128 steering pass over
    # each candidate's own row and the products an exhaustive search takes,
    # arrays.gains per weight. A row runs from subcarrier 0, where it takes
    # the bits an exhaustive search gives it, to the last one it is needed
    # at; rows go in that order, so each window holds the rows still needed
    m, b = np.divmod(cand_col, num_b)
    rows_at, pos = np.unique(cand_idx, return_inverse=True)
    last = np.zeros(rows_at.size, dtype=np.int64)
    np.maximum.at(last, pos, m)
    order = np.argsort(last, kind="stable")
    rows_at, last = rows_at[order], last[order]
    pos = np.argsort(order)[pos]
    r, k = np.divmod(rows_at, n_ang)
    g = np.empty((num_m, num_b, rows_at.size))
    spans = np.zeros_like(last), last
    for lo, hi, rows in steering_chunks(geom, grid, pg.ranges_m[r] / C, cos_axis[k], delays_s, complex, spans):
        for mc, i, a in rows:
            for bc in range(num_b):
                gains(a, wc[bc], out=g[mc, bc, lo + i : lo + i + len(a)])
    # every column keeps at least its best g32's point
    return cand_col, cand_idx, g[m, b, pos], evaluated


def best_per_column(col: np.ndarray, idx: np.ndarray, val: np.ndarray) -> tuple:
    """Each column's largest value and its index, in column order; exact ties go to the smaller index.

    col, idx and val hold one entry per candidate, as screened_argmax returns
    its confirm set, with val the caller's value of each candidate.
    """
    first = np.lexsort((idx, -val, col))
    first = first[np.r_[True, col[first][1:] != col[first][:-1]]]
    return val[first], idx[first]


def _screen_rows(r: np.ndarray, angles: np.ndarray, n_ang: int, n_dir: int) -> tuple:
    """The direct-half rows k < n_dir that screen the points (range index r, angles).

    Angle a >= n_dir is screened on row n_ang - 1 - a, the rest on their
    own rows. Per row, by (range, angle): its range and angle index, the
    point it screens directly (else its mirror point) and its mirror point,
    -1 if none.
    """
    far = angles >= n_dir
    k = np.where(far, n_ang - 1 - angles, angles)
    rows, row_of = np.unique(r * n_dir + k, return_inverse=True)
    to_mir = np.full(rows.size, -1)
    to_mir[row_of[far]] = np.flatnonzero(far)
    to_dir = to_mir.copy()
    to_dir[row_of[~far]] = np.flatnonzero(~far)
    return *np.divmod(rows, n_dir), to_dir, to_mir


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

    margin bounds, for every column, the distance of a float64 |g| from the
    exact one plus the bound's own rounding, on a row started at any
    subcarrier. eps bounds, per column, the distance of the screen's
    complex64 |g| from the float64 one the confirm pass computes at its
    point: sum |w_n| times _screen_error at the column's subcarrier, which
    bounds the distance from the float64 row with the screen row's own
    start, plus 2 margin, since a row started past subcarrier 0 does not
    have the confirm pass's float64 bits (both are within a margin of the
    exact |g|). On a mirrored screen (skew given: |s| with s =
    cos(theta_k) + cos(theta_{n-1-k})) a point is screened on the row at
    cos(theta) + s. No element lies closer than r sin(theta) to the point,
    so |d tau_n / d cos(theta)| <= |t_n| / sin(theta), t_n the element
    offsets (s), and eps grows by 2 pi f_m sum |w_n| |t_n| max |s| /
    sin(theta); the 2 margin covers that exact step's two ends as well.
    """

    def __init__(self, geom: ArrayGeometry, grid: CarrierGrid, weights: np.ndarray, delays_s: np.ndarray,
                 pg: PolarGrid, skew=None):
        x = geom.element_offsets_s * C
        self.half_ap = float(np.max(np.abs(x)))
        w_abs = np.abs(np.atleast_2d(weights))
        w_sum = w_abs.sum(axis=1)
        freqs = grid.freqs()
        self.slope = (np.pi * freqs[:, None] * (w_abs @ (x * x)) / C).ravel()
        self.sin2 = np.sin(pg.angles_rad) ** 2
        self.ranges = pg.ranges_m
        # h per range index, 0 where not clear: a bound there stays finite
        self.h = np.divide(1.0, self.ranges - self.half_ap, out=np.zeros_like(self.ranges),
                           where=self.clear(np.arange(self.ranges.size)))
        # a computed |g| differs from the exact one by at most sum |w_n| times a
        # few ulps of f * delay in phase (the phasors, the recurrence's steps)
        # plus the products' rounding; the margin allows hundreds of ulps of
        # each, and _SCREEN_MARGIN the bound's own rounding. One margin, from
        # the largest sum |w_n|, serves every column
        max_delay = (pg.ranges_m[-1] + self.half_ap) / C + float(np.max(np.abs(delays_s)))
        self.margin = float(w_sum.max()) * (
            _SCREEN_MARGIN + 2.0**-44 * (freqs[-1] * max_delay + geom.num_elements + grid.num_subcarriers)
        )
        self.eps = np.multiply.outer(_screen_error(geom.num_elements, grid.num_subcarriers), w_sum).ravel()
        self.eps += 2 * self.margin
        if skew is not None:
            step = np.divide(skew, np.sin(pg.angles_rad), out=np.zeros_like(skew), where=skew > 0).max()
            lip = 2 * np.pi * np.multiply.outer(freqs, w_abs @ np.abs(geom.element_offsets_s)).ravel()
            self.eps += lip * step

    def clear(self, c):
        """Whether range index c (an int or array) is clear of the half-aperture, where the bound holds."""
        r = self.ranges[c]
        return r - self.half_ap > 1e-6 * r

    def peak(self, lower: np.ndarray, upper: np.ndarray, angles, c0, c1) -> np.ndarray:
        """Bound on |g| at every range strictly between range indices c0 < c1.

        lower and upper are |g| (column by point) at c0 and c1; angles, c0
        and c1 are ints or arrays, one entry per point. The bound holds
        where c0 is clear, and stays finite elsewhere. At a range r between,
        |g| is at most lower + s (h0 - h(r)) and at most upper + s (h(r) -
        h1), with s = slope sin^2(theta) and h0, h1 = h at c0, c1. The two
        bounds sum to lower + upper + s (h0 - h1), in float64, whatever r is,
        so their mean bounds their minimum (the Piyavskii peak): it holds
        even when rounding puts lower and upper further apart than the slope
        allows.
        """
        bound = np.add(lower, upper, dtype=float)
        bound += np.multiply.outer(self.slope, self.sin2[angles] * (self.h[c0] - self.h[c1]))
        return np.divide(bound, 2, out=bound)


def _screen_error(num_elements: int, num_subcarriers: int) -> np.ndarray:
    """Bound on |g32 - g64| per unit sum |w_n|, at each subcarrier m = 0..M.

    g64 is |a_m . w| as the float64 path computes it from the screen row's
    start and g32 the screen's value from complex64 rows and weights. With
    u = 2**-24 and unit-modulus rows, g32 departs from g64 by at most
    sum |w_n| times
        u ((m + 1) + sqrt(5) m + sqrt(2) (N + 2) + 5):
    rounding the start and the m steps to complex64 (u each), m complex64
    multiplies of the recurrence (sqrt(5) u each; a row started at
    subcarrier s takes only m - s steps, so the bound holds for it too),
    the float32 dot product (sqrt(2) gamma_{N+2}, for any summation order,
    with or without fused multiply-adds), rounding the weights (u) and the
    complex64 modulus (4 u: numpy's scaled hypot, larger * sqrt(1 +
    ratio^2), rounds five times, 3.25 u to first order; 2.5 u was
    measured).
    With K u that factor, dividing by 1 - 2 K u covers the second-order
    terms and the float64 path's own roundings (2**-29 of these); valid
    while K u < 1/4, for N and M up to about a million.
    """
    u = np.finfo(np.float32).eps / 2
    m = np.arange(num_subcarriers)
    k = (m + 1) + np.sqrt(5.0) * m + np.sqrt(2.0) * (num_elements + 2) + 5
    return k * u / (1 - 2 * k * u)


def squint_deviation(traj: SquintTrajectory, design: PolarPoint) -> tuple:
    """Max absolute (angle, range) deviation of the trajectory from a point."""
    if len(traj) == 0:
        raise ValueError("trajectory must be nonempty")
    d_ang = max(abs(p.angle_rad - design.angle_rad) for p in traj.points)
    d_rng = max(abs(p.range_m - design.range_m) for p in traj.points)
    return d_ang, d_rng
