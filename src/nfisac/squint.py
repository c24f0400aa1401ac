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


@dataclass(frozen=True, eq=False)
class SquintTrajectory:
    """Focal point and peak gain per subcarrier over an evaluation grid."""

    subcarriers: np.ndarray  # m = 0..M
    points: tuple  # of PolarPoint, length M+1
    gains: np.ndarray  # peak |w^H a_m|^2 per subcarrier
    boundary_warning: bool

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

    # range-major layout: full-grid index r * n_ang + angle index, so the
    # smallest full index among exact ties is the smallest range, then angle
    aa, rr = np.meshgrid(pg.angles_rad[:n_dir], pg.ranges_m, indexing="xy")
    taus = (rr / C).ravel()
    cosines = np.cos(aa).ravel()

    num_m = grid.num_subcarriers
    f0 = grid.freq(0)
    df = grid.spacing_hz
    wc = np.conj(w.weights)
    wc_rev = np.ascontiguousarray(wc[::-1])

    best_val = np.full(num_m, -1.0)
    best_idx = np.zeros(num_m, dtype=np.int64)
    for lo, hi, a, step in steering_chunks(geom, f0, taus, cosines, d, df):
        r, k = np.divmod(np.arange(lo, hi), n_dir)
        idx = r * n_ang + k
        g = np.empty((num_m, hi - lo))
        gm = np.empty((num_m, hi - lo)) if n_mir else None
        for m in range(num_m):
            # two matrix-vector products, not one GEMM: a GEMM would move the
            # low bits of the direct gains
            np.abs(a @ wc, out=g[m])
            if gm is not None:
                np.abs(a @ wc_rev, out=gm[m])
            if step is not None and m + 1 < num_m:
                a *= step
        if gm is not None:
            has = k < n_mir
            g = np.concatenate([g, gm[:, has]], axis=1)
            idx = np.concatenate([idx, (r * n_ang + n_ang - 1 - k)[has]])
        np.square(g, out=g)
        # smallest full index among exact ties, within the chunk and across
        # chunks (a chunk's mirrored indices can exceed the next chunk's)
        val = g.max(axis=1)
        at = np.where(g == val[:, None], idx, np.iinfo(np.int64).max).min(axis=1)
        better = (val > best_val) | ((val == best_val) & (at < best_idx))
        best_val[better] = val[better]
        best_idx[better] = at[better]

    ir, ia = np.divmod(best_idx, n_ang)
    points = tuple(
        PolarPoint(float(pg.ranges_m[r]), float(pg.angles_rad[a_]))
        for r, a_ in zip(ir, ia)
    )
    on_boundary = bool(
        np.any((ia == 0) | (ia == n_ang - 1) | (ir == 0) | (ir == n_rng - 1))
    )
    return SquintTrajectory(np.arange(num_m), points, best_val, on_boundary)


def squint_deviation(traj: SquintTrajectory, design: PolarPoint) -> tuple:
    """Max absolute (angle, range) deviation of the trajectory from a point."""
    if len(traj) == 0:
        raise ValueError("trajectory must be nonempty")
    d_ang = max(abs(p.angle_rad - design.angle_rad) for p in traj.points)
    d_rng = max(abs(p.range_m - design.range_m) for p in traj.points)
    return d_ang, d_rng
