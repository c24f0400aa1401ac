"""Per-antenna true-time-delay plus phase-shifter front end.

Each antenna path applies a real delay and a frequency-flat phase, so the
per-subcarrier weight is exp(-j*(2*pi*f_m*delay_n + phase_n))/sqrt(N). Delays
make the phase slope track frequency, which lets one configuration point
different subcarriers at different spatial locations (a beam trajectory);
phases alone cannot (they are frequency-flat). As w_m^H a_m equals
sum_n (exp(j*phase_n)/sqrt(N)) exp(-2j*pi*f_m*(tau_n - delay_n)), the
front end is one codebook.Beamformer, its phases on shifted delays, for every
subcarrier.

Fitting a requested trajectory reduces to per-antenna linear regression of
unwrapped target phase against frequency: slope -> delay, intercept -> phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .arrays import ArrayGeometry, CarrierGrid, PolarPoint, spherical_delay_matrix
from .codebook import Beamformer
from .errors import IllConditionedSpecError

# adjacent-subcarrier detrended phase steps this close to pi are unresolvable
_UNWRAP_GUARD = 0.95 * np.pi


@dataclass(frozen=True)
class Arc:
    """Constant-range angular segment, angles in (0, pi)."""

    theta_start_rad: float
    theta_end_rad: float
    range_m: float

    def __post_init__(self) -> None:
        if not self.theta_start_rad < self.theta_end_rad:
            raise ValueError("theta_start_rad must be < theta_end_rad")
        if not (0.0 < self.theta_start_rad and self.theta_end_rad < np.pi):
            raise ValueError("arc angles must lie in (0, pi)")
        if self.range_m <= 0:
            raise ValueError("range_m must be > 0")

    def angle_at(self, s: float) -> float:
        """Angle at arc parameter s in [0, 1]."""
        return self.theta_start_rad + s * (self.theta_end_rad - self.theta_start_rad)


@dataclass(frozen=True, eq=False)
class TrajectorySpec:
    """Desired focal point per subcarrier; indices unique and sorted."""

    entries: tuple  # of (subcarrier m, PolarPoint)

    def __post_init__(self) -> None:
        ms = [m for m, _ in self.entries]
        if len(ms) == 0:
            raise ValueError("trajectory spec must be nonempty")
        if sorted(set(ms)) != ms:
            raise ValueError("subcarrier indices must be unique and sorted")

    def subcarriers(self) -> np.ndarray:
        return np.array([m for m, _ in self.entries], dtype=int)

    def points(self) -> tuple:
        return tuple(p for _, p in self.entries)


def arc_trajectory_spec(
    grid: CarrierGrid, arc: Arc, subcarriers: Optional[Sequence[int]] = None
) -> TrajectorySpec:
    """Map subcarriers affinely onto the arc: m -> angle at parameter m/M.

    With the full set 0..M the requested points are uniformly spaced in angle;
    a subset keeps each member at the angle its index maps to, so any subset
    uniformly spread over 0..M covers the arc uniformly.
    """
    m_top = grid.num_subcarriers - 1
    if subcarriers is None:
        ms = range(grid.num_subcarriers)
    else:
        ms = list(subcarriers)
    entries = []
    for m in ms:
        s = m / m_top if m_top else 0.5
        entries.append((int(m), PolarPoint(arc.range_m, arc.angle_at(s))))
    return TrajectorySpec(tuple(entries))


def _subcarrier_phases(w: Beamformer, grid: CarrierGrid, ms) -> np.ndarray:
    return 2.0 * np.pi * grid.freqs(ms)[:, None] * w.delays_s + w.phases_rad


def subcarrier_weights(w: Beamformer, grid: CarrierGrid, ms) -> np.ndarray:
    """Weights the front end realizes at subcarriers ms, one row per index."""
    return np.exp(-1j * _subcarrier_phases(w, grid, ms)) / np.sqrt(w.delays_s.size)


def apply_delay_phase(w: Beamformer, grid: CarrierGrid, m: int) -> Beamformer:
    """The phase-only front end that w realizes at subcarrier m."""
    return Beamformer(_subcarrier_phases(w, grid, [m])[0])


def _wrap(x: np.ndarray) -> np.ndarray:
    """x less its nearest whole number of turns, 2*pi*rint(x/(2*pi)).

    Inside [-pi, pi] x comes back unchanged. Elsewhere the quotient, product
    and difference each round, so the result is congruent to x within a few
    |x|*eps and may pass +-pi by as much (17*pi reads 3.6e-15 above pi). A
    float % rounds as much at about five times the cost.
    """
    return x - (2.0 * np.pi) * np.rint(x / (2.0 * np.pi))


def _unwrap_seeded(wrapped: np.ndarray, dd: np.ndarray, seed_row: int) -> np.ndarray:
    """Unwrap along axis 0 outward from seed_row, leaving that row unchanged.

    dd = np.diff(wrapped, axis=0). Each half is what np.unwrap returns on
    its rows (the lower half's reversed), bit for bit, without recomputing
    the differences: the reversed rows' differences are exactly -dd.
    np.unwrap moves a difference d by ((d + pi) % 2pi - pi) - d only where
    |d| >= pi, so the remainder runs on those entries alone. Its boundary
    case, a remainder of exactly -pi, is not taken: fit_trajectory's guard
    rejects every difference that close to pi.
    """
    d = dd.copy()
    np.negative(d[:seed_row], out=d[:seed_row])
    big = np.abs(d) >= np.pi
    db = d[big]
    correct = np.zeros_like(d)
    correct[big] = (db + np.pi) % (2.0 * np.pi) - np.pi - db
    out = np.empty_like(wrapped)
    out[seed_row] = wrapped[seed_row]
    np.add(wrapped[seed_row + 1 :], correct[seed_row:].cumsum(axis=0), out=out[seed_row + 1 :])
    np.add(wrapped[:seed_row][::-1], correct[:seed_row][::-1].cumsum(axis=0), out=out[:seed_row][::-1])
    return out


def fit_trajectory(
    geom: ArrayGeometry,
    grid: CarrierGrid,
    spec: TrajectorySpec,
) -> tuple:
    """Least-squares delays and phases tracking the requested trajectory.

    Target phases are those of the conjugate-matched steering vectors at the
    requested points. They wind through many cycles across the band, so the
    analytic phase of the middle spec point is subtracted first and the
    difference wrapped once; the slowly varying remainder is unwrapped
    outward from the middle subcarrier as np.unwrap would, the trend is
    added back, and each antenna gets an ordinary linear regression against
    frequency. Returns (Beamformer, rms_residual_rad).

    Every wrap is _wrap's rint, so phases and residuals carry its rounding
    of a few |phase|*eps: up to about 1e-11 rad on targets of 1e5 rad.

    The returned delays are shifted so the smallest is zero; that changes the
    weights by a per-subcarrier common phase only, so every gain |w^H a| is
    identical to the unshifted fit.
    """
    ms = spec.subcarriers()
    pts = spec.points()
    freqs = grid.freqs(ms)
    dist = spherical_delay_matrix(geom, [p.delay_s() for p in pts], np.cos([p.angle_rad for p in pts]))
    omega = 2.0 * np.pi * freqs[:, None]
    targets = omega * dist  # ideal continuous phase

    if len(ms) == 1:
        return Beamformer(_wrap(targets[0])), 0.0

    mid = len(ms) // 2
    trend = omega * dist[mid]
    detrended = _wrap(targets - trend)
    dd = np.diff(detrended, axis=0)
    worst = float(np.abs(_wrap(dd)).max())
    if worst >= _UNWRAP_GUARD:
        raise IllConditionedSpecError(
            f"adjacent-subcarrier phase step {worst:.3f} rad is too close to pi; "
            "trajectory varies too fast for reliable unwrapping"
        )
    unwrapped = _unwrap_seeded(detrended, dd, mid) + trend

    x = freqs - grid.center_hz
    xm = x.mean()
    xc = x - xm
    denom = float(xc @ xc)
    if denom == 0.0:
        raise IllConditionedSpecError(
            f"all {len(ms)} spec subcarriers share one frequency; no delay can be fit"
        )
    slopes = (xc @ unwrapped) / denom
    intercepts = unwrapped.mean(axis=0) - slopes * xm  # value at f = f_c
    delays = slopes / (2.0 * np.pi)
    phases = _wrap(intercepts - 2.0 * np.pi * grid.center_hz * delays)

    fitted = omega * delays + phases
    resid = _wrap(targets - fitted)
    rms = float(np.sqrt(np.mean(resid**2)))

    delays = delays - delays.min()
    return Beamformer(phases, delays), rms
