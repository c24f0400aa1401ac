"""Subcarrier partitioning and power allocation for joint sensing and comms.

Sensing reserves a small set of subcarriers spread evenly over the band, so
their beam-trajectory angles cover the sensed arc uniformly, each at a fixed
minimum power; every other subcarrier goes to the user with the best gain on
it and the remaining power is water-filled to maximize the communication sum
rate. partition_and_allocate plans a whole stack of channel draws at once, a
single draw being a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InfeasibleAllocationError

# relative tolerance of water_fill's water level and of the budget it spends
_REL_TOL = 1e-10


@dataclass(frozen=True)
class SensingRequirement:
    """How many subcarriers sensing reserves, and their floor power."""

    min_subcarriers: int
    min_power_w: float

    def __post_init__(self) -> None:
        if self.min_subcarriers < 1:
            raise ValueError("min_subcarriers must be >= 1")
        if self.min_power_w < 0:
            raise ValueError("min_power_w must be >= 0")


def _check_allocation(
    sensing: np.ndarray,
    comm: np.ndarray,
    powers_w: np.ndarray,
    total_power_w: float,
    min_sensing_power_w: float,
) -> None:
    """Raise ValueError unless the allocation(s) are a valid plan.

    sensing and comm are subcarrier index arrays shared by every allocation;
    powers_w has shape (..., M), one power vector per allocation.
    """
    num = powers_w.shape[-1]
    if np.intersect1d(sensing, comm).size:
        raise ValueError("sensing and communication sets must be disjoint")
    both = np.concatenate([sensing, comm])
    if np.any((both < 0) | (both >= num)):
        raise ValueError("subcarrier indices out of range")
    if np.any(powers_w < 0):
        raise ValueError("powers must be >= 0")
    if np.any(powers_w.sum(axis=-1) > total_power_w * (1 + 1e-9)):
        raise ValueError("powers exceed the total budget")
    if np.any(powers_w[..., sensing] < min_sensing_power_w * (1 - 1e-12)):
        raise ValueError("sensing subcarrier below its power floor")


def water_fill(gains: np.ndarray, budget_w, noise_power_w: float) -> np.ndarray:
    """Water-filling powers p_i = max(0, mu - sigma^2/g_i), mu by bisection.

    gains is one channel vector (n,) or a stack of them (rows, n), and
    budget_w a scalar or one budget per row. Each row runs its own
    bisection and is frozen once its bracket has converged, so a row's
    powers are those of filling it alone. The bracket resolves mu to
    _REL_TOL of itself, which is coarse when the budget is far below the
    floors sigma^2/g_i: a row whose powers then sum to less than
    (1 - _REL_TOL) of its budget is solved again for its level above its
    smallest floor, on [0, budget] and to _REL_TOL of the budget. Every row
    with a budget and a usable channel thus spends its budget within
    _REL_TOL, and a row that already did keeps its powers' bits.
    """
    g = np.asarray(gains, dtype=float)
    if noise_power_w <= 0:
        raise ValueError("noise_power_w must be > 0")
    if g.size == 0:
        return np.zeros_like(g)
    rows = g.reshape(-1, g.shape[-1])
    budget = np.broadcast_to(np.asarray(budget_w, dtype=float), rows.shape[:1])
    with np.errstate(divide="ignore"):
        floor = np.where(rows > 0, noise_power_w / rows, np.inf)
    finite = np.isfinite(floor)
    # a row with no usable channel or no budget keeps lo = hi = 0: all zeros
    live = finite.any(axis=1) & (budget > 0)
    lo = np.zeros(rows.shape[0])
    hi = np.where(live, budget + np.where(finite, floor, -np.inf).max(axis=1), 0.0)
    powers = np.maximum(0.0, _water_level(floor, budget, lo, hi)[:, None] - floor)
    short = live & (powers.sum(axis=1) < budget * (1 - _REL_TOL))
    if short.any():
        # levels above the smallest floor, to _REL_TOL / 2 of the budget shared
        # over the row's channels: the powers then fall short by at most that
        above = floor[short] - floor[short].min(axis=1, keepdims=True)
        b = budget[short]
        scale = b / (2 * finite[short].sum(axis=1))
        level = _water_level(above, b, np.zeros(b.size), b.copy(), scale)
        powers[short] = np.maximum(0.0, level[:, None] - above)
    return powers.reshape(g.shape)


def _water_level(floor, budget, lo, hi, scale=None):
    """Each row's water level: the bisected mu in [lo, hi] whose powers
    max(0, mu - floor) sum to at most budget, to _REL_TOL of scale (of hi by
    default). Rows whose bracket is already that narrow keep lo."""
    active = hi - lo > _REL_TOL * (hi if scale is None else scale)
    while active.any():
        mu = 0.5 * (lo + hi)
        over = np.maximum(0.0, mu[:, None] - floor).sum(axis=1) > budget
        hi = np.where(active & over, mu, hi)
        lo = np.where(active & ~over, mu, lo)
        active &= hi - lo > _REL_TOL * (hi if scale is None else scale)
    return lo


def sensing_subcarriers(num_subcarriers: int, count: int) -> np.ndarray:
    """Indices whose arc-parameter angles uniformly cover the arc.

    The beam trajectory maps subcarrier m to arc parameter m/M, so indices
    uniformly spread over 0..M cover the arc uniformly; a single subcarrier
    sits at the arc midpoint.
    """
    m_top = num_subcarriers - 1
    if count > num_subcarriers:
        raise ValueError("cannot reserve more subcarriers than exist")
    if count == 1:
        return np.array([round(m_top / 2)], dtype=int)
    idx = np.round(np.linspace(0, m_top, count)).astype(int)
    if len(set(idx.tolist())) != count:
        raise ValueError("sensing subcarrier mapping collided; reduce the count")
    return idx


class Allocations(NamedTuple):
    """Plans for a stack of channel draws, as partition_and_allocate returns them.

    Draw i gives comm[j] to user best_user[i, j] and subcarrier m the power
    powers_w[i, m]; its sum rate is rates[i].
    """

    sensing: np.ndarray  # reserved subcarriers, shared by every draw
    comm: np.ndarray  # the other subcarriers, ascending
    best_user: np.ndarray  # (..., comm.size): index of the user each goes to; 0s with no users
    powers_w: np.ndarray  # (..., M)
    rates: np.ndarray  # (...): communication sum rate per draw


def partition_and_allocate(
    gains: np.ndarray,
    sreq: Optional[SensingRequirement],
    total_power_w: float,
    noise_power_w: float,
) -> Allocations:
    """Partition subcarriers and allocate power for every draw of a stack.

    gains has shape (..., U, M): user u's gain on subcarrier m, users in
    ascending id order. Sensing takes sreq's subcarriers at its floor power
    (sreq=None reserves none); every other subcarrier goes to the user with
    the best gain there, the first on ties, and the remaining power is
    water-filled over those gains. With no users the rate is 0 and the
    communication power stays unallocated. Every draw's plan is checked
    (_check_allocation) before it is returned.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim < 2 or g.shape[-1] == 0:
        raise ValueError("gains must have shape (..., users, subcarriers) with subcarriers > 0")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise ValueError("gains must be finite and >= 0")
    if total_power_w <= 0:
        raise ValueError("total_power_w must be > 0")
    if noise_power_w <= 0:
        raise ValueError("noise_power_w must be > 0")
    num_users, num_subcarriers = g.shape[-2:]
    lead = g.shape[:-2]

    if sreq is None:
        k_s, p_min = 0, 0.0
        sensing = np.array([], dtype=int)
    else:
        k_s, p_min = sreq.min_subcarriers, sreq.min_power_w
        if num_subcarriers <= k_s:
            raise ValueError("need more subcarriers than the sensing reservation")
        if total_power_w <= k_s * p_min:
            raise InfeasibleAllocationError(
                "total power does not exceed the reserved sensing power"
            )
        sensing = sensing_subcarriers(num_subcarriers, k_s)

    comm = np.setdiff1d(np.arange(num_subcarriers), sensing)
    powers = np.zeros(lead + (num_subcarriers,))
    powers[..., sensing] = p_min
    best_user = np.zeros(lead + (comm.size,), dtype=int)
    rates = np.zeros(lead)
    if num_users and comm.size:
        comm_gains = g[..., comm]  # (..., U, comm.size)
        best_user = np.argmax(comm_gains, axis=-2)  # first max wins: lowest id
        best_gain = np.take_along_axis(comm_gains, best_user[..., None, :], axis=-2)[..., 0, :]
        comm_powers = water_fill(best_gain, total_power_w - k_s * p_min, noise_power_w)
        powers[..., comm] = comm_powers
        snr = comm_powers * best_gain / noise_power_w
        # log2(1 + snr) loses a positive snr whole once 1 + snr rounds to 1;
        # there snr / ln 2 is its value to rounding
        rates = np.where(1.0 + snr > 1.0, np.log2(1.0 + snr), snr / np.log(2.0)).sum(axis=-1)
    _check_allocation(sensing, comm, powers, total_power_w, p_min)
    return Allocations(sensing, comm, best_user, powers, rates)
