"""Subcarrier partitioning and power allocation for joint sensing and comms.

Sensing reserves a small set of subcarriers whose beam-trajectory angles
uniformly cover a requested arc, each at a fixed minimum power; every other
subcarrier goes to the user with the best gain on it and the remaining power
is water-filled to maximize the communication sum rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .delay_phase import Arc
from .errors import InfeasibleAllocationError


@dataclass(frozen=True, eq=False)
class UserDemand:
    """Per-subcarrier effective channel gains for one user."""

    user_id: int
    gains: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("gains must be a nonempty 1-D array")
        if not np.all(np.isfinite(g)) or np.any(g < 0):
            raise ValueError("gains must be finite and >= 0")
        object.__setattr__(self, "gains", g)


@dataclass(frozen=True)
class SensingRequirement:
    """Arc to cover, how many subcarriers to reserve, and their floor power."""

    arc: Arc
    min_subcarriers: int
    min_power_w: float

    def __post_init__(self) -> None:
        if self.min_subcarriers < 1:
            raise ValueError("min_subcarriers must be >= 1")
        if self.min_power_w < 0:
            raise ValueError("min_power_w must be >= 0")


@dataclass(frozen=True, eq=False)
class AllocationPlan:
    """Disjoint sensing/communication subcarrier sets with per-subcarrier power."""

    sensing_set: tuple
    comm_assignment: dict  # subcarrier -> user_id
    powers_w: np.ndarray
    total_power_w: float
    min_sensing_power_w: float

    def __post_init__(self) -> None:
        p = np.asarray(self.powers_w, dtype=float)
        num = p.size
        sensing = set(self.sensing_set)
        comm = set(self.comm_assignment)
        if sensing & comm:
            raise ValueError("sensing and communication sets must be disjoint")
        if any(not 0 <= m < num for m in sensing | comm):
            raise ValueError("subcarrier indices out of range")
        if np.any(p < 0):
            raise ValueError("powers must be >= 0")
        if p.sum() > self.total_power_w * (1 + 1e-9):
            raise ValueError("powers exceed the total budget")
        for m in sensing:
            if p[m] < self.min_sensing_power_w * (1 - 1e-12):
                raise ValueError("sensing subcarrier below its power floor")
        object.__setattr__(self, "powers_w", p)


def water_fill(
    gains: np.ndarray, budget_w: float, noise_power_w: float, rel_tol: float = 1e-10
) -> np.ndarray:
    """Water-filling powers p_i = max(0, mu - sigma^2/g_i), mu by bisection."""
    g = np.asarray(gains, dtype=float)
    if noise_power_w <= 0:
        raise ValueError("noise_power_w must be > 0")
    if g.size == 0 or budget_w <= 0:
        return np.zeros_like(g)
    with np.errstate(divide="ignore"):
        floor = np.where(g > 0, noise_power_w / g, np.inf)
    if not np.any(np.isfinite(floor)):
        return np.zeros_like(g)
    lo, hi = 0.0, budget_w + float(floor[np.isfinite(floor)].max())
    while hi - lo > rel_tol * hi:
        mu = 0.5 * (lo + hi)
        if np.maximum(0.0, mu - floor).sum() > budget_w:
            hi = mu
        else:
            lo = mu
    return np.maximum(0.0, lo - floor)


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


def partition_and_allocate(
    users: Sequence[UserDemand],
    sreq: Optional[SensingRequirement],
    total_power_w: float,
    noise_power_w: float,
    num_subcarriers: Optional[int] = None,
) -> tuple:
    """Build an AllocationPlan and return (plan, communication sum rate).

    sreq=None reserves nothing for sensing. With no users, all non-sensing
    power stays unallocated and the rate is 0. num_subcarriers is inferred
    from the users when omitted.
    """
    users = sorted(users, key=lambda u: u.user_id)
    ids = [u.user_id for u in users]
    if len(set(ids)) != len(ids):
        raise ValueError("user ids must be unique")
    if num_subcarriers is None:
        if not users:
            raise ValueError("num_subcarriers required when there are no users")
        num_subcarriers = users[0].gains.size
    for u in users:
        if u.gains.size != num_subcarriers:
            raise ValueError("all users must cover the same subcarriers")
    if total_power_w <= 0:
        raise ValueError("total_power_w must be > 0")
    if noise_power_w <= 0:
        raise ValueError("noise_power_w must be > 0")

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

    powers = np.zeros(num_subcarriers)
    powers[sensing] = p_min
    comm_idx = np.setdiff1d(np.arange(num_subcarriers), sensing)
    assignment: dict = {}
    rate = 0.0
    if users and comm_idx.size:
        gain_matrix = np.stack([u.gains for u in users])  # (U, M+1)
        comm_gains = gain_matrix[:, comm_idx]
        best_user = np.argmax(comm_gains, axis=0)  # first max wins: lowest id
        best_gain = comm_gains[best_user, np.arange(comm_idx.size)]
        budget = total_power_w - k_s * p_min
        comm_powers = water_fill(best_gain, budget, noise_power_w)
        powers[comm_idx] = comm_powers
        assignment = {
            int(m): users[int(u)].user_id for m, u in zip(comm_idx, best_user)
        }
        rate = float(
            np.log2(1.0 + comm_powers * best_gain / noise_power_w).sum()
        )
    plan = AllocationPlan(
        tuple(int(m) for m in sensing), assignment, powers, total_power_w, p_min
    )
    return plan, rate


def plan_sum_rate(
    plan: AllocationPlan, users: Sequence[UserDemand], noise_power_w: float
) -> float:
    """Communication sum rate of an arbitrary plan on the given channels."""
    by_id = {u.user_id: u for u in users}
    rate = 0.0
    for m, uid in plan.comm_assignment.items():
        g = by_id[uid].gains[m]
        rate += float(np.log2(1.0 + plan.powers_w[m] * g / noise_power_w))
    return rate
