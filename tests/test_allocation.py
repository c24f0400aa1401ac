"""Water-filling, subcarrier partitioning, and plan validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nfisac.allocation import (
    SensingRequirement,
    _check_allocation,
    partition_and_allocate,
    sensing_subcarriers,
    water_fill,
)
from nfisac.errors import InfeasibleAllocationError


# two users on six subcarriers; small enough to brute-force every assignment
TOY_GAINS = np.array(
    [
        [0.8, 1.1, 0.3, 1.2, 0.2, 0.5],
        [0.6, 0.9, 1.2, 0.7, 1.1, 0.8],
    ]
)


def exact_water_fill(gains, budget, noise):
    """Closed-form water level by sorting the active-set breakpoints."""
    g = np.asarray(gains, dtype=float)
    floors = np.where(g > 0, noise / np.where(g > 0, g, 1.0), np.inf)
    finite = np.sort(floors[np.isfinite(floors)])
    if finite.size == 0 or budget <= 0:
        return np.zeros_like(g)
    for k in range(finite.size, 0, -1):
        mu = (budget + finite[:k].sum()) / k
        if mu >= finite[k - 1] and (k == finite.size or mu <= finite[k]):
            return np.maximum(0.0, mu - floors)
    raise AssertionError("no consistent active set")


# zero gains are legal (dead channel); positive ones keep noise/g modest so
# the bisection bracket, and with it the guaranteed precision, stays tight
gain_arrays = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
    min_size=1,
    max_size=8,
).map(np.array)


@given(gain_arrays, st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_water_fill_matches_closed_form(gains, budget):
    noise = 1.0
    got = water_fill(gains, budget, noise)
    want = exact_water_fill(gains, budget, noise)
    np.testing.assert_allclose(got, want, atol=1e-6)
    assert got.sum() <= budget + 1e-6
    assert np.all(got >= 0)


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=60, deadline=None)
def test_water_fill_is_a_stationary_point(seed):
    # moving epsilon of power between any two channels cannot raise the rate
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.05, 3.0, 6)
    budget, noise = 10.0, 1.0
    p = water_fill(g, budget, noise)

    def rate(powers):
        return np.log2(1.0 + powers * g / noise).sum()

    base = rate(p)
    eps = 1e-6 * budget
    for i in range(6):
        if p[i] < eps:
            continue
        for j in range(6):
            if i == j:
                continue
            q = p.copy()
            q[i] -= eps
            q[j] += eps
            assert rate(q) <= base + 1e-9


def row_water_fill(gains, budget, noise, rel_tol=1e-10):
    """One row's bisection with Python-float brackets: the reference.

    Returns (powers, bisection steps)."""
    g = np.asarray(gains, dtype=float)
    if g.size == 0 or budget <= 0:
        return np.zeros_like(g), 0
    with np.errstate(divide="ignore"):
        floor = np.where(g > 0, noise / g, np.inf)
    if not np.any(np.isfinite(floor)):
        return np.zeros_like(g), 0
    lo, hi = 0.0, budget + float(floor[np.isfinite(floor)].max())
    steps = 0
    while hi - lo > rel_tol * hi:
        mu = 0.5 * (lo + hi)
        if np.maximum(0.0, mu - floor).sum() > budget:
            hi = mu
        else:
            lo = mu
        steps += 1
    powers = np.maximum(0.0, lo - floor)
    if powers.sum() < budget * (1 - rel_tol):
        # short of the budget: the level above the smallest floor, on
        # [0, budget], to rel_tol / 2 of the budget over the row's channels
        above = floor - floor.min()
        lo, hi = 0.0, budget
        scale = budget / (2 * np.isfinite(floor).sum())
        while hi - lo > rel_tol * scale:
            nu = 0.5 * (lo + hi)
            if np.maximum(0.0, nu - above).sum() > budget:
                hi = nu
            else:
                lo = nu
            steps += 1
        powers = np.maximum(0.0, lo - above)
    return powers, steps


@st.composite
def water_fill_stacks(draw):
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    # gains down to 1e-20 put some floors far above the budget
    gains = draw(arrays(float, (rows, n), elements=st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(1e-20, 1e-8))))
    if draw(st.booleans()):
        gains[draw(st.integers(0, rows - 1))] = 0.0  # a dead row
    # budgets over six decades give rows of different bisection lengths
    budgets = draw(arrays(float, rows, elements=st.one_of(st.just(0.0), st.floats(1e-3, 1e3))))
    return gains, budgets


@given(water_fill_stacks())
@settings(max_examples=200, deadline=None)
def test_stacked_water_fill_equals_per_row_calls(case):
    # each row of a stack is filled bit for bit as it would be alone
    gains, budgets = case
    got = water_fill(gains, budgets, 1.0)
    assert got.shape == gains.shape
    for r in range(gains.shape[0]):
        alone = water_fill(gains[r], float(budgets[r]), 1.0)
        assert got[r].tobytes() == alone.tobytes()
        assert alone.tobytes() == row_water_fill(gains[r], float(budgets[r]), 1.0)[0].tobytes()


def test_stacked_water_fill_freezes_converged_rows():
    # rows that converge after different numbers of bisection steps, a dead
    # row and a zero budget in one stack; a scalar budget applies to every row
    gains = np.array([[1e-3, 5.0, 0.0], [1.0, 4.0, 3.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    budgets = np.array([0.01, 1e3, 5.0, 0.0])
    want = [row_water_fill(g, b, 1.0) for g, b in zip(gains, budgets)]
    assert want[0][1] != want[1][1] and want[2][1] == want[3][1] == 0
    got = water_fill(gains, budgets, 1.0)
    assert got.tobytes() == np.stack([p for p, _ in want]).tobytes()
    assert np.all(got[2:] == 0.0)
    same = water_fill(gains[:2], 7.0, 1.0)
    assert same.tobytes() == np.stack([row_water_fill(g, 7.0, 1.0)[0] for g in gains[:2]]).tobytes()


def test_budget_far_below_the_noise_floor_is_spent():
    # a budget far below every floor noise/g is spent all the same: the
    # powers sum to it within rel_tol, and the sum rate is positive
    for gain in np.logspace(-20, -8, 49):
        for gains in (np.array([gain]), np.array([gain, 0.5 * gain, 0.0]), np.array([gain, 1e-3])):
            p = water_fill(gains, 1.0, 1.0)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-10
        alloc = partition_and_allocate(np.array([[gain]]), None, 1.0, 1.0)
        assert abs(alloc.powers_w.sum() - 1.0) <= 1e-10
        assert alloc.rates[()] > 0


def test_water_fill_input_validation():
    with pytest.raises(ValueError, match="noise_power_w"):
        water_fill(np.array([1.0]), 1.0, 0.0)
    assert np.all(water_fill(np.array([]), 1.0, 1.0) == 0)
    assert np.all(water_fill(np.array([0.0, 0.0]), 1.0, 1.0) == 0)
    assert np.all(water_fill(np.array([1.0, 2.0]), 0.0, 1.0) == 0)


def test_sensing_indices_cover_uniformly():
    np.testing.assert_array_equal(sensing_subcarriers(65, 1), [32])
    np.testing.assert_array_equal(sensing_subcarriers(65, 2), [0, 64])
    np.testing.assert_array_equal(sensing_subcarriers(65, 5), [0, 16, 32, 48, 64])
    np.testing.assert_array_equal(sensing_subcarriers(6, 6), [0, 1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match="more subcarriers"):
        sensing_subcarriers(8, 9)


def test_partition_matches_exhaustive_assignment_search():
    # fix the sensing set the partitioner would pick, then try every
    # user-per-subcarrier assignment with optimal (closed form) water-filled
    # power; the shipped greedy-plus-bisection rate must match the best
    sreq = SensingRequirement(2, 1.0)
    total, noise = 12.0, 1.0
    out = partition_and_allocate(TOY_GAINS, sreq, total, noise)

    sensing = set(sensing_subcarriers(6, 2).tolist())
    comm = [m for m in range(6) if m not in sensing]
    budget = total - 2 * 1.0
    best = 0.0
    for code in range(2 ** len(comm)):
        owners = [(code >> k) & 1 for k in range(len(comm))]
        g = np.array([TOY_GAINS[u][m] for u, m in zip(owners, comm)])
        p = exact_water_fill(g, budget, noise)
        best = max(best, np.log2(1.0 + p * g / noise).sum())
    assert float(out.rates) == pytest.approx(best, rel=1e-9)
    # the rate is that of the plan's own powers on its users' channels
    g = TOY_GAINS[out.best_user, out.comm]
    assert float(out.rates) == pytest.approx(np.log2(1.0 + out.powers_w[out.comm] * g / noise).sum(), rel=1e-12)


def test_partition_reserves_floor_power_on_sensing_set():
    out = partition_and_allocate(TOY_GAINS, SensingRequirement(2, 1.5), 12.0, 1.0)
    assert out.sensing.tolist() == [0, 5]
    for m in out.sensing:
        assert out.powers_w[m] == pytest.approx(1.5)
    assert out.powers_w.sum() == pytest.approx(12.0)
    assert out.comm.tolist() == [1, 2, 3, 4]
    # with no users only the sensing floor is allocated, and the rate is 0
    alone = partition_and_allocate(np.zeros((0, 6)), SensingRequirement(2, 1.5), 12.0, 1.0)
    assert float(alone.rates) == 0.0
    assert alone.powers_w.tolist() == [1.5, 0.0, 0.0, 0.0, 0.0, 1.5]


def test_equal_gains_go_to_lowest_user_id():
    # users are in ascending id order, so the first on a tie has the lowest id
    g = np.array([[1.0, 2.0], [1.0, 2.0]])
    out = partition_and_allocate(g, None, 4.0, 1.0)
    assert out.best_user.tolist() == [0, 0]


def test_infeasible_when_budget_not_above_sensing_floor():
    sreq = SensingRequirement(2, 1.0)
    with pytest.raises(InfeasibleAllocationError, match="sensing"):
        partition_and_allocate(TOY_GAINS[:1], sreq, 2.0, 1.0)


def test_sum_rate_never_increases_with_sensing_count():
    rates = []
    for k_s in [0, 1, 2, 3]:
        sreq = SensingRequirement(k_s, 1.0) if k_s else None
        rates.append(float(partition_and_allocate(TOY_GAINS, sreq, 12.0, 1.0).rates))
    assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def test_sum_rate_nondecreasing_in_total_power():
    sreq = SensingRequirement(2, 1.0)
    rates = [float(partition_and_allocate(TOY_GAINS, sreq, p, 1.0).rates) for p in [3.0, 6.0, 12.0, 24.0]]
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))


def test_plan_validation():
    none = np.array([], dtype=int)
    with pytest.raises(ValueError, match="disjoint"):
        _check_allocation(np.array([0]), np.array([0]), np.ones(3), 3.0, 0.5)
    with pytest.raises(ValueError, match="out of range"):
        _check_allocation(np.array([5]), none, np.ones(3), 3.0, 0.5)
    with pytest.raises(ValueError, match="budget"):
        _check_allocation(none, none, np.ones(3), 2.0, 0.0)
    with pytest.raises(ValueError, match="floor"):
        _check_allocation(np.array([0]), none, np.array([0.1, 0.0, 0.0]), 3.0, 0.5)
    with pytest.raises(ValueError, match=">= 0"):
        _check_allocation(none, none, np.array([-0.1, 0.0]), 3.0, 0.0)
    # one invalid draw in a stack fails the whole stack
    with pytest.raises(ValueError, match="budget"):
        _check_allocation(none, none, np.array([[1.0, 1.0], [1.0, 2.5]]), 3.0, 0.0)


def test_partition_input_validation():
    with pytest.raises(ValueError, match="subcarriers"):
        partition_and_allocate(np.ones(4), None, 4.0, 1.0)
    with pytest.raises(ValueError, match="subcarriers"):
        partition_and_allocate(np.ones((2, 0)), None, 4.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        partition_and_allocate(np.array([[1.0, np.nan]]), None, 4.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        partition_and_allocate(np.array([[1.0, -0.5]]), None, 4.0, 1.0)
