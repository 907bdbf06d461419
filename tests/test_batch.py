import hashlib
import itertools
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zernkit as zk
from zernkit.batch import (
    BatchRequest,
    StepCounter,
    cached_step_counter,
    evaluate_batch,
    independent_step_counter,
)
from zernkit.evaluate import (
    PowerTable,
    angular_factor,
    assemble_radial,
    jacobi_argument,
    radial_jacobi,
    radial_powers,
)
from zernkit.modes import Mode, dedup_plan, full_mode_set

from conftest import reference_chain


def request_pair(modes, grid, k):
    cached = BatchRequest(modes=modes, grid=grid, deriv_order=k, strategy="cached")
    independent = BatchRequest(
        modes=modes, grid=grid, deriv_order=k, strategy="independent"
    )
    return cached, independent


def naive_step_trace(modes, deriv_order, shared):
    """Independent accounting: walk the chains a strategy would build and
    count one step per recursion application (degrees 2..d)."""
    plan = dedup_plan(modes)
    steps = 0
    chains = 0
    if shared:
        by_alpha = {}
        for n, alpha in plan.unique_keys:
            by_alpha.setdefault(alpha, []).append((n - alpha) // 2)
        jobs = [
            (max(js) - i)
            for alpha, js in by_alpha.items()
            for i in range(deriv_order + 1)
        ]
    else:
        jobs = [
            ((n - alpha) // 2 - i)
            for n, alpha in plan.unique_keys
            for i in range(deriv_order + 1)
        ]
    for degree in jobs:
        if degree < 0:
            continue
        chains += 1
        steps += sum(1 for d in range(2, degree + 1))
    return StepCounter(recursion_steps=steps, chain_count=chains)


def test_counter_examples_from_hand_counts():
    plan2 = dedup_plan(full_mode_set(2))
    assert cached_step_counter(plan2, 0).recursion_steps == 0

    plan6 = dedup_plan(full_mode_set(6))
    assert cached_step_counter(plan6, 0).recursion_steps == 4
    assert independent_step_counter(plan6, 0).recursion_steps == 5
    assert len(plan6.unique_keys) == 16


def test_single_mode_request():
    grid = zk.linear_radial_grid(9)
    cached_req, indep_req = request_pair((Mode(0, 0),), grid, 0)
    table, counter = evaluate_batch(cached_req)
    assert np.all(table.values == 1.0)
    assert counter.recursion_steps == 0
    _, counter_ind = evaluate_batch(indep_req)
    assert counter == counter_ind  # no sharing possible


@pytest.mark.parametrize("resolution", [0, 1, 2, 5, 12])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_strategies_agree_bitwise(resolution, k):
    grid = zk.linear_radial_grid(100)
    modes = full_mode_set(resolution)
    cached_req, indep_req = request_pair(modes, grid, k)
    a, ca = evaluate_batch(cached_req)
    b, cb = evaluate_batch(indep_req)
    assert np.array_equal(a.values, b.values)
    assert ca.recursion_steps <= cb.recursion_steps
    assert ca.chain_count <= cb.chain_count


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_counters_match_naive_trace(k):
    for resolution in range(0, 41, 4):
        modes = full_mode_set(resolution)
        plan = dedup_plan(modes)
        assert cached_step_counter(plan, k) == naive_step_trace(modes, k, shared=True)
        assert independent_step_counter(plan, k) == naive_step_trace(
            modes, k, shared=False
        )


def test_cached_counter_closed_form():
    for resolution in range(0, 41):
        plan = dedup_plan(full_mode_set(resolution))
        expected = sum(
            max(0, (resolution - alpha) // 2 - 1) for alpha in range(resolution + 1)
        )
        assert cached_step_counter(plan, 0).recursion_steps == expected


def test_output_equals_stacked_single_mode_calls():
    # per mode, the chains in expression form, unshared, and then the assembly
    grid = np.append(zk.linear_radial_grid(37), [0.0, 5e-324, 1.0])
    u = jacobi_argument(grid)
    modes = full_mode_set(10)
    for k, strategy in itertools.product(range(4), ("cached", "independent")):
        table, _ = evaluate_batch(BatchRequest(modes, grid, k, strategy))
        for col, mode in enumerate(modes):
            m, j = mode.m_abs, mode.jacobi_degree
            chains = [
                reference_chain(j - i, m + i, i, u) if j >= i else None for i in range(k + 1)
            ]
            powers = radial_powers(PowerTable(grid), m, k)
            single = assemble_radial(m, j, k, chains, powers, np.empty(grid.size))
            assert table.values[:, col].tobytes() == single.tobytes(), (k, strategy, mode)


def test_duplicate_modes_scatter_bitwise():
    grid = zk.linear_radial_grid(21)
    modes = zk.as_mode_set([(4, 2), (4, -2), (4, 2), (2, 0), (4, 2)])
    table, counter = evaluate_batch(
        BatchRequest(modes=modes, grid=grid, deriv_order=0, strategy="cached")
    )
    assert np.array_equal(table.values[:, 0], table.values[:, 1])
    assert np.array_equal(table.values[:, 0], table.values[:, 2])
    assert np.array_equal(table.values[:, 0], table.values[:, 4])
    # two unique radial keys only
    assert counter.chain_count == 2


@pytest.mark.parametrize("strategy", ["cached", "independent"])
def test_output_is_one_modes_major_buffer(strategy):
    grid = zk.linear_radial_grid(5000)
    request = BatchRequest(
        modes=full_mode_set(40), grid=grid, deriv_order=0, strategy=strategy
    )
    tracemalloc.start()
    try:
        table, _ = evaluate_batch(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.values.T.flags["C_CONTIGUOUS"]
    # a second points-by-unique-modes buffer would add ~0.5x
    assert peak <= 1.1 * table.values.nbytes


@pytest.mark.parametrize("strategy", ["cached", "independent"])
def test_third_derivative_memory_stays_near_the_output(strategy):
    request = BatchRequest(
        modes=full_mode_set(40),
        grid=zk.linear_radial_grid(5000),
        deriv_order=3,
        strategy=strategy,
    )
    tracemalloc.start()
    try:
        table, _ = evaluate_batch(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the deepest group's four whole chains alone are 78 of the 861 output
    # rows (0.091x); u, the group's four powers, the scratch rows and the plan
    # add about 10 rows more. A chain buffer kept per group, or powers and
    # terms allocated per readout and kept, would pass 1.11x.
    assert peak <= 1.11 * table.values.nbytes


def test_strategy_preconditions():
    grid = zk.linear_radial_grid(5)
    cached_req, indep_req = request_pair(full_mode_set(2), grid, 0)
    assert np.array_equal(
        evaluate_batch(cached_req)[0].values, evaluate_batch(indep_req)[0].values
    )


def test_request_validation():
    grid = zk.linear_radial_grid(5)
    with pytest.raises(ValueError):
        BatchRequest(modes=full_mode_set(2), grid=grid, deriv_order=4, strategy="cached")
    with pytest.raises(ValueError):
        BatchRequest(modes=full_mode_set(2), grid=grid, deriv_order=0, strategy="gpu")
    with pytest.raises(zk.GridError):
        BatchRequest(modes=full_mode_set(2), grid=[2.0], deriv_order=0, strategy="cached")
    with pytest.raises(ValueError, match="point-wise grids must match"):
        BatchRequest(modes=full_mode_set(2), grid=grid, angles=[0.0] * 4)
    for angle in (np.nan, np.inf, -np.inf):
        with pytest.raises(zk.GridError):
            BatchRequest(modes=full_mode_set(2), grid=[0.5], angles=[angle])
    req = BatchRequest(modes=[(2, 0), (4, 2)], grid=[0.5], deriv_order=0, strategy="cached")
    assert req.modes == (Mode(2, 0), Mode(4, 2))


def columns_times_factors(modes, rho, k, theta):
    """Full polynomials formed column by column: radial_jacobi times angular_factor."""
    theta = np.asarray(theta, dtype=np.float64)
    return [radial_jacobi(n, abs(m), rho, k) * angular_factor(m, theta) for n, m in modes]


@pytest.mark.parametrize("strategy", ["cached", "independent"])
@pytest.mark.parametrize("k", range(4))
def test_angular_stage_equals_radial_times_factor_bitwise(strategy, k):
    # m and -m of one key, repeated modes and m = 0; signed zero and subnormal angles
    modes = [(4, 2), (4, -2), (0, 0), (6, 0), (4, 2), (5, -3), (5, 3), (5, -3), (7, 1)]
    rho = [0.0, 0.125, 0.3, 0.5, 0.77, 1.0, 0.9]
    theta = [-0.0, 5e-324, -5e-324, 2.2e-308, 1.5, -4.0, 100.0]
    got = evaluate_batch(BatchRequest(modes, rho, k, strategy, theta))[0].values
    for col, want in enumerate(columns_times_factors(modes, rho, k, theta)):
        assert got[:, col].tobytes() == want.tobytes()
    empty = evaluate_batch(BatchRequest(modes, [], k, strategy, []))[0].values
    assert empty.shape == (0, len(modes))


def test_angular_arguments_near_the_binary64_maximum():
    # |m| <= 1 keeps m * theta finite at 1e308 and -1.7e308: the values still follow
    modes, rho = [(2, 0), (1, 1), (1, -1), (3, -1)], [0.5, 0.25, 1.0]
    theta = [1e308, -1.7e308, 0.3]
    got = evaluate_batch(BatchRequest(modes, rho, angles=theta))[0].values
    for col, want in enumerate(columns_times_factors(modes, rho, 0, theta)):
        assert got[:, col].tobytes() == want.tobytes()


valid_mode = st.integers(0, 24).flatmap(
    lambda n: st.integers(0, n).map(lambda k: Mode(n, -n + 2 * k))
)


@given(st.lists(valid_mode, min_size=1, max_size=25), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_counter_dominance_on_arbitrary_requests(modes, k):
    plan = dedup_plan(tuple(modes))
    cached = cached_step_counter(plan, k)
    independent = independent_step_counter(plan, k)
    assert cached.recursion_steps <= independent.recursion_steps
    assert cached.chain_count <= independent.chain_count


@given(st.lists(valid_mode, min_size=1, max_size=12), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_strategies_agree_on_arbitrary_requests(modes, k):
    grid = zk.linear_radial_grid(16)
    cached_req, indep_req = request_pair(tuple(modes), grid, k)
    a, ca = evaluate_batch(cached_req)
    b, cb = evaluate_batch(indep_req)
    assert np.array_equal(a.values, b.values)
    plan = dedup_plan(tuple(modes))
    assert ca == cached_step_counter(plan, k)
    assert cb == independent_step_counter(plan, k)


@pytest.mark.parametrize("strategy", ["cached", "independent"])
@pytest.mark.parametrize("k", range(4))
def test_overflow_past_the_gate_is_value_error(strategy, k):
    # (1439, 637): its chain overflows while rho**637 underflows at rho = 0
    request = BatchRequest(
        modes=[(3, 1), (1439, 637)], grid=[0.0, 0.5], deriv_order=k, strategy=strategy
    )
    with pytest.raises(ValueError, match=r"n=1439, m=637"):
        evaluate_batch(request)


@pytest.mark.parametrize("strategy", ["cached", "independent"])
@pytest.mark.parametrize("k", range(4))
def test_overflow_error_comes_without_runtime_warnings(strategy, k):
    request = BatchRequest(
        modes=[(3, 1), (1439, 637)], grid=[0.0, 0.5], deriv_order=k, strategy=strategy
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"n=1439, m=637"):
            evaluate_batch(request)


@pytest.mark.parametrize("strategy", ["cached", "independent"])
@pytest.mark.parametrize("k", range(4))
def test_each_power_of_rho_is_formed_once(strategy, k, monkeypatch):
    formed = []
    form = PowerTable.__missing__

    def counting(table, e):
        formed.append(e)
        return form(table, e)

    monkeypatch.setattr(PowerTable, "__missing__", counting)
    # repeated |m| across n, sign-flipped m, and alphas one apart, which
    # share exponents from k = 1 on
    modes = [(9, 3), (9, -3), (5, 3), (7, 1), (6, 0), (4, 4), (4, -4), (12, 2),
             (8, -2), (11, 5), (3, -3)]
    evaluate_batch(BatchRequest(modes, zk.linear_radial_grid(9), k, strategy))
    alphas = {abs(m) for _, m in modes}
    wanted = {max(alpha - k + 2 * i, 0) for alpha in alphas for i in range(k + 1)}
    assert sorted(formed) == sorted(wanted)


def seeded_points(seed, count):
    draw = random.Random(seed)
    return [draw.random() for _ in range(count)]


# SHA-256 of values.tobytes() for the full N = 60 basis on PINNED_GRID: any
# rework of the recurrence, the powers or the assembly must keep every bit.
# CHANGES.md says how the digests were made.
PINNED_GRID = [0.0, 5e-324, 1e-300, 1e-10, 1.0] + seeded_points(60, 300)
PINNED_SHA256 = {
    0: "213f5990fa3f7cf01220514d6382da35f9598174dbffbfb1ead2755cb1d8be83",
    1: "394c31b7bba74fa8103a5df2f5e973ef2beeab40dbea1f58f9bd2b0fc29f4732",
    2: "aa524e23fa9a42bad1ae4fd67b68970b9881d5a51901ac8ef14e49dd5447d7ae",
    3: "d7bc91d458b24c70f3848d9c825b2705b0509befb0283c22129f07a568a0f848",
}


@pytest.mark.parametrize("strategy", ["cached", "independent"])
@pytest.mark.parametrize("k", range(4))
def test_full_basis_bits_are_pinned(strategy, k):
    table, _ = evaluate_batch(BatchRequest(full_mode_set(60), PINNED_GRID, k, strategy))
    assert hashlib.sha256(table.values.tobytes()).hexdigest() == PINNED_SHA256[k]


# --- the degree-stacked engine -------------------------------------------------

# (block bytes, stacking points): one block per group or one for the request,
# each with every live row in one set of ufuncs or each row on its own
ENGINES = [(1, 10**9), (1, 0), (1 << 30, 10**9), (1 << 30, 0)]


@pytest.fixture(params=ENGINES, ids=lambda e: f"block{e[0]}-stack{e[1]}")
def engine(request, monkeypatch):
    block_bytes, stack_points = request.param
    monkeypatch.setattr(zk.batch, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(zk.evaluate, "STACK_POINTS", stack_points)
    return request.param


def single_chain_reference(modes, grid, k):
    """Per mode, its chains in expression form, unshared, and then the assembly."""
    u = jacobi_argument(grid)
    columns = []
    for mode in modes:
        m, j = mode.m_abs, mode.jacobi_degree
        chains = [reference_chain(j - i, m + i, i, u) if j >= i else None for i in range(k + 1)]
        powers = radial_powers(PowerTable(grid), m, k)
        columns.append(assemble_radial(m, j, k, chains, powers, np.empty(grid.size)))
    return np.stack(columns, axis=1)


# table rows with rows past it (degree 80 > 75; alpha 158 > 153; 154 only at shift 3),
# chains of degree 0 and 1, shifts with no chain (k > j), repeats and flipped m
EDGE_MODES = [(10, 2), (160, 0), (0, 0), (200, 158), (1, 1), (3, -1), (2, 0), (199, 151),
              (4, 4), (151, 1), (10, -2), (5, 3), (6, 6), (160, 0), (12, 0)]


@pytest.mark.parametrize("strategy", ["cached", "independent"])
@pytest.mark.parametrize("k", range(4))
def test_stack_matches_single_chains_bitwise(engine, strategy, k, monkeypatch):
    grid = np.array([0.0, 5e-324, 1.0] + seeded_points(19, 9))
    runs = []
    steps = zk.batch.jacobi_steps
    monkeypatch.setattr(zk.batch, "jacobi_steps", lambda *a: runs.append(1) or steps(*a))
    modes = zk.as_mode_set(EDGE_MODES)
    table, _ = evaluate_batch(BatchRequest(modes, grid, k, strategy))
    assert table.values.tobytes() == single_chain_reference(modes, grid, k).tobytes()
    groups = len(zk.batch._chain_plan(dedup_plan(modes), strategy, k))
    assert len(runs) == (groups if engine[0] == 1 else 1)


@pytest.mark.parametrize("strategy", ["cached", "independent"])
@pytest.mark.parametrize("k", range(4))
def test_executed_steps_equal_the_plan(engine, strategy, k):
    draw = random.Random(f"steps-{strategy}-{k}")
    for _ in range(6):
        pairs = [(n, m) for n in range(draw.randrange(1, 40)) for m in range(-n, n + 1, 2)]
        modes = zk.as_mode_set(draw.choices(pairs, k=draw.randrange(1, 30)))
        _, counter = evaluate_batch(BatchRequest(modes, seeded_points(k, 5), k, strategy))
        plan = dedup_plan(modes)
        predicted = (cached_step_counter if strategy == "cached" else independent_step_counter)
        assert counter == predicted(plan, k)


@pytest.mark.parametrize("k", range(4))
def test_stack_raises_the_typed_error_without_warnings(engine, k):
    request = BatchRequest([(20, 4), (1439, 637), (3, 1)], [0.0, 5e-324, 1.0], k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"n=1439, m=637"):
            evaluate_batch(request)
