import itertools
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_jacobi

import zernkit as zk
from zernkit import evaluate
from zernkit.evaluate import (
    CHECKED_MIN_DEGREE,
    PowerTable,
    angular_factor,
    assemble_radial,
    jacobi_argument,
    jacobi_chain,
    jacobi_derivative_scale,
    radial_at_zero,
    radial_direct,
    radial_direct_table,
    radial_jacobi,
    radial_powers,
    radial_ztt,
    radial_ztt_table,
    zernike_eval,
)
from zernkit.cli import run_accuracy
from zernkit.modes import ModeError, full_mode_set
from zernkit.tables import GridError

from conftest import radial_sweep, reference_chain


# --- jacobi chain -------------------------------------------------------------


def test_chain_base_cases():
    x = np.array([-1.0, -0.25, 0.0, 0.5, 1.0])
    chain = jacobi_chain(0, 3, 1, x)
    assert chain.shape == (1, 5)
    assert np.all(chain[0] == 1.0)

    chain = jacobi_chain(1, 2, 0, np.array([-1.0]))
    assert chain[1][0] == -1.0  # (a+1) + (a+b+2)(x-1)/2 at x=-1


def test_chain_legendre_value():
    chain = jacobi_chain(2, 0, 0, np.array([0.5]))
    assert chain[2][0] == pytest.approx(-0.125, abs=0)


@pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 0), (5, 0), (2, 2), (7, 3)])
def test_chain_matches_scipy(alpha, beta):
    x = np.linspace(-1.0, 1.0, 23)
    chain = jacobi_chain(12, alpha, beta, x)
    for degree in range(13):
        want = eval_jacobi(degree, alpha, beta, x)
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(chain[degree] - want) / scale) < 1e-12


def test_chain_rejects_bad_arguments():
    bad = [(-1, 0, 0), (2, -1, 0), (2.5, 1, 1), (3, 1.5, 1), (3, 1, 2.0), ("3", 1, 1), (3, 1, True)]
    for args in bad:
        with pytest.raises(ValueError):
            jacobi_chain(*args, [0.0])
    # numpy integers are integers, in the table's range and past it
    x = np.array([-0.5, 0.25])
    for alpha in (2, 10**7):
        want = jacobi_chain(3, alpha, 1, x).tobytes()
        assert jacobi_chain(np.int64(3), np.int64(alpha), np.int32(1), x).tobytes() == want


@pytest.mark.parametrize(
    "buffer",
    [np.zeros((3, 4)), np.zeros((6, 3)), np.zeros((6, 4), dtype=np.float32)],
    ids=["too-few-rows", "other-point-count", "float32"],
)
def test_chain_rejects_bad_out_buffers(buffer):
    # unchecked, 3 rows wrapped the ring (row 0 ending as P_3), 3 points met
    # numpy's bare broadcast error and float32 rows returned float32 values
    with pytest.raises(ValueError, match=re.escape("out must be float64 (>= 6, 4)")):
        jacobi_chain(5, 1, 0, np.linspace(-1.0, 1.0, 4), out=buffer)


CHAIN_EDGES = [1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324]
# first alpha and first degree past the shared coefficient table
ALPHA_END, DEGREE_END = evaluate._COEFFS.shape[1:3]


@given(
    st.integers(0, 12) | st.integers(ALPHA_END - 3, ALPHA_END + 3),
    st.integers(0, 12),
    st.integers(0, 40) | st.integers(DEGREE_END - 3, DEGREE_END + 3),
    st.lists(st.floats(-1.0, 1.0), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_chain_matches_expression_form_bitwise(alpha, beta, j_max, points):
    x = np.array(CHAIN_EDGES + points)
    want = reference_chain(j_max, alpha, beta, x).tobytes()
    assert jacobi_chain(j_max, alpha, beta, x).tobytes() == want
    # a reused buffer, deeper than the chain and stale: every returned row
    # must be written, and no row past j_max touched
    buffer = np.full((j_max + 4, x.size), np.nan)
    got = jacobi_chain(j_max, alpha, beta, x, out=buffer)
    assert got.shape == (j_max + 1, x.size) and np.shares_memory(got, buffer)
    assert got.tobytes() == want
    assert np.isnan(buffer[j_max + 1 :]).all()


def integer_coefficients(j, alpha, beta):
    """(lead, mid_x, mid_const, last) as Python ints, as reference_chain writes them."""
    c = 2 * j + alpha + beta
    return (
        2 * j * (c - j) * (c - 2),
        (c - 1) * c * (c - 2),
        (c - 1) * (alpha * alpha - beta * beta),
        2 * (j + alpha - 1) * (j + beta - 1) * c,
    )


def test_table_holds_each_integer_coefficient_rounded_once():
    table = evaluate._COEFFS
    for beta, alpha in itertools.product(range(4), range(ALPHA_END)):
        for j in range(2, DEGREE_END):
            want = [float(v) for v in integer_coefficients(j, alpha, beta)]
            assert table[beta, alpha, j].tolist() == want, (beta, alpha, j)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 2, 0] = 0.0


@pytest.mark.parametrize("alpha", [10**6, 10**7])
def test_coefficients_past_the_table_round_python_ints_once(alpha):
    # past 2**53 an entry is rounded; at 10**7 int64 arithmetic would wrap
    want = [[float(v) for v in integer_coefficients(j, alpha, 2)] for j in range(2, 9)]
    assert max(map(max, want)) > 2**53
    assert evaluate._coefficient_rows(8, alpha, 2).tolist() == want
    x = np.array(CHAIN_EDGES + [0.3, -0.7])
    assert jacobi_chain(8, alpha, 2, x).tobytes() == reference_chain(8, alpha, 2, x).tobytes()


def test_table_chains_allocate_only_scratch_rows():
    x = np.linspace(-1.0, 1.0, 1000)
    buffer = np.empty((DEGREE_END, x.size))
    keys = [(alpha, beta) for beta in range(4) for alpha in (0, 1, 50, ALPHA_END - 1)]
    for alpha, beta in keys:  # numpy's first-call state, outside the traced pass
        jacobi_chain(DEGREE_END - 1, alpha, beta, x, out=buffer)
    tracemalloc.start()
    try:
        for alpha, beta in keys:
            jacobi_chain(DEGREE_END - 1, alpha, beta, x, out=buffer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two scratch rows, plus ~2.2 KB of array headers in steady state;
    # coefficients kept per key would add 2.4 KB for each of the 16 keys
    assert peak <= 2 * x.nbytes + 2560, peak


STACK_EDGES = np.array(CHAIN_EDGES + [0.3, -0.7, 0.999])


@pytest.mark.parametrize("stack_points", [0, 10**9])
@pytest.mark.parametrize(
    "chains",
    [
        # beta past the table's 0..3 beside a chain inside it
        [(6, 3, 5), (4, 2, 1)],
        # rows from the table (alpha <= 153, degree <= 75, beta <= 3) and past
        # it on each bound, beta 0..6, and chains of degree 0 and 1
        [(80, 155, 0), (76, 153, 2), (75, 150, 3), (72, 160, 6), (70, 2, 5), (40, 3, 1),
         (12, 0, 4), (5, 7, 2), (1, 4, 6), (1, 0, 0), (0, 9, 3), (0, 151, 5)],
        [(1, 3, 6), (1, 2, 0), (1, 151, 4), (0, 0, 0)],
    ],
)
def test_stacks_match_reference_chains(monkeypatch, chains, stack_points):
    # stack_points 0 steps each row alone, 10**9 every live row at once
    monkeypatch.setattr(evaluate, "STACK_POINTS", stack_points)
    x = STACK_EDGES
    want = [reference_chain(*chain, x) for chain in chains]
    ring = np.full((3, len(chains), x.size), np.nan)  # the shortest ring the batch engine uses
    read = []

    def readout(j):
        for r, (j_max, _, _) in enumerate(chains):
            if j_max >= j:
                assert ring[j % 3, r].tobytes() == want[r][j].tobytes(), (chains[r], j)
                read.append((r, j))

    steps = evaluate.jacobi_steps(x, chains, ring, np.empty((2, len(chains), x.size)), readout)
    assert len(read) == sum(j_max + 1 for j_max, _, _ in chains)
    assert steps == sum(max(j_max - 1, 0) for j_max, _, _ in chains)


def test_derivative_scale_values():
    assert jacobi_derivative_scale(5, 3, 1, 0) == 1.0
    assert jacobi_derivative_scale(3, 2, 0, 1) == 3.0
    assert jacobi_derivative_scale(2, 0, 0, 2) == 3.0
    assert jacobi_derivative_scale(1, 4, 0, 2) == 0.0  # zero-polynomial signal
    assert jacobi_derivative_scale(np.int64(3), np.int32(2), 0, np.int64(1)) == 3.0


@pytest.mark.parametrize(
    "args", [(3, 2, 0, 2.5), (3, 2, 0, True), (3.0, 2, 0, 1), (3, 2.0, 0, 1), (3, 2, False, 1),
             (3, 2, 0, "1")]
)
def test_derivative_scale_rejects_non_integers(args):
    # a bool is a flag, not a count: True must not read as order 1
    bad = next(v for v in args if type(v) is not int)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        jacobi_derivative_scale(*args)


# --- radial evaluators ----------------------------------------------------------


def test_radial_jacobi_examples():
    assert radial_jacobi(1, 1, [0.3])[0] == pytest.approx(0.3, abs=1e-15)
    assert radial_jacobi(2, 0, [0.5])[0] == pytest.approx(-0.5, abs=1e-15)
    assert radial_jacobi(4, 0, [1.0])[0] == pytest.approx(1.0, abs=1e-14)
    assert radial_jacobi(2, 0, [0.5], 1)[0] == pytest.approx(2.0, abs=1e-14)


def test_radial_jacobi_rejects_bad_orders():
    with pytest.raises(ValueError):
        radial_jacobi(2, 0, [0.5], 4)
    with pytest.raises(ModeError):
        radial_jacobi(3, 2, [0.5])
    with pytest.raises(GridError):
        radial_jacobi(2, 0, [1.5])


@pytest.mark.parametrize("order", [1.0, 2.0, 0.0, -1, 4, "1"])
def test_derivative_order_checks_agree(order):
    # one check for every radial path: an order that is not an integer in
    # 0..3 is a ValueError naming it, never a TypeError from deeper down
    for radial in (radial_jacobi, radial_direct):
        with pytest.raises(ValueError, match=re.escape(str(order))):
            radial(6, 2, [0.5], order)
    with pytest.raises(ValueError, match=re.escape(str(order))):
        zk.differentiate_exact(zk.radial_coefficients(6, 2), order)


def test_radial_jacobi_center_equals_case_table():
    for n in range(0, 40):
        for m in range(n % 2, n + 1, 2):
            got = radial_jacobi(n, m, [0.0])[0]
            assert got == pytest.approx(radial_at_zero(n, m), abs=1e-15)


def test_radial_jacobi_matches_oracle_low_orders(grid100, rational100):
    modes = radial_sweep(12)
    for k in range(4):
        reference = zk.oracle_table(modes, rational100, k)
        for col, mode in enumerate(modes):
            got = radial_jacobi(mode.n, mode.m_abs, grid100, k)
            ref = reference.values[:, col]
            tol = 1e-12 * max(1.0, np.abs(ref).max())
            assert np.max(np.abs(got - ref)) <= tol, (mode, k)


def test_derivatives_of_low_degree_modes_vanish_exactly():
    grid = np.linspace(0.0, 1.0, 7)
    for k in (1, 2, 3):
        assert np.all(radial_jacobi(0, 0, grid, k) == 0.0)
    assert np.all(radial_jacobi(1, 1, grid, 2) == 0.0)
    assert np.all(radial_jacobi(2, 2, grid, 3) == 0.0)
    # constant tail, exactly: d^3/drho^3 rho^3 = 6
    assert np.all(radial_jacobi(3, 3, grid, 3) == 6.0)


def test_radial_jacobi_endpoint_is_one():
    for n in range(0, 151, 7):
        for m in range(n % 2, n + 1, 2):
            assert abs(radial_jacobi(n, m, [1.0])[0] - 1.0) <= 1e-11


def test_finite_difference_matches_first_derivative():
    h = 1e-6
    pts = np.linspace(0.1, 0.9, 33)
    for mode in radial_sweep(30):
        d1 = radial_jacobi(mode.n, mode.m_abs, pts, 1)
        fd = (
            radial_jacobi(mode.n, mode.m_abs, pts + h)
            - radial_jacobi(mode.n, mode.m_abs, pts - h)
        ) / (2 * h)
        scale = max(1.0, np.abs(d1).max())
        assert np.max(np.abs(fd - d1)) / scale < 1e-4


def test_radial_direct_examples(grid100):
    assert radial_direct(2, 0, [0.5])[0] == pytest.approx(-0.5, abs=1e-15)
    assert np.all(radial_direct(0, 0, grid100) == 1.0)


def test_radial_direct_unstable_at_high_degree():
    grid = zk.linear_radial_grid(100)
    reference = zk.oracle_table(zk.as_mode_set([(80, 0)]), zk.rational_radial_grid(100), 0)
    err = np.max(np.abs(radial_direct(80, 0, grid) - reference.values[:, 0]))
    assert err > 1.0


def test_radial_direct_coefficient_overflow_is_value_error():
    assert np.isfinite(radial_direct(812, 0, [0.5])).all()
    with pytest.raises(ValueError, match=r"n=814, m=0"):
        radial_direct(814, 0, [0.5])


def test_radial_direct_derivative_path(grid100, rational100):
    reference = zk.oracle_table(zk.as_mode_set([(8, 2)]), rational100, 2)
    got = radial_direct(8, 2, grid100, 2)
    assert np.max(np.abs(got - reference.values[:, 0])) < 1e-10


def direct_reference(n, m_abs, rho, k):
    """The one-mode direct sum written out: each coefficient rounded once,
    Horner in u = rho**2 in expression form, then times rho**low."""
    poly = zk.radial_coefficients(n, m_abs)
    poly = zk.differentiate_exact(poly, k) if k else poly
    if not poly.terms:
        return np.zeros_like(rho)
    u = rho * rho
    acc = np.full_like(u, float(poly.terms[0][1]))
    for _, c in poly.terms[1:]:
        acc = acc * u + float(c)
    return acc * rho ** poly.terms[-1][0]


@pytest.mark.parametrize("k", range(4))
def test_direct_table_equals_one_mode_sums_bitwise(k):
    # right-aligned behind +0.0 rows, every column keeps its one-mode bits:
    # keys of every length in one stack, repeats, flipped m, zero polynomials
    # (k above the degree), and points at 0, subnormal, tiny and 1
    rho = np.array([0.0, 5e-324, 1e-300, 1e-3, 0.5, 0.999, 1.0])
    pairs = [(0, 0), (1, -1), (2, 2), (3, 1), (40, 0), (40, -6), (7, -3), (40, 0), (21, 21)]
    pairs += [(2, 0), (3, 3), (1, 1), (60, 2)]
    full = full_mode_set(24)
    for modes, grid in ((pairs, rho), (full, zk.linear_radial_grid(50))):
        table = radial_direct_table(modes, grid, k)
        assert table.shape == (grid.size, len(modes))
        for col, mode in enumerate(zk.as_mode_set(modes)):
            want = direct_reference(mode.n, mode.m_abs, grid, k).tobytes()
            assert table[:, col].tobytes() == want, (mode, k)
            assert radial_direct(mode.n, mode.m_abs, grid, k).tobytes() == want
    # a stack of zero polynomials only, and no modes at all
    assert radial_direct_table([(0, 0), (1, -1)], rho, 2).tobytes() == bytes(16 * rho.size)
    assert radial_direct_table([], rho, k).shape == (rho.size, 0)


def test_direct_table_coefficient_overflow_names_the_key():
    with pytest.raises(ValueError) as one:
        radial_direct(814, 0, [0.5])
    with pytest.raises(ValueError) as table:
        radial_direct_table([(2, 0), (812, 0), (814, 0), (4, 2)], [0.5])
    assert str(table.value) == str(one.value)
    assert np.isfinite(radial_direct_table([(2, 0), (812, 0)], [0.5])).all()


def test_direct_orders_in_one_pass_expand_each_key_once(monkeypatch):
    # an accuracy job's direct baseline: one pass over orders 0..3 expands each
    # unique key once, and every order keeps its one-mode bits
    calls = []
    expand = evaluate.radial_coefficients
    monkeypatch.setattr(
        evaluate, "radial_coefficients", lambda *key: calls.append(key) or expand(*key)
    )
    pairs = [(0, 0), (1, -1), (3, 1), (40, 0), (40, -6), (40, 6), (7, -3), (40, 0), (2, 2)]
    grid = np.array([0.0, 5e-324, 1e-300, 1e-3, 0.5, 0.999, 1.0])
    tables = evaluate._direct_tables(pairs, grid, range(4))
    assert sorted(calls) == sorted({(abs(n), abs(m)) for n, m in pairs})
    for k, table in enumerate(tables):
        for col, mode in enumerate(zk.as_mode_set(pairs)):
            want = direct_reference(mode.n, mode.m_abs, grid, k).tobytes()
            assert table[:, col].tobytes() == want, (mode, k)
    calls.clear()
    run_accuracy(10, ["direct", "jacobi"], 20, 3)
    assert len(calls) == len(radial_sweep(10))


def test_radial_ztt_seed_is_exact_power():
    grid = zk.linear_radial_grid(17)
    for q in (0, 1, 3, 7):
        assert np.array_equal(radial_ztt(q, q, grid), grid**q)


def test_radial_ztt_matches_oracle(grid100, rational100):
    modes = radial_sweep(20)
    reference = zk.oracle_table(modes, rational100, 0)
    table = radial_ztt_table(modes, grid100)
    assert np.max(np.abs(table - reference.values)) <= 1e-10
    one = radial_ztt(4, 2, np.array([0.7]))[0]
    col = list(modes).index(zk.make_mode(4, 2))
    exact = zk.oracle_table((zk.make_mode(4, 2),), (zk.rational_radial_grid(11)[7],), 0)
    assert one == pytest.approx(float(exact.values[0, 0]), abs=1e-12)


@pytest.mark.parametrize("m", [0, 40])
def test_radial_ztt_past_the_recursion_limit(m):
    # the recursion's dependency chain is ~n levels deep: evaluating it by
    # recursive calls would pass Python's recursion limit at n = 1024
    grid = zk.linear_radial_grid(16)
    ztt = radial_ztt(1024, m, grid)
    assert np.all(np.isfinite(ztt))
    assert np.max(np.abs(ztt - radial_jacobi(1024, m, grid))) <= 1e-9


def reference_ztt_table(modes, rho):
    """Depth-first memo walk over the Zernike recursion, one key at a time."""
    memo = {}
    out = np.empty((rho.size, len(modes)), dtype=np.float64)
    for col, mode in enumerate(modes):
        key = (mode.n, mode.m_abs)
        stack = [] if key in memo else [key]
        while stack:
            top = stack[-1]
            n, m = top
            if n == m:
                memo[top] = rho**n
                stack.pop()
                continue
            needs = [(n - 1, abs(m - 1)), (n - 1, m + 1), (n - 2, m)]
            missing = [k for k in needs if k not in memo]
            if missing:
                stack.append(missing[0])
            else:
                left, right, below = (memo[k] for k in needs)
                memo[top] = rho * (left + right) - below
                stack.pop()
        out[:, col] = memo[key]
    return out


def test_radial_ztt_table_matches_memo_walk_bitwise():
    rho = np.concatenate([[0.0, 5e-324, 1e-300, 1.0], zk.linear_radial_grid(40)])
    # unsorted, duplicated, sign-flipped m, gaps in n
    pairs = [(9, -3), (4, 2), (30, 6), (4, -2), (12, 0), (1, 1), (9, 3), (4, 2),
             (2, 0), (25, -25), (17, 1)]
    modes = tuple(zk.make_mode(n, m) for n, m in pairs)
    got = radial_ztt_table(modes, rho)
    assert got.tobytes() == reference_ztt_table(modes, rho).tobytes()
    # (n, m) pairs are validated and give the Mode spelling's bytes
    assert radial_ztt_table(pairs, rho).tobytes() == got.tobytes()
    with pytest.raises(zk.ParityViolation):
        radial_ztt_table([(2, 1)], rho)
    assert radial_ztt_table((), rho).shape == (rho.size, 0)


def test_radial_ztt_table_keeps_two_levels():
    grid = zk.linear_radial_grid(5000)
    modes = full_mode_set(40)
    tracemalloc.start()
    try:
        out = radial_ztt_table(modes, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a memo of every key would hold another half of the output
    assert peak <= 1.2 * out.nbytes


def test_stable_regime_baselines(grid100, rational100):
    # both baselines track the oracle at low degree; the direct sum's
    # cancellation at rho near 1 caps out around 3e-10 by n = 20
    modes = radial_sweep(20)
    reference = zk.oracle_table(modes, rational100, 0)
    ztt = radial_ztt_table(modes, grid100)
    assert np.max(np.abs(ztt - reference.values)) <= 1e-10
    for col, mode in enumerate(modes):
        err = np.max(
            np.abs(radial_direct(mode.n, mode.m_abs, grid100) - reference.values[:, col])
        )
        assert err <= 1e-9, mode


def test_radial_at_zero_cases():
    assert radial_at_zero(0, 0) == 1.0
    assert radial_at_zero(2, 0) == -1.0
    assert radial_at_zero(4, 0) == 1.0
    assert radial_at_zero(4, 2) == 0.0
    assert radial_at_zero(6, -4) == 0.0
    with pytest.raises(ModeError):
        radial_at_zero(3, 2)


# --- full polynomial ------------------------------------------------------------


def test_zernike_eval_examples():
    assert zernike_eval(zk.make_mode(2, 2), [1.0], [0.0])[0] == pytest.approx(1.0, abs=1e-14)
    assert zernike_eval(zk.make_mode(2, -2), [1.0], [0.0])[0] == 0.0
    assert zernike_eval(zk.make_mode(1, 1), [0.5], [np.pi])[0] == pytest.approx(-0.5, abs=1e-15)


def test_zernike_eval_angular_split():
    # where one angular factor is exactly 0 or +-1, the cos/sin split is exact
    rho = np.array([0.6])
    for n, m in [(3, 1), (4, 2), (5, 3)]:
        radial = radial_jacobi(n, m, rho)[0]
        assert zernike_eval(zk.make_mode(n, m), rho, [0.0])[0] == radial
        assert zernike_eval(zk.make_mode(n, -m), rho, [0.0])[0] == 0.0
        quarter = np.pi / (2 * m)
        assert zernike_eval(zk.make_mode(n, -m), rho, [quarter])[0] == pytest.approx(
            radial, rel=1e-12
        )


def test_zernike_eval_derivative_applies_to_radial_factor():
    got = zernike_eval(zk.make_mode(2, 0), [0.5], [1.234], 1)[0]
    assert got == pytest.approx(2.0, abs=1e-14)  # cos(0) = 1 regardless of theta


def test_zernike_eval_rejects_length_mismatch():
    with pytest.raises(ValueError, match="point-wise grids must match"):
        zernike_eval(zk.make_mode(1, 1), [0.1, 0.2], [0.0])


@pytest.mark.parametrize("m", [2, -2])
@pytest.mark.parametrize("angle", [1e308, -1.7e308])
def test_zernike_eval_angular_overflow_is_value_error(m, angle):
    # 2 * angle passes binary64's maximum: cos or sin of it would be NaN
    with pytest.raises(ValueError, match=re.escape(f"m={m}, theta={angle!r}")):
        zernike_eval(zk.make_mode(2, m), [0.5], [angle])


def test_angular_factor_rule():
    theta = np.array([0.0, 0.3, -2.5])
    assert angular_factor(0, theta).tolist() == [1.0, 1.0, 1.0]
    assert angular_factor(3, theta).tolist() == np.cos(3 * theta).tolist()
    assert angular_factor(-3, theta).tolist() == np.sin(3 * theta).tolist()


point_grid = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=8
)
small_mode = st.integers(0, 16).flatmap(
    lambda n: st.integers(0, n // 2).map(lambda j: zk.Mode(n, n - 2 * j))
)


@given(small_mode, point_grid, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_radial_jacobi_matches_oracle_at_arbitrary_points(mode, points, k):
    # the oracle is exact for any binary64 input, so arbitrary points are fair game
    grid = np.array(points)
    reference = zk.oracle_table((mode,), grid, k)
    got = radial_jacobi(mode.n, mode.m, grid, k)
    tol = 1e-12 * max(1.0, np.abs(reference.values[:, 0]).max())
    assert np.max(np.abs(got - reference.values[:, 0])) <= tol


@given(small_mode, st.floats(0.0, 1.0, allow_nan=False), st.floats(-7.0, 7.0))
@settings(max_examples=60, deadline=None)
def test_zernike_eval_is_radial_times_angular(mode, rho, theta):
    for m_signed in (mode.m, -mode.m):
        signed = zk.make_mode(mode.n, m_signed)
        radial = radial_jacobi(mode.n, mode.m, [rho])[0]
        angular = np.cos(m_signed * theta) if m_signed >= 0 else np.sin(mode.m * theta)
        got = zernike_eval(signed, [rho], [theta])[0]
        assert got == pytest.approx(radial * angular, abs=1e-13)


# --- assembly internals -----------------------------------------------------------


def test_assemble_uses_zero_convention_at_center():
    # rho**0 at rho = 0 must evaluate to 1 so m = 0 modes take the center value
    powers = radial_powers(PowerTable(np.array([0.0])), 0, 0)
    assert assemble_radial(0, 0, 0, [np.ones(1)], powers, np.empty(1))[0] == 1.0


def reference_assemble(rho, m, j, deriv_order, rows):
    """The chain rule written out per order; ``rows[i]`` is P_{j-i}^(m+i, i),
    zeros when j < i."""
    sign = -1.0 if j & 1 else 1.0
    if deriv_order == 0:
        out = rho**m * rows[0]
    elif deriv_order == 1:
        s1 = jacobi_derivative_scale(j, m, 0, 1)
        out = m * rho ** max(m - 1, 0) * rows[0] - 4.0 * s1 * rho ** (m + 1) * rows[1]
    elif deriv_order == 2:
        s1 = jacobi_derivative_scale(j, m, 0, 1)
        s2 = jacobi_derivative_scale(j, m, 0, 2)
        out = (
            (m - 1) * m * rho ** max(m - 2, 0) * rows[0]
            - 4.0 * (2 * m + 1) * s1 * rho**m * rows[1]
            + 16.0 * s2 * rho ** (m + 2) * rows[2]
        )
    else:
        s1 = jacobi_derivative_scale(j, m, 0, 1)
        s2 = jacobi_derivative_scale(j, m, 0, 2)
        s3 = jacobi_derivative_scale(j, m, 0, 3)
        out = (
            (m - 2) * (m - 1) * m * rho ** max(m - 3, 0) * rows[0]
            - 12.0 * m * m * s1 * rho ** max(m - 1, 0) * rows[1]
            + 48.0 * (m + 1) * s2 * rho ** (m + 1) * rows[2]
            - 64.0 * s3 * rho ** (m + 3) * rows[3]
        )
    return sign * out


@pytest.mark.parametrize("k", range(4))
def test_assemble_matches_written_out_chain_rule_bitwise(k):
    # .tobytes() counts signed zeros, so every chain row value takes each
    # sign, zeros included, at every rho: a vanished term (j < i) that is
    # skipped instead of summed shows up as a flipped zero
    points = list(
        itertools.product(
            [0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0], *[[-0.0, 0.0, -1.5, 1.5]] * (k + 1)
        )
    )
    rho = np.array([p[0] for p in points])
    values = np.array([p[1:] for p in points]).T
    # row d of shift i's chain is (d + 1) * values[i], so a wrong row shows
    shared = [np.outer(np.arange(1.0, 8 - i), values[i]) for i in range(k + 1)]
    # one table for every m, as the engine keeps it, and a stale output row
    table = PowerTable(rho)
    for m in range(13):
        powers = radial_powers(table, m, k)
        for j in range(7):
            rows = [c[j - i] if j >= i else np.zeros_like(rho) for i, c in enumerate(shared)]
            want = reference_assemble(rho, m, j, k, rows).tobytes()
            own = [c[: j - i + 1] if j >= i else None for i, c in enumerate(shared)]
            for chains in (shared, own):
                row = np.full_like(rho, np.nan)
                assert assemble_radial(m, j, k, chains, powers, row) is row
                assert row.tobytes() == want, (m, j)


def test_jacobi_argument_shared_form():
    rho = np.array([0.0, 0.5, 1.0])
    assert jacobi_argument(rho).tolist() == [1.0, 0.5, -1.0]


# --- binary64 range at high degree -------------------------------------------------

# (1439, 637) is the first mode whose Jacobi value at small rho is 0 * inf
FIRST_OVERFLOW = (1439, 637)


@pytest.mark.parametrize("k", range(4))
def test_radial_jacobi_overflow_is_value_error(k):
    n, m = FIRST_OVERFLOW
    with pytest.raises(ValueError, match=rf"n={n}, m={m}\) at derivative order {k}"):
        radial_jacobi(n, m, [0.0, 0.5], k)


@pytest.mark.parametrize("k", range(4))
def test_overflow_error_comes_without_runtime_warnings(k):
    # past the gate the typed error is the whole report: numpy's overflow and
    # invalid warnings would turn into exceptions here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"n=1439, m=637"):
            radial_jacobi(*FIRST_OVERFLOW, [0.0], k)


def test_radial_jacobi_past_the_gate_matches_oracle_where_finite():
    n, m = FIRST_OVERFLOW
    got = radial_jacobi(n, m, [0.5])[0]
    exact = float(zk.eval_exact(zk.radial_coefficients(n, m), Fraction(1, 2)))
    assert abs(got - exact) <= 1e-9


high_mode = st.integers(CHECKED_MIN_DEGREE - 24, 1500).flatmap(
    lambda n: st.integers(0, n // 2).map(lambda j: (n, n - 2 * j))
)


@given(high_mode, st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_high_degree_is_finite_or_value_error(mode, k):
    n, m = mode
    try:
        got = radial_jacobi(n, m, [0.0, 5e-324, 1e-300, 1e-3, 0.5, 1.0], k)
    except ValueError:
        assert n >= CHECKED_MIN_DEGREE
    else:
        assert np.all(np.isfinite(got))
