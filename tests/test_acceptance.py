"""Acceptance suite: one test per exit criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Heavy shared artifacts (the exact reference tables for degrees
up to 100, the simulated-precision sweep) are module-scoped fixtures.
"""

import collections

import numpy as np
import pytest
from click.testing import CliRunner

import zernkit as zk
from zernkit.batch import (
    BatchRequest,
    cached_step_counter,
    evaluate_batch,
    independent_step_counter,
)
from zernkit.cli import main, read_bench_csv, read_precision_csv
from zernkit.modes import dedup_plan, full_mode_set

from conftest import radial_sweep


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def sweep100():
    return radial_sweep(100)


@pytest.fixture(scope="module")
def oracle100(sweep100, rational100):
    return zk.oracle_table(sweep100, rational100, 0)


@pytest.fixture(scope="module")
def jacobi_errors100(sweep100, oracle100, grid100):
    table, _ = evaluate_batch(
        BatchRequest(modes=sweep100, grid=grid100, deriv_order=0, strategy="cached")
    )
    return np.max(np.abs(table.values - oracle100.values), axis=0)


@pytest.fixture(scope="module")
def precision_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("precision") / "sweep.csv"
    result = CliRunner().invoke(
        main,
        ["precision", "--n-max", "100", "--grid-size", "100",
         "--bits", "53", "--bits", "153", "--bits", "183",
         "--output", str(out)],
    )
    assert result.exit_code == 0, result.output
    return dict(read_precision_csv(out))


def test_criterion_1_jacobi_stability(sweep100, jacobi_errors100):
    worst = float(jacobi_errors100.max())
    ok = worst <= 1e-9
    report(1, ok, f"jacobi max-abs error over n<=100, k=0: {worst:.3e} (tol 1e-9)")
    assert ok


def test_criterion_2_direct_instability(sweep100, oracle100, grid100, jacobi_errors100):
    witnesses = []
    for col, mode in enumerate(sweep100):
        if mode.n < 60:
            continue
        direct_err = np.max(
            np.abs(zk.radial_direct(mode.n, mode.m, grid100) - oracle100.values[:, col])
        )
        if direct_err > 1.0 and jacobi_errors100[col] <= 1e-9:
            witnesses.append((mode.n, mode.m, float(direct_err)))
    ok = bool(witnesses)
    worst = max(witnesses, key=lambda w: w[2]) if witnesses else None
    report(
        2,
        ok,
        f"{len(witnesses)} modes with n>=60 have direct error > 1 while jacobi "
        f"stays <= 1e-9 (worst: {worst})",
    )
    assert ok


def test_criterion_3_derivative_accuracy(grid100, rational100):
    modes = radial_sweep(50)
    worst = 0.0
    for k in (1, 2, 3):
        reference = zk.oracle_table(modes, rational100, k)
        table, _ = evaluate_batch(
            BatchRequest(modes=modes, grid=grid100, deriv_order=k, strategy="cached")
        )
        magnitude = np.max(np.abs(reference.values), axis=0)
        diff = np.max(np.abs(table.values - reference.values), axis=0)
        for col in range(len(modes)):
            tol = 1e-8 * magnitude[col]
            assert diff[col] <= tol, (modes[col], k, diff[col], tol)
            if magnitude[col] > 0:
                worst = max(worst, diff[col] / magnitude[col])
    report(3, True, f"k in 1..3, n<=50: worst relative deviation {worst:.3e} (tol 1e-8)")


def test_criterion_4_jacobi_route_equals_exact_expansion(grid100, rational100):
    modes = radial_sweep(30)
    worst = 0.0
    for k in range(4):
        reference = zk.oracle_table(modes, rational100, k)
        table, _ = evaluate_batch(
            BatchRequest(modes=modes, grid=grid100, deriv_order=k, strategy="cached")
        )
        scale = np.maximum(1.0, np.max(np.abs(reference.values), axis=0))
        rel = np.max(np.abs(table.values - reference.values), axis=0) / scale
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-12
    report(4, ok, f"n<=30, k<=3: worst relative deviation {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_5_center_values_and_ztt(grid100, rational100):
    for n in range(101):
        for m in range(-n, n + 1, 2):
            expected = 0.0
            if m == 0:
                expected = 1.0 if n % 4 == 0 else -1.0
            assert zk.radial_at_zero(n, m) == expected

    modes = radial_sweep(30)
    reference = zk.oracle_table(modes, rational100, 0)
    table = zk.radial_ztt_table(modes, grid100)
    worst = float(np.max(np.abs(table - reference.values)))
    seeds_exact = all(
        np.array_equal(zk.radial_ztt(q, q, grid100), grid100**q) for q in range(31)
    )
    ok = worst <= 1e-10 and seeds_exact
    report(
        5,
        ok,
        f"center table exact for n<=100; ztt worst error n<=30: {worst:.3e} "
        f"(tol 1e-10), power seeds exact: {seeds_exact}",
    )
    assert ok


def test_criterion_6_orthogonality():
    x, w = np.polynomial.legendre.leggauss(512)
    nodes = (x + 1.0) / 2.0
    weights = w / 2.0
    modes = radial_sweep(40)
    table, _ = evaluate_batch(
        BatchRequest(modes=modes, grid=nodes, deriv_order=0, strategy="cached")
    )
    weighted = weights * nodes
    by_m = collections.defaultdict(list)
    for col, mode in enumerate(modes):
        by_m[mode.m].append((mode.n, col))
    worst = 0.0
    for entries in by_m.values():
        cols = [c for _, c in entries]
        degrees = np.array([n for n, _ in entries])
        block = table.values[:, cols]
        gram = block.T @ (weighted[:, None] * block)
        target = np.diag(1.0 / (2.0 * degrees + 2.0))
        worst = max(worst, float(np.abs(gram - target).max()))
    ok = worst <= 1e-10
    report(6, ok, f"same-m pairs n,n'<=40: worst |integral - target| {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_7_bitwise_equality_and_counter_formula(grid100):
    for resolution in range(31):
        modes = full_mode_set(resolution)
        plan = dedup_plan(modes)
        analytic = sum(
            max(0, (resolution - alpha) // 2 - 1) for alpha in range(resolution + 1)
        )
        assert cached_step_counter(plan, 0).recursion_steps == analytic
        for k in range(4):
            cached, _ = evaluate_batch(
                BatchRequest(modes=modes, grid=grid100, deriv_order=k, strategy="cached")
            )
            independent, _ = evaluate_batch(
                BatchRequest(
                    modes=modes, grid=grid100, deriv_order=k, strategy="independent"
                )
            )
            assert np.array_equal(cached.values, independent.values), (resolution, k)
    report(7, True, "outputs bitwise identical for N<=30, k<=3; cached counter matches formula")


def plan_shares_a_step(plan) -> bool:
    """True when some |m| group holds a Jacobi degree j with 2 <= j < j_max.

    A chain of degree j costs max(0, j - 1) recursion steps, and the cached
    strategy runs only the deepest chain of each |m| group. Sharing therefore
    saves a step exactly when a non-maximal degree of some group costs one.
    """
    degrees = collections.defaultdict(set)
    for n, alpha in plan.unique_keys:
        degrees[alpha].add((n - alpha) // 2)
    return any(2 <= j < max(js) for js in degrees.values() for j in js)


def test_criterion_7_strict_step_dominance():
    violations = []
    strict = []
    for resolution in range(2, 31):
        plan = dedup_plan(full_mode_set(resolution))
        cached = cached_step_counter(plan, 0).recursion_steps
        independent = independent_step_counter(plan, 0).recursion_steps
        assert cached <= independent
        shares = plan_shares_a_step(plan)
        if shares:
            strict.append(resolution)
        if (cached < independent) != shares:
            violations.append((resolution, cached, independent, shares))
    ok = not violations and strict == list(range(6, 31))
    report(
        7,
        ok,
        "cached steps strictly below independent exactly where some |m| group "
        f"shares a step (N in {strict[0]}..{strict[-1]}), equal elsewhere"
        if ok
        else f"(N, cached, independent, shares a step): {violations}",
    )
    assert not violations, (
        "cached < independent must hold exactly when some |m| group has a "
        "Jacobi degree 2 <= j < j_max, with equality otherwise; "
        f"violations (N, cached, independent, shares a step): {violations}"
    )
    # in a full set the |m| = alpha group holds degrees 0..(N - alpha) // 2,
    # so a group shares a step from N - alpha >= 6 on
    assert strict == list(range(6, 31)), strict


def test_criterion_8_unstable_at_53_bits(precision_csv):
    dev = precision_csv[53]
    ok = dev > 1.0
    report(8, ok, f"53-bit significand, n<=100: max deviation {dev:.3e} (> 1 required)")
    assert ok


def test_criterion_8_binary64_row_is_pinned(precision_csv):
    # the 53-bit row runs on binary64 itself; its value is the simulator's
    assert precision_csv[53] == 3.222182375232582e20


def test_criterion_8_153_bit_row_is_pinned(precision_csv):
    # most entries are settled by the rounding bound; the max is the full
    # simulation's, at (n, m) = (100, 6) and rho = 98/99
    assert precision_csv[153] == 7.326653173045372e-11


def abs_coefficient_sum(n: int) -> int:
    """Largest sum of |coefficients| over the radial polynomials of degree n."""
    return max(
        sum(abs(c) for _, c in zk.radial_coefficients(n, m).terms)
        for m in range(n % 2, n + 1, 2)
    )


def exact_degree_limit(bits: int) -> int:
    """Largest n_max such that every n <= n_max meets the rounding-error bound.

    A p-bit Horner evaluation of the alternating sum on [0, 1] errs by up to
    about (2n + 2) * 2^-p * sum|c_s|, largest at rho = 1. Keeping that below
    the binary64 resolution needs 53 + log2(sum|c_s|) + log2(2n + 2) <= p.
    """
    n = 0
    while abs_coefficient_sum(n) * (2 * n + 2) <= 2 ** (bits - 53):
        n += 1
    return n - 1


def test_criterion_8_zero_deviation_at_153_bits(tmp_path, precision_csv):
    n_exact = exact_degree_limit(153)
    assert n_exact == 75, n_exact
    out = tmp_path / "prec153.csv"
    result = CliRunner().invoke(
        main,
        ["precision", "--n-max", str(n_exact), "--grid-size", "100",
         "--bits", "153", "--output", str(out)],
    )
    assert result.exit_code == 0, result.output
    dev = dict(read_precision_csv(out))[153]

    # the shared n <= 100 row lies beyond the limit: nonzero, within the bound
    dev100 = precision_csv[153]
    bound100 = (2 * 100 + 2) * abs_coefficient_sum(100) / 2**153
    ok = dev == 0.0 and 0.0 < dev100 <= bound100
    report(
        8,
        ok,
        f"153-bit significand, n<={n_exact} (bound limit): max deviation {dev!r} "
        f"(0.0 required); n<=100: {dev100:.3e} in (0, {bound100:.3e}]",
    )
    assert dev == 0.0, (
        f"153-bit arithmetic does not reproduce binary64-exact values up to "
        f"n={n_exact}, where 53 + log2(sum|c_s|) + log2(2n+2) <= 153: "
        f"max deviation {dev!r}"
    )
    assert 0.0 < dev100 <= bound100, (
        f"153-bit deviation at n<=100 is {dev100!r}, expected in "
        f"(0, {bound100!r}] = (0, 202 * 2^-153 * sum|c_s|]"
    )


def test_criterion_8_zero_deviation_at_183_bits(precision_csv):
    dev = precision_csv[183]
    ok = dev == 0.0
    report(8, ok, f"183-bit significand, n<=100: max deviation {dev!r} (exactly 0)")
    assert ok


def test_criterion_9_bench_shape(tmp_path):
    out = tmp_path / "bench.csv"
    result = CliRunner().invoke(
        main,
        ["bench", "--n-min", "10", "--n-max", "100", "--step", "10",
         "--grid-size", "100", "--grid-size", "1000", "--reps", "3",
         "--output", str(out)],
    )
    assert result.exit_code == 0, result.output
    records = read_bench_csv(out)
    assert len(records) == 40  # 10 resolutions x 2 grids x 2 strategies

    series = collections.defaultdict(list)
    for record in records:
        series[(record.strategy, record.grid_size)].append(
            (record.resolution, record.wall_ns_median)
        )
    for key, points in series.items():
        points.sort()
        walls = [w for _, w in points]
        assert all(a < b for a, b in zip(walls, walls[1:])), (key, walls)

    for record in records:
        if record.strategy == "cached":
            twin = next(
                r
                for r in records
                if r.strategy == "independent"
                and (r.resolution, r.grid_size) == (record.resolution, record.grid_size)
            )
            assert record.recursion_steps <= twin.recursion_steps

    baseline = CliRunner().invoke(
        main,
        ["bench", "--n-min", "30", "--n-max", "30", "--grid-size", "100",
         "--method", "jacobi", "--method", "direct", "--method", "ztt",
         "--reps", "3", "--output", str(out)],
    )
    assert baseline.exit_code == 0, baseline.output
    methods = {r.method for r in read_bench_csv(out)}
    assert methods == {"jacobi", "direct", "ztt"}
    report(
        9,
        True,
        "bench completes for N=10..100 at grids 100/1000; wall time monotone in "
        "resolution per series; cached steps <= independent; per-method baseline "
        "timing rows available",
    )
