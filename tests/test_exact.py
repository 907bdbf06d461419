from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zernkit as zk
from zernkit.exact import (
    ExactRadialPoly,
    differentiate_exact,
    eval_exact,
    max_abs_error,
    oracle_table,
    radial_coefficients,
)
from zernkit.modes import ModeError, radial_sweep_modes
from zernkit.tables import EvalMatrix, GridError


def factorial_form_coefficients(n, m):
    """Independent cross-check: the factorial expansion of the radial part.

    Every division must be exact (the coefficients are integers), which is
    asserted term by term.
    """
    half_plus = (n + m) // 2
    half_minus = (n - m) // 2
    terms = {}
    for s in range(half_minus + 1):
        num = (-1) ** s * factorial(n - s)
        den = factorial(s) * factorial(half_plus - s) * factorial(half_minus - s)
        assert num % den == 0, f"non-integer coefficient at (n={n}, m={m}, s={s})"
        terms[n - 2 * s] = num // den
    return terms


def test_radial_coefficients_examples():
    assert radial_coefficients(0, 0).as_dict() == {0: 1}
    assert radial_coefficients(1, 1).as_dict() == {1: 1}
    assert radial_coefficients(4, 0).as_dict() == {4: 6, 2: -6, 0: 1}
    assert radial_coefficients(2, 0).as_dict() == {2: 2, 0: -1}


def test_radial_coefficients_rejects_invalid():
    with pytest.raises(ModeError):
        radial_coefficients(3, 2)
    with pytest.raises(ValueError):
        radial_coefficients(3, -1)


@pytest.mark.parametrize("n_max", [60])
def test_binomial_form_matches_factorial_form(n_max):
    for n in range(n_max + 1):
        for m in range(n % 2, n + 1, 2):
            assert radial_coefficients(n, m).as_dict() == factorial_form_coefficients(
                n, m
            )


def test_coefficient_invariants_up_to_120():
    for n in range(121):
        for m in range(n % 2, n + 1, 2):
            poly = radial_coefficients(n, m)
            assert poly.coefficient_sum() == 1  # R(1) = 1
            assert all(e % 2 == n % 2 for e, _ in poly.terms)
            assert all(isinstance(c, int) for _, c in poly.terms)
            constant = poly.as_dict().get(0, 0)
            if m != 0:
                assert constant == 0
            elif n % 4 == 0:
                assert constant == 1
            else:
                assert constant == -1


def test_differentiate_examples():
    p20 = radial_coefficients(2, 0)
    assert differentiate_exact(p20, 1).as_dict() == {1: 4}
    p40 = radial_coefficients(4, 0)
    assert differentiate_exact(p40, 2).as_dict() == {2: 72, 0: -12}
    p11 = radial_coefficients(1, 1)
    assert differentiate_exact(p11, 2).terms == ()


def test_differentiate_rejects_bad_order_and_rederivation():
    poly = radial_coefficients(4, 0)
    with pytest.raises(ValueError):
        differentiate_exact(poly, 0)
    with pytest.raises(ValueError):
        differentiate_exact(poly, 4)
    with pytest.raises(ValueError):
        differentiate_exact(differentiate_exact(poly, 1), 1)


def test_eval_exact_examples():
    p40 = radial_coefficients(4, 0)
    assert eval_exact(p40, 1) == 1
    p20 = radial_coefficients(2, 0)
    assert eval_exact(p20, Fraction(1, 2)) == Fraction(-1, 2)
    assert eval_exact(p40, 0) == 1  # constant term
    assert eval_exact(radial_coefficients(2, 0), 0) == -1


def test_eval_exact_rejects_out_of_range():
    poly = radial_coefficients(2, 0)
    with pytest.raises(GridError):
        eval_exact(poly, Fraction(3, 2))
    with pytest.raises(GridError):
        eval_exact(poly, -1)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(GridError, match="finite"):
            eval_exact(poly, bad)


@given(
    st.integers(0, 24).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n // 2).map(lambda j: n - 2 * j))
    ),
    st.fractions(min_value=0, max_value=1),
)
@settings(max_examples=60)
def test_eval_exact_matches_naive_rational_sum(nm, rho):
    n, m = nm
    poly = radial_coefficients(n, m)
    naive = sum((Fraction(c) * rho**e for e, c in poly.terms), start=Fraction(0))
    assert eval_exact(poly, rho) == naive


@given(
    st.integers(0, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n // 2).map(lambda j: n - 2 * j))
    )
)
@settings(max_examples=60)
def test_eval_exact_at_one_is_coefficient_sum(nm):
    n, m = nm
    poly = radial_coefficients(n, m)
    assert eval_exact(poly, 1) == poly.coefficient_sum() == 1


def test_oracle_table_examples():
    grid = (Fraction(0), Fraction(1, 2), Fraction(1))
    table = oracle_table(zk.as_mode_set([(0, 0)]), grid, 0)
    assert table.values[:, 0].tolist() == [1.0, 1.0, 1.0]

    table = oracle_table(zk.as_mode_set([(2, 0)]), grid, 0)
    assert table.values[:, 0].tolist() == [-1.0, -0.5, 1.0]

    table = oracle_table(zk.as_mode_set([(1, 1)]), (Fraction(0), Fraction(1)), 1)
    assert table.values[:, 0].tolist() == [1.0, 1.0]

    # (n, m) pairs are validated and give the Mode spelling's bytes
    pairs = [(4, -2), (2, 0), (4, 2)]
    table = oracle_table(pairs, grid, 2)
    assert table.modes == zk.as_mode_set(pairs)
    assert table.values.tobytes() == oracle_table(zk.as_mode_set(pairs), grid, 2).values.tobytes()
    with pytest.raises(zk.ParityViolation):
        oracle_table([(2, 1)], grid)


def test_oracle_table_accepts_floats_exactly():
    # binary64 inputs are exact rationals; both spellings must agree bitwise
    modes = zk.as_mode_set([(6, 2), (6, -2)])
    floats = np.array([0.0, 0.125, 0.5, 0.99, 1.0])
    via_float = oracle_table(modes, floats, 0)
    via_fraction = oracle_table(modes, [Fraction(x) for x in floats.tolist()], 0)
    assert np.array_equal(via_float.values, via_fraction.values)
    # sign of m does not matter for the radial part
    assert np.array_equal(via_float.values[:, 0], via_float.values[:, 1])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_oracle_table_matches_eval_exact_on_mixed_denominators(k):
    # points fall into many denominator groups: 1 (0 and 1), 2**53, 2**55
    # (binary64 0.1), 2**600, 2**1074, the divisors of 99 (i/99 reduces to
    # 1/3, 1/9, 1/11, ...) and 7
    points = [Fraction(0), Fraction(1), Fraction(1 - 2**-53), Fraction(0.1)]
    low = [(n, m) for n in range(21) for m in range(-n, n + 1, 2)]
    low += [(6, 2), (6, -2), (20, 0), (0, 0)]  # duplicate columns
    # every m at the degrees around 2**6 and at the CLI's cap, and keys whose
    # degree is below the order; the exact reference at a tiny point takes
    # seconds per order there, so these run on fewer, larger points
    high = [(n, m) for n in (63, 64, 149, 150) for m in range(-n, n + 1, 2)]
    high += [(0, 0), (1, 1), (2, 2)]
    cases = [
        (low, points + [Fraction(5e-324), Fraction(1, 2**600)]
         + [Fraction(i, 99) for i in range(100)] + [Fraction(i, 7) for i in range(8)]),
        (high, points + [Fraction(1, 3), Fraction(50, 99), Fraction(98, 99), Fraction(3, 7)]),
    ]
    for pairs, grid in cases:
        modes = zk.as_mode_set(pairs)
        table = oracle_table(modes, grid, k)
        expected = {}
        for col, mode in enumerate(modes):
            key = (mode.n, mode.m_abs)
            if key not in expected:
                poly = radial_coefficients(*key)
                if k:
                    poly = differentiate_exact(poly, k)
                expected[key] = [float(eval_exact(poly, rho)) for rho in grid]
            assert table.values[:, col].tolist() == expected[key], (mode, k)


@pytest.mark.parametrize("k", range(4))
def test_sparse_oracle_requests_take_horner_sums(k, monkeypatch):
    # a lone high degree would run ~n**2/8 recursion lanes; its Horner sum
    # rounds the same exact rational, so the bits are the oracle's
    calls = []
    horner = zk.exact._horner_columns
    monkeypatch.setattr(zk.exact, "_horner_columns", lambda *a: calls.append(a) or horner(*a))
    grid = [Fraction(i, 16) for i in range(17)] + [Fraction(1, 3), Fraction(0.1)]
    modes = zk.as_mode_set([(1000, 0), (300, -2), (1000, 0), (3, 3)])
    table = oracle_table(modes, grid, k)
    assert len(calls) == 1
    for col, mode in enumerate(modes):
        poly = radial_coefficients(mode.n, mode.m_abs)
        poly = differentiate_exact(poly, k) if k else poly
        assert table.values[:, col].tolist() == [float(eval_exact(poly, x)) for x in grid]
    # a full sweep, as the CLI sends it, stays on the recursion
    oracle_table(radial_sweep_modes(20), zk.rational_radial_grid(5), k)
    assert len(calls) == 1


@pytest.mark.parametrize("orders", [range(4), range(1, 3), range(3, 4)])
def test_one_pass_orders_equal_oracle_table_bitwise(orders, monkeypatch):
    # the accuracy sweep reads every order's reference from one recursion;
    # each equals oracle_table at that order, byte for byte: a sweep to n = 40
    # with repeats and flipped m, whose (0, 0), (1, 1) and (2, 2) lie below
    # orders 1..3, and a few high-degree keys, which take the Horner sums
    calls = []
    horner = zk.exact._horner_columns
    monkeypatch.setattr(zk.exact, "_horner_columns", lambda *a: calls.append(a) or horner(*a))
    sweep = [(mode.n, mode.m) for mode in radial_sweep_modes(40)] + [(6, -2), (40, 0), (1, -1)]
    sparse = [(1000, 0), (3, -1), (0, 0), (1000, 0), (2, 2)]
    cases = [(sweep, zk.rational_radial_grid(33)), (sparse, [Fraction(0), Fraction(1, 3), 1])]
    for case, (pairs, grid) in enumerate(cases):
        tables = zk.exact._oracle_tables(pairs, grid, orders)
        assert len(calls) == case
        assert [table.deriv_order for table in tables] == list(orders)
        for table, k in zip(tables, orders):
            expected = oracle_table(pairs, grid, k)
            assert table.modes == expected.modes
            assert table.values.tobytes() == expected.values.tobytes(), (case, k)
            for col, (n, m) in enumerate(pairs):
                if n < k:  # the zero polynomial: +0.0, as the recursion leaves it
                    assert table.values[:, col].tobytes() == bytes(8 * len(grid))


def test_oracle_table_rejects_out_of_range_grid():
    with pytest.raises(GridError):
        oracle_table(zk.as_mode_set([(0, 0)]), [Fraction(5, 4)], 0)
    for bad in (np.inf, np.nan):
        with pytest.raises(GridError, match="finite"):
            oracle_table(zk.as_mode_set([(0, 0)]), np.array([0.5, bad]), 0)
        with pytest.raises(GridError, match="finite"):
            zk.precision_sweep(2, [53], [bad])
    # an empty grid is rejected where every oracle path converts it, before
    # max_abs_error would reduce over zero points
    for empty in ([], np.array([])):
        with pytest.raises(GridError, match="empty"):
            oracle_table(zk.as_mode_set([(0, 0)]), empty, 0)
    # the shape rule of radial_grid: a scalar is one point, a 2-D grid an error
    for scalar in (0.5, Fraction(1, 3), np.float64(0.5)):
        assert oracle_table([(2, 0)], scalar).values.tobytes() == (
            oracle_table([(2, 0)], [scalar]).values.tobytes()
        )
        assert zk.precision_sweep(4, [53], scalar) == zk.precision_sweep(4, [53], [scalar])
    for grid in (np.array([[0.5, 0.2]]), [[Fraction(1, 2)], [Fraction(1, 5)]]):
        with pytest.raises(GridError, match="1-D"):
            oracle_table([(2, 0)], grid)
        with pytest.raises(GridError, match="1-D"):
            zk.precision_sweep(4, [53], grid)
    # a ragged grid is 1-D with a list for a point
    with pytest.raises(GridError, match="finite"):
        oracle_table([(2, 0)], [[0.5], [0.2, 0.3]])


def test_max_abs_error_rows():
    modes = zk.as_mode_set([(0, 0), (2, 0), (4, 0)])
    grid = zk.rational_radial_grid(11)
    reference = oracle_table(modes, grid, 0)
    identical = EvalMatrix(
        values=reference.values.copy(), modes=modes, deriv_order=0
    )
    rows = max_abs_error(identical, reference)
    assert [r.max_abs_err for r in rows] == [0.0, 0.0, 0.0]
    assert [(r.n, r.m, r.deriv_order) for r in rows] == [(0, 0, 0), (2, 0, 0), (4, 0, 0)]

    bumped = reference.values.copy()
    bumped[3, 1] += 1e-10
    rows = max_abs_error(
        EvalMatrix(values=bumped, modes=modes, deriv_order=0), reference
    )
    assert rows[0].max_abs_err == 0.0
    assert rows[1].max_abs_err == pytest.approx(1e-10, rel=1e-6)
    assert rows[2].max_abs_err == 0.0


def test_max_abs_error_rejects_mismatch():
    modes = zk.as_mode_set([(0, 0)])
    grid = zk.rational_radial_grid(5)
    ref = oracle_table(modes, grid, 0)
    other = oracle_table(modes, zk.rational_radial_grid(7), 0)
    with pytest.raises(ValueError):
        max_abs_error(other, ref)
    swapped = oracle_table(zk.as_mode_set([(2, 0)]), grid, 0)
    with pytest.raises(ValueError):
        max_abs_error(swapped, ref)


def test_exact_poly_is_frozen_value_object():
    poly = radial_coefficients(4, 2)
    assert poly == ExactRadialPoly(
        n=4, m_abs=2, deriv_order=0, terms=((4, 4), (2, -3))
    )
