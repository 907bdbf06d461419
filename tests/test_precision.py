import math
import re
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

import zernkit as zk
from zernkit import exact
from zernkit.modes import radial_sweep_modes
from zernkit.tables import GridError
from zernkit.exact import (
    ExactRadialPoly,
    _binary64_column,
    _binary64_horner,
    _deviation,
    _exact_columns,
    _round_significand,
    _significand_from_fraction,
    _significand_to_float,
    _simulated_direct_column,
    precision_sweep,
)


def as_significand(x: float) -> tuple[int, int]:
    """Exact (mantissa, exponent) of a binary64 value."""
    frac, exp = math.frexp(x)
    return int(frac * (1 << 53)), exp - 53


def simulated_direct_value(coeffs, m_abs, x, bits):
    """`_simulated_direct_column` at the one point x = (mant, exp)."""
    xm, xe = x
    u = _round_significand(xm * xm, xe + xe, bits)
    powers = [_round_significand(xm**m_abs, xe * m_abs, bits)] if m_abs else None
    return _simulated_direct_column(coeffs, [u], powers, bits)[0]


def test_round_significand_ties_to_even():
    # 11 = 0b1011 sits exactly between 0b101 and 0b110 at 3 bits: pick even
    assert _round_significand(11, 0, 3) == (6, 1)
    # 13 = 0b1101 between 0b110 and 0b111: pick even (110)
    assert _round_significand(13, 0, 3) == (6, 1)
    assert _round_significand(-11, 0, 3) == (-6, 1)
    # exact values pass through untouched
    assert _round_significand(5, 7, 3) == (5, 7)
    assert _round_significand(0, 0, 99) == (0, 0)


def test_significand_to_float_handles_wide_values():
    assert _significand_to_float(1, -1) == 0.5
    assert _significand_to_float(3, -2) == 0.75
    assert _significand_to_float(1 << 200, -200) == 1.0
    assert _significand_to_float(0, 0) == 0.0


finite_floats = st.floats(
    min_value=1e-100, max_value=1e100, allow_nan=False, allow_infinity=False
)


@given(st.integers(1, 10**12), st.integers(1, 10**12))
@settings(max_examples=200)
def test_from_fraction_at_53_bits_matches_hardware_division(num, den):
    # binary64 division of exact integers is correctly rounded, so the
    # simulator at 53 bits must reproduce it bit for bit
    want = num / den
    got = _significand_to_float(*_significand_from_fraction(num, den, 53))
    assert got == want


@given(finite_floats, finite_floats)
@settings(max_examples=200)
def test_simulated_add_and_mul_at_53_bits_match_hardware(x, y):
    dx, dy = as_significand(x), as_significand(y)
    mant, exp = _round_significand(dx[0] * dy[0], dx[1] + dy[1], 53)
    assert _significand_to_float(mant, exp) == x * y
    shared = min(dx[1], dy[1])
    mant, exp = _round_significand(
        (dx[0] << (dx[1] - shared)) + (dy[0] << (dy[1] - shared)), shared, 53
    )
    assert _significand_to_float(mant, exp) == x + y


def test_simulated_direct_value_is_exact_at_high_precision():
    # with plenty of bits, a short polynomial at a dyadic point is exact
    poly = zk.radial_coefficients(4, 0)
    coeffs = [(c, 0) for _, c in poly.terms]
    x = (1, -1)  # rho = 0.5
    mant, exp = simulated_direct_value(coeffs, 0, x, 200)
    assert _significand_to_float(mant, exp) == float(
        zk.eval_exact(poly, Fraction(1, 2))
    )


def brute_force_round(num: int, den: int, bits: int) -> Fraction:
    """Independent nearest-p-bit rounding: compare the two bracketing mantissas."""
    value = Fraction(num, den)
    e = value.numerator.bit_length() - value.denominator.bit_length()
    if Fraction(2) ** e > value:
        e -= 1
    # now 2^e <= value < 2^(e+1); mantissa target in [2^(bits-1), 2^bits]
    scale = Fraction(2) ** (e - bits + 1)
    low = value / scale
    floor = low.numerator // low.denominator
    best = min((floor, floor + 1), key=lambda m: (abs(m * scale - value), m % 2))
    return best * scale


@given(st.integers(1, 10**9), st.integers(1, 10**9), st.integers(24, 120))
@settings(max_examples=150)
def test_from_fraction_matches_brute_force_rounding(num, den, bits):
    mant, exp = _significand_from_fraction(num, den, bits)
    got = Fraction(mant) * Fraction(2) ** exp
    assert got == brute_force_round(num, den, bits)


def test_precision_sweep_rejects_narrow_significands():
    with pytest.raises(ValueError):
        precision_sweep(10, [23], zk.rational_radial_grid(5))


def test_precision_sweep_rejects_wide_significands():
    # every simulated value carries a width-bit integer: the width is capped
    with pytest.raises(ValueError, match="1024"):
        precision_sweep(10, [1025], zk.rational_radial_grid(5))
    assert precision_sweep(2, [1024], zk.rational_radial_grid(3)) == [(1024, 0.0)]


def test_precision_sweep_rejects_non_integer_arguments():
    grid = [Fraction(1, 2)]
    for bad in (2.7, 2.0, "4", None):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            precision_sweep(bad, [53], grid)
    for bad in (53.9, 53.0, "53", None):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            precision_sweep(3, [bad], grid)
    assert precision_sweep(np.int64(3), [np.int32(40)], grid) == precision_sweep(
        3, [40], grid
    )


def test_precision_sweep_rejects_an_empty_grid():
    with pytest.raises(GridError, match="empty"):
        precision_sweep(5, [53], [])


def test_precision_sweep_monotone_and_convergent():
    grid = zk.rational_radial_grid(20)
    rows = precision_sweep(16, [24, 32, 53, 80, 120], grid)
    devs = [dev for _, dev in rows]
    assert devs == sorted(devs, reverse=True)
    assert devs[0] > 0.0
    assert devs[-1] == 0.0


def test_precision_sweep_rows_follow_input_order():
    grid = zk.rational_radial_grid(8)
    rows = precision_sweep(6, [64, 24], grid)
    assert [bits for bits, _ in rows] == [64, 24]


def test_deviation_reaches_zero_by_160_bits_up_to_degree_50():
    grid = zk.rational_radial_grid(100)
    (_, dev), = precision_sweep(50, [160], grid)
    assert dev == 0.0


def test_binary64_deviation_grows_past_unity_at_degree_50():
    grid = zk.rational_radial_grid(100)
    (_, dev), = precision_sweep(50, [53], grid)
    assert dev > 1.0


def reference_direct_value(coeffs, m_abs, x, bits):
    """The simulator's evaluation order, one _round_significand per operation."""
    xm, xe = x
    um, ue = _round_significand(xm * xm, xe + xe, bits)
    am, ae = coeffs[0]
    for cm, ce in coeffs[1:]:
        am, ae = _round_significand(am * um, ae + ue, bits)
        shared = min(ae, ce)
        am, ae = _round_significand(
            (am << (ae - shared)) + (cm << (ce - shared)), shared, bits
        )
    if m_abs and xm == 0:
        return 0, 0
    if m_abs:
        pm, pe = _round_significand(xm**m_abs, xe * m_abs, bits)
        am, ae = _round_significand(am * pm, ae + pe, bits)
    return am, ae


radial_modes = st.integers(0, 30).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n // 2).map(lambda j: n - 2 * j))
)
unit_points = st.lists(
    st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 4)]),
        st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    ),
    min_size=1,
    max_size=6,
)


@given(radial_modes, unit_points, st.integers(24, 200))
@settings(max_examples=200, deadline=None)
def test_simulated_direct_matches_round_by_round_reference(nm, points, bits):
    n, m = nm
    poly = zk.radial_coefficients(n, m)
    coeffs = [_round_significand(c, 0, bits) for _, c in poly.terms]
    xs = [_significand_from_fraction(p.numerator, p.denominator, bits) for p in points]
    want = [reference_direct_value(coeffs, m, x, bits) for x in xs]
    assert [simulated_direct_value(coeffs, m, x, bits) for x in xs] == want
    us = [_round_significand(xm * xm, xe + xe, bits) for xm, xe in xs]
    powers = [_round_significand(xm**m, xe * m, bits) for xm, xe in xs] if m else None
    assert _simulated_direct_column(coeffs, us, powers, bits) == want


@given(
    st.lists(st.integers(-(1 << 26), 1 << 26), min_size=1, max_size=8),
    st.integers(0, 3),
    st.integers(0, 1 << 13),
    st.integers(-14, 0),
    st.integers(0, 4),
)
@settings(max_examples=300, deadline=None)
def test_simulated_direct_rounds_ties_signs_and_carries_like_reference(
    mants, coeff_exp, xm, xe, m_abs
):
    # 24-bit arithmetic on signed 27-bit coefficients and short dyadic points
    # hits exact ties, both signs and carries to 2**24 often
    bits = 24
    coeffs = [_round_significand(c, coeff_exp, bits) for c in mants]
    x = (xm, xe)
    assert simulated_direct_value(coeffs, m_abs, x, bits) == reference_direct_value(
        coeffs, m_abs, x, bits
    )


def test_simulated_direct_carry_and_ties_examples():
    bits = 24
    top = (1 << bits) - 1  # 24 bits
    one = (1, 0)  # x = 1, so u = 1
    # (2**24 - 1) * 2 + 1 = 2**25 - 1: a tie with an odd head carries to 2**24
    assert simulated_direct_value([(top, 1), (1, 0)], 0, one, bits) == (1 << bits, 1)
    assert simulated_direct_value([(-top, 1), (-1, 0)], 0, one, bits) == (
        -(1 << bits),
        1,
    )
    # 2**25 - 3 is a tie with an even head: it stays
    assert simulated_direct_value([(top - 1, 1), (-1, 0)], 0, one, bits) == (
        top - 1,
        1,
    )


@pytest.mark.parametrize("bits", [153, 160, 170, 181])
def test_simulated_direct_value_matches_mpmath(bits):
    # the worst 153-bit point of the n <= 100 sweep, evaluated in the
    # simulator's order: Horner in u = x*x over p-bit-rounded coefficients,
    # then one multiply by the once-rounded exact power x**m
    mpmath = pytest.importorskip("mpmath")
    n, m, num, den = 100, 6, 98, 99
    poly = zk.radial_coefficients(n, m)
    coeffs = [_round_significand(c, 0, bits) for _, c in poly.terms]
    x = _significand_from_fraction(num, den, bits)
    simulated = _significand_to_float(*simulated_direct_value(coeffs, m, x, bits))

    mp = mpmath.mp
    with mp.workprec(bits):
        xp = mp.mpf(num) / den
        u = xp * xp
        acc = mp.mpf(poly.terms[0][1])
        for _, c in poly.terms[1:]:
            acc = acc * u + mp.mpf(c)
        with mp.workprec(bits * m):
            power = xp**m  # exact: at most bits * m significant bits
        power = +power  # unary plus rounds once to the working precision
        expected = float(acc * power)  # mpf -> float rounds to nearest

    assert simulated == expected
    if bits == 153:
        # the 153-bit result itself misses the correctly rounded value
        assert expected != float(zk.eval_exact(poly, Fraction(num, den)))


def sweep_polys(n_max):
    return [zk.radial_coefficients(m.n, m.m) for m in radial_sweep_modes(n_max)]


def simulated_worst(polys, points, bits):
    """The simulator's worst |float64(direct sum) - oracle| over polys and points."""
    worst = 0.0
    xs = [_significand_from_fraction(p.numerator, p.denominator, bits) for p in points]
    us = [_round_significand(xm * xm, xe + xe, bits) for xm, xe in xs]
    for poly in polys:
        m = poly.m_abs
        coeffs = [_round_significand(c, 0, bits) for _, c in poly.terms]
        powers = None
        if m:
            powers = [_round_significand(xm**m, xe * m, bits) for xm, xe in xs]
        column = _simulated_direct_column(coeffs, us, powers, bits)
        for value, p in zip(column, points):
            ref = float(zk.eval_exact(poly, p))
            worst = max(worst, abs(_significand_to_float(*value) - ref))
    return worst


@given(st.integers(0, 40), unit_points)
@settings(max_examples=40, deadline=None)
def test_binary64_row_equals_the_simulator(n_max, points):
    polys = sweep_polys(n_max)
    want = simulated_worst(polys, points, 53)
    references = _exact_columns([(p.n, p.m_abs) for p in polys], points)[0]
    assert _deviation(polys, references, points, 53) == want
    assert precision_sweep(n_max, [53], points) == [(53, want)]


def test_binary64_row_is_pinned_at_degree_50():
    grid = zk.rational_radial_grid(100)
    assert precision_sweep(50, [53], grid) == [(53, 40.74171803429938)]


def test_binary64_row_rounds_the_exact_power_once():
    # numpy's rho**4 of the binary64 30/99 misses its correctly rounded power
    # by an ulp (numpy 2.4); like the simulator, the row rounds the exact power
    poly = zk.radial_coefficients(4, 4)
    point = Fraction(30, 99)
    x = _significand_from_fraction(point.numerator, point.denominator, 53)
    value = simulated_direct_value([(1, 0)], 4, x, 53)
    want = abs(_significand_to_float(*value) - float(zk.eval_exact(poly, point)))
    assert _deviation([poly], _exact_columns([(poly.n, poly.m_abs)], [point])[0], [point], 53) == want


@pytest.mark.parametrize(
    "n_max, points",
    [
        # u = x*x is an inexact result below 2**-1022: numpy's underflow flag
        (10, [Fraction(1, 2**600), Fraction(1, 2)]),
        # x**60 = 2**-1200 is rounded exactly, then would convert to a subnormal
        (60, [Fraction(1, 2**20)]),
        # a point below 2**-1074 converts to 0.0 and raises no numpy flag
        (0, [Fraction(1, 2**1100), Fraction(1)]),
        # only the polynomials with |m| >= 52 meet a power below 2**-1022
        (60, [Fraction(1, 2**20), Fraction(1, 2)]),
    ],
)
def test_binary64_row_falls_back_to_the_simulator(n_max, points):
    assert precision_sweep(n_max, [53], points) == [
        (53, simulated_worst(sweep_polys(n_max), points, 53))
    ]


def test_binary64_row_runs_the_simulator_only_where_needed(monkeypatch):
    # at x = 2**-20 the power x**|m| is below 2**-1022 from |m| = 52 on: only
    # those polynomials run on the simulator, every other one on binary64
    calls = []

    def counted(coeffs, us, powers, bits):
        calls.append(bits)
        return _simulated_direct_column(coeffs, us, powers, bits)

    monkeypatch.setattr(exact, "_simulated_direct_column", counted)
    precision_sweep(60, [53], [Fraction(1, 2**20), Fraction(1, 2)])
    assert len(calls) == sum(1 for mode in radial_sweep_modes(60) if mode.m >= 52)


def test_binary64_row_falls_back_past_binary64_coefficients():
    poly = zk.radial_coefficients(814, 0)
    with pytest.raises(OverflowError):
        [float(c) for _, c in poly.terms]
    points = [Fraction(1, 3), Fraction(1)]
    want = simulated_worst([poly], points, 53)
    assert _deviation([poly], _exact_columns([(poly.n, poly.m_abs)], points)[0], points, 53) == want


def test_binary64_row_falls_back_on_an_inexact_tiny_product():
    # 20102 u - 201 is about 1/50 at x = 1/10, and that times the normal
    # x**307 is about 2e-309, below 2**-1022. Binary64 rounds that product
    # once, to a subnormal; the simulator rounds it to 53 bits first, and the
    # two values differ. Every operand is normal: only numpy's flag catches it
    poly = ExactRadialPoly(309, 307, 0, ((309, 20102), (307, -201)))
    points = [Fraction(1, 10)]
    x = _significand_from_fraction(1, 10, 53)
    u = _binary64_column([_round_significand(x[0] * x[0], 2 * x[1], 53)])
    power = _binary64_column([_round_significand(x[0] ** 307, x[1] * 307, 53)])
    with np.errstate(under="ignore"):
        plain = float(_binary64_horner([float(c) for _, c in poly.terms], u)[0] * power[0])
    ref = float(zk.eval_exact(poly, points[0]))
    want = simulated_worst([poly], points, 53)
    assert abs(plain - ref) != want
    # the terms are not R_309^307's, so the reference is this polynomial's own
    assert _deviation([poly], [[ref]], points, 53) == want
