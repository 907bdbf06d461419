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
    _rounding_bound,
    _settled,
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


def simulated_columns(polys, points, bits):
    """Each polynomial's simulated (mant, exp) values at every point, every
    entry on the simulator, from operands rounded as `_deviation` rounds them."""
    xs = [_significand_from_fraction(p.numerator, p.denominator, bits) for p in points]
    us = [_round_significand(xm * xm, xe + xe, bits) for xm, xe in xs]
    for poly in polys:
        m = poly.m_abs
        coeffs = [_round_significand(c, 0, bits) for _, c in poly.terms]
        powers = None
        if m:
            powers = [_round_significand(xm**m, xe * m, bits) for xm, xe in xs]
        yield _simulated_direct_column(coeffs, us, powers, bits)


def simulated_worst(polys, points, bits, references=None):
    """The simulator's worst |float64(direct sum) - oracle| over polys and points;
    ``references`` (polys x points) defaults to each exact value rounded once."""
    if references is None:
        references = [[float(zk.eval_exact(poly, p)) for p in points] for poly in polys]
    worst = 0.0
    for column, refs in zip(simulated_columns(polys, points, bits), references):
        for value, ref in zip(column, refs):
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


def half_ulp_point(bits):
    """A point just below 1/2 + 2**-(bits + 1): bits-bit rounding moves it by
    almost 2**-bits relative, so x**m misses by almost m 2**-bits."""
    return Fraction(1, 2) + Fraction(2**10 - 1, 2 ** (bits + 11))


@pytest.mark.parametrize("bits", [24, 40, 64, 96, 153, 183])
def test_rounding_bound_holds_on_every_simulated_entry(bits):
    # |sim - v| <= E in exact rationals, for every key n <= 30 at every point;
    # at the half-ulp point R_30^30 misses by about 30 2**-bits x**30, and E
    # is gamma_34 x**30: the bound is nearly attained, and E / 2 fails
    points = [Fraction(0), Fraction(5e-324), Fraction(1, 2**20), Fraction(1, 3)]
    points += [Fraction(i, 16) for i in range(1, 17)] + [half_ulp_point(bits)]
    polys = sweep_polys(30)
    bound = _rounding_bound(polys, points, bits)
    tightest = 0.0
    for poly, column, row in zip(polys, simulated_columns(polys, points, bits), bound):
        for (mant, exp), p, e in zip(column, points, row):
            error = abs(Fraction(mant) * Fraction(2) ** exp - zk.eval_exact(poly, p))
            if e != math.inf:
                assert error <= Fraction(e), (poly.n, poly.m_abs, p, bits)
                tightest = max(tightest, error / Fraction(e))
    assert tightest > 0.8
    assert (bound[:, points.index(Fraction(1, 3))] < math.inf).all()
    # 0, 5e-324 and the subnormal powers at 2**-20 are never bounded
    assert (bound[:, :2] == math.inf).all()
    assert all((row[2] == math.inf) == (p.m_abs >= 52) for p, row in zip(polys, bound))


def test_zero_and_subnormal_references_never_settle():
    # with r = 0 and E = 0 a normal reference settles; its gap is what it
    # needs. At 0, below 2**-1022 and at 2**-1022 itself (whose lower gap is
    # 2**-1074) nothing can be told apart from the neighbouring value
    refs = [0.5, -1.0, 0.0, 5e-324, -5e-324, 2.0**-1050, 2.0**-1022, 2.0**-1021, 2.0**-1019]
    refs = np.array(refs)
    zeros = np.zeros_like(refs)
    assert _settled(refs, zeros, zeros).tolist() == [True, True] + [False] * 6 + [True]
    # a residual or a bound of half the gap is already too much
    half_gap = np.array([2.0**-55, 2.0**-54])  # below 0.5, and below 1.0
    assert not _settled(refs[:2], half_gap, zeros[:2]).any()
    assert not _settled(refs[:2], zeros[:2], half_gap).any()
    assert _settled(refs[:2], half_gap / 2, half_gap / 4).all()


@pytest.mark.parametrize(
    "keys",
    [
        [(mode.n, mode.m) for mode in radial_sweep_modes(12)],  # the recursion
        [(1000, 0), (3, 1), (1000, 2)],  # a few high degrees: the Horner sums
    ],
)
def test_residuals_are_the_rounded_exact_remainders(keys, monkeypatch):
    # r = RN64(v - ref) for every entry whose reference leaves room to settle
    # (a bound of 0 leaves all but the zero ones); inf for the others
    calls = []
    horner = exact._horner_columns
    monkeypatch.setattr(exact, "_horner_columns", lambda *a: calls.append(a) or horner(*a))
    points = [Fraction(0), Fraction(1, 3), Fraction(1, 7), Fraction(5, 16), Fraction(1)]
    points += [Fraction(1, 2**20), Fraction(2**53 - 1, 2**53)]
    tables, residuals = _exact_columns(keys, points, bound=np.zeros((len(keys), len(points))))
    assert len(calls) == (keys[0] == (1000, 0))
    assert tables.tobytes() == _exact_columns(keys, points).tobytes()
    for (n, m), refs, row in zip(keys, tables[0], residuals):
        poly = zk.radial_coefficients(n, m)
        for p, ref, r in zip(points, refs, row):
            if ref == 0.0:
                assert r == math.inf
            else:
                assert r == float(zk.eval_exact(poly, p) - Fraction(ref)), (n, m, p)


def full_simulation(n_max, points, bits):
    """Worst |float64(p-bit direct sum) - oracle| at n <= n_max, every entry simulated."""
    references = zk.oracle_table(radial_sweep_modes(n_max), points).values.T
    return simulated_worst(sweep_polys(n_max), points, bits, references)


SWEEP_WIDTHS = [24, 40, 53, 61, 64, 80, 96, 113, 153, 183, 1024]


@pytest.fixture(scope="module")
def simulated40():
    grid = zk.rational_radial_grid(50)
    points = list(map(Fraction, grid))
    return grid, {bits: full_simulation(40, points, bits) for bits in SWEEP_WIDTHS}


@pytest.mark.parametrize("bits", SWEEP_WIDTHS)
def test_precision_sweep_equals_full_simulation(bits, simulated40):
    # settled entries add exactly 0, so the max is bit for bit the full one's
    grid, want = simulated40
    assert precision_sweep(40, [bits], grid) == [(bits, want[bits])]


def test_one_sweep_of_every_width_equals_full_simulation(simulated40):
    # one sweep gates its residuals with the widest width's bound
    grid, want = simulated40
    assert precision_sweep(40, SWEEP_WIDTHS, grid) == [(b, want[b]) for b in SWEEP_WIDTHS]


@pytest.mark.parametrize("bits", [64, 96, 183, 1024])
def test_precision_sweep_simulates_past_the_normal_range(bits):
    # at x = 2**-20, x**|m| is subnormal from |m| = 52 on: those entries are
    # never settled, and the max is still the full simulation's
    points = [Fraction(1, 2**20), Fraction(1, 2)]
    assert precision_sweep(60, [bits], points) == [(bits, full_simulation(60, points, bits))]


def test_wide_sweeps_simulate_only_the_unsettled_entries(monkeypatch):
    simulated = []

    def counted(coeffs, us, powers, bits):
        simulated.append(len(us))
        return _simulated_direct_column(coeffs, us, powers, bits)

    monkeypatch.setattr(exact, "_simulated_direct_column", counted)
    grid = zk.rational_radial_grid(100)
    assert precision_sweep(40, [183], grid) == [(183, 0.0)]
    entries = len(radial_sweep_modes(40)) * 100
    assert entries == 44_100
    assert 0 < sum(simulated) <= entries // 100
