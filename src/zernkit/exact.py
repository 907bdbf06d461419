"""Exact integer/rational reference for the radial polynomials.

Coefficient expansion is integer-only (the binomial form guarantees integer
coefficients) and single points are evaluated by exact rational Horner.
Reference tables run the Zernike three-term recursion on integers instead,
and are rounded to binary64 exactly once at the very end. This replaces a
fixed-precision decimal reference: there is no precision to choose, and the
question "how many bits would have been enough?" becomes an experiment
(`precision_sweep`) instead of an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .modes import ModeSet, _integer, as_mode_set, dedup_plan
from .modes import radial_mode, radial_sweep_modes, ztt_levels
from .tables import EvalMatrix, GridError, check_deriv_order

_MIN_SIGNIFICAND_BITS = 24  # binary32; anything below is meaningless here
# Every simulated value carries a width-bit integer; 183 bits are exact to n = 100.
_MAX_SIGNIFICAND_BITS = 1024


@dataclass(frozen=True)
class ExactRadialPoly:
    """Integer-coefficient radial polynomial or one of its derivatives.

    ``terms`` holds (exponent, coefficient) pairs in descending exponent
    order. Exponents step by 2 (parity of n - deriv_order) and coefficients
    are exact arbitrary-size integers for every derivative order.
    """

    n: int
    m_abs: int
    deriv_order: int
    terms: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def coefficient_sum(self) -> int:
        """Value at rho = 1, an exact integer."""
        return sum(c for _, c in self.terms)


def radial_coefficients(n: int, m_abs: int) -> ExactRadialPoly:
    """Expand the radial polynomial for (n, |m|) into exact integer terms.

    The coefficient of rho^(n-2s) is (-1)^s C(n-s, s) C(n-2s, (n-|m|)/2 - s),
    computed entirely in integer arithmetic.
    """
    mode = radial_mode(n, m_abs)
    j = mode.jacobi_degree
    terms = tuple(
        (n - 2 * s, (-1) ** s * comb(n - s, s) * comb(n - 2 * s, j - s))
        for s in range(j + 1)
    )
    return ExactRadialPoly(n=mode.n, m_abs=mode.m_abs, deriv_order=0, terms=terms)


def differentiate_exact(poly: ExactRadialPoly, order: int) -> ExactRadialPoly:
    """Differentiate term-wise ``order`` times (1..3), exactly.

    Terms whose exponent reaches below zero vanish; the result can be the
    zero polynomial (empty terms).
    """
    check_deriv_order(order)
    if order == 0:
        raise ValueError("derivative order must be 1..3, got 0")
    if poly.deriv_order != 0:
        raise ValueError("expected an underived polynomial")
    terms = poly.terms
    for _ in range(order):
        terms = tuple((e - 1, c * e) for e, c in terms if e >= 1)
    return ExactRadialPoly(poly.n, poly.m_abs, order, terms)


def eval_exact(poly: ExactRadialPoly, rho: Fraction | int) -> Fraction:
    """Exact rational Horner evaluation at rho in [0, 1]. No rounding anywhere."""
    rho = _unit_point(rho)
    num, den = _eval_terms_rational(poly.terms, rho.numerator, rho.denominator)
    return Fraction(num, den)


def _eval_terms_rational(terms, a: int, b: int) -> tuple[int, int]:
    """Evaluate integer-coefficient terms at a/b as an unreduced num/den pair.

    Homogenized Horner: every operation is an exact integer multiply/add.
    """
    if not terms:
        return 0, 1
    top = terms[0][0]
    acc = terms[0][1]
    bpow = 1
    prev_e = top
    for e, c in terms[1:]:
        gap = prev_e - e
        bpow *= b**gap
        acc = acc * a**gap + c * bpow
        prev_e = e
    return acc * a**prev_e, b**top


def _exact_columns(
    keys: Sequence[tuple[int, int]],
    points: Sequence[Fraction],
    orders: range = range(1),
    bound: np.ndarray | None = None,
):
    """Exact values of every radial key (n, |m|) at every point, rounded once to binary64.

    Shape (len(orders), len(keys), len(points)), a table per order d in ``orders``.
    At rho = a/b, reduced, the integer S = b**(n - d) * d^d R_n^m / drho^d follows
    the Zernike three-term recursion over the lanes that ``ztt_levels`` keeps, with
    Sigma_d = S_{n-1}^{|m-1|,d} + S_{n-1}^{m+1,d} (lanes past level n - 1 are 0):

        d = 0:  S_n^m = a * Sigma_0 - b**2 * S_{n-2}^m
        d >= 1: S_n^{m,d} = b**2 * S_{n-2}^{m,d} + n * Sigma_{d-1}

    the second from R_n' - R_{n-2}' = n (R_{n-1}^{|m-1|} + R_{n-1}^{m+1}).
    A lane carries every order to the highest: O(d + 1) big-int operations per
    (lane, point), against O(n) per (key, point, order) for a Horner sum; the
    points' integers sit in numpy object arrays. Each entry is one correctly
    rounded int/int division by b**(n - d); an order above the degree stays +0.0.
    A request whose lanes times d + 1 pass four times its Horner terms (a few
    keys of high degree) takes ``_horner_columns``: the same rationals, rounded alike.

    With ``bound`` (keys x points, a `_rounding_bound`) the result is (tables,
    residuals): the order-0 pass also forms each entry's RN64(v - ref) while its
    lane's integers are at hand (`_residuals`), inf where it could settle nothing.
    """
    levels = ztt_levels(keys)
    if sum(len(lanes) for lanes, _ in levels) * (orders[-1] + 1) > 4 * len(orders) * sum(
        (n - m) // 2 + 1 for n, m in keys
    ):
        entries = _horner_columns(keys, points, orders)
    else:
        entries = _recursion_columns(levels, points, orders)
    out = np.zeros((len(orders), len(keys), len(points)))
    residuals = None if bound is None else np.full(out.shape[1:], np.inf)
    for i, col, nums, dens in entries:
        out[i, col] = nums / dens
        if residuals is not None and orders[i] == 0:
            residuals[col] = _residuals(nums, dens, out[i, col], bound[col])
    return out if bound is None else (out, residuals)


def _recursion_columns(levels, points: Sequence[Fraction], orders: range):
    """(order index, key index, numerators, denominators) of every entry that
    ``_exact_columns`` writes, from the three-term recursion over ``levels``."""
    top = orders[-1]
    nums, dens = np.array([(p.numerator, p.denominator) for p in points], dtype=object).T
    b2 = dens * dens
    scales = [np.ones(len(points), dtype=object)]  # scales[e] = b**e, one more per level
    zero = [np.zeros(len(points), dtype=object)] * (top + 1)
    below, prev = {}, {0: scales[:1] + zero[1:]}  # S_0 = 1; no array is written in place
    for n, (lanes, wanted) in enumerate(levels):
        if n:
            level = {}
            for m in lanes:
                x, y, z = prev.get(abs(m - 1), zero), prev.get(m + 1, zero), below.get(m, zero)
                rows = [nums * (x[0] + y[0]) - b2 * z[0]]
                for xd, yd, zd in zip(x, y, z[1:]):  # order d from orders d - 1 and d
                    rows.append(b2 * zd + n * (xd + yd))
                level[m] = rows
            below, prev = prev, level
        if n > orders[0]:
            scales.append(scales[-1] * dens)
        for i, d in enumerate(orders):
            if n >= d:
                for m, col in wanted:
                    yield i, col, prev[m][d], scales[n - d]


def _horner_columns(keys: Sequence[tuple[int, int]], points: Sequence[Fraction], orders: range):
    """``_recursion_columns``' entries by one exact Horner sum per (order, key, point)."""
    for col, (n, m) in enumerate(keys):
        poly = radial_coefficients(n, m)
        for i, d in enumerate(orders):
            terms = (differentiate_exact(poly, d) if d else poly).terms
            pairs = [_eval_terms_rational(terms, p.numerator, p.denominator) for p in points]
            nums, dens = np.array(pairs, dtype=object).T
            yield i, col, nums, dens


def _unit_point(x) -> Fraction:
    """x as an exact Fraction; GridError unless it is a finite point of [0, 1]."""
    try:
        p = Fraction(x)
    except (OverflowError, TypeError, ValueError):  # inf, NaN, not a number
        raise GridError(f"rho must be a finite point of [0, 1], got {x!r}") from None
    if p < 0 or p > 1:
        raise GridError(f"rho must lie in [0, 1], got {p}")
    return p


def _as_fractions(grid) -> tuple[Fraction, ...]:
    """The grid's points as exact Fractions, shaped as by `radial_grid`: a scalar
    is one point; GridError for a grid that is not 1-D or is empty."""
    values = np.atleast_1d(np.asarray(grid, dtype=object))
    if values.ndim != 1:
        raise GridError(f"radial grid must be 1-D, got shape {values.shape}")
    points = tuple(_unit_point(x) for x in values.tolist())
    if not points:
        raise GridError("need at least one point, got an empty grid")
    return points


def _oracle_tables(modes: ModeSet, grid, orders: range) -> list[EvalMatrix]:
    """``oracle_table`` at each order in ``orders``, from one ``_exact_columns`` pass."""
    modes = as_mode_set(modes)
    plan = dedup_plan(modes)
    columns = _exact_columns(plan.unique_keys, _as_fractions(grid), orders)
    scatter = np.array(plan.scatter, dtype=np.intp)
    return [EvalMatrix(table[scatter].T, modes, d) for table, d in zip(columns, orders)]


def oracle_table(modes: ModeSet, grid, deriv_order: int = 0) -> EvalMatrix:
    """Reference table: exact values correctly rounded once to binary64.

    Parameters
    ----------
    modes : sequence of Mode or (n, m) pairs
        columns, in input order; duplicates and sign-flipped m share work
    grid : sequence of Fraction or float
        radial points; floats are converted exactly (binary64 is a subset
        of the rationals)
    deriv_order : int
        derivative order 0..3 applied to the radial polynomial

    Returns
    -------
    EvalMatrix
        one correctly rounded binary64 entry per point and mode, one order of `_oracle_tables`
    """
    check_deriv_order(deriv_order)
    return _oracle_tables(modes, grid, range(deriv_order, deriv_order + 1))[0]


@dataclass(frozen=True)
class ErrorRow:
    """Per-mode maximum absolute deviation from the reference."""

    n: int
    m: int
    deriv_order: int
    max_abs_err: float


def max_abs_error(candidate: EvalMatrix, reference: EvalMatrix) -> tuple[ErrorRow, ...]:
    """Per-mode max over the grid of |candidate - reference|, in binary64."""
    if candidate.values.shape != reference.values.shape:
        raise ValueError(
            f"shape mismatch: {candidate.values.shape} vs {reference.values.shape}"
        )
    if candidate.modes != reference.modes:
        raise ValueError("candidate and reference mode order differ")
    if candidate.deriv_order != reference.deriv_order:
        raise ValueError("candidate and reference derivative order differ")
    errs = np.max(np.abs(candidate.values - reference.values), axis=0)
    return tuple(
        ErrorRow(mode.n, mode.m, candidate.deriv_order, float(err))
        for mode, err in zip(candidate.modes, errs)
    )


# --- simulated p-bit significand arithmetic ---------------------------------
#
# A binary float value is (mant, exp) meaning mant * 2**exp with an integer
# mantissa. Rounding keeps at most p mantissa bits, ties to even. This is the
# deterministic definition of "p-bit arithmetic" used by precision_sweep:
# every add/multiply result is rounded; inputs are exact rationals rounded
# once on entry; powers are exact integer powers rounded once.


def _round_significand(mant: int, exp: int, bits: int) -> tuple[int, int]:
    """Round mant * 2**exp to at most ``bits`` mantissa bits, half-to-even."""
    if mant == 0:
        return 0, 0
    neg = mant < 0
    a = -mant if neg else mant
    drop = a.bit_length() - bits
    if drop <= 0:
        return mant, exp
    head = a >> drop
    rem = a & ((1 << drop) - 1)
    half = 1 << (drop - 1)
    if rem > half or (rem == half and (head & 1)):
        head += 1
    return (-head if neg else head), exp + drop


def _significand_from_fraction(num: int, den: int, bits: int) -> tuple[int, int]:
    """Round the positive rational num/den to ``bits`` mantissa bits, half-even."""
    shift = bits + 2 - (num.bit_length() - den.bit_length())
    if shift >= 0:
        q, r = divmod(num << shift, den)
    else:
        q, r = divmod(num, den << -shift)
    # q carries >= bits+1 significant bits, so the sticky bit r != 0 sits below
    # the half bit and a tie can only be an exact one
    return _round_significand(2 * q + (r != 0), -shift - 1, bits)


def _significand_to_float(mant: int, exp: int) -> float:
    if mant == 0:
        return 0.0
    if exp >= 0:
        return float(mant << exp)
    return mant / (1 << -exp)  # correctly rounded big-int division


def _simulated_direct_column(
    coeffs: Sequence[tuple[int, int]],
    us: Sequence[tuple[int, int]],
    powers: Sequence[tuple[int, int]] | None,
    bits: int,
) -> list[tuple[int, int]]:
    """Direct-sum evaluation of one polynomial in p-bit arithmetic at every point.

    Mirrors the binary64 baseline: Horner over descending exponents in
    u = x*x, then one multiply by x**|m|. ``coeffs`` are the pre-rounded
    integer coefficients as (mant, exp) pairs, descending exponent order.
    ``us`` holds each point's rounded u and ``powers`` its rounded x**|m|
    (None for m = 0), so that all polynomials share them. Every product and
    sum of the Horner loop is rounded to ``bits``, half-even.
    """
    (head_m, head_e), tail = coeffs[0], coeffs[1:]
    out = []
    for point, (um, ue) in enumerate(us):
        am, ae = head_m, head_e
        for cm, ce in tail:
            # Both roundings below are _round_significand(mant, ae, bits)
            # inlined. am keeps the round bit below the kept bits; it rounds
            # up when that bit is set and the kept bits are odd or any bit
            # below it is set. bit_length() ignores the sign, and >> and &
            # floor towards -inf, so the same test holds for mant < 0.
            mant = am * um
            ae += ue
            drop = mant.bit_length() - bits
            if drop > 0:
                drop -= 1
                am = mant >> drop
                if am & 1 and (am & 2 or mant & ((1 << drop) - 1)):
                    am += 2
                am >>= 1
                ae += drop + 1
            else:
                am = mant
                if not mant:
                    ae = 0
            if ae <= ce:
                mant = am + (cm << (ce - ae))
            else:
                mant = (am << (ae - ce)) + cm
                ae = ce
            drop = mant.bit_length() - bits
            if drop > 0:
                drop -= 1
                am = mant >> drop
                if am & 1 and (am & 2 or mant & ((1 << drop) - 1)):
                    am += 2
                am >>= 1
                ae += drop + 1
            else:
                am = mant
                if not mant:
                    ae = 0
        if powers is not None:
            pm, pe = powers[point]
            am, ae = _round_significand(am * pm, ae + pe, bits)
        out.append((am, ae))
    return out


def _binary64_horner(coeffs, u: np.ndarray) -> np.ndarray:
    """Direct sum in u = x*x on binary64 of coefficients (values, or columns that
    broadcast against u), highest power first; each step ``acc * u + c`` rounds
    twice. The loop of `radial_direct_table`, `_rounding_bound` and the 53-bit row."""
    acc = np.ones_like(u) * coeffs[0]
    for c in coeffs[1:]:
        acc = acc * u + c
    return acc


def _coefficient_stack(polys: Sequence[ExactRadialPoly]) -> np.ndarray:
    """Coefficients of every polynomial as one `_binary64_horner` stack, shape
    (longest, polys, 1): each rounded once by ``float(c)`` and right-aligned behind
    +0.0 entries, so at u >= 0 each column's sum is its own bit for bit (+0.0 stays
    +0.0 up to the first coefficient); ValueError naming (n, m, k) past binary64."""
    width = max([1] + [len(poly.terms) for poly in polys])
    coeffs = np.zeros((width, len(polys), 1))
    for col, poly in enumerate(polys):
        try:
            coeffs[width - len(poly.terms) :, col, 0] = [float(c) for _, c in poly.terms]
        except OverflowError:
            raise ValueError(
                f"direct sum of (n={poly.n}, m={poly.m_abs}) at derivative order "
                f"{poly.deriv_order}: a coefficient exceeds the binary64 range"
            ) from None
    return coeffs


_BINARY64_BITS = np.finfo(np.float64).nmant + 1  # 53
_MIN_NORMAL_EXP = np.finfo(np.float64).minexp  # 2**-1022 is the least normal


def _binary64_column(values: Sequence[tuple[int, int]]) -> np.ndarray | None:
    """53-bit (mant, exp) values as binary64, exactly; None if any is subnormal.

    The conversion is a Python division, which would round a nonzero value
    below 2**-1022 to a subnormal without raising a numpy flag.
    """
    if any(m and m.bit_length() + e - 1 < _MIN_NORMAL_EXP for m, e in values):
        return None
    return np.array([_significand_to_float(m, e) for m, e in values])


# --- settling entries without the simulator ----------------------------------
#
# An entry (key, point) of a p-bit sweep is settled when a proof shows that its
# simulated value rounds to the reference: it then adds exactly 0 to the max.

_SLACK = 1 + 2.0**-50  # absorbs binary64's rounding of r and of the settle test


def _rounding_bound(polys: Sequence[ExactRadialPoly], points, bits: int) -> np.ndarray:
    """E >= |p-bit direct sum - exact value| per (polynomial, point), in binary64.

    The simulator (`_simulated_direct_column`) rounds x, then u = x*x, each
    coefficient, two results per Horner step in u, x**|m| once from the exact
    power, and the final product. Each rounding is a factor 1 + delta, |delta|
    <= 2**-p, with no range limit. So the monomial c_j u^j x^m of a polynomial
    with d Horner steps carries 2j + m factors from x, j from u, one from its
    coefficient, at most 2j + 1 from Horner and two for the power and the final
    product: at most K = 5d + m + 4 <= 2.5n + 4 (Higham 2002, 3.1 and 5.1). Hence

        |sim - v| <= gamma_K * sum_j |c_j| x^(2j + m),  gamma_K = K 2**-p / (1 - K 2**-p).

    The sum is one binary64 Horner of |c| over every polynomial (a
    `_coefficient_stack`) at float(x)**2, times float(x)**m. Its terms are
    positive and each carries at most K + 2 binary64 roundings (pow may miss by
    an ulp), so it is low by under 2**-42 relative for K < 2**11. A u below
    2**-1022 loses at most 2**-1074 per step against a sum of at least 1, as
    every coefficient is a nonzero integer. The factor 1 + 2**-40 covers both
    and the roundings of E itself. E is inf (never settled) where float(x),
    float(x)**m or the sum leaves binary64's normal range or K reaches 2**11
    (n past 800); everywhere if a coefficient exceeds binary64 (n from 814).
    """
    try:
        coeffs = np.abs(_coefficient_stack(polys))
    except ValueError:
        return np.full((len(polys), len(points)), np.inf)
    x = np.array([float(p) for p in points])
    m_abs = np.array([[poly.m_abs] for poly in polys])
    k = np.array([[5 * (len(poly.terms) - 1) + poly.m_abs + 4] for poly in polys])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        powers = x**m_abs
        sums = _binary64_horner(coeffs, x * x) * powers * (1 + 2.0**-40)
        normal = np.minimum(x, powers) >= 2.0**_MIN_NORMAL_EXP
        normal &= sums <= np.finfo(np.float64).max
        gamma = k * 2.0**-bits / (1 - k * 2.0**-bits)
        return np.where(normal & (k < 2**11), gamma * sums, np.inf)


def _settled(refs: np.ndarray, residuals, bound: np.ndarray) -> np.ndarray:
    """True where every value within ``bound`` of the exact v = ref + r rounds to ref.

    Settled iff (|r| (1 + 2**-50) + E) (1 + 2**-50) + 2**-1074 < min(gaps)/2,
    doubled here, which is exact; the smaller gap of ref is the one below |ref|.
    r = RN64(v - ref) is within 2**-53 |r| of v - ref, or 2**-1075 if
    subnormal; each step of the test rounds a normal result by at most 2**-53
    relative, which the two factors absorb; sums of subnormals are exact, and
    2**-1074 covers what r and E each lose below 2**-1022. So |sim - ref| <=
    |sim - v| + |v - ref| < half the gap, and sim rounds to ref. Zero and
    subnormal refs, whose gap is at most 2**-1074, never settle.
    """
    mags = np.abs(refs)
    with np.errstate(under="ignore"):
        spread = (np.abs(residuals) * _SLACK + bound) * _SLACK
        return 2 * (spread + 2.0**-1074) < mags - np.nextafter(mags, 0)


def _residuals(nums, dens, refs: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """RN64(num/den - ref) per point, ref = RN64(num/den); inf where ``bound``
    fails `_settled` even with r = 0, so no residual could settle the entry.

    ref = M 2**-s exactly, with M = frexp mantissa * 2**53 and s = 53 - frexp
    exponent >= 52 (a radial value lies in [-1, 1]): num/den - ref =
    ((num << s) - M den) / (den << s), one correctly rounded int/int division.
    """
    out = np.full(len(refs), np.inf)
    live = np.flatnonzero(_settled(refs, 0.0, bound))
    frac, exp = np.frexp(refs[live])
    mant = (frac * 2.0**_BINARY64_BITS).astype(np.int64).astype(object)
    shift = (_BINARY64_BITS - exp).astype(object)
    den = dens[live]
    out[live] = ((nums[live] << shift) - mant * den) / (den << shift)
    return out


def _deviation(
    polys: Sequence[ExactRadialPoly],
    references: Sequence[Sequence[float]],
    points,
    bits: int,
    settled: np.ndarray | None = None,
) -> float:
    """Worst |float64(p-bit direct sum) - reference| over every polynomial and point.

    Each point, u = x*x and each x**|m| (from the exact integer power) is
    rounded once to ``bits`` and shared by every polynomial. An entry marked in
    ``settled`` (polys x points, `_settled`; past 53 bits) is proven to round to its
    reference, so it adds exactly 0 and keeps it; only the others run on the
    simulator, and the max is full simulation's bit for bit. At 53 bits a
    polynomial runs on binary64 itself, with the same operands, coefficients
    rounded once by ``float(c)``. Binary64's round to nearest even on a result
    in the normal range is 53-bit half-even rounding, so the rounded exact
    x*x is binary64's x*x wherever it is normal; an exact result below
    2**-1022 is the same number in both; an inexact one raises numpy's
    underflow flag, and a sum of two binary64 values whose result is that
    small is always exact. So each value equals the simulator's bit for bit.
    A polynomial runs on the simulator wherever a value could differ: numpy flags
    an underflow or an overflow, a coefficient exceeds binary64, or u or its
    x**|m| is nonzero and below 2**-1022.
    """
    xs = [_significand_from_fraction(p.numerator, p.denominator, bits) for p in points]
    us = [_round_significand(xm * xm, xe + xe, bits) for xm, xe in xs]
    u = _binary64_column(us) if bits == _BINARY64_BITS else None
    if settled is None:
        settled = np.zeros((len(polys), len(points)), dtype=bool)
    ms = np.array([poly.m_abs for poly in polys], dtype=int)
    powers: dict[int, list] = {}  # x**|m| wherever a polynomial of that |m| is unsettled
    for m_abs in set(ms.tolist()) - {0}:
        needed = (~settled[ms == m_abs].all(axis=0)).tolist()
        powers[m_abs] = [
            _round_significand(xm**m_abs, xe * m_abs, bits) if need else None
            for (xm, xe), need in zip(xs, needed)
        ]
    float_powers: dict[int, np.ndarray | None] = {}  # 53 bits: no entry is settled
    if u is not None:
        float_powers = {m_abs: _binary64_column(column) for m_abs, column in powers.items()}
    table = np.array(references, dtype=np.float64)
    with np.errstate(over="raise", under="raise"):
        for col, (poly, row) in enumerate(zip(polys, table)):
            m_abs = poly.m_abs
            if u is not None and (not m_abs or float_powers[m_abs] is not None):
                try:
                    row[:] = _binary64_horner([float(c) for _, c in poly.terms], u)
                    if m_abs:
                        row *= float_powers[m_abs]
                    continue
                except (FloatingPointError, OverflowError):
                    pass
            live = np.flatnonzero(~settled[col]).tolist()
            if not live:
                continue
            coeffs = [_round_significand(c, 0, bits) for _, c in poly.terms]
            known = [powers[m_abs][i] for i in live] if m_abs else None
            column = _simulated_direct_column(coeffs, [us[i] for i in live], known, bits)
            row[live] = [_significand_to_float(mant, exp) for mant, exp in column]
    return float(np.max(np.abs(table - np.array(references))))


def _significand_widths(mantissa_bits) -> list[int]:
    """Each width as an int in _MIN_SIGNIFICAND_BITS.._MAX_SIGNIFICAND_BITS, else ValueError."""
    widths = [_integer("significand width", b, ValueError) for b in mantissa_bits]
    for b in widths:
        if not _MIN_SIGNIFICAND_BITS <= b <= _MAX_SIGNIFICAND_BITS:
            raise ValueError(
                f"significand width must be in {_MIN_SIGNIFICAND_BITS}.."
                f"{_MAX_SIGNIFICAND_BITS} bits, got {b}"
            )
    return widths


def precision_sweep(
    n_max: int, mantissa_bits: Sequence[int], grid
) -> list[tuple[int, float]]:
    """Max binary64 deviation of p-bit direct evaluation from the exact oracle.

    For each precision p the direct sum is evaluated for every mode with
    n <= n_max (radial keys, m >= 0) at every grid point, rounding to the
    nearest p-bit significand after each operation, and the worst
    |float64(simulated) - float64(exact)| is reported. Every width runs
    `_deviation`; at p = 53 each polynomial runs on binary64 itself, with the
    same result, unless one of its values could differ there. Past 53 bits an
    entry runs on the simulator only where a proof cannot decide it: with the
    a-priori bound E >= |sim - v| (`_rounding_bound`) and the residual r =
    RN64(v - ref) from the oracle pass, an entry is settled when every value
    within E of v rounds to ref (`_settled`), and the point 0, where the sum is
    exact, is settled outright. A settled entry's deviation is exactly 0, so
    the max over the rest is the max over all. At 53 bits and below gamma_K >=
    2**-53 for every key, and nothing could settle.

    Returns (bits, max_deviation) pairs in the order the bits were given.
    """
    n_max = _integer("n_max", n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    widths = _significand_widths(mantissa_bits)
    points = _as_fractions(grid)

    keys = [(mode.n, mode.m) for mode in radial_sweep_modes(n_max)]
    polys = [radial_coefficients(n, m_abs) for n, m_abs in keys]
    bounds = {b: _rounding_bound(polys, points, b) for b in widths if b > _BINARY64_BITS}
    if bounds:  # the widest width's E is the least: it alone gates the residuals
        tables, residuals = _exact_columns(keys, points, bound=bounds[max(bounds)])
    else:
        tables, residuals = _exact_columns(keys, points), None
    references = tables[0]
    # at x = 0 every p-bit sum is exact: x**|m| = 0 for |m| > 0, else R_n^0(0) = +-1
    zero = np.array([p == 0 for p in points], dtype=bool)
    rows = []
    for bits in widths:
        settled = _settled(references, residuals, bounds[bits]) | zero if bits in bounds else None
        rows.append((bits, _deviation(polys, references, points, bits, settled)))
    return rows
