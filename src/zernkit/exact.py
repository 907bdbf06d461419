"""Exact integer/rational reference for the radial polynomials.

Coefficient expansion is integer-only (the binomial form guarantees integer
coefficients), evaluation is exact rational Horner, and reference tables are
rounded to binary64 exactly once at the very end. This replaces a fixed-
precision decimal reference: there is no precision to choose, and the
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
from .modes import radial_mode, radial_sweep_modes
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
    polys: Sequence[ExactRadialPoly], points: Sequence[Fraction]
) -> list[list[float]]:
    """Exact values of every polynomial at every point, rounded once to binary64.

    Returns one list of len(points) floats per polynomial. Points are grouped
    by reduced denominator b. Within a group each polynomial's coefficient of
    rho^e is scaled by b^(top-e) once, so the Horner step per point is
    ``acc * a**2 + C`` on the numerator a alone, with a**2 and a**low shared by
    every polynomial. The integers are those of ``_eval_terms_rational``;
    each entry is one correctly rounded big-int division by b**top.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, p in enumerate(points):
        groups.setdefault(p.denominator, []).append((i, p.numerator))
    columns = [[0.0] * len(points) for _ in polys]
    for b, members in groups.items():
        squares = [(i, a, a * a) for i, a in members]
        low_powers: dict[int, list[int]] = {}
        for poly, column in zip(polys, columns):
            terms = poly.terms
            if not terms:
                continue
            top, low = terms[0][0], terms[-1][0]
            # exponents step by 2, so each Horner step multiplies by a**2
            scaled = [c * b ** (top - e) for e, c in terms]
            head, tail = scaled[0], scaled[1:]
            den = b**top
            powers = low_powers.get(low)
            if powers is None:
                powers = low_powers[low] = [a**low for _, a in members]
            for (i, a, a2), a_low in zip(squares, powers):
                acc = head
                for c in tail:
                    acc = acc * a2 + c
                column[i] = acc * a_low / den  # correctly rounded
    return columns


def _unit_point(x) -> Fraction:
    """x as an exact Fraction; GridError unless it is a finite point of [0, 1]."""
    try:
        p = Fraction(x)
    except (OverflowError, ValueError):  # inf, NaN
        raise GridError(f"rho must be a finite point of [0, 1], got {x!r}") from None
    if p < 0 or p > 1:
        raise GridError(f"rho must lie in [0, 1], got {p}")
    return p


def _as_fractions(grid) -> tuple[Fraction, ...]:
    """The grid's points as exact Fractions; GridError for an empty grid."""
    values = grid.tolist() if isinstance(grid, np.ndarray) else grid
    points = tuple(_unit_point(x) for x in values)
    if not points:
        raise GridError("need at least one point, got an empty grid")
    return points


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
        one correctly rounded binary64 entry per point and mode
    """
    check_deriv_order(deriv_order)
    modes = as_mode_set(modes)
    points = _as_fractions(grid)
    plan = dedup_plan(modes)
    polys = []
    for n, m_abs in plan.unique_keys:
        poly = radial_coefficients(n, m_abs)
        if deriv_order:
            poly = differentiate_exact(poly, deriv_order)
        polys.append(poly)
    columns = np.array(_exact_columns(polys, points), dtype=np.float64).reshape(
        len(polys), len(points)
    )
    values = columns[np.array(plan.scatter, dtype=np.intp)].T
    return EvalMatrix(values=values, modes=modes, deriv_order=deriv_order)


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


def _binary64_horner(terms: Sequence[tuple[int, int]], u: np.ndarray) -> np.ndarray:
    """Direct sum of integer terms in u = x*x on binary64, at every point of u.

    Each coefficient is rounded once (``float(c)``, OverflowError past the
    binary64 range); each Horner step ``acc * u + c`` rounds twice. The loop
    of `radial_direct`, and of each polynomial that `_deviation` runs on
    binary64 in `precision_sweep`'s 53-bit row.
    """
    coeffs = [float(c) for _, c in terms]
    acc = np.full_like(u, coeffs[0])
    for c in coeffs[1:]:
        acc = acc * u + c
    return acc


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


def _deviation(
    polys: Sequence[ExactRadialPoly],
    references: Sequence[Sequence[float]],
    points,
    bits: int,
) -> float:
    """Worst |float64(p-bit direct sum) - reference| over every polynomial and point.

    Each point, u = x*x and each x**|m| (from the exact integer power) is
    rounded once to ``bits`` and shared by every polynomial. At 53 bits a
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
    powers: dict[int, list[tuple[int, int]]] = {}
    float_powers: dict[int, np.ndarray | None] = {}
    table = np.empty((len(polys), len(points)))
    with np.errstate(over="raise", under="raise"):
        for poly, row in zip(polys, table):
            m_abs = poly.m_abs
            if m_abs and m_abs not in powers:
                powers[m_abs] = [
                    _round_significand(xm**m_abs, xe * m_abs, bits) for xm, xe in xs
                ]
                if u is not None:
                    float_powers[m_abs] = _binary64_column(powers[m_abs])
            if u is not None and (not m_abs or float_powers[m_abs] is not None):
                try:
                    row[:] = _binary64_horner(poly.terms, u)
                    if m_abs:
                        row *= float_powers[m_abs]
                    continue
                except (FloatingPointError, OverflowError):
                    pass
            coeffs = [_round_significand(c, 0, bits) for _, c in poly.terms]
            column = _simulated_direct_column(coeffs, us, powers.get(m_abs), bits)
            row[:] = [_significand_to_float(mant, exp) for mant, exp in column]
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
    same result, unless one of its values could differ there.

    Returns (bits, max_deviation) pairs in the order the bits were given.
    """
    n_max = _integer("n_max", n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    widths = _significand_widths(mantissa_bits)
    points = _as_fractions(grid)

    polys = [radial_coefficients(mode.n, mode.m) for mode in radial_sweep_modes(n_max)]
    references = _exact_columns(polys, points)

    return [(bits, _deviation(polys, references, points, bits)) for bits in widths]
