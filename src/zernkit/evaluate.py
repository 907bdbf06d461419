"""Binary64 evaluation engines for Zernike radial and full polynomials.

The production path maps the radial part onto a Jacobi polynomial of degree
(n - |m|)/2 with parameters (|m|, 0) at 1 - 2*rho**2 and runs the stable
three-term recursion. Two baselines are kept deliberately: the direct
alternating sum (unstable at high degree) and the Zernike three-term
recursion. Derivatives up to third order ride the same Jacobi chains at
shifted parameters. ``batch.evaluate_batch`` runs every Jacobi evaluation
with this module's steps; ``radial_jacobi`` is a one-mode request to it.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .exact import _binary64_horner, differentiate_exact, radial_coefficients
from .modes import Mode, ModeSet, _index, as_mode_set, make_mode, radial_mode
from .tables import angular_grid, check_deriv_order, radial_grid

# Degree n from which assemble_radial checks that its output is finite.
# Below it nothing can overflow. On [-1, 1], |P_j^(a,b)| <= C(j + a, j) for
# a >= b >= 0, and every chain row that a mode of degree n reads (shift i:
# a = |m| + i, j <= (n - |m|)/2 - i) has C(j + a, j) <= C(n - j, j) <= F(n + 1),
# the Fibonacci number sum_s C(n - s, s) ~ phi**n, about 5e213 at n = 1023.
# The recursion's coefficients (< 2 n**3) and the assembly's weights times
# derivative scales (< 64 n**3) keep every product below 1e226, far under
# binary64's 1.8e308. Past the gate the chain can overflow while rho**m
# underflows, and 0 * inf is NaN: the first such output is (n, m) = (1439, 637).
CHECKED_MIN_DEGREE = 1024

# Highest mode degree the CLI's sweeps take (the oracle's cost guard), and the
# range of the recurrence coefficient table: every chain a mode of degree
# n <= MAX_ACCURACY_N reads at k <= 3 has beta <= 3, alpha <= n + 3, j <= n // 2.
MAX_ACCURACY_N = 150


def _coefficients(j, alpha: int, beta: int) -> np.ndarray:
    """Rows (lead, mid_x, mid_const, last) at integer degrees j >= 2, each rounded once."""
    c = 2 * j + alpha + beta
    lead, last = 2 * j * (c - j) * (c - 2), 2 * (j + alpha - 1) * (j + beta - 1) * c
    terms = lead, (c - 1) * c * (c - 2), (c - 1) * (alpha * alpha - beta * beta), last
    return np.stack(np.broadcast_arrays(*terms), axis=-1).astype(np.float64)


# [beta, alpha, j] for j >= 2 (rows 0 and 1 unused): 1.5 MB, read-only, filled one
# beta at a time in int64, which is exact: every factor is below 2**53 (<= 28,372,320).
_COEFFS = np.zeros((4, MAX_ACCURACY_N + 4, MAX_ACCURACY_N // 2 + 1, 4))
_ALPHAS, _DEGREES = np.ogrid[: _COEFFS.shape[1], 2 : _COEFFS.shape[2]]
for _beta in range(4):
    _COEFFS[_beta, :, 2:] = _coefficients(_DEGREES, _ALPHAS, _beta)
_COEFFS.flags.writeable = False
_ONE, _TWO = np.array(1.0), np.array(2.0)
_ONE.flags.writeable = _TWO.flags.writeable = False


def jacobi_argument(rho: np.ndarray) -> np.ndarray:
    """Map radial points into Jacobi domain: u = 1 - 2*rho**2.

    Single definition so every evaluation path uses bit-identical inputs.
    """
    return 1.0 - 2.0 * rho * rho


def _coefficient_rows(j_max: int, alpha: int, beta: int) -> np.ndarray:
    """Coefficient rows 2..j_max of one chain: the table's, else built from Python ints."""
    if beta < 4 and alpha <= MAX_ACCURACY_N + 3 and j_max <= MAX_ACCURACY_N // 2:
        return _COEFFS[beta, alpha, 2 : j_max + 1]
    return _coefficients(np.arange(2, j_max + 1, dtype=object), alpha, beta)


def jacobi_chain(j_max: int, alpha: int, beta: int, x, out=None) -> np.ndarray:
    """Evaluate the whole chain P_0 .. P_{j_max} at x via the three-term recursion.

    Parameters
    ----------
    j_max : int
        highest degree to compute (>= 0)
    alpha, beta : int
        Jacobi parameters, both >= 0 on the Zernike range
    x : ndarray, shape (N,)
        evaluation points
    out : ndarray, shape (>= j_max + 1, N), optional
        reusable buffer whose first j_max + 1 rows receive the chain

    Returns
    -------
    ndarray, shape (j_max + 1, N)
        row j holds P_j^(alpha, beta) at every point; callers may read any
        intermediate degree, which is what the cached batch strategy shares

    Notes
    -----
    P_0 and P_1 are explicit base cases; the recursion is only applied for
    j >= 2, where its leading factor 2j(c-j)(c-2) with c = 2j+alpha+beta is
    strictly positive for alpha, beta >= 0. Each operation is one ufunc, in
    order, through two scratch rows into row j; rows j-1 and j-2 are carried.
    The integer coefficients are rounded once, read from a constant table for
    every chain a mode of degree <= MAX_ACCURACY_N reads at k <= 3, and reach
    the ufuncs as 0-d views of one (4,) array refilled per step: numpy converts
    a Python float operand on every call.
    """
    try:
        j_max, alpha, beta = _index(j_max), _index(alpha), _index(beta)
    except TypeError:
        raise ValueError(f"need integers, got j_max={j_max!r}, ({alpha!r}, {beta!r})") from None
    if min(j_max, alpha, beta) < 0:
        raise ValueError(f"need j_max, alpha, beta >= 0, got {j_max}, ({alpha}, {beta})")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty((j_max + 1, x.size)) if out is None else out[: j_max + 1]
    out[0] = 1.0
    if j_max == 0:
        return out
    multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide
    # P_1 = (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2, rounded as written
    prev, cur = out[0], out[1]
    multiply(float(alpha + beta + 2), subtract(x, _ONE, cur), cur)
    add(float(alpha + 1), divide(cur, _TWO, cur), cur)
    if j_max == 1:
        return out
    acc, lag, coeffs = np.empty(x.size), np.empty(x.size), np.empty(4)
    lead, mid_x, mid_const, last = coeffs[0, ...], coeffs[1, ...], coeffs[2, ...], coeffs[3, ...]
    for row, dest in zip(_coefficient_rows(j_max, alpha, beta), out[2:]):
        coeffs[...] = row
        multiply(mid_x, x, acc)
        add(acc, mid_const, acc)
        multiply(acc, cur, acc)
        multiply(last, prev, lag)
        subtract(acc, lag, acc)
        prev, cur = cur, divide(acc, lead, dest)
    return out


def jacobi_derivative_scale(j: int, alpha: int, beta: int, order: int) -> float:
    """Scale relating d^k/dx^k P_j^(a,b) to P_{j-k}^(a+k, b+k).

    The factor is the rising product (alpha+beta+j+1)...(alpha+beta+j+k)
    over 2**k, computed as an exact integer then one binary64 division.
    Returns 0.0 when j < order: the derivative is the zero polynomial.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if j < order:
        return 0.0
    base = alpha + beta + j
    return math.prod(range(base + 1, base + order + 1)) / float(2**order)


# Chain rule for d^k/drho^k of rho^m P(1 - 2 rho^2): per order k, the weight
# of shift i as a polynomial in m, integer-valued and exact. Shifts i >= 1
# are binary64 so that -12 m^2 is -0.0 at m = 0: adding a term of negative
# weight then rounds as subtracting its magnitude does, signed zeros included.
_DERIVATIVE_WEIGHTS = (
    lambda m: (1,),
    lambda m: (m, -4.0),
    lambda m: ((m - 1) * m, -4.0 * (2 * m + 1), 16.0),
    lambda m: ((m - 2) * (m - 1) * m, -12.0 * m * m, 48.0 * (m + 1), -64.0),
)


class PowerTable(dict):
    """rho**e by exponent e, each formed on its first lookup and then kept."""

    def __init__(self, rho):
        self.rho = rho

    def __missing__(self, e: int) -> np.ndarray:
        return self.setdefault(e, self.rho**e)


def radial_powers(table: PowerTable, m_abs: int, deriv_order: int) -> list[np.ndarray]:
    """rho**max(m - k + 2i, 0) per shift i = 0..k, as assemble_radial reads
    them, from ``table``, a PowerTable of rho that several m may share."""
    return [table[max(m_abs - deriv_order + 2 * i, 0)] for i in range(deriv_order + 1)]


def range_guard(n: int):
    """Context for modes of degree up to n: from CHECKED_MIN_DEGREE on, where
    assemble_radial raises a typed error instead, numpy's warnings are off."""
    if n >= CHECKED_MIN_DEGREE:
        return np.errstate(over="ignore", invalid="ignore")
    return contextlib.nullcontext()


def assemble_radial(
    m_abs: int, j: int, deriv_order: int, chains, powers, out: np.ndarray
) -> np.ndarray:
    """Combine shifted-parameter Jacobi values into the radial value/derivative.

    ``chains[i]`` is the whole chain of shift i: rows P_0 .. P_d^(m+i, i) at
    u = 1 - 2*rho**2 with d >= j - i, of which row j - i is read. When
    j < i that term vanishes, ``chains[i]`` is not read and may be None.
    The rho chain rule for the quadratic inner argument gives, with scaled
    derivatives Pk = scale_k * P_{j-k}^(m+k, k):

        k=0:  rho^m P
        k=1:  m rho^(m-1) P - 4 rho^(m+1) P'
        k=2:  m(m-1) rho^(m-2) P - 4(2m+1) rho^m P' + 16 rho^(m+2) P''
        k=3:  m(m-1)(m-2) rho^(m-3) P - 12 m^2 rho^(m-1) P'
              + 48(m+1) rho^(m+1) P'' - 64 rho^(m+3) P'''

    times the sign (-1)^j; ``_DERIVATIVE_WEIGHTS`` holds these weights.
    Falling-factorial prefactors vanish before any negative power of rho can
    contribute, so exponents are clamped at 0 (with the 0**0 == 1 convention
    at the disc center). ``powers`` holds them, as ``radial_powers`` lists
    them for m and k, so many degrees of one m share them. The result goes
    into ``out``, which is returned.

    Every evaluation path funnels through this one function with one fixed
    operation order, which is what makes batch strategies bit-identical.
    Each term is (weight * scale) * rho**e * row, the scalar formed before
    any array is touched, and the terms are summed left to right. A vanished
    term still enters the sum, as a row of signed zeros.
    From degree CHECKED_MIN_DEGREE on, a non-finite result raises ValueError.
    """
    m = m_abs
    term = np.empty_like(out) if deriv_order else None  # terms after the first
    for i, weight in enumerate(_DERIVATIVE_WEIGHTS[deriv_order](m)):
        factor = weight * jacobi_derivative_scale(j, m, 0, i)
        row = 0.0 if j < i else chains[i][j - i]
        dest = term if i else out
        scaled = powers[i] if factor == 1 else np.multiply(factor, powers[i], out=dest)
        np.multiply(scaled, row, out=dest)
        if i:
            np.add(out, term, out=out)
    if j & 1:
        np.negative(out, out=out)
    n = m + 2 * j
    if n >= CHECKED_MIN_DEGREE and not np.all(np.isfinite(out)):
        raise ValueError(
            f"Jacobi evaluation of (n={n}, m={m}) at derivative order {deriv_order} "
            "leaves the binary64 range"
        )
    return out


def radial_jacobi(n: int, m_abs: int, grid, deriv_order: int = 0) -> np.ndarray:
    """Radial polynomial (or rho-derivative): a one-mode ``batch.evaluate_batch``.

    Parameters
    ----------
    n, m_abs : int
        mode numbers, m_abs >= 0
    grid : array_like
        radial points in [0, 1]
    deriv_order : int
        derivative order 0..3

    Returns
    -------
    ndarray, shape (len(grid),)
    """
    # batch imports this module, so its names can only be looked up at call time
    from .batch import BatchRequest, evaluate_batch

    request = BatchRequest((radial_mode(n, m_abs),), grid, deriv_order)
    return evaluate_batch(request)[0].values[:, 0]


def radial_direct(n: int, m_abs: int, grid, deriv_order: int = 0) -> np.ndarray:
    """Radial polynomial by direct binary64 Horner summation.

    Coefficients are exact integers rounded once to binary64; the alternating
    sum itself runs in binary64 (`exact._binary64_horner`, the loop of
    `precision_sweep`'s 53-bit row) and is deliberately kept as the unstable
    baseline (catastrophic cancellation at high n).
    """
    radial_mode(n, m_abs)
    check_deriv_order(deriv_order)
    rho = radial_grid(grid)
    poly = radial_coefficients(n, m_abs)
    if deriv_order:
        poly = differentiate_exact(poly, deriv_order)
    if not poly.terms:
        return np.zeros_like(rho)
    try:
        acc = _binary64_horner(poly.terms, rho * rho)
    except OverflowError:
        raise ValueError(
            f"direct sum of (n={n}, m={m_abs}) at derivative order {deriv_order}: "
            "a coefficient exceeds the binary64 range"
        ) from None
    low = poly.terms[-1][0]
    return acc * rho**low


def radial_ztt_table(modes: ModeSet, grid) -> np.ndarray:
    """Radial values for several modes via the Zernike three-term recursion.

    The recursion R_n^m = rho[R_{n-1}^{|m-1|} + R_{n-1}^{m+1}] - R_{n-2}^m,
    seeded with R_n^n = rho**n, sweeps n upwards for the whole request and
    keeps only the last two levels; each requested column is written when
    its level is reached. Level n holds only the m that a requested (N, M)
    with N >= n still depends on: m <= n and m <= max(N + M) - n.
    Value-only (no derivative form exists). ``modes`` holds Modes or (n, m)
    pairs.

    Returns an array of shape (len(grid), len(modes)).
    """
    modes = as_mode_set(modes)
    rho = radial_grid(grid)
    out = np.empty((rho.size, len(modes)), dtype=np.float64)
    wanted: dict[int, list[tuple[int, int]]] = {}
    for col, mode in enumerate(modes):
        wanted.setdefault(mode.n, []).append((mode.m_abs, col))
    top = max(wanted, default=-1)
    reach = [0] * (top + 2)
    for n in range(top, -1, -1):
        reach[n] = max([reach[n + 1]] + [n + m for m, _ in wanted.get(n, ())])
    below: dict[int, np.ndarray] = {}
    prev = below
    for n in range(top + 1):
        level = {
            m: rho**n if m == n else rho * (prev[abs(m - 1)] + prev[m + 1]) - below[m]
            for m in range(n % 2, min(n, reach[n] - n) + 1, 2)
        }
        for m, col in wanted.get(n, ()):
            out[:, col] = level[m]
        below, prev = prev, level
    return out


def radial_ztt(n: int, m_abs: int, grid) -> np.ndarray:
    """Radial polynomial via the Zernike three-term recursion (single mode)."""
    mode = radial_mode(n, m_abs)
    return radial_ztt_table((mode,), grid)[:, 0]


def radial_at_zero(n: int, m: int) -> float:
    """Value at the disc center: +1 for n = 4k with m = 0, -1 for n = 4k - 2
    with m = 0, and 0 whenever m != 0."""
    mode = make_mode(n, m)
    if mode.m != 0:
        return 0.0
    return 1.0 if mode.n % 4 == 0 else -1.0


def pointwise_grids(grid, angles) -> tuple[np.ndarray, np.ndarray]:
    """Validated (rho, theta) for point-wise evaluation: one angle per radial point."""
    rho = radial_grid(grid)
    theta = angular_grid(angles)
    if rho.size != theta.size:
        raise ValueError(
            f"point-wise grids must match: {rho.size} radial vs {theta.size} angular"
        )
    return rho, theta


def angular_factor(m: int, theta: np.ndarray) -> np.ndarray:
    """Angular factor of azimuthal degree m.

    cos(m*theta) for m >= 0 and sin(|m|*theta) for m < 0.
    """
    if m >= 0:
        return np.cos(m * theta)
    return np.sin(-m * theta)


def zernike_eval(mode: Mode, grid, angles, deriv_order: int = 0) -> np.ndarray:
    """Full Zernike polynomial at point-wise (rho, theta) pairs.

    The radial factor (or its rho-derivative) times ``angular_factor``.
    """
    rho, theta = pointwise_grids(grid, angles)
    radial = radial_jacobi(mode.n, mode.m_abs, rho, deriv_order)
    return radial * angular_factor(mode.m, theta)
