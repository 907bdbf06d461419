"""Binary64 evaluation engines for Zernike radial and full polynomials.

The production path maps the radial part onto a Jacobi polynomial of degree
(n - |m|)/2 with parameters (|m|, 0) at 1 - 2*rho**2 and runs the stable
three-term recursion. Two baselines are kept deliberately: the direct
alternating sum (unstable at high degree) and the Zernike three-term
recursion. Derivatives up to third order ride the same Jacobi chains at
shifted parameters. ``batch.evaluate_batch`` runs all chains as degree-stacked
``jacobi_steps``; ``radial_jacobi`` and ``zernike_eval`` are one-mode requests.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .exact import _binary64_horner, _coefficient_stack, differentiate_exact, radial_coefficients
from .modes import Mode, ModeSet, _integer, as_mode_set, dedup_plan, make_mode, radial_mode
from .modes import ztt_levels
# perfbench's probes patch angular_grid here
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
multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide
# Points from which jacobi_steps runs each row alone: numpy's broadcasting loop,
# which a stacked step needs, costs about 3x per element of its contiguous loop
STACK_POINTS = 1024


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


def _coefficient_columns(chains) -> np.ndarray:
    """Coefficients of stacked chains (j_max, alpha, beta) at degrees 2..top, as [j - 2, :, chain],
    each chain's from ``_coefficient_rows`` (unset past its j_max); one chain's read in place."""
    if len(chains) == 1:
        return _coefficient_rows(*chains[0])[:, :, None]
    columns = np.empty((chains[0][0] - 1, 4, len(chains)))
    for r, (j_max, alpha, beta) in enumerate(chains):
        columns[: max(j_max - 1, 0), :, r] = _coefficient_rows(j_max, alpha, beta)
    return columns


def jacobi_steps(x, chains, ring, scratch, readout=lambda j: None) -> int:
    """Run stacked Jacobi chains at x degree by degree; return the recursion steps.

    ``chains`` lists (j_max, alpha, beta) per row, by descending j_max, so the
    rows that reach degree j are a prefix. Degree j of row r goes to
    ``ring[j % len(ring), r]``, ``scratch`` holds two rows per chain, and
    ``readout(j)`` runs once every row that reaches j holds it. Below
    STACK_POINTS points and over two live rows, one set of ufuncs advances all
    live rows, each row's coefficients a column; otherwise each row runs on
    1-D rows and 0-d coefficients. Every element sees the one-chain
    recurrence's operations in order, so no bit depends on the stack.
    """
    depth, size, steps, singles = len(ring), len(chains), 0, None
    ring[0, :size] = 1.0
    readout(0)
    j, coeffs = 1, np.empty((4, size))
    for count in range(size, 0, -1):  # the first count rows reach degree top
        top = chains[count - 1][0]
        if top < j:
            continue
        if j == 1:
            _first_degree(x, chains[:count], ring[1, 0] if count == 1 else ring[1, :count])
            readout(1)
            j, columns = 2, _coefficient_columns(chains)
        # a unit: its coefficients, its rows of the ring, and its degrees j - 2 and j - 1
        live = coeffs if count == size else coeffs[:, :count]
        back2, back1 = (j - 2) % depth, (j - 1) % depth
        if count > 2 and x.size < STACK_POINTS:
            (acc, lag), rows = scratch[:, :count], slice(count)
            units = [[*live[:, :, None], rows, ring[back2, rows], ring[back1, rows]]]
        else:
            acc, lag = scratch[:, 0]
            singles = singles or [
                [coeffs[0, r, ...], coeffs[1, r, ...], coeffs[2, r, ...], coeffs[3, r, ...],
                 r, ring[back2, r], ring[back1, r]]
                for r in range(count)
            ]
            del singles[count:]
            units = singles
        steps += count * (top + 1 - j)
        for row in columns[j - 2 : top - 1, :, :count]:
            live[...] = row
            for unit in units:
                lead, mid_x, mid_const, last, rows, prev, cur = unit
                multiply(mid_x, x, acc)
                add(acc, mid_const, acc)
                multiply(acc, cur, acc)
                multiply(last, prev, lag)
                subtract(acc, lag, acc)
                unit[5], unit[6] = cur, divide(acc, lead, ring[j % depth, rows])
            readout(j)
            j += 1
        j = top + 1
    return steps


def _first_degree(x, chains, out) -> None:
    """P_1 = (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2 of each chain, rounded as written."""
    factors = np.array([(a + b + 2.0, a + 1.0) for _, a, b in chains]).T[:, :, None]
    scale, offset = (factors[0, 0, 0, ...], factors[1, 0, 0, ...]) if len(chains) == 1 else factors
    multiply(scale, subtract(x, _ONE, out), out)
    add(offset, divide(out, _TWO, out), out)


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
    out : float64 ndarray, shape (>= j_max + 1, N), optional
        reusable buffer (else ValueError) whose first j_max + 1 rows receive the chain

    Returns
    -------
    ndarray, shape (j_max + 1, N)
        row j holds P_j^(alpha, beta) at every point

    Notes
    -----
    The one-row form of ``jacobi_steps``, whose ring is the whole chain: the
    batch engine's recurrence, bit for bit, through two scratch rows. P_0 and
    P_1 are explicit base cases; the recursion runs for j >= 2, where its
    leading factor 2j(c-j)(c-2), c = 2j+alpha+beta, is positive. Its rows of
    ``_coefficient_rows`` are read in place from a constant table for every
    chain a mode of degree <= MAX_ACCURACY_N reads at k <= 3.
    """
    names = ("j_max", "alpha", "beta")
    j_max, alpha, beta = map(_integer, names, (j_max, alpha, beta), [ValueError] * 3)
    if min(j_max, alpha, beta) < 0:
        raise ValueError(f"need j_max, alpha, beta >= 0, got {j_max}, ({alpha}, {beta})")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty((j_max + 1, x.size)) if out is None else out
    if out.dtype != np.float64 or out.shape[1:] != (x.size,) or len(out) <= j_max:
        shape = f"float64 (>= {j_max + 1}, {x.size})"
        raise ValueError(f"out must be {shape}, got {out.dtype} {out.shape}")
    jacobi_steps(x, ((j_max, alpha, beta),), out[: j_max + 1, None], np.empty((2, 1, x.size)))
    return out[: j_max + 1]


def jacobi_derivative_scale(j: int, alpha: int, beta: int, order: int) -> float:
    """Scale relating d^k/dx^k P_j^(a,b) to P_{j-k}^(a+k, b+k).

    The factor is the rising product (alpha+beta+j+1)...(alpha+beta+j+k)
    over 2**k, computed as an exact integer then one binary64 division.
    Returns 0.0 when j < order: the derivative is the zero polynomial.
    """
    if not type(j) is type(alpha) is type(beta) is type(order) is int:  # plain ints: one test
        names = ("j", "alpha", "beta", "order")
        j, alpha, beta, order = map(_integer, names, (j, alpha, beta, order), [ValueError] * 4)
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

    ``chains[i]`` holds shift i's P_d^(m+i, i) at u = 1 - 2*rho**2 in row d % len(chains[i]),
    the whole chain or a ring of its last degrees; degree j - i is read. When
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
    term = np.empty_like(out) if deriv_order else None  # terms after the first
    for i, weight in enumerate(_DERIVATIVE_WEIGHTS[deriv_order](m_abs)):
        factor = weight * jacobi_derivative_scale(j, m_abs, 0, i)
        row = 0.0 if j < i else chains[i][(j - i) % len(chains[i])]
        dest = term if i else out
        scaled = powers[i] if factor == 1 else np.multiply(factor, powers[i], out=dest)
        np.multiply(scaled, row, out=dest)
        if i:
            np.add(out, term, out=out)
    if j & 1:
        np.negative(out, out=out)
    n = m_abs + 2 * j
    if n >= CHECKED_MIN_DEGREE and not np.all(np.isfinite(out)):
        raise ValueError(
            f"Jacobi evaluation of (n={n}, m={m_abs}) at derivative order {deriv_order} "
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
    request = batch.BatchRequest((radial_mode(n, m_abs),), grid, deriv_order)
    return batch.evaluate_batch(request)[0].values[:, 0]


def radial_direct(n: int, m_abs: int, grid, deriv_order: int = 0) -> np.ndarray:
    """Radial polynomial by direct binary64 Horner sum: a one-mode ``radial_direct_table``."""
    return radial_direct_table((radial_mode(n, m_abs),), grid, deriv_order)[:, 0]


def radial_direct_table(modes: ModeSet, grid, deriv_order: int = 0) -> np.ndarray:
    """Radial values (or rho-derivatives) of several modes by direct binary64 Horner summation.

    The deliberately unstable baseline: one `exact._binary64_horner` loop over the
    unique keys' `exact._coefficient_stack` (ValueError naming (n, m, k) past
    binary64), each column its one-key sum bit for bit, then times rho**low; a
    zero polynomial is +0.0. Shape (points, modes). One order of `_direct_tables`.
    """
    check_deriv_order(deriv_order)
    return _direct_tables(modes, grid, range(deriv_order, deriv_order + 1))[0]


def _direct_tables(modes: ModeSet, grid, orders: range) -> list[np.ndarray]:
    """``radial_direct_table`` at each order in ``orders``: the grid is checked,
    the modes deduplicated and each key's coefficients expanded once."""
    modes = as_mode_set(modes)
    rho = radial_grid(grid)
    plan = dedup_plan(modes)
    expanded = [radial_coefficients(n, m_abs) for n, m_abs in plan.unique_keys]
    powers = PowerTable(rho)
    tables = []
    for d in orders:
        polys = [differentiate_exact(p, d) for p in expanded] if d else expanded
        acc = _binary64_horner(_coefficient_stack(polys), rho * rho)
        for row, poly in zip(acc, polys):
            row *= powers[poly.terms[-1][0] if poly.terms else 0]
        tables.append(acc[np.array(plan.scatter, dtype=np.intp)].T)
    return tables


def radial_ztt_table(modes: ModeSet, grid) -> np.ndarray:
    """Radial values for several modes via the Zernike three-term recursion.

    The recursion R_n^m = rho[R_{n-1}^{|m-1|} + R_{n-1}^{m+1}] - R_{n-2}^m,
    seeded with R_n^n = rho**n, sweeps n upwards for the whole request and
    keeps only the last two levels; each requested column is written when
    its level is reached. Level n holds only the lanes that
    ``modes.ztt_levels`` keeps.
    Value-only (no derivative form exists). ``modes`` holds Modes or (n, m)
    pairs.

    Returns an array of shape (len(grid), len(modes)).
    """
    modes = as_mode_set(modes)
    rho = radial_grid(grid)
    out = np.empty((rho.size, len(modes)), dtype=np.float64)
    below: dict[int, np.ndarray] = {}
    prev = below
    for n, (lanes, wanted) in enumerate(ztt_levels([(mode.n, mode.m_abs) for mode in modes])):
        level = {
            m: rho**n if m == n else rho * (prev[abs(m - 1)] + prev[m + 1]) - below[m]
            for m in lanes
        }
        for m, col in wanted:
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


def angular_factor(m: int, theta: np.ndarray) -> np.ndarray:
    """Angular factor of azimuthal degree m.

    cos(m*theta) for m >= 0 and sin(|m|*theta) for m < 0.
    """
    if m >= 0:
        return np.cos(m * theta)
    return np.sin(-m * theta)


def zernike_eval(mode: Mode, grid, angles, deriv_order: int = 0) -> np.ndarray:
    """Full Zernike polynomial at point-wise (rho, theta) pairs: a one-mode request with angles."""
    request = batch.BatchRequest((mode,), grid, deriv_order, angles=angles)
    return batch.evaluate_batch(request)[0].values[:, 0]


# batch imports this module: bound last, once every name batch reads is defined
from . import batch  # noqa: E402
