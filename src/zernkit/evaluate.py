"""Binary64 evaluation engines for Zernike radial and full polynomials.

The production path maps the radial part onto a Jacobi polynomial of degree
(n - |m|)/2 with parameters (|m|, 0) at 1 - 2*rho**2 and runs the stable
three-term recursion. Two baselines are kept deliberately: the direct
alternating sum (unstable at high degree) and the Zernike three-term
recursion. Derivatives up to third order ride the same Jacobi chains at
shifted parameters.
"""

from __future__ import annotations

import numpy as np

from .exact import differentiate_exact, radial_coefficients
from .modes import Mode, ModeSet, make_mode, radial_mode
from .tables import MAX_DERIV_ORDER, angular_grid, check_deriv_order, radial_grid

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


def jacobi_argument(rho: np.ndarray) -> np.ndarray:
    """Map radial points into Jacobi domain: u = 1 - 2*rho**2.

    Single definition so every evaluation path uses bit-identical inputs.
    """
    return 1.0 - 2.0 * rho * rho


def jacobi_chain(j_max: int, alpha: int, beta: int, x) -> np.ndarray:
    """Evaluate the whole chain P_0 .. P_{j_max} at x via the three-term recursion.

    Parameters
    ----------
    j_max : int
        highest degree to compute (>= 0)
    alpha, beta : int
        Jacobi parameters, both >= 0 on the Zernike range
    x : ndarray, shape (N,)
        evaluation points

    Returns
    -------
    ndarray, shape (j_max + 1, N)
        row j holds P_j^(alpha, beta) at every point; callers may read any
        intermediate degree, which is what the cached batch strategy shares

    Notes
    -----
    P_0 and P_1 are explicit base cases; the recursion is only applied for
    j >= 2, where its leading factor 2j(c-j)(c-2) with c = 2j+alpha+beta is
    strictly positive for alpha, beta >= 0.
    """
    if j_max < 0:
        raise ValueError(f"chain degree must be >= 0, got {j_max}")
    if alpha < 0 or beta < 0:
        raise ValueError(f"need alpha, beta >= 0, got ({alpha}, {beta})")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty((j_max + 1, x.size), dtype=np.float64)
    out[0] = 1.0
    if j_max >= 1:
        out[1] = (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2
    for j in range(2, j_max + 1):
        c = 2 * j + alpha + beta
        lead = 2 * j * (c - j) * (c - 2)
        mid_x = (c - 1) * c * (c - 2)
        mid_const = (c - 1) * (alpha * alpha - beta * beta)
        last = 2 * (j + alpha - 1) * (j + beta - 1) * c
        out[j] = ((mid_x * x + mid_const) * out[j - 1] - last * out[j - 2]) / lead
    return out


def jacobi_recursion_steps(j_max: int) -> int:
    """Recursion applications needed to reach degree j_max from the base cases."""
    return max(0, j_max - 1)


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
    prod = 1
    base = alpha + beta + j
    for i in range(1, order + 1):
        prod *= base + i
    return prod / float(2**order)


def assemble_radial(rho, m_abs: int, j: int, deriv_order: int, chains) -> np.ndarray:
    """Combine shifted-parameter Jacobi values into the radial value/derivative.

    ``chains[i]`` must hold P_{j-i}^(m+i, i) at u = 1 - 2*rho**2 (zeros when
    j < i). The rho chain rule for the quadratic inner argument gives, with
    scaled derivatives Pk = scale_k * chains[k]:

        k=0:  rho^m P
        k=1:  m rho^(m-1) P - 4 rho^(m+1) P'
        k=2:  m(m-1) rho^(m-2) P - 4(2m+1) rho^m P' + 16 rho^(m+2) P''
        k=3:  m(m-1)(m-2) rho^(m-3) P - 12 m^2 rho^(m-1) P'
              + 48(m+1) rho^(m+1) P'' - 64 rho^(m+3) P'''

    times the sign (-1)^j. Falling-factorial prefactors vanish before any
    negative power of rho can contribute, so exponents are clamped at 0
    (with the 0**0 == 1 convention at the disc center).

    Every evaluation path funnels through this one function with one fixed
    operation order, which is what makes batch strategies bit-identical.
    From degree CHECKED_MIN_DEGREE on, a non-finite result raises ValueError.
    """
    m = m_abs
    sign = -1.0 if j & 1 else 1.0
    if deriv_order == 0:
        out = rho**m * chains[0]
    elif deriv_order == 1:
        s1 = jacobi_derivative_scale(j, m, 0, 1)
        out = (
            m * rho ** max(m - 1, 0) * chains[0]
            - 4.0 * s1 * rho ** (m + 1) * chains[1]
        )
    elif deriv_order == 2:
        s1 = jacobi_derivative_scale(j, m, 0, 1)
        s2 = jacobi_derivative_scale(j, m, 0, 2)
        out = (
            (m - 1) * m * rho ** max(m - 2, 0) * chains[0]
            - 4.0 * (2 * m + 1) * s1 * rho**m * chains[1]
            + 16.0 * s2 * rho ** (m + 2) * chains[2]
        )
    elif deriv_order == 3:
        s1 = jacobi_derivative_scale(j, m, 0, 1)
        s2 = jacobi_derivative_scale(j, m, 0, 2)
        s3 = jacobi_derivative_scale(j, m, 0, 3)
        out = (
            (m - 2) * (m - 1) * m * rho ** max(m - 3, 0) * chains[0]
            - 12.0 * m * m * s1 * rho ** max(m - 1, 0) * chains[1]
            + 48.0 * (m + 1) * s2 * rho ** (m + 1) * chains[2]
            - 64.0 * s3 * rho ** (m + 3) * chains[3]
        )
    else:
        raise ValueError(
            f"derivative order must be 0..{MAX_DERIV_ORDER}, got {deriv_order}"
        )
    out = sign * out
    n = m + 2 * j
    if n >= CHECKED_MIN_DEGREE and not np.all(np.isfinite(out)):
        raise ValueError(
            f"Jacobi evaluation of (n={n}, m={m}) at derivative order {deriv_order} "
            "leaves the binary64 range"
        )
    return out


def radial_jacobi(n: int, m_abs: int, grid, deriv_order: int = 0) -> np.ndarray:
    """Radial polynomial (or rho-derivative) via the Jacobi recursion.

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
    mode = radial_mode(n, m_abs)
    check_deriv_order(deriv_order)
    rho = radial_grid(grid)
    u = jacobi_argument(rho)
    j = mode.jacobi_degree
    chains = []
    for i in range(deriv_order + 1):
        degree = j - i
        if degree >= 0:
            chains.append(jacobi_chain(degree, m_abs + i, i, u)[degree])
        else:
            chains.append(np.zeros_like(rho))
    return assemble_radial(rho, m_abs, j, deriv_order, chains)


def radial_direct(n: int, m_abs: int, grid, deriv_order: int = 0) -> np.ndarray:
    """Radial polynomial by direct binary64 Horner summation.

    Coefficients are exact integers rounded once to binary64; the alternating
    sum itself runs in binary64 and is deliberately kept as the unstable
    baseline (catastrophic cancellation at high n).
    """
    radial_mode(n, m_abs)
    rho = radial_grid(grid)
    poly = radial_coefficients(n, m_abs)
    if deriv_order:
        poly = differentiate_exact(poly, deriv_order)
    if not poly.terms:
        return np.zeros_like(rho)
    try:
        coeffs = [float(c) for _, c in poly.terms]
    except OverflowError:
        raise ValueError(
            f"direct sum of (n={n}, m={m_abs}) at derivative order {deriv_order}: "
            "a coefficient exceeds the binary64 range"
        ) from None
    u = rho * rho
    acc = np.full_like(rho, coeffs[0])
    for c in coeffs[1:]:
        acc = acc * u + c
    low = poly.terms[-1][0]
    return acc * rho**low


def radial_ztt_table(modes: ModeSet, grid) -> np.ndarray:
    """Radial values for several modes via the Zernike three-term recursion.

    One memo of intermediate polynomials is shared across the whole request;
    the recursion R_n^m = rho[R_{n-1}^{|m-1|} + R_{n-1}^{m+1}] - R_{n-2}^m is
    seeded with R_q^q = rho**q. Value-only (no derivative form exists).

    Returns an array of shape (len(grid), len(modes)).
    """
    modes = tuple(modes)
    rho = radial_grid(grid)
    memo: dict[tuple[int, int], np.ndarray] = {}
    out = np.empty((rho.size, len(modes)), dtype=np.float64)
    for col, mode in enumerate(modes):
        key = (mode.n, mode.m_abs)
        # Depth first with an explicit stack of the keys still missing: the
        # dependency chain is ~n deep, past Python's recursion limit near
        # n = 1000. The top key is computed once its three inputs exist.
        stack = [] if key in memo else [key]
        while stack:
            top = stack[-1]
            n, m = top
            if n == m:
                memo[top] = rho**n
                stack.pop()
                continue
            left_key = (n - 1, abs(m - 1))
            right_key = (n - 1, m + 1)
            below_key = (n - 2, m)
            left = memo.get(left_key)
            right = memo.get(right_key)
            below = memo.get(below_key)
            if left is None:
                stack.append(left_key)
            elif right is None:
                stack.append(right_key)
            elif below is None:
                stack.append(below_key)
            else:
                memo[top] = rho * (left + right) - below
                stack.pop()
        out[:, col] = memo[key]
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
