"""Seeded workload generation, request execution and correctness checks.

Generation uses only ``random.Random`` and plain Python data: modes are
(n, m) pairs, grids are tuples of floats. Nothing from the program under test
runs while a request list is built, so the program cannot change what is
generated, and ``digest`` pins the list. The program sees only the prepared
inputs (``prepare``), which are built from the plain data in set-up.

Each workload has a fixed design, the same for every seed: the shape of each
request (degree, subset size, points, order, strategy, kind) comes from
equal-width strata of each range, paired by a fixed shuffle, and so do the
mode subsets. These set what each request costs, so they do not move with
the seed. The seed draws the radial points, the angles and the order of the
requests, and the checks sample from its own stream.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WIDTHS = (53, 96, 153, 183)  # significand widths of the precision jobs
CERTIFY_GRID = 100  # grid size of every certify job
METHODS = ("jacobi", "direct", "ztt")
FINE_N_MAX, FINE_POINTS = 100, 10_000  # fine-grid-basis: full basis, linear grid
MIXED_DISTINCT = 160  # distinct mixed requests; a run cycles through them
CERTIFY_BLOCKS = 2  # blocks of 8 distinct certify jobs; a run cycles through them

ABS_TOL_K0 = 1e-9  # criterion 1: absolute tolerance at k = 0
REL_TOL_DERIV = 1e-8  # criterion 3: relative to the column magnitude for k >= 1
SAMPLES_PER_REQUEST = 12  # (mode, point) pairs compared with the oracle
ORACLE_SPOT_CHECKS = 3  # modes (and points) per order spot-checked with mpmath
ZERO_DEVIATION_BITS = 183  # criterion 8: widths from here on must report exactly 0


@dataclass(frozen=True)
class Spec:
    """One request as plain data.

    ``kind`` is ``batch`` (one ``evaluate_batch`` call), ``full`` (one
    ``zernike_eval`` call with angles), ``accuracy`` (one ``run_accuracy``
    job) or ``precision`` (one ``run_precision`` job).
    """

    kind: str
    k: int = 0
    modes: tuple[tuple[int, int], ...] = ()
    rho: tuple[float, ...] = ()
    theta: tuple[float, ...] = ()
    strategy: str = "cached"
    n_max: int = 0
    width: int = 0


def full_pairs(n_max: int) -> list[tuple[int, int]]:
    """Every (n, m) with n <= n_max, n ascending then m ascending."""
    return [(n, m) for n in range(n_max + 1) for m in range(-n, n + 1, 2)]


def radial_keys(n_max: int) -> int:
    """Number of (n, m >= 0) radial keys with n <= n_max."""
    return sum(n // 2 + 1 for n in range(n_max + 1))


def _stratified(design: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers in lo..hi, one per equal-width stratum, shuffled."""
    span = hi - lo + 1
    out = [lo + (span * s + design.randrange(span)) // count for s in range(count)]
    design.shuffle(out)
    return out


def _balanced(design: random.Random, choices, count: int) -> list:
    """``choices`` repeated to ``count`` entries, in a fixed shuffled order."""
    out = [choices[i % len(choices)] for i in range(count)]
    design.shuffle(out)
    return out


def _radial_points(rng: random.Random, count: int) -> tuple[float, ...]:
    """Sorted uniform points with both ends of [0, 1] included."""
    inner = sorted(rng.random() for _ in range(count - 2))
    return (0.0, *inner, 1.0)


def fine_grid_basis(seed: int, tiny: bool) -> list[Spec]:
    """One full basis on a fine linear grid; the seed only drives the checks."""
    n_max, points = (8, 50) if tiny else (FINE_N_MAX, FINE_POINTS)
    rho = tuple(i / float(points - 1) for i in range(points))
    return [Spec("batch", modes=tuple(full_pairs(n_max)), rho=rho, strategy="cached")]


def mixed_requests(seed: int, tiny: bool) -> list[Spec]:
    """Small batch and full-polynomial requests of varied shape."""
    design, rng = random.Random("mixed-requests design"), random.Random(seed)
    count, (n_lo, n_hi), (s_lo, s_hi), sizes = (
        (24, (2, 12), (5, 20), (8, 16, 32))
        if tiny
        else (MIXED_DISTINCT, (10, 100), (5, 200), (64, 256, 1024))
    )
    degrees = _stratified(design, n_lo, n_hi, count)
    subset_sizes = _stratified(design, s_lo, s_hi, count)
    points = _balanced(design, sizes, count)
    orders = _balanced(design, (0, 1, 2, 3), count)
    strategies = _balanced(design, ("cached", "independent"), count)
    kinds = _balanced(design, ("full", "batch", "batch", "batch"), count)
    subsets = []
    for n, size, kind in zip(degrees, subset_sizes, kinds):
        pool = full_pairs(n)
        # draws with replacement give repeated and sign-flipped modes
        subsets.append(tuple(design.choice(pool) for _ in range(1 if kind == "full" else size)))
    specs = []
    for i in rng.sample(range(count), count):
        rho = _radial_points(rng, points[i])
        if kinds[i] == "full":
            theta = tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in rho)
            specs.append(Spec("full", orders[i], subsets[i], rho, theta))
        else:
            specs.append(Spec("batch", orders[i], subsets[i], rho, strategy=strategies[i]))
    return specs


def certify(seed: int, tiny: bool) -> list[Spec]:
    """Blocks of four accuracy and four precision jobs, degrees stratified per block.

    The job set is the design's; the seed sets the order of the jobs.
    """
    design, rng = random.Random("certify design"), random.Random(seed)
    blocks, (n_lo, n_hi) = (1, (4, 8)) if tiny else (CERTIFY_BLOCKS, (20, 40))
    kinds = [("accuracy", k, 0) for k in (0, 0, 1, 1)]
    kinds += [("precision", 0, w) for w in WIDTHS]
    specs = []
    for _ in range(blocks):
        n_max = _stratified(design, n_lo, n_hi, len(kinds))
        block = [Spec(kind, k=k, n_max=n, width=w) for (kind, k, w), n in zip(kinds, n_max)]
        rng.shuffle(block)
        specs += block
    return specs


GENERATORS = {
    "fine-grid-basis": fine_grid_basis,
    "mixed-requests": mixed_requests,
    "certify": certify,
}


def warm_up_specs(workload: str, specs: list[Spec]) -> list[Spec]:
    """Requests run untimed in set-up so lazy initialisation is not timed."""
    if workload == "certify":
        return [Spec("accuracy", k=1, n_max=6), Spec("precision", n_max=6, width=53)]
    return specs[: 1 if workload == "fine-grid-basis" else 8]


def digest(specs: list[Spec]) -> str:
    """SHA-256 of the request list; equal seeds give equal digests."""
    return hashlib.sha256(repr(specs).encode()).hexdigest()


def value_count(spec: Spec) -> int:
    """Binary64 result entries a request delivers.

    Batch and full requests: points x modes. Accuracy jobs: points x radial
    keys x orders that were oracle-checked. Precision jobs: points x radial
    keys x widths simulated.
    """
    if spec.kind in ("batch", "full"):
        return len(spec.rho) * len(spec.modes)
    orders = spec.k + 1 if spec.kind == "accuracy" else 1
    return CERTIFY_GRID * radial_keys(spec.n_max) * orders


def prepare(zk, spec: Spec):
    """Program-side inputs for one request, built in set-up."""
    if spec.kind == "batch":
        return zk.as_mode_set(spec.modes), np.array(spec.rho)
    if spec.kind == "full":
        (n, m), = spec.modes
        return zk.make_mode(n, m), np.array(spec.rho), np.array(spec.theta)
    return None


def call(api, spec: Spec, inputs):
    """Run one request through the public API; every call is single-threaded."""
    if spec.kind == "batch":
        modes, rho = inputs
        request = api.BatchRequest(modes, rho, spec.k, spec.strategy)
        return api.evaluate_batch(request, parallel=False)
    if spec.kind == "full":
        mode, rho, theta = inputs
        return api.zernike_eval(mode, rho, theta, spec.k)
    if spec.kind == "accuracy":
        return api.run_accuracy(spec.n_max, METHODS, CERTIFY_GRID, spec.k, serial=True)
    return api.run_precision(spec.n_max, [spec.width], CERTIFY_GRID)


class Checker:
    """Correctness gate; every method runs outside the timed region.

    ``check`` returns None for a correct output and a reason otherwise.
    """

    def __init__(self, zk, seed: int, cross_check_strategies: bool):
        self.zk = zk
        self.rng = random.Random(f"check-{seed}")
        self.cross_check = cross_check_strategies
        self._polys: dict[tuple[int, int, int], object] = {}
        self._digests: dict[int, bytes] = {}

    def _poly(self, n: int, m_abs: int, k: int):
        key = (n, m_abs, k)
        if key not in self._polys:
            poly = self.zk.radial_coefficients(n, m_abs)
            self._polys[key] = self.zk.differentiate_exact(poly, k) if k else poly
        return self._polys[key]

    def _tolerance(self, n: int, m_abs: int, k: int) -> float:
        """Criterion 1 at k = 0; criterion 3 for k >= 1.

        The column magnitude of a derivative is |R^(k)(1)|: for n <= 100 and
        k <= 3 the derivative peaks in magnitude at rho = 1, which every grid
        here contains.
        """
        if k == 0:
            return ABS_TOL_K0
        return REL_TOL_DERIV * abs(self._poly(n, m_abs, k).coefficient_sum())

    def _exact(self, n: int, m_abs: int, k: int, rho: float) -> float:
        return float(self.zk.eval_exact(self._poly(n, m_abs, k), Fraction(rho)))

    def check(self, index: int, spec: Spec, inputs, output) -> str | None:
        if spec.kind == "batch":
            return self._check_batch(index, spec, inputs, output)
        if spec.kind == "full":
            return self._check_full(spec, output)
        if spec.kind == "accuracy":
            return self._check_accuracy(spec, output)
        return self._check_precision(spec, output)

    def _check_batch(self, index, spec, inputs, output) -> str | None:
        values = output[0].values
        if self.cross_check:
            mine = hashlib.blake2b(values.tobytes()).digest()
            seen = self._digests.get(index)
            if seen is not None:  # the same bits as a send that passed every check
                return None if seen == mine else "output differs from an earlier send"
        if values.shape != (len(spec.rho), len(spec.modes)):
            return f"shape {values.shape}"
        if not np.isfinite(values).all():
            return "non-finite values"
        for _ in range(SAMPLES_PER_REQUEST):
            col = self.rng.randrange(len(spec.modes))
            row = self.rng.randrange(len(spec.rho))
            n, m = spec.modes[col]
            exact = self._exact(n, abs(m), spec.k, spec.rho[row])
            if abs(values[row, col] - exact) > self._tolerance(n, abs(m), spec.k):
                return f"mode {(n, m)} at rho={spec.rho[row]!r}: {values[row, col]!r} vs {exact!r}"
        if not self.cross_check:
            return None
        # criterion 7: the other strategy must give the same bits
        other = "independent" if spec.strategy == "cached" else "cached"
        modes, rho = inputs
        twin = self.zk.evaluate_batch(
            self.zk.BatchRequest(modes, rho, spec.k, other), parallel=False
        )[0].values
        if twin.tobytes() != values.tobytes():
            return "cached and independent differ"
        self._digests[index] = mine
        return None

    def _check_full(self, spec, values) -> str | None:
        if values.shape != (len(spec.rho),):
            return f"shape {values.shape}"
        (n, m), = spec.modes
        for _ in range(SAMPLES_PER_REQUEST):
            row = self.rng.randrange(len(spec.rho))
            theta = spec.theta[row]
            angular = math.cos(m * theta) if m >= 0 else math.sin(-m * theta)
            exact = self._exact(n, abs(m), spec.k, spec.rho[row]) * angular
            if not abs(values[row] - exact) <= self._tolerance(n, abs(m), spec.k):
                return f"Z{(n, m)} at point {row}: {values[row]!r} vs {exact!r}"
        return None

    def _check_accuracy(self, spec, rows) -> str | None:
        keys = [(n, m) for n in range(spec.n_max + 1) for m in range(n % 2, n + 1, 2)]
        expected = len(keys) * (2 * (spec.k + 1) + 1)  # ztt has k = 0 rows only
        if len(rows) != expected:
            return f"{len(rows)} rows, expected {expected}"
        for row in rows:
            if not (math.isfinite(row.max_abs_err) and row.max_abs_err >= 0.0):
                return f"bad error value in {row}"
            if row.method == "jacobi":
                tol = self._tolerance(row.n, row.m, row.deriv_order)
                if row.max_abs_err > tol:
                    return f"jacobi error {row.max_abs_err!r} > {tol!r} at {row}"
        return self._spot_check_oracle(spec, keys)

    def _spot_check_oracle(self, spec, keys) -> str | None:
        """Oracle entries against mpmath's hypergeometric Jacobi polynomial."""
        q = CERTIFY_GRID - 1
        for k in range(spec.k + 1):
            modes = [self.rng.choice(keys) for _ in range(ORACLE_SPOT_CHECKS)]
            points = [Fraction(self.rng.randrange(CERTIFY_GRID), q) for _ in modes]
            table = self.zk.oracle_table(
                [self.zk.make_mode(n, m) for n, m in modes], points, k
            ).values
            for col, (n, m) in enumerate(modes):
                for row, point in enumerate(points):
                    ref = mp_radial(n, m, k, point)
                    got = float(table[row, col])
                    same = got == ref if k == 0 else math.isclose(
                        got, ref, rel_tol=4e-16, abs_tol=1e-30
                    )
                    if not same:
                        return f"oracle R{(n, m)}^({k})({point}) = {got!r}, mpmath {ref!r}"
        return None

    def _check_precision(self, spec, rows) -> str | None:
        if len(rows) != 1 or rows[0][0] != spec.width:
            return f"unexpected rows {rows}"
        dev = rows[0][1]
        if not (math.isfinite(dev) and dev >= 0.0):
            return f"bad deviation {dev!r}"
        if spec.width >= ZERO_DEVIATION_BITS and dev != 0.0:
            return f"{spec.width} bits must give 0, got {dev!r}"
        return None


def mp_radial(n: int, m: int, k: int, rho: Fraction) -> float:
    """k-th rho-derivative of R_n^m at rho, from mpmath at 300 bits, to binary64.

    Uses R_n^m(rho) = (-1)^j rho^m P_j^(m,0)(1 - 2 rho^2) with j = (n - m)/2,
    evaluated through mpmath's hypergeometric Jacobi polynomial: a different
    formula from the oracle's integer coefficient expansion.
    """
    import mpmath

    j = (n - m) // 2
    sign = -1 if j % 2 else 1
    with mpmath.workprec(300):
        x = mpmath.mpf(rho.numerator) / rho.denominator

        def radial(r):
            return sign * r**m * mpmath.jacobi(j, m, 0, 1 - 2 * r * r)

        return float(radial(x) if k == 0 else mpmath.diff(radial, x, k))
