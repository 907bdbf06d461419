"""Batch evaluation of a mode set: two strategies, one engine.

A strategy is a plan of Jacobi chains. ``cached`` shares one chain per
azimuthal group (the chain for the highest degree contains every lower
degree); ``independent`` recomputes each unique mode's chain from scratch.
``evaluate_batch`` is the one entry point: it runs the plan that the
request's ``strategy`` names, single-threaded, with the identical recurrence
in the identical order for either plan, so their outputs are bit-for-bit
equal; the step counter, summed over the chains that ran, shows how much
recomputation the cache avoids. It runs every Jacobi evaluation in zernkit:
``evaluate.radial_jacobi`` is a one-mode request, ``zernike_eval`` one with angles.

Whole groups, in ascending alpha = |m|, are stacked into blocks, and each
block runs as one degree-stacked ``jacobi_steps`` recursion that keeps a
ring of each chain's last degrees. When shift 0 reaches degree j, each mode
of degree j is assembled from the ring and copied into every row it serves
of one C-contiguous (modes, points) buffer; each power of rho and each m's
angular factor is formed once per request. ``EvalMatrix.values``: its transpose.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .evaluate import (  # perfbench's probes patch jacobi_chain and assemble_radial here
    CHECKED_MIN_DEGREE,
    PowerTable,
    angular_factor,
    assemble_radial,
    jacobi_argument,
    jacobi_chain,
    jacobi_steps,
    radial_powers,
)
from .modes import DedupPlan, ModeSet, as_mode_set, dedup_plan
from .tables import EvalMatrix, angular_grid, check_deriv_order, radial_grid

STRATEGIES = ("cached", "independent")
# Chain state one block stacks, its ring and two scratch rows per chain: half
# an L2 of 2 MiB (at 2 MiB the buffers of a request start to cost fresh pages)
BLOCK_BYTES = 1 << 20

# (alpha, [(j_max, alpha + i, i) per shift i with a chain], [(jacobi degree, output rows)])
ChainGroup = tuple[int, list[tuple[int, int, int]], list[tuple[int, list[int]]]]


@dataclass(frozen=True)
class StepCounter:
    """Work accounting: three-term recursion applications and chains evaluated."""

    recursion_steps: int
    chain_count: int


@dataclass(frozen=True, eq=False)
class BatchRequest:
    """Modes, radial grid, derivative order, strategy and, for full polynomials, angles."""

    modes: ModeSet
    grid: np.ndarray
    deriv_order: int = 0
    strategy: str = "cached"
    angles: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "modes", as_mode_set(self.modes))
        object.__setattr__(self, "grid", radial_grid(self.grid))
        check_deriv_order(self.deriv_order)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        angles = None if self.angles is None else angular_grid(self.angles)
        object.__setattr__(self, "angles", angles)
        if angles is not None and angles.size != self.grid.size:
            raise ValueError(f"point-wise grids must match: {self.grid.size} vs {angles.size}")


def _chain_plan(plan: DedupPlan, strategy: str, deriv_order: int) -> list[ChainGroup]:
    """The chains a strategy runs for this plan.

    Groups come in ascending alpha = |m|. ``cached`` makes one group per
    alpha and runs each shift's chain once, to the group's highest degree;
    ``independent`` makes every unique key its own group. This is the only
    place that knows the difference.
    """
    rows: list[list[int]] = [[] for _ in plan.unique_keys]
    for row, slot in enumerate(plan.scatter):
        rows[slot].append(row)
    by_alpha: dict[int, list[tuple[int, list[int]]]] = {}
    for (n, alpha), served in zip(plan.unique_keys, rows):
        by_alpha.setdefault(alpha, []).append(((n - alpha) // 2, served))
    groups: list[ChainGroup] = []
    for alpha, entries in sorted(by_alpha.items()):
        for part in [entries] if strategy == "cached" else [[entry] for entry in entries]:
            j_max = max(j for j, _ in part)
            shifts = range(min(deriv_order, j_max) + 1)
            groups.append((alpha, [(j_max - i, alpha + i, i) for i in shifts], part))
    return groups


def _predicted(plan: DedupPlan, strategy: str, deriv_order: int) -> StepCounter:
    """Steps and chains of a strategy's plan; the base cases P_0 and P_1 take no step."""
    chains = [chain for _, group, _ in _chain_plan(plan, strategy, deriv_order) for chain in group]
    return StepCounter(sum(max(0, j_max - 1) for j_max, _, _ in chains), len(chains))


def cached_step_counter(plan: DedupPlan, deriv_order: int) -> StepCounter:
    """Steps/chains the cached strategy's plan predicts."""
    return _predicted(plan, "cached", deriv_order)


def independent_step_counter(plan: DedupPlan, deriv_order: int) -> StepCounter:
    """Steps/chains the independent strategy's plan predicts."""
    return _predicted(plan, "independent", deriv_order)


def evaluate_batch(
    request: BatchRequest, parallel: bool = False
) -> tuple[EvalMatrix, StepCounter]:
    """Run the request's chain plan; columns follow the request's mode order.

    From the top degree where ``evaluate``'s range gate starts, the blocks run
    with numpy's overflow and invalid warnings off, and the first non-finite
    output row in request order raises ValueError. With angles, each row is then scaled in
    place by its m's ``angular_factor``; an m * theta that overflows raises
    ValueError. ``parallel`` is ignored; the counter sums the chains and steps that ran.
    """
    rho = request.grid
    u = jacobi_argument(rho)
    k = request.deriv_order
    groups = _chain_plan(dedup_plan(request.modes), request.strategy, k)
    out = np.empty((len(request.modes), rho.size), dtype=np.float64)
    # the readout of degree j reads shift i's degree j - i before degree j + 1 is written
    depth = max(k + 1, 3)
    capacity = BLOCK_BYTES // ((depth + 2) * 8 * max(rho.size, 1))
    blocks: list[list[ChainGroup]] = []
    size = capacity
    for group in groups:  # whole consecutive groups, at most capacity chains a block
        if size + len(group[1]) > capacity:
            blocks.append([])
            size = 0
        blocks[-1].append(group)
        size += len(group[1])
    widest = min(sum(len(chains) for _, chains, _ in groups), max(capacity, k + 1))
    ring, scratch = np.empty((depth, widest, rho.size)), np.empty((2, widest, rho.size))
    # a copy stores into fresh output pages faster than an arithmetic ufunc:
    # assembling here first saves ~10% of full N = 100 at 10^4 points
    value = np.empty(rho.size)
    table = PowerTable(rho)
    steps = chain_count = 0

    def readout(j):  # every mode of degree j in the running block
        for alpha, rows, powers, served in readouts.get(j, ()):
            assemble_radial(alpha, j, k, rows, powers, value)
            for row in served:
                out[row] = value

    checked = max((a + 2 * c[0][0] for a, c, _ in groups), default=0) >= CHECKED_MIN_DEGREE
    with np.errstate(over="ignore", invalid="ignore") if checked else contextlib.nullcontext():
        for block in blocks:
            # blocks run in ascending alpha: no later block reads an exponent below alpha - k
            for e in [e for e in table if e < block[0][0] - k]:
                del table[e]
            stack = [(c, g) for g, (_, chains, _) in enumerate(block) for c in chains]
            stack.sort(reverse=True)
            shifts = [[None] * len(chains) for _, chains, _ in block]
            for r, ((_, _, i), g) in enumerate(stack):
                shifts[g][i] = ring[:, r]
            readouts: dict[int, list] = {}  # this block's modes by degree, read by readout
            for (alpha, _, entries), rows in zip(block, shifts):
                powers = radial_powers(table, alpha, k)
                for j, served in entries:
                    readouts.setdefault(j, []).append((alpha, rows, powers, served))
            steps += jacobi_steps(u, [c for c, _ in stack], ring, scratch, readout)
            chain_count += len(stack)
    if checked and not (finite := np.isfinite(out).all(axis=1)).all():
        mode = request.modes[int(finite.argmin())]  # the first non-finite row
        raise ValueError(
            f"Jacobi evaluation of (n={mode.n}, m={mode.m_abs}) at derivative order {k} "
            "leaves the binary64 range"
        )
    if request.angles is not None:  # one rounding: the bits of radial times factor
        theta, rows_by_m = request.angles, {}
        for mode, row in zip(request.modes, out):
            rows_by_m.setdefault(mode.m, []).append(row)
        m = max(rows_by_m, key=abs, default=0)
        angle = float(theta[np.abs(theta).argmax()]) if theta.size else 0.0
        if abs(m * angle) == np.inf:  # the largest product: then every m * theta is finite
            raise ValueError(f"angular argument m * theta overflows at m={m}, theta={angle!r}")
        for m, rows in rows_by_m.items():
            factor = angular_factor(m, theta)
            for row in rows:
                np.multiply(row, factor, out=row)
    return EvalMatrix(out.T, request.modes, k), StepCounter(steps, chain_count)
