"""Batch evaluation of a mode set: two strategies, one engine.

A strategy is a plan of Jacobi chains. ``cached`` shares one chain per
azimuthal group (the chain for the highest degree contains every lower
degree); ``independent`` recomputes each unique mode's chain from scratch.
``evaluate_batch`` is the one entry point: it runs the plan that the
request's ``strategy`` names, single-threaded, with the identical recurrence
in the identical order for either plan, so their outputs are bit-for-bit
equal; the step counter, summed over the plan that ran, shows how much
recomputation the cache avoids. It runs every Jacobi evaluation in zernkit:
``evaluate.radial_jacobi`` is a one-mode request.

Groups run in ascending alpha = |m|. Every group's chains reuse one buffer
per derivative shift, and each power of rho is formed once per request, in
one table by exponent; each unique radial result is assembled in one row and
copied into every row it serves of one C-contiguous (modes, points) buffer.
``EvalMatrix.values`` is its transpose: points by modes, Fortran-ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluate import (
    PowerTable,
    assemble_radial,
    jacobi_argument,
    jacobi_chain,
    radial_powers,
    range_guard,
)
from .modes import DedupPlan, ModeSet, as_mode_set, dedup_plan
from .tables import EvalMatrix, check_deriv_order, radial_grid

STRATEGIES = ("cached", "independent")

# (alpha, chain degree per shift 0..k, [(jacobi degree, output rows)]);
# a negative chain degree means that shift needs no chain
ChainGroup = tuple[int, range, list[tuple[int, list[int]]]]


@dataclass(frozen=True)
class StepCounter:
    """Work accounting: three-term recursion applications and chains evaluated."""

    recursion_steps: int
    chain_count: int


@dataclass(frozen=True, eq=False)
class BatchRequest:
    """A mode set, radial grid, derivative order and strategy choice."""

    modes: ModeSet
    grid: np.ndarray
    deriv_order: int = 0
    strategy: str = "cached"

    def __post_init__(self):
        object.__setattr__(self, "modes", as_mode_set(self.modes))
        object.__setattr__(self, "grid", radial_grid(self.grid))
        check_deriv_order(self.deriv_order)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")


def _chain_plan(
    plan: DedupPlan, strategy: str, deriv_order: int
) -> tuple[list[ChainGroup], StepCounter]:
    """The chains a strategy runs for this plan, and the work they cost.

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
            groups.append((alpha, range(j_max, j_max - deriv_order - 1, -1), part))
    run = [degree for _, degrees, _ in groups for degree in degrees if degree >= 0]
    # the base cases P_0 and P_1 take no recursion step
    return groups, StepCounter(sum(max(0, degree - 1) for degree in run), len(run))


def cached_step_counter(plan: DedupPlan, deriv_order: int) -> StepCounter:
    """Steps/chains the cached strategy performs for this plan."""
    return _chain_plan(plan, "cached", deriv_order)[1]


def independent_step_counter(plan: DedupPlan, deriv_order: int) -> StepCounter:
    """Steps/chains the independent strategy performs for this plan."""
    return _chain_plan(plan, "independent", deriv_order)[1]


def evaluate_batch(
    request: BatchRequest, parallel: bool = False
) -> tuple[EvalMatrix, StepCounter]:
    """Run the request's chain plan; columns follow the request's mode order.

    ``parallel`` is accepted for compatibility and ignored: evaluation is
    single-threaded.
    """
    rho = request.grid
    u = jacobi_argument(rho)
    k = request.deriv_order
    groups, counter = _chain_plan(dedup_plan(request.modes), request.strategy, k)
    out = np.empty((len(request.modes), rho.size), dtype=np.float64)
    # one chain buffer per shift, deep enough for every group's chain of it
    depths = map(max, zip(*(degrees for _, degrees, _ in groups)))
    buffers = [np.empty((max(depth + 1, 0), rho.size)) for depth in depths]
    # a copy stores into fresh output pages faster than an arithmetic ufunc:
    # assembling here first saves ~10% of full N = 100 at 10^4 points
    value = np.empty(rho.size)
    table = PowerTable(rho)
    for alpha, degrees, entries in groups:
        # groups run in ascending alpha: no later group reads an exponent below alpha - k
        for e in [e for e in table if e < alpha - k]:
            del table[e]
        with range_guard(alpha + 2 * degrees[0]):
            chains = [
                jacobi_chain(degree, alpha + i, i, u, out=buffer) if degree >= 0 else None
                for i, (degree, buffer) in enumerate(zip(degrees, buffers))
            ]
            powers = radial_powers(table, alpha, k)
            for j, rows in entries:
                assemble_radial(alpha, j, k, chains, powers, value)
                for row in rows:
                    out[row] = value
    return EvalMatrix(out.T, request.modes, k), counter
