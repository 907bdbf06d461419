"""Batch evaluation of a mode set with two strategies.

``cached`` shares one Jacobi chain per azimuthal group (the chain for the
highest degree contains every lower degree), ``independent`` recomputes each
unique mode's chain from scratch, data-parallel with no shared state. Both
run the identical recurrence in the identical order, so their outputs are
bit-for-bit equal; the step counters expose how much recomputation the
cache avoids.

Both write each unique radial result straight into the rows it serves of one
C-contiguous (modes, points) buffer; a duplicate mode costs one row copy.
``EvalMatrix.values`` is that buffer's transpose: points by modes,
Fortran-ordered.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .evaluate import (
    MAX_DERIV_ORDER,
    assemble_radial,
    jacobi_argument,
    jacobi_chain,
    jacobi_recursion_steps,
)
from .modes import DedupPlan, ModeSet, as_mode_set, dedup_plan
from .tables import EvalMatrix, radial_grid

STRATEGIES = ("cached", "independent")


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
        if self.deriv_order not in range(MAX_DERIV_ORDER + 1):
            raise ValueError(
                f"derivative order must be 0..{MAX_DERIV_ORDER}, got {self.deriv_order}"
            )
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )


def _alpha_groups(plan: DedupPlan) -> list[tuple[int, list[tuple[int, int]]]]:
    """Unique keys grouped by alpha = |m| as (alpha, [(slot, jacobi degree)])."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for slot, (n, alpha) in enumerate(plan.unique_keys):
        groups.setdefault(alpha, []).append((slot, (n - alpha) // 2))
    return sorted(groups.items())


def cached_step_counter(plan: DedupPlan, deriv_order: int) -> StepCounter:
    """Steps/chains the cached strategy performs for this plan."""
    steps = 0
    chains = 0
    for _, entries in _alpha_groups(plan):
        j_max = max(j for _, j in entries)
        for i in range(deriv_order + 1):
            degree = j_max - i
            if degree >= 0:
                steps += jacobi_recursion_steps(degree)
                chains += 1
    return StepCounter(recursion_steps=steps, chain_count=chains)


def independent_step_counter(plan: DedupPlan, deriv_order: int) -> StepCounter:
    """Steps/chains the independent strategy performs for this plan."""
    steps = 0
    chains = 0
    for n, alpha in plan.unique_keys:
        j = (n - alpha) // 2
        for i in range(deriv_order + 1):
            degree = j - i
            if degree >= 0:
                steps += jacobi_recursion_steps(degree)
                chains += 1
    return StepCounter(recursion_steps=steps, chain_count=chains)


def _served_rows(plan: DedupPlan) -> list[list[int]]:
    """Output rows each unique slot serves: ``plan.scatter`` inverted."""
    rows: list[list[int]] = [[] for _ in plan.unique_keys]
    for row, slot in enumerate(plan.scatter):
        rows[slot].append(row)
    return rows


def batch_cached(
    request: BatchRequest, parallel: bool = False
) -> tuple[EvalMatrix, StepCounter]:
    """Evaluate with one shared Jacobi chain per (alpha, shift) group.

    Within a group the chain runs once to the maximum needed degree and every
    requested degree is read out of it. Output columns follow the request's
    mode order, duplicates included.
    """
    if request.strategy != "cached":
        raise ValueError(f"request strategy is {request.strategy!r}, expected 'cached'")
    plan = dedup_plan(request.modes)
    rho = request.grid
    u = jacobi_argument(rho)
    k = request.deriv_order
    zeros = np.zeros_like(rho)
    groups = _alpha_groups(plan)
    rows = _served_rows(plan)
    out = np.empty((len(request.modes), rho.size), dtype=np.float64)

    def run_group(item):
        alpha, entries = item
        j_max = max(j for _, j in entries)
        chains = [
            jacobi_chain(j_max - i, alpha + i, i, u) if j_max - i >= 0 else None
            for i in range(k + 1)
        ]
        for slot, j in entries:
            per_mode = [
                chains[i][j - i] if j - i >= 0 else zeros for i in range(k + 1)
            ]
            value = assemble_radial(rho, alpha, j, k, per_mode)
            for row in rows[slot]:
                out[row] = value

    if parallel and len(groups) > 1:
        with ThreadPoolExecutor() as pool:
            list(pool.map(run_group, groups))
    else:
        for item in groups:
            run_group(item)
    return EvalMatrix(out.T, request.modes, k), cached_step_counter(plan, k)


def batch_independent(
    request: BatchRequest, parallel: bool = False
) -> tuple[EvalMatrix, StepCounter]:
    """Evaluate every unique mode's chain from scratch, no shared cache.

    The per-degree recurrence and the assembly are the same code the cached
    strategy runs, so the result is bitwise identical; only the amount of
    recomputation differs.
    """
    if request.strategy != "independent":
        raise ValueError(
            f"request strategy is {request.strategy!r}, expected 'independent'"
        )
    plan = dedup_plan(request.modes)
    rho = request.grid
    u = jacobi_argument(rho)
    k = request.deriv_order
    zeros = np.zeros_like(rho)
    rows = _served_rows(plan)
    out = np.empty((len(request.modes), rho.size), dtype=np.float64)

    def run_key(item):
        slot, (n, alpha) = item
        j = (n - alpha) // 2
        per_mode = [
            jacobi_chain(j - i, alpha + i, i, u)[j - i] if j - i >= 0 else zeros
            for i in range(k + 1)
        ]
        value = assemble_radial(rho, alpha, j, k, per_mode)
        for row in rows[slot]:
            out[row] = value

    items = list(enumerate(plan.unique_keys))
    if parallel and len(items) > 1:
        with ThreadPoolExecutor() as pool:
            list(pool.map(run_key, items))
    else:
        for item in items:
            run_key(item)
    return EvalMatrix(out.T, request.modes, k), independent_step_counter(plan, k)


def evaluate_batch(
    request: BatchRequest, parallel: bool = False
) -> tuple[EvalMatrix, StepCounter]:
    """Dispatch on the request's strategy."""
    if request.strategy == "cached":
        return batch_cached(request, parallel=parallel)
    return batch_independent(request, parallel=parallel)
