"""Evaluation grids and points-by-modes value tables."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .modes import ModeSet, _integer

MAX_DERIV_ORDER = 3


class GridError(ValueError):
    """Grid values outside the evaluator's domain."""


def check_deriv_order(k: int, name: str = "derivative order") -> None:
    """Reject a radial derivative order that is not an integer in 0..MAX_DERIV_ORDER."""
    if isinstance(k, bool) or not (isinstance(k, (int, np.integer)) and 0 <= k <= MAX_DERIV_ORDER):
        raise ValueError(f"{name} must be in 0..{MAX_DERIV_ORDER}, got {k}")


def radial_grid(values) -> np.ndarray:
    """Validate a vector of radial points: binary64, each in [0, 1]."""
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if arr.ndim != 1:
        raise GridError(f"radial grid must be 1-D, got shape {arr.shape}")
    # NaN fails both comparisons, so this one pass rejects every non-finite value too
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise GridError("radial points must be finite and lie in [0, 1]")
    return arr


def angular_grid(values) -> np.ndarray:
    """Validate a vector of angles in radians: binary64, finite."""
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if arr.ndim != 1:
        raise GridError(f"angular grid must be 1-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise GridError("angles must be finite")
    return arr


def rational_radial_grid(num_points: int) -> tuple[Fraction, ...]:
    """Exact linearly spaced radial points i/(P-1) for i = 0 .. P-1."""
    num_points = _integer("grid size", num_points, GridError)
    if num_points < 2:
        raise GridError(f"need at least 2 points, got {num_points}")
    q = num_points - 1
    return tuple(Fraction(i, q) for i in range(num_points))


def linear_radial_grid(num_points: int) -> np.ndarray:
    """Binary64 rounding of the exact points i/(P-1), correctly rounded per point."""
    num_points = _integer("grid size", num_points, GridError)
    if num_points < 2:
        raise GridError(f"need at least 2 points, got {num_points}")
    return np.arange(num_points, dtype=np.float64) / float(num_points - 1)


@dataclass(frozen=True, eq=False)
class EvalMatrix:
    """Points-by-modes table of binary64 values for one derivative order.

    Rows follow the grid, columns follow the ModeSet in input order.
    """

    values: np.ndarray
    modes: ModeSet
    deriv_order: int

    def __post_init__(self):
        check_deriv_order(self.deriv_order)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.modes):
            raise ValueError(
                f"values shape {self.values.shape} does not match {len(self.modes)} modes"
            )

    @property
    def num_points(self) -> int:
        return self.values.shape[0]

    def column(self, index: int) -> np.ndarray:
        return self.values[:, index]
