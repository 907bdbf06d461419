"""Mode indexing for the Zernike basis: validation, enumeration, deduplication.

A mode is a pair (n, m) with n >= 0, |m| <= n and n - |m| even. The radial
polynomial depends only on (n, |m|), so requests containing sign-flipped or
repeated modes can be folded to unique radial keys and scattered back.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence


class ModeError(ValueError):
    """An (n, m) pair that does not index a Zernike polynomial."""


class DegreeViolation(ModeError):
    """Radial degree n is negative."""


class BoundViolation(ModeError):
    """Azimuthal degree out of range: |m| > n."""


class ParityViolation(ModeError):
    """n - |m| is odd."""


def _index(value) -> int:
    """``operator.index``, but a bool, a flag rather than a count, raises TypeError."""
    if isinstance(value, bool):
        raise TypeError
    return operator.index(value)


def _integer(name: str, value, error: type[ValueError] = ModeError) -> int:
    """value as a Python int: ints and numpy integers pass, anything else raises ``error``."""
    try:
        return _index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Mode:
    """A validated (n, m) index pair."""

    n: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n))
        object.__setattr__(self, "m", _integer("m", self.m))
        if self.n < 0:
            raise DegreeViolation(f"radial degree must be >= 0, got n={self.n}")
        if abs(self.m) > self.n:
            raise BoundViolation(f"|m| must not exceed n, got (n={self.n}, m={self.m})")
        if (self.n - abs(self.m)) % 2 != 0:
            raise ParityViolation(f"n - |m| must be even, got (n={self.n}, m={self.m})")

    @property
    def m_abs(self) -> int:
        return abs(self.m)

    @property
    def jacobi_degree(self) -> int:
        """Degree of the Jacobi polynomial backing the radial part, (n - |m|) / 2."""
        return (self.n - abs(self.m)) // 2


ModeSet = tuple[Mode, ...]


def make_mode(n: int, m: int) -> Mode:
    """Validate and build a Mode.

    Raises ModeError for a non-integer, DegreeViolation for n < 0,
    BoundViolation for |m| > n and ParityViolation for odd n - |m|.
    """
    return Mode(n, m)


def radial_mode(n: int, m_abs: int) -> Mode:
    """Validate a radial key (n, |m|) and build its Mode; m_abs must be >= 0."""
    mode = make_mode(n, m_abs)
    if mode.m < 0:
        raise ValueError("m_abs must be non-negative")
    return mode


def as_mode_set(pairs: Iterable) -> ModeSet:
    """Normalize an iterable of Mode or (n, m) pairs into a validated ModeSet."""
    out = []
    for item in pairs:
        if isinstance(item, Mode):
            out.append(item)
        else:
            try:
                n, m = item
            except (TypeError, ValueError):
                raise ModeError(f"need a Mode or an (n, m) pair, got {item!r}") from None
            out.append(make_mode(n, m))
    return tuple(out)


def full_mode_set(resolution: int) -> ModeSet:
    """All modes with n <= resolution, ordered by n ascending then m ascending.

    The set has (resolution + 1)(resolution + 2) / 2 entries; m runs over
    {-n, -n+2, ..., n-2, n} for each n.
    """
    resolution = _integer("resolution", resolution)
    if resolution < 0:
        raise DegreeViolation(f"resolution must be >= 0, got {resolution}")
    return tuple(Mode(n, m) for n in range(resolution + 1) for m in range(-n, n + 1, 2))


def radial_sweep_modes(n_max: int) -> ModeSet:
    """Every radial key (n, m >= 0) with n <= n_max; the radial part ignores sign(m)."""
    n_max = _integer("n_max", n_max)
    return tuple(
        Mode(n, m) for n in range(n_max + 1) for m in range(n % 2, n + 1, 2)
    )


def ztt_levels(keys: Sequence[tuple[int, int]]) -> list[tuple[range, list[tuple[int, int]]]]:
    """Level plan of the Zernike three-term recursion for radial keys (n, |m|).

    Entry n holds the lanes m that level n computes and the (m, position in
    ``keys``) pairs it serves. A lane is kept only while a requested (N, M)
    with N >= n still depends on it: m <= n and m <= max(N + M) - n.
    """
    wanted: dict[int, list[tuple[int, int]]] = {}
    for col, (n, m) in enumerate(keys):
        wanted.setdefault(n, []).append((m, col))
    reach, levels = 0, []
    for n in range(max(wanted, default=-1), -1, -1):
        reach = max([reach] + [n + m for m, _ in wanted.get(n, ())])
        levels.append((range(n % 2, min(n, reach - n) + 1, 2), wanted.get(n, [])))
    return levels[::-1]


@dataclass(frozen=True)
class DedupPlan:
    """Fold of a ModeSet onto its distinct (n, |m|) radial keys.

    ``unique_keys`` lists the distinct keys in first-appearance order;
    ``scatter[i]`` is the key index serving input position i. Gathering
    unique results through ``scatter`` reconstructs the input-ordered result.
    """

    unique_keys: tuple[tuple[int, int], ...]
    scatter: tuple[int, ...]


def dedup_plan(modes: Sequence[Mode]) -> DedupPlan:
    """Plan duplicate-mode elimination for a ModeSet.

    Sign-flipped m and repeated (n, m) entries share a radial evaluation;
    the plan records one slot per distinct (n, |m|) pair.
    """
    index: dict[tuple[int, int], int] = {}
    keys: list[tuple[int, int]] = []
    scatter: list[int] = []
    for mode in modes:
        key = (mode.n, abs(mode.m))
        slot = index.get(key)
        if slot is None:
            slot = len(keys)
            index[key] = slot
            keys.append(key)
        scatter.append(slot)
    return DedupPlan(unique_keys=tuple(keys), scatter=tuple(scatter))
