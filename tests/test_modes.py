import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import zernkit as zk
from zernkit.modes import (
    BoundViolation,
    DegreeViolation,
    Mode,
    ModeError,
    ParityViolation,
    as_mode_set,
    dedup_plan,
    full_mode_set,
    make_mode,
    radial_mode,
    radial_sweep_modes,
)


def test_make_mode_accepts_valid_pairs():
    assert make_mode(0, 0) == Mode(0, 0)
    assert make_mode(3, -1) == Mode(3, -1)
    assert make_mode(3, -1).m_abs == 1
    assert make_mode(6, 2).jacobi_degree == 2


def test_make_mode_rejects_with_distinct_causes():
    with pytest.raises(ParityViolation):
        make_mode(3, 2)
    with pytest.raises(BoundViolation):
        make_mode(2, 3)
    with pytest.raises(DegreeViolation):
        make_mode(-1, 0)
    # modes are integers: nothing is truncated, numpy integers become ints
    for bad in (2.5, 2.0, "4", None, True):
        for pair in [(bad, 0), (4, bad)]:
            with pytest.raises(ModeError, match=re.escape(repr(bad))):
                make_mode(*pair)
    with pytest.raises(ModeError, match="3.9"):
        as_mode_set([(3.9, 1)])
    with pytest.raises(ModeError, match="4.5"):
        zk.radial_jacobi(4.5, 2, [0.5])
    with pytest.raises(ModeError, match="2.0"):
        zk.radial_jacobi(4, 2.0, [0.5])
    mode = make_mode(np.int64(4), np.int32(-2))
    assert mode == Mode(4, -2) and type(mode.n) is type(mode.m) is int


def test_mode_errors_are_mode_error_subclasses():
    for exc in (DegreeViolation, BoundViolation, ParityViolation):
        assert issubclass(exc, ModeError)
        assert issubclass(exc, ValueError)


def test_full_mode_set_small_cases():
    assert [(m.n, m.m) for m in full_mode_set(0)] == [(0, 0)]
    assert [(m.n, m.m) for m in full_mode_set(2)] == [
        (0, 0),
        (1, -1),
        (1, 1),
        (2, -2),
        (2, 0),
        (2, 2),
    ]
    assert len(full_mode_set(10)) == 66


def test_full_mode_set_rejects_negative_resolution():
    with pytest.raises(ModeError):
        full_mode_set(-1)
    for bad in (2.7, 2.0, "4", None):
        with pytest.raises(ModeError, match=re.escape(repr(bad))):
            full_mode_set(bad)
    assert full_mode_set(np.int64(2)) == full_mode_set(2)


@pytest.mark.parametrize("resolution", range(0, 51, 5))
def test_full_mode_set_matches_brute_force(resolution):
    # independent enumeration straight from the constraints
    brute = [
        (n, m)
        for n in range(resolution + 1)
        for m in range(-n, n + 1)
        if abs(m) <= n and (n - abs(m)) % 2 == 0
    ]
    got = [(m.n, m.m) for m in full_mode_set(resolution)]
    assert got == sorted(brute)
    assert len(got) == (resolution + 1) * (resolution + 2) // 2


def test_full_mode_set_entries_all_validate():
    for mode in full_mode_set(20):
        assert make_mode(mode.n, mode.m) == mode


def test_dedup_plan_examples():
    plan = dedup_plan(as_mode_set([(2, 2), (2, -2), (2, 2)]))
    assert plan.unique_keys == ((2, 2),)
    assert plan.scatter == (0, 0, 0)

    plan = dedup_plan(as_mode_set([(0, 0), (1, 1)]))
    assert plan.unique_keys == ((0, 0), (1, 1))
    assert plan.scatter == (0, 1)

    plan = dedup_plan(as_mode_set([(4, -2), (4, 2), (2, 0)]))
    assert plan.unique_keys == ((4, 2), (2, 0))
    assert plan.scatter == (0, 0, 1)


def test_dedup_plan_empty_set():
    plan = dedup_plan(())
    assert plan.unique_keys == ()
    assert plan.scatter == ()


valid_mode = st.integers(0, 40).flatmap(
    lambda n: st.integers(0, n).map(lambda k: Mode(n, -n + 2 * k))
)


@given(st.lists(valid_mode, max_size=60))
def test_dedup_scatter_gather_roundtrip(modes):
    plan = dedup_plan(tuple(modes))
    # gather the unique keys through the scatter map: must reconstruct
    # the input-ordered radial keys exactly
    reconstructed = [plan.unique_keys[i] for i in plan.scatter]
    assert reconstructed == [(m.n, m.m_abs) for m in modes]
    assert len(set(plan.unique_keys)) == len(plan.unique_keys)


@given(st.lists(valid_mode, min_size=1, max_size=60))
def test_dedup_keys_in_first_appearance_order(modes):
    plan = dedup_plan(tuple(modes))
    seen = []
    for m in modes:
        key = (m.n, m.m_abs)
        if key not in seen:
            seen.append(key)
    assert list(plan.unique_keys) == seen


@given(st.integers(-5, 45), st.integers(-50, 50))
def test_make_mode_matches_independent_predicate(n, m):
    valid = n >= 0 and abs(m) <= n and (n - abs(m)) % 2 == 0
    if valid:
        mode = make_mode(n, m)
        assert (mode.n, mode.m) == (n, m)
    else:
        with pytest.raises(ModeError):
            make_mode(n, m)


def test_as_mode_set_mixes_modes_and_pairs():
    modes = as_mode_set([Mode(2, 0), (3, 1)])
    assert modes == (Mode(2, 0), Mode(3, 1))
    with pytest.raises(ParityViolation):
        as_mode_set([(3, 2)])
    # a malformed entry is a typed error that names it
    for bad in ([3], [(1, 2, 3)]):
        with pytest.raises(ModeError, match=re.escape(repr(bad[0]))):
            as_mode_set(bad)


def test_modes_are_hashable_and_frozen():
    mode = zk.make_mode(4, -2)
    assert hash(mode) == hash(Mode(4, -2))
    with pytest.raises(AttributeError):
        mode.n = 5


def test_radial_mode_rejects_negative_m_abs():
    assert radial_mode(3, 1) == Mode(3, 1)
    with pytest.raises(ValueError, match="m_abs must be non-negative"):
        radial_mode(3, -1)
    with pytest.raises(ParityViolation):
        radial_mode(3, 2)


def test_radial_sweep_modes_lists_each_radial_key_once():
    keys = radial_sweep_modes(4)
    assert [(m.n, m.m) for m in keys] == [
        (0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 3), (4, 0), (4, 2), (4, 4)
    ]
    assert set(dedup_plan(full_mode_set(4)).unique_keys) == {(m.n, m.m) for m in keys}


def test_radial_sweep_modes_rejects_non_integer_n_max():
    for bad in (2.7, 2.0, "4", None):
        with pytest.raises(ModeError, match=re.escape(repr(bad))):
            radial_sweep_modes(bad)
    assert radial_sweep_modes(np.int64(3)) == radial_sweep_modes(3)
