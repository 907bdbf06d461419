import re
from fractions import Fraction

import numpy as np
import pytest

import zernkit as zk
from zernkit.tables import (
    EvalMatrix,
    GridError,
    angular_grid,
    linear_radial_grid,
    radial_grid,
    rational_radial_grid,
)


def test_radial_grid_validates_domain():
    grid = radial_grid([0.0, 0.5, 1.0])
    assert grid.dtype == np.float64
    with pytest.raises(GridError):
        radial_grid([-0.1])
    with pytest.raises(GridError):
        radial_grid([1.1])
    for bad in ([np.nan], [0.5, np.nan], [np.inf], [-np.inf]):
        with pytest.raises(GridError):
            radial_grid(bad)


def test_angular_grid_requires_finite():
    angular_grid([-10.0, 0.0, 100.0])
    with pytest.raises(GridError):
        angular_grid([np.inf])


def test_linear_grid_is_rounding_of_rational_grid():
    for num_points in (2, 3, 100, 257):
        exact = rational_radial_grid(num_points)
        floats = linear_radial_grid(num_points)
        assert [float(f) for f in exact] == floats.tolist()
        assert exact[0] == 0 and exact[-1] == 1


def test_rational_grid_values():
    assert rational_radial_grid(3) == (Fraction(0), Fraction(1, 2), Fraction(1))
    with pytest.raises(GridError):
        rational_radial_grid(1)


@pytest.mark.parametrize("grid", [rational_radial_grid, linear_radial_grid])
def test_grid_sizes_must_be_integers(grid):
    for bad in (3.7, 2.0, "4", None, True):
        with pytest.raises(GridError, match=re.escape(repr(bad))):
            grid(bad)
    assert list(grid(np.int64(5))) == list(grid(5))


def test_eval_matrix_shape_checks():
    modes = zk.as_mode_set([(0, 0), (2, 0)])
    values = np.zeros((5, 2))
    table = EvalMatrix(values=values, modes=modes, deriv_order=0)
    assert table.num_points == 5
    assert table.column(1).shape == (5,)
    with pytest.raises(ValueError):
        EvalMatrix(values=np.zeros((5, 3)), modes=modes, deriv_order=0)
    with pytest.raises(ValueError):
        EvalMatrix(values=values, modes=modes, deriv_order=4)


@pytest.mark.parametrize("order", [1.0, 2.5, "1", None, True])
def test_non_integer_derivative_order_is_value_error(order):
    modes = zk.as_mode_set([(4, 2)])
    calls = (
        lambda k: zk.evaluate_batch(zk.BatchRequest(modes, [0.5], k))[0].values,
        lambda k: zk.radial_jacobi(4, 2, [0.5], k),
        lambda k: zk.oracle_table(modes, [0.5], k).values,
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"got {order}")):
            call(order)
        # a numpy integer is an order like any other
        assert np.array_equal(call(np.int64(2)), call(2))
