import numpy as np
import pytest

import zernkit as zk


def radial_sweep(n_max):
    """All (n, m >= 0) modes with n <= n_max, the radial accuracy-study set."""
    return tuple(
        zk.Mode(n, m) for n in range(n_max + 1) for m in range(n % 2, n + 1, 2)
    )


def reference_chain(j_max, alpha, beta, x):
    """The recurrence in expression form, each degree assigned into its row."""
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


@pytest.fixture(scope="session")
def grid100():
    return zk.linear_radial_grid(100)


@pytest.fixture(scope="session")
def rational100():
    return zk.rational_radial_grid(100)
