import numpy as np
import pytest

from holopar.connections import constant_christoffels, from_coordinate_christoffels
from holopar.fixtures import load_fixture
from holopar.geometry import Box, segment
from holopar.transport import transport_ensemble


@pytest.fixture(scope="session")
def s5():
    return load_fixture("section5")


@pytest.fixture(scope="session")
def flat2():
    return load_fixture("euclidean_flat")


@pytest.fixture(scope="session")
def scaled():
    return load_fixture("scaled_euclidean_incompatible")


@pytest.fixture(scope="session")
def blend():
    return load_fixture("rotated_blend")


@pytest.fixture(scope="session")
def rescaling():
    """Negative control: coordinate Christoffel Gamma^x_{xx} = 1 (others
    zero), so transport along unit x-displacement rescales d/dx by 1/e."""
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = 1.0
    return from_coordinate_christoffels(constant_christoffels(gamma), 2,
                                        Box((-5.0, -5.0), (5.0, 5.0)))


@pytest.fixture(scope="session")
def solve_ode():
    """solve(A, n, t_end, step): Phi' = A(t) Phi, Phi(0) = I, through
    transport_ensemble. Along the x axis at unit speed the coordinate
    symbols Gamma(e_x) = -A(x) give the coefficient A(t) at x = t; A maps
    the x coordinates (m,) of a batch to (m, n, n). Returns the step
    multiples t in (0, t_end] and Phi(t) there."""
    def solve(A, n, t_end, step):
        conn = from_coordinate_christoffels(
            lambda coords, w: -w[:, :1, None] * A(coords[:, 0]), n)
        steps = max(1, int(round(t_end / step)))
        ts = np.arange(1, steps + 1) * (t_end / steps)
        start = [0.0] * n
        phis, _, _ = transport_ensemble(conn, [segment(start, [1.0] + start[1:])], ts,
                                        step=step, t_end=t_end)
        return ts, phis[0]
    return solve
