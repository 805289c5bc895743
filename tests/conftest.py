import numpy as np
import pytest

from holopar.connections import constant_christoffels, from_coordinate_christoffels
from holopar.fixtures import load_fixture
from holopar.geometry import Box


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
