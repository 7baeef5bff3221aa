from pathlib import Path

import numpy as np
import pytest

import fixtures
from semicross.io_json import load_instance

D1 = np.array([1, 0], dtype=complex)
D2 = np.array([0, 1], dtype=complex)


@pytest.fixture(scope="session")
def flip():
    return fixtures.flip()


@pytest.fixture(scope="session")
def semi():
    return fixtures.semi()


@pytest.fixture(scope="session")
def sim2():
    return fixtures.sim2()


@pytest.fixture(scope="session")
def z2():
    return fixtures.z2()


@pytest.fixture(scope="session")
def sim3():
    return fixtures.sim3()


@pytest.fixture(scope="session")
def all_instances(flip, semi, sim2, z2):
    return [flip, semi, sim2, z2]


@pytest.fixture(scope="session")
def flip_reg(flip):
    return flip.regular(2)


@pytest.fixture(scope="session")
def semi_reg(semi):
    return semi.regular(2)


@pytest.fixture(scope="session")
def sim2_reg(sim2):
    return sim2.regular(2)


@pytest.fixture(scope="session")
def z2_reg(z2):
    return z2.regular(2)


INSTANCES = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture(scope="session")
def m2():
    return load_instance(INSTANCES / "m2.json")


@pytest.fixture(scope="session")
def m2_swap():
    return load_instance(INSTANCES / "m2_swap.json")
