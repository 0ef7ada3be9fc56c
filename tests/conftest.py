import pytest

import ramseycert as rc
from ramseycert.graphs import count_independent_sets


@pytest.fixture(scope="session")
def g0_4():
    return rc.build_g0(4)


@pytest.fixture(scope="session")
def g0_6():
    return rc.build_g0(6)


@pytest.fixture(scope="session")
def census_4(g0_4):
    return count_independent_sets(g0_4, 4)


@pytest.fixture(scope="session")
def census_6(g0_6):
    return count_independent_sets(g0_6, 6)
