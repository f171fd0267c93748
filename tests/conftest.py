import multiprocessing

import pytest

from gridrestore import datasets
from gridrestore.model import time_grid_for


@pytest.fixture(scope="session")
def bundled_network():
    return datasets.bundled_case()


@pytest.fixture(scope="session")
def storm_network():
    return datasets.bundled_damaged_case()


@pytest.fixture(scope="session")
def storm_grid(storm_network):
    return time_grid_for(storm_network)


@pytest.fixture(scope="session")
def uniform_placement():
    return datasets.bundled_placement("uniform")


@pytest.fixture(scope="session")
def clustered_placement():
    return datasets.bundled_placement("clustered")


@pytest.fixture(scope="session", autouse=True)
def no_leaked_worker_processes():
    """Fail the run if any test leaves a worker process behind."""
    yield
    leaked = multiprocessing.active_children()
    assert not leaked, f"worker processes outlived the tests: {leaked}"
