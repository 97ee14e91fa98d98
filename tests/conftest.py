import pytest

from quiverhopf.quiver import Quiver
from quiverhopf.verify import FAMILY


@pytest.fixture
def q1():
    """One edge 1 -> 2."""
    return FAMILY["one_edge"]


@pytest.fixture
def loop():
    """One loop a at v."""
    return FAMILY["loop"]


@pytest.fixture
def two_loops():
    """Two loops a, b at v."""
    return FAMILY["two_loops"]


@pytest.fixture
def q2():
    """Two edges 1 -> 2 -> 3."""
    return FAMILY["chain2"]


@pytest.fixture
def star2():
    """Two edges out of one vertex: e: 1 -> 2, f: 1 -> 3."""
    return Quiver(("1", "2", "3"), (("e", "1", "2"), ("f", "1", "3")))


@pytest.fixture
def loop_edge():
    """A loop and an edge sharing a vertex: a: v -> v, e: v -> w."""
    return FAMILY["loop_edge"]
