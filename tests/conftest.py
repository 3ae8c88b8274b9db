import pytest

from nmds.constructions import CONSTRUCTION_IDS, build
from nmds.field import GF2m


@pytest.fixture(scope="session")
def ctx4():
    return GF2m(2)


@pytest.fixture(scope="session")
def ctx8():
    return GF2m(3)


@pytest.fixture(scope="session")
def ctx32():
    return GF2m(5)


@pytest.fixture(scope="session")
def codes8(ctx8):
    """All twelve constructions at q=8, built once (results memoize per code)."""
    return {cid: build(cid, ctx8) for cid in CONSTRUCTION_IDS}


@pytest.fixture(scope="session")
def codes32(ctx32):
    return {cid: build(cid, ctx32) for cid in CONSTRUCTION_IDS}
