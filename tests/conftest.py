import pytest

from necoh.surface import BoundState


@pytest.fixture(scope="module")
def state():
    return BoundState.for_material()
