import numpy as np
import pytest

from resgame.verify import random_connected_graph  # noqa: F401  (imported by tests)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
