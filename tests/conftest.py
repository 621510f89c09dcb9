import numpy as np
import pytest

from shotfuse import FilterModel


@pytest.fixture
def identity_model():
    return FilterModel(np.r_[1.0, np.zeros(22)], 0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
