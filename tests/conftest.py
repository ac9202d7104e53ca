import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sampling import default_rng

settings.register_profile(
    "coreplie",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("coreplie")


@pytest.fixture
def rng() -> np.random.Generator:
    return default_rng()
