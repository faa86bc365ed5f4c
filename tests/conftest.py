import numpy as np
import pytest

from pyreid.data_synth import GenConfig, generate_dataset


@pytest.fixture(scope="session")
def toy_dataset():
    """Small mid-severity dataset shared by trainer/eval/cli tests."""
    return generate_dataset(GenConfig(num_ids=20, imgs_per_id=10, severity=0.2, seed=5))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
