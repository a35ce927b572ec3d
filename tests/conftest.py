import numpy as np
import pytest

from hoitg import model, scenegen


@pytest.fixture(scope="session")
def mini_config():
    return scenegen.SceneConfig(res=32, v0=16, v1=32, body_parts="mini")


@pytest.fixture(scope="session")
def mini_assets(mini_config):
    return scenegen.build_assets(mini_config)


@pytest.fixture(scope="session")
def default_assets():
    return scenegen.build_assets(scenegen.SceneConfig())


@pytest.fixture()
def mini_encoder():
    return model.EncoderConfig(dims=(16, 12, 8), heads=2, feat_channels=16, layers_per_block=2)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
