import dataclasses

import numpy as np
import pytest

from hoitg import diffcore as dc
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


@pytest.fixture(scope="session")
def reconstruction_tensors():
    """A function: name -> Tensor for every tensor of a ``model.Reconstruction``, its init estimates included."""

    def tensors(rec):
        out = {f"init.{f.name}": getattr(rec.init, f.name) for f in dataclasses.fields(rec.init)}
        out.update((f.name, getattr(rec, f.name)) for f in dataclasses.fields(rec)
                   if isinstance(getattr(rec, f.name), dc.Tensor))
        return out

    return tensors
