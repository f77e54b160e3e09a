import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hdnav import experiments
from hdnav.config import ExperimentConfig

ROOT_SEED = 42


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return ExperimentConfig(seed=ROOT_SEED)


@pytest.fixture(scope="session")
def checks():
    """``perfbench/checks.py``: the seed-42 digest pins and the record checks."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.PINNED_SEED == ROOT_SEED
    return module


@pytest.fixture(scope="session")
def object_cml(config):
    return experiments.build_object_cml(config)


@pytest.fixture(scope="session")
def grid_cml(config):
    # trained once per session; every grid-dependent test shares it
    return experiments.build_grid_cml(config)


@pytest.fixture(scope="session")
def viable_setup(object_cml, grid_cml):
    """A viable maze with its map memory, as the mission harness builds them."""
    rng = experiments.trial_rng(ROOT_SEED, experiments.TAG_MISSION, 0)
    maze, memory, rejections = experiments.generate_viable_maze(
        rng, object_cml.state_dictionary(), grid_cml
    )
    return maze, memory, rejections


@pytest.fixture()
def rng():
    return np.random.default_rng(ROOT_SEED)
