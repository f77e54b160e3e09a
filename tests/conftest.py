import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hdnav import experiments, hdc, maze, mission
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
def grid_cells(grid_cml):
    """Every grid state as a dictionary keyed by its cell, in row-major order: the
    float table the model rebuilds on request and does not keep."""
    cells = tuple(grid_cml.cell(row) for row in range(grid_cml.width * grid_cml.height))
    return hdc.Dictionary(cells, grid_cml.P.T)


@pytest.fixture(scope="session")
def viable_setup(object_cml, grid_cml):
    """A viable maze with its map memory, as the mission harness builds them."""
    rng = experiments.trial_rng(ROOT_SEED, experiments.TAG_MISSION, 0)
    maze, memory, rejections = experiments.generate_viable_maze(
        rng, object_cml.state_dictionary(), grid_cml
    )
    return maze, memory, rejections


@pytest.fixture(scope="session")
def open_grid_steps():
    """``steps(grid_cml, start, goal)``: the steps of a grid leg on the wall-free grid of
    the model's size, or None if the leg does not end on the goal."""

    def steps(grid_cml, start, goal):
        open_grid = maze.Maze(frozenset(), {}, grid_cml.width, grid_cml.height)
        path, reason = mission.grid_leg(
            grid_cml, open_grid, start, goal, mission.grid_step_cap(open_grid)
        )
        return len(path) - 1 if reason is mission.FailureReason.NONE else None

    return steps


def stream(seed) -> hdc.Stream:
    """The stream of the words ``np.random.default_rng(seed)`` draws: ``PCG64``
    seeds itself from ``SeedSequence(seed)``, as ``default_rng`` seeds it."""
    return hdc.Stream(np.random.PCG64(seed))


def position(source) -> tuple:
    """Where a stream, or a numpy ``Generator`` on ``PCG64``, stands in its words:
    the ``PCG64`` state, and the pending half-word or None.  A generator's
    ``uinteger`` is read only while ``has_uint32`` says it is pending; otherwise it
    is a stale half that no draw reads."""
    if isinstance(source, hdc.Stream):
        return source.bit_generator.state["state"], source.pending
    state = source.bit_generator.state
    assert state["bit_generator"] == "PCG64"
    return state["state"], state["uinteger"] if state["has_uint32"] else None


@pytest.fixture()
def rng():
    return stream(ROOT_SEED)
