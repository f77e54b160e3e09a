"""Seeded experiment suites: training, verification, and the trial batches.

Every trial derives its own generator from (root seed, experiment tag,
trial index), so batches are reproducible record-for-record and can be
farmed out to worker processes without changing any result.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import cml as cml_mod
from . import hdc, maze as maze_mod, mission, persist, semantic_map
from .config import ExperimentConfig
from .grid import DELTAS, DIRECTIONS, GridCml, build_actions, train_grid
from .mission import MissionContext, TrialResult
from .reports import ExperimentReport
from .semantic_map import MapMemory

# Stream tags keep per-purpose generators independent of each other.
TAG_HDC_STATS = 0
TAG_MISSION = 1
TAG_GRID_ONLY = 2
TAG_VIABILITY = 3
TAG_DOOR_REMOVAL = 4
TAG_TRAIN = 5

OBJECT_MODEL_FILE = "object_cml.hdm"
GRID_MODEL_FILE = "grid_cml.hdm"


def trial_rng(seed: int, tag: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, trial])


# --- training and verification ------------------------------------------------


def build_object_cml(config: ExperimentConfig) -> cml_mod.Cml:
    """The object-graph learner: bipolar states, actions calculated exactly."""
    rng = trial_rng(config.require_seed(), TAG_TRAIN, 0)
    return cml_mod.init_calculated(maze_mod.object_graph(), config.d, rng)


def build_grid_cml(config: ExperimentConfig) -> GridCml:
    rng = trial_rng(config.require_seed(), TAG_TRAIN, 1)
    actions = build_actions(config.d, rng)
    return train_grid(maze_mod.WIDTH, maze_mod.HEIGHT, actions)


def verify_object_cml(object_cml: cml_mod.Cml, config: ExperimentConfig) -> dict:
    """Planned path length must match the breadth-first oracle for all pairs."""
    graph = object_cml.graph
    checked = 0
    for start in range(graph.n):
        for goal in range(graph.n):
            if start == goal:
                continue
            path = cml_mod.plan_path(
                object_cml,
                object_cml.S[:, goal],
                object_cml.S[:, start],
                theta=config.theta,
            )
            oracle = cml_mod.bfs_hops(graph, start, goal)
            if path is None or len(path) - 1 != oracle:
                raise RuntimeError(
                    f"object model failed verification: "
                    f"{graph.node_labels[start]}->{graph.node_labels[goal]} "
                    f"planned {path}, oracle {oracle} hops"
                )
            checked += 1
    return {"pairs_checked": checked}


def _border_gate(width: int, height: int) -> np.ndarray:
    """The wall-free sensor gate of every cell: (4, W H), ``DIRECTIONS`` by row-major cell.

    A move is open when it stays on the grid.
    """
    rows, cols = np.divmod(np.arange(width * height), width)
    dr, dc = np.array([DELTAS[direction] for direction in DIRECTIONS]).T[:, :, None]
    return (0 <= rows + dr) & (rows + dr < height) & (0 <= cols + dc) & (cols + dc < width)


def verify_grid_cml(grid_cml: GridCml) -> dict:
    """Prove wall-free navigation Manhattan-optimal for every ordered cell pair.

    From every cell toward every other cell, the move ``grid_step`` picks
    under the border gate must shorten the Manhattan distance; by
    induction, every open-grid leg is then a shortest path.  Blocked
    moves score -inf and ties go to the lowest index, as in
    ``select_action``.
    """
    width, height = grid_cml.width, grid_cml.height
    cells = width * height
    rows, cols = np.divmod(np.arange(cells), width)
    gate = _border_gate(width, height)
    U = grid_cml.U
    # scores [direction, current, target] = U[:, target] - U[:, current]
    pick = np.where(gate[:, :, None], U[:, None, :] - U[:, :, None], -np.inf).argmax(axis=0)
    dr, dc = np.array([DELTAS[direction] for direction in DIRECTIONS]).T
    # a unit move shortens the Manhattan distance iff it points along target - current
    progress = dr[pick] * (rows - rows[:, None]) + dc[pick] * (cols - cols[:, None])
    failed = np.argwhere((progress <= 0) & ~np.eye(cells, dtype=bool))
    if len(failed):
        start, goal = (divmod(int(index), width) for index in failed[0])
        raise RuntimeError(
            f"grid model failed verification: {start}->{goal}: "
            f"the first step does not shorten the Manhattan distance"
        )
    return {"pairs_checked": cells * (cells - 1)}


def _open_grid_steps(grid_cml: GridCml, start, goal) -> int | None:
    """Steps of a grid leg on the wall-free grid; None if it does not end on the goal."""
    open_grid = maze_mod.Maze(frozenset(), {}, start, grid_cml.width, grid_cml.height)
    leg = mission._grid_leg(grid_cml, open_grid, start, goal, mission.grid_step_cap(open_grid))
    return len(leg.path) - 1 if leg.reason is mission.FailureReason.NONE else None


def train_and_save(config: ExperimentConfig, which: str = "both") -> dict:
    """Train/calculate the requested models, verify, then persist.

    Unverified models are never written.
    """
    if which not in ("object", "grid", "both"):
        raise ValueError(f"which must be object|grid|both, got {which!r}")
    config.validate_for_models()
    config.models_dir.mkdir(parents=True, exist_ok=True)
    info: dict = {}
    if which in ("object", "both"):
        object_cml = build_object_cml(config)
        info["object"] = verify_object_cml(object_cml, config)
        persist.save_cml(object_cml, config.models_dir / OBJECT_MODEL_FILE)
        info["object"]["path"] = str(config.models_dir / OBJECT_MODEL_FILE)
    if which in ("grid", "both"):
        grid_cml = build_grid_cml(config)
        info["grid"] = verify_grid_cml(grid_cml)
        persist.save_grid_cml(grid_cml, config.models_dir / GRID_MODEL_FILE)
        info["grid"]["path"] = str(config.models_dir / GRID_MODEL_FILE)
    return info


def load_models(config: ExperimentConfig) -> tuple[cml_mod.Cml, GridCml]:
    object_path = config.models_dir / OBJECT_MODEL_FILE
    grid_path = config.models_dir / GRID_MODEL_FILE
    for path in (object_path, grid_path):
        if not path.exists():
            raise FileNotFoundError(
                f"missing model file {path}; train models first "
                f"(hdnav train --seed <seed> --out {config.output_dir})"
            )
    object_cml = persist.load_model(object_path)
    grid_cml = persist.load_model(grid_path)
    if not isinstance(object_cml, cml_mod.Cml) or not isinstance(grid_cml, GridCml):
        raise ValueError("model files have swapped kinds")
    return object_cml, grid_cml


# --- per-trial workers ----------------------------------------------------------


def generate_viable_maze(
    rng: np.random.Generator,
    objects: hdc.Dictionary,
    grid_cml: GridCml,
    theta: float,
    attempt_cap: int,
) -> tuple[maze_mod.Maze, MapMemory, int]:
    """Regenerate mazes until the map is fully usable for a mission.

    Mission readiness subsumes the viability check: position recovery
    and arrival-cell object recovery must both be unambiguous for all
    eight objects.
    """
    for rejections in range(attempt_cap):
        candidate = maze_mod.generate_maze(rng)
        memory = semantic_map.build_map(objects, candidate, grid_cml, rng)
        if semantic_map.mission_ready(memory, theta):
            return candidate, memory, rejections
    raise RuntimeError(f"no viable maze within {attempt_cap} attempts")


def _goal_records(result: TrialResult) -> list[dict]:
    return [
        {
            "goal": outcome.goal,
            "reached": outcome.reached,
            "object_path": list(outcome.object_path),
            "grid_path": [list(cell) for cell in outcome.grid_path],
            "steps": outcome.steps,
        }
        for outcome in result.goal_outcomes
    ]


def mission_trial(
    config: ExperimentConfig,
    object_cml: cml_mod.Cml,
    grid_cml: GridCml,
    trial: int,
    remove_random_door: bool = False,
) -> dict:
    tag = TAG_DOOR_REMOVAL if remove_random_door else TAG_MISSION
    rng = trial_rng(config.require_seed(), tag, trial)
    objects = object_cml.state_dictionary()
    maze, memory, rejections = generate_viable_maze(
        rng, objects, grid_cml, config.theta, config.viable_attempt_cap
    )
    planner = object_cml
    record: dict = {"trial": trial, "seed": config.seed, "rejections": rejections}
    if remove_random_door:
        door = maze_mod.DOOR_LABELS[int(rng.integers(0, len(maze_mod.DOOR_LABELS)))]
        planner = mission.remove_door(object_cml, door)
        maze, door_cell = maze_mod.close_door(maze, door)
        record["removed_door"] = door
        record["door_cell"] = list(door_cell)
    policy = semantic_map.encode_policy(config.goal_sequence(), objects, rng)
    result = mission.run_mission(
        MissionContext(
            object_cml=planner,
            grid_cml=grid_cml,
            memory=memory,
            maze=maze,
            policy=policy,
            theta=config.theta,
        )
    )
    record.update(
        {
            "goal_sequence": config.goal_sequence(),
            "success": result.success,
            "failure_reason": result.failure_reason.value,
            "goals": _goal_records(result),
            "steps": result.total_steps,
            "maze": maze_mod.to_text(maze),
        }
    )
    if remove_random_door:
        visited = {tuple(cell) for goal in result.goal_outcomes for cell in goal.grid_path}
        record["visited_removed_cell"] = tuple(record["door_cell"]) in visited
    return record


def grid_only_trial(
    config: ExperimentConfig, grid_cml: GridCml, trial: int
) -> dict:
    rng = trial_rng(config.require_seed(), TAG_GRID_ONLY, trial)
    trial_maze = maze_mod.generate_maze(rng)
    result = mission.run_grid_only(grid_cml, trial_maze)
    leg = result.goal_outcomes[0]
    return {
        "trial": trial,
        "seed": config.seed,
        "success": result.success,
        "failure_reason": result.failure_reason.value,
        "steps": leg.steps,
        "grid_path": [list(cell) for cell in leg.grid_path],
        "dither_cells": [list(cell) for cell in result.dither_cells],
        "maze": maze_mod.to_text(trial_maze),
    }


def viability_trial(
    config: ExperimentConfig, object_cml: cml_mod.Cml, grid_cml: GridCml, trial: int
) -> dict:
    rng = trial_rng(config.require_seed(), TAG_VIABILITY, trial)
    candidate = maze_mod.generate_maze(rng)
    memory = semantic_map.build_map(
        object_cml.state_dictionary(), candidate, grid_cml, rng
    )
    viable = semantic_map.check_viability(memory, config.theta)
    return {
        "trial": trial,
        "seed": config.seed,
        "viable": viable,
        "mission_ready": viable and semantic_map.mission_ready(memory, config.theta),
    }


# --- experiment batches ---------------------------------------------------------

_WORKER_STATE: dict = {}


def _worker_init(config, object_cml, grid_cml) -> None:
    _WORKER_STATE["args"] = (config, object_cml, grid_cml)


def _worker_run(task: tuple[str, int]) -> dict:
    name, trial = task
    config, object_cml, grid_cml = _WORKER_STATE["args"]
    return _run_one(name, config, object_cml, grid_cml, trial)


def _run_one(name, config, object_cml, grid_cml, trial: int) -> dict:
    if name == "mission":
        return mission_trial(config, object_cml, grid_cml, trial)
    if name == "door_removal":
        return mission_trial(config, object_cml, grid_cml, trial, remove_random_door=True)
    if name == "grid_only":
        return grid_only_trial(config, grid_cml, trial)
    if name == "viability":
        return viability_trial(config, object_cml, grid_cml, trial)
    raise ValueError(f"unknown experiment {name!r}")


EXPERIMENT_NAMES = ("mission", "grid_only", "viability", "door_removal")

_TRIAL_COUNTS = {
    "mission": "mission_trials",
    "grid_only": "grid_only_trials",
    "viability": "viability_mazes",
    "door_removal": "door_removal_trials",
}


def run_experiment(
    config: ExperimentConfig,
    name: str,
    object_cml: cml_mod.Cml,
    grid_cml: GridCml,
) -> ExperimentReport:
    """Run one named trial batch and assemble its report."""
    if name not in EXPERIMENT_NAMES:
        raise ValueError(f"unknown experiment {name!r} (choose from {EXPERIMENT_NAMES})")
    config.validate_for_models()
    config.require_seed()
    trials = getattr(config, _TRIAL_COUNTS[name])
    started = time.perf_counter()
    if config.workers > 1:
        with ProcessPoolExecutor(
            max_workers=config.workers,
            initializer=_worker_init,
            initargs=(config, object_cml, grid_cml),
        ) as pool:
            records = list(pool.map(_worker_run, [(name, t) for t in range(trials)]))
    else:
        records = [_run_one(name, config, object_cml, grid_cml, t) for t in range(trials)]
    records.sort(key=lambda r: r["trial"])
    return ExperimentReport(
        experiment=name,
        records=records,
        config=config.as_dict(),
        wall_clock_s=time.perf_counter() - started,
    )


def run_hdc_stats(config: ExperimentConfig) -> ExperimentReport:
    """Similarity statistics of random bipolar pairs at the configured d."""
    config.validate()
    rng = trial_rng(config.require_seed(), TAG_HDC_STATS, 0)
    started = time.perf_counter()
    pairs = config.hdc_pairs
    xs = rng.choice(np.array([-1.0, 1.0]), size=(pairs, config.d))
    ys = rng.choice(np.array([-1.0, 1.0]), size=(pairs, config.d))
    sims = (xs * ys).sum(axis=1) / config.d
    record = {
        "pairs": pairs,
        "d": config.d,
        "mean": float(sims.mean()),
        "std": float(sims.std(ddof=1)),
        "max_abs": float(np.abs(sims).max()),
    }
    report = ExperimentReport(
        experiment="hdc_stats",
        records=[record],
        config=config.as_dict(),
        wall_clock_s=time.perf_counter() - started,
        aggregates=dict(record),
    )
    return report
