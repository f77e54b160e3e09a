"""Seeded experiment suites: training, verification, and the trial batches.

Every trial derives its own generator from (root seed, experiment tag,
trial index), so batches are reproducible record-for-record and can be
farmed out to worker processes without changing any result.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import numpy.random  # loaded now, or its lazy import lands in train's timed build

from . import cml as cml_mod
from . import grid as grid_mod, hdc, maze as maze_mod, mission, persist, semantic_map
from .config import ExperimentConfig
from .grid import DELTAS, DIRECTIONS, GridCml, train_grid
from .mission import FailureReason
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

HDC_PAIRS = 1000  # random pairs behind the similarity statistics
VIABLE_ATTEMPT_CAP = 2000  # maze candidates allowed per mission-ready maze


def trial_rng(seed: int, tag: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, trial])


# --- training and verification ------------------------------------------------


def build_object_cml(config: ExperimentConfig) -> cml_mod.Cml:
    """The object-graph learner: bipolar states, actions calculated exactly."""
    rng = trial_rng(config.require_seed(), TAG_TRAIN, 0)
    return cml_mod.init_calculated(maze_mod.object_graph(), config.d, rng)


def build_grid_cml(config: ExperimentConfig) -> GridCml:
    """The grid learner, trained against Gaussian south and east actions drawn in that order."""
    rng = trial_rng(config.require_seed(), TAG_TRAIN, 1)
    a_s = rng.normal(0.0, 1.0, size=config.d)
    a_e = rng.normal(0.0, 1.0, size=config.d)
    return train_grid(maze_mod.WIDTH, maze_mod.HEIGHT, a_s, a_e)


def verify_object_cml(object_cml: cml_mod.Cml) -> dict:
    """Prove every planned path BFS-shortest for every ordered node pair, by induction.

    ``plan_path`` walks from the recovered start node by ``step``, and
    feeds each prediction ``s_c + a_edge`` back as the current state.  So
    every walk is a shortest one when
    1. every node state recovers to its own node, and every one-step
       prediction ``S[:, src] + A`` to its edge's head (one recovery of
       the stacked states and predictions), and
    2. for every (target, current) pair with target != current, the edge
       the step picks leaves the current node and its head is one hop
       closer to the target.  The picks come from ``cml.best_edges`` and
       ``cml.last_edge``, the rule ``step`` runs, in one call over all
       pairs; the distances from ``cml.bfs_hops``, which reads the
       graph's edges alone, independent of F and G.
    A failure raises ``RuntimeError`` naming the pair.  Returned: the
    pairs checked, the pairs whose tie set has more than one edge, and
    the tie rule's rounding headroom on both sides of ``TIE_TOLERANCE``:
    ``route_margin``, the smallest gap between a pair's picked score and
    its best open edge outside the tie set, and ``tie_spread``, the
    largest spread of scores inside a tie set.
    """
    graph = object_cml.graph
    labels = graph.node_labels
    src, dst = np.array(graph.directed_edges, dtype=int).reshape(-1, 2).T

    def fail(start: int, goal: int, why: str):
        raise RuntimeError(
            f"object model failed verification: {labels[start]}->{labels[goal]}: {why}"
        )

    # node states first, then the prediction of every edge
    stack = np.concatenate([object_cml.S.T, (object_cml.S[:, src] + object_cml.A).T])
    recovered = hdc.recover(stack, object_cml.state_dictionary())
    for node, label in enumerate(recovered[: graph.n]):
        if label != labels[node]:
            fail(node, node, f"the state of {labels[node]} recovers to {label}")
    for edge, label in enumerate(recovered[graph.n :]):
        if label != labels[dst[edge]]:
            fail(src[edge], dst[edge], f"the prediction recovers to {label}")
    index = np.arange(graph.n)
    # (edge, current, target) and (current, target), like hops[start, goal]
    scores = cml_mod.route_scores(object_cml, index[None, :], index[:, None])
    best = cml_mod.best_edges(object_cml, index[None, :], index[:, None])
    pick = cml_mod.last_edge(best)
    # hops[start, goal], -1 where no walk reaches the goal
    oracle = [cml_mod.bfs_hops(graph, s, g) for s in range(graph.n) for g in range(graph.n)]
    hops = np.array([-1 if h is None else h for h in oracle]).reshape(graph.n, graph.n)
    pairs = ~np.eye(graph.n, dtype=bool)
    for start, goal in np.argwhere(pairs & (hops < 0)):
        fail(start, goal, f"no walk reaches {labels[goal]}")
    for start, goal in np.argwhere(pairs & ~best.any(axis=0)):
        fail(start, goal, f"no open edge leaves {labels[start]}")
    closer = (src[pick] == index[:, None]) & (hops[dst[pick], index] == hops - 1)
    for start, goal in np.argwhere(pairs & ~closer):
        edge = pick[start, goal]
        fail(
            start, goal,
            f"the step takes {labels[src[edge]]}->{labels[dst[edge]]}, "
            f"not one hop closer (oracle {hops[start, goal]} hops)",
        )
    picked = np.take_along_axis(scores, pick[None], axis=0)[0]
    runner_up = np.where(best, -np.inf, scores).max(axis=0)  # -inf where every open edge ties
    top = np.where(best, scores, -np.inf).max(axis=0)
    spread = top - np.where(best, scores, np.inf).min(axis=0)
    return {
        "pairs_checked": int(pairs.sum()),
        "tied_pairs": int((pairs & (best.sum(axis=0) > 1)).sum()),
        "route_margin": float((picked - runner_up)[pairs].min(initial=np.inf)),
        "tie_spread": float(spread[pairs].max(initial=0.0)),
    }


def verify_grid_cml(grid_cml: GridCml) -> dict:
    """Prove wall-free navigation Manhattan-optimal for every ordered cell pair.

    From every cell toward every other cell, the move ``grid_step`` picks
    under the robot's own sensors on the wall-free maze (``maze.sense``,
    which closes only the moves off the grid) must shorten the Manhattan
    distance; by induction, every open-grid leg is then a shortest path.
    The picks come from ``grid.moves``, the move rule ``grid_step`` runs,
    in one call over all pairs.
    """
    width, height = grid_cml.width, grid_cml.height
    cells = width * height
    index = np.arange(cells)
    rows, cols = np.divmod(index, width)
    open_grid = maze_mod.Maze(frozenset(), {}, width, height)
    # (W H, 4): the sensor gate of every cell, row-major cell by ``DIRECTIONS``
    gate = np.stack([maze_mod.sense(open_grid, divmod(i, width)) for i in range(cells)])
    # pick[current, target]
    pick = grid_mod.moves(grid_cml, index[None, :], index[:, None], gate[:, None])
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


def train_and_save(config: ExperimentConfig) -> dict:
    """Calculate the object model and train the grid model, verify both, then persist.

    Both come from the one configured seed.  Neither file, nor the models
    directory, is written until both models are proved, so a failed proof
    leaves the directory's previous pair, whatever its seed, as it was.
    Each model's info also gives the wall time of its phases in seconds:
    ``build_s`` (the object model's build) or ``train_s`` (the grid's
    training), then ``verify_s`` (its proof) and ``save_s``.  The times
    are for the caller to print; no model file holds them.
    """
    config.validate_for_models()
    config.require_seed()
    started = time.perf_counter()
    object_cml = build_object_cml(config)
    built = time.perf_counter()
    object_info = verify_object_cml(object_cml)
    proved = time.perf_counter()
    grid_cml = build_grid_cml(config)
    trained = time.perf_counter()
    grid_info = verify_grid_cml(grid_cml)
    verified = time.perf_counter()
    config.models_dir.mkdir(parents=True, exist_ok=True)
    persist.save_cml(object_cml, config.models_dir / OBJECT_MODEL_FILE)
    saved = time.perf_counter()
    persist.save_grid_cml(grid_cml, config.models_dir / GRID_MODEL_FILE)
    grid_saved = time.perf_counter()
    return {
        "object": {
            **object_info,
            "path": str(config.models_dir / OBJECT_MODEL_FILE),
            "build_s": built - started,
            "verify_s": proved - built,
            "save_s": saved - verified,
        },
        "grid": {
            **grid_info,
            "path": str(config.models_dir / GRID_MODEL_FILE),
            "train_s": trained - proved,
            "verify_s": verified - trained,
            "save_s": grid_saved - saved,
        },
    }


def load_models(config: ExperimentConfig) -> tuple[cml_mod.Cml, GridCml]:
    """The persisted models; ``ValueError`` if they do not fit the maze, each other or the config."""
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
    # labels, their order, the edges and the edge order: the tie rule takes the last tied edge
    if object_cml.graph != maze_mod.object_graph():
        raise ValueError("object model graph is not the maze's object graph")
    if (grid_cml.width, grid_cml.height) != (maze_mod.WIDTH, maze_mod.HEIGHT):
        raise ValueError(
            f"grid model is {grid_cml.width}x{grid_cml.height}, "
            f"the maze {maze_mod.WIDTH}x{maze_mod.HEIGHT}"
        )
    if object_cml.d != grid_cml.d:
        raise ValueError(f"object model d={object_cml.d} differs from grid model d={grid_cml.d}")
    if object_cml.d != config.d:
        raise ValueError(f"models have d={object_cml.d}, the config d={config.d}")
    return object_cml, grid_cml


# --- per-trial workers ----------------------------------------------------------


def generate_viable_maze(
    rng: np.random.Generator, objects: hdc.Dictionary, grid_cml: GridCml
) -> tuple[maze_mod.Maze, MapMemory, int]:
    """Regenerate mazes until the map is fully usable for a mission.

    Mission readiness subsumes the viability check: position recovery
    and arrival-cell object recovery must both be unambiguous for all
    eight objects.  Returned: the ready maze, its map and the candidates
    rejected before it; or, when all ``VIABLE_ATTEMPT_CAP`` candidates
    are rejected, the last of them, its map and the cap.
    """
    for rejections in range(VIABLE_ATTEMPT_CAP):
        candidate = maze_mod.generate_maze(rng)
        memory = semantic_map.build_map(objects, candidate, grid_cml, rng)
        if semantic_map.mission_ready(memory):
            return candidate, memory, rejections
    return candidate, memory, VIABLE_ATTEMPT_CAP


def mission_trial(
    config: ExperimentConfig,
    object_cml: cml_mod.Cml,
    grid_cml: GridCml,
    trial: int,
    remove_random_door: bool = False,
) -> dict:
    """One sequential-goal mission on a mission-ready maze, optionally with a door closed.

    The trial succeeds only when the goals the policy revealed are the
    configured goal sequence, each reached; a policy that reveals fewer
    (or other) goals is an ``unrecoverable_state``.  The record's ``goals``
    are the entries ``mission.run_mission`` returns, stored unchanged, and
    its ``steps`` their sum; with a door closed, ``visited_removed_cell``
    says whether any entry's grid path crosses the door's cell.  A trial
    whose maze search meets ``VIABLE_ATTEMPT_CAP`` is a ``no_ready_maze``
    on the last candidate, with no door closed and no goals.
    """
    tag = TAG_DOOR_REMOVAL if remove_random_door else TAG_MISSION
    rng = trial_rng(config.require_seed(), tag, trial)
    objects = object_cml.state_dictionary()
    maze, memory, rejections = generate_viable_maze(rng, objects, grid_cml)
    record: dict = {"trial": trial, "seed": config.seed, "rejections": rejections}
    goals = config.goal_sequence()
    entries, failure = [], FailureReason.NO_READY_MAZE
    if rejections < VIABLE_ATTEMPT_CAP:
        planner = object_cml
        if remove_random_door:
            door = maze_mod.DOOR_LABELS[int(rng.integers(0, len(maze_mod.DOOR_LABELS)))]
            planner = mission.remove_door(object_cml, door)
            maze, door_cell = maze_mod.close_door(maze, door)
            record["removed_door"] = door
            record["door_cell"] = list(door_cell)
        policy = semantic_map.encode_policy(goals, objects, rng)
        entries, failure = mission.run_mission(planner, memory, maze, policy)
        if failure is FailureReason.NONE and [entry["goal"] for entry in entries] != goals:
            failure = FailureReason.UNRECOVERABLE_STATE  # the policy revealed other goals
    record.update(
        {
            "goal_sequence": goals,
            "success": failure is FailureReason.NONE,
            "failure_reason": failure.value,
            "goals": entries,
            "steps": sum(entry["steps"] for entry in entries),
            "maze": maze_mod.to_text(maze),
        }
    )
    if remove_random_door:
        record["visited_removed_cell"] = any(
            record["door_cell"] in entry["grid_path"] for entry in entries
        )
    return record


def grid_only_trial(
    config: ExperimentConfig, grid_cml: GridCml, trial: int
) -> dict:
    """Key-to-treasure traversal with the grid layer and sensors alone.

    No object graph, no map: one grid leg from the key's cell to the
    treasure's.  Greedy utility steering cannot see doors displaced from
    its straight line, so a sizeable fraction of mazes ends in a
    dithering abort; the record names the walk's last two cells.
    """
    rng = trial_rng(config.require_seed(), TAG_GRID_ONLY, trial)
    trial_maze = maze_mod.generate_maze(rng)
    key, treasure = trial_maze.placements["k"], trial_maze.placements["t"]
    path, reason = mission.grid_leg(
        grid_cml, trial_maze, key, treasure, mission.grid_step_cap(trial_maze)
    )
    dither = path[-2:] if reason is FailureReason.DITHER_ABORT else []
    return {
        "trial": trial,
        "seed": config.seed,
        "success": reason is FailureReason.NONE,
        "failure_reason": reason.value,
        "steps": len(path) - 1,
        "grid_path": [list(cell) for cell in path],
        "dither_cells": [list(cell) for cell in dither],
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
    viable = semantic_map.check_viability(memory)
    return {
        "trial": trial,
        "seed": config.seed,
        "viable": viable,
        "mission_ready": viable and semantic_map.check_arrivals(memory),
    }


# --- experiment batches ---------------------------------------------------------

_WORKER_STATE: dict = {}


def _worker_init(config, object_cml, grid_cml) -> None:
    _WORKER_STATE["args"] = (config, object_cml, grid_cml)


def _worker_run(task: tuple[str, int]) -> dict:
    name, trial = task
    return EXPERIMENTS[name][1](*_WORKER_STATE["args"], trial)


# name -> (config field of its trial count, trial(config, object_cml, grid_cml, trial));
# the CLI choices and the reproduction script follow this order
EXPERIMENTS = {
    "mission": ("mission_trials", mission_trial),
    "grid_only": (
        "grid_only_trials",
        lambda config, _object_cml, grid_cml, trial: grid_only_trial(config, grid_cml, trial),
    ),
    "viability": ("viability_mazes", viability_trial),
    "door_removal": ("door_removal_trials", partial(mission_trial, remove_random_door=True)),
}


def run_experiment(
    config: ExperimentConfig,
    name: str,
    object_cml: cml_mod.Cml,
    grid_cml: GridCml,
) -> ExperimentReport:
    """Run one named trial batch and assemble its report."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r} (choose from {tuple(EXPERIMENTS)})")
    config.validate_for_models()
    config.require_seed()
    count_field, run_trial = EXPERIMENTS[name]
    trials = getattr(config, count_field)
    started = time.perf_counter()
    if config.workers > 1:
        with ProcessPoolExecutor(
            max_workers=min(config.workers, trials),
            initializer=_worker_init,
            initargs=(config, object_cml, grid_cml),
        ) as pool:
            records = list(pool.map(_worker_run, [(name, t) for t in range(trials)]))
    else:
        records = [run_trial(config, object_cml, grid_cml, t) for t in range(trials)]
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
    xs = hdc.random_bipolar(HDC_PAIRS * config.d, rng).reshape(HDC_PAIRS, config.d)
    ys = hdc.random_bipolar(HDC_PAIRS * config.d, rng).reshape(HDC_PAIRS, config.d)
    sims = (xs * ys).sum(axis=1) / config.d
    record = {
        "pairs": HDC_PAIRS,
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
