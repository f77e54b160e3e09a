"""Seeded experiment suites: training, verification, and the trial batches.

Every trial derives its own stream of random words from (root seed,
experiment tag, trial index) and draws only from it, so batches are
reproducible record-for-record and can be farmed out to worker processes
without changing any result: a pool sends each worker one chunk of trial
indices (see ``run_experiment``).
"""

from __future__ import annotations

import time
from functools import lru_cache, partial

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
TRIAL_BLOCK = 1024  # trials per seed table; it divides 2**32


def trial_rng(seed: int, tag: int, trial: int) -> hdc.Stream:
    """The trial's stream: ``default_rng([seed, tag, trial])``'s ``PCG64``, in an ``hdc.Stream``.

    numpy seeds that generator through ``SeedSequence``, a fixed uint32 hash
    (O'Neill's ``seed_seq_fe``, kept stable by NEP 19) of the list's 32-bit
    words.  So ``seed_table`` hashes an aligned block of ``TRIAL_BLOCK``
    trials at once, in uint32 array arithmetic, into the four uint64 words
    ``PCG64`` seeds from for each trial; the trial's stream then costs only
    its ``PCG64``, seeded from a ``TrialSeed`` that holds its row.  Every
    draw of the trial reads the stream's words, which are the words
    ``default_rng``'s methods read, so a trial's records rest only on
    ``SeedSequence`` and ``PCG64``.
    """
    block, row = divmod(trial, TRIAL_BLOCK)
    return hdc.Stream(np.random.PCG64(TrialSeed(seed_table(seed, tag, block)[row])))


class TrialSeed(np.random.bit_generator.ISeedSequence):
    """One trial's row of a seed table: the words ``generate_state(4, np.uint64)``
    gives, the only request ``PCG64`` makes of its seed sequence."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.state


# seed_seq_fe's constants, as numpy's SeedSequence has them (pool of 4 words)
_WORD_MASK = 0xFFFFFFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the hash that fills and mixes the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the hash that reads state words out of it
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """numpy's 32-bit words of an int, lowest first; 0 is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _WORD_MASK]
    while n := n >> 32:
        words.append(n & _WORD_MASK)
    return words


def _hasher(const: int, mult: int):
    """seed_seq_fe's hashmix: each call xors its words with the running constant,
    steps the constant by ``mult``, multiplies by it and folds the top half in."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _WORD_MASK
        value = value * const
        return value ^ value >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> 16


@lru_cache(maxsize=4)
def seed_table(seed: int, tag: int, block: int) -> np.ndarray:
    """The ``PCG64`` seed words of trials ``block * TRIAL_BLOCK`` onwards: a
    read-only (TRIAL_BLOCK, 4) uint64 table, one row per trial.

    The block's trials differ only in the low 10 bits of the trial's lowest word,
    as TRIAL_BLOCK divides 2**32, so they have one word count and each row hashes
    the same word list but for that one column, through the ``SeedSequence`` pool
    to the words read out of it.  The first row is checked against numpy's own
    ``SeedSequence``: its words are hashed from the pool, so a numpy that hashes
    either step otherwise raises here rather than forking the streams.
    """
    head = _words(seed) + _words(tag)
    entropy = head + _words(block * TRIAL_BLOCK)
    words = np.repeat(np.array(entropy, dtype=np.uint32)[:, None], TRIAL_BLOCK, axis=1)
    words[len(head)] += np.arange(TRIAL_BLOCK, dtype=np.uint32)
    # fill the pool from the first words (zeros past the list's end), mix every
    # pool word into every other, then mix each remaining word into all of them
    hashmix = _hasher(_INIT_A, _MULT_A)
    fill = list(words[:_POOL_WORDS])
    fill += [np.zeros(TRIAL_BLOCK, dtype=np.uint32)] * (_POOL_WORDS - len(fill))
    pool = [hashmix(word) for word in fill]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight words read cyclically, little end first
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % _POOL_WORDS]).astype(np.uint64) for i in range(8)]
    states = np.stack([halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)], axis=1)
    reference = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
    if states[0].tolist() != reference.tolist():
        raise RuntimeError(f"numpy's SeedSequence no longer hashes {entropy} as seed_table does")
    states.flags.writeable = False
    return states


# --- training and verification ------------------------------------------------


def build_object_cml(config: ExperimentConfig) -> cml_mod.Cml:
    """The object-graph learner: bipolar states, actions calculated exactly."""
    stream = trial_rng(config.require_seed(), TAG_TRAIN, 0)
    return cml_mod.init_calculated(maze_mod.object_graph(), config.d, stream)


def build_grid_cml(config: ExperimentConfig) -> GridCml:
    """The grid learner, trained against Gaussian south and east actions drawn in that order.

    The two normals are the package's one draw through a ``Generator`` method:
    a fresh ``Generator`` on the stream's ``PCG64``, which reads no word first.
    """
    rng = np.random.Generator(trial_rng(config.require_seed(), TAG_TRAIN, 1).bit_generator)
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
       closer to the target.  The picks come from ``cml.route_scores``,
       ``cml.best_edges`` and ``cml.last_edge``, the rule ``step`` runs,
       each called once over all pairs; the distances from the graph's
       ``hops`` table, which reads its edges alone, independent of F and G.
    A failure raises ``RuntimeError`` naming the pair.  A one-node graph
    has no pair to prove and no edge to score: 0 pairs, an inf margin and
    a scale of 0.  Returned: the
    pairs checked, the pairs whose tie set has more than one edge,
    ``route_margin``, the smallest lead of a pair's pick over its best open
    edge outside the tie set (inf when no pair has such an edge), and
    ``flow_scale``, the integer table's scale, read off its defining
    property ``B F B = scale B``.  The scores are integers, so the margin is
    exact: ``route_margin / flow_scale`` of the unit flow.
    """
    graph = object_cml.graph
    labels = graph.node_labels
    src, dst, hops = graph.src, graph.dst, graph.hops  # hops -1 where no walk reaches the goal

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
    best = cml_mod.best_edges(scores)
    pairs = ~np.eye(graph.n, dtype=bool)
    for start, goal in np.argwhere(pairs & (hops < 0)):
        fail(start, goal, f"no walk reaches {labels[goal]}")
    for start, goal in np.argwhere(pairs & ~best.any(axis=0)):
        fail(start, goal, f"no open edge leaves {labels[start]}")
    if not pairs.any():  # one node: numpy takes no argmax or max over its empty edge axis
        return {"pairs_checked": 0, "tied_pairs": 0, "route_margin": np.inf, "flow_scale": 0}
    pick = cml_mod.last_edge(best)  # every pair has a tie set by now
    closer = (src[pick] == index[:, None]) & (hops[dst[pick], index] == hops - 1)
    for start, goal in np.argwhere(pairs & ~closer):
        edge = pick[start, goal]
        fail(
            start, goal,
            f"the step takes {labels[src[edge]]}->{labels[dst[edge]]}, "
            f"not one hop closer (oracle {hops[start, goal]} hops)",
        )
    # every edge of a tie set scores the best; the runner-up is -inf where every open edge ties
    runner_up = np.where(best, -np.inf, scores).max(axis=0)
    return {
        "pairs_checked": int(pairs.sum()),
        "tied_pairs": int((pairs & (best.sum(axis=0) > 1)).sum()),
        "route_margin": float((scores.max(axis=0) - runner_up)[pairs].min(initial=np.inf)),
        "flow_scale": int((graph.B @ graph.F @ graph.B).max()),
    }


def verify_grid_cml(grid_cml: GridCml) -> dict:
    """Prove wall-free navigation Manhattan-optimal for every ordered cell pair.

    From every cell toward every other cell, the move ``grid_step`` picks
    under the robot's own sensors on the wall-free maze (its ``gates``
    table, which closes only the moves off the grid) must shorten the
    Manhattan distance; by induction, every open-grid leg is then a
    shortest path.
    The picks come from ``grid.moves``, the move rule ``grid_step`` runs,
    in one call over all pairs.
    """
    cells = grid_cml.width * grid_cml.height
    index = np.arange(cells)
    rows, cols = grid_cml.cell(index)
    gate = maze_mod.Maze(frozenset(), {}, grid_cml.width, grid_cml.height).gates[rows, cols]
    # pick[current, target]
    pick = grid_mod.moves(grid_cml, index[None, :], index[:, None], gate[:, None])
    dr, dc = np.array([DELTAS[direction] for direction in DIRECTIONS]).T
    # a unit move shortens the Manhattan distance iff it points along target - current
    progress = dr[pick] * (rows - rows[:, None]) + dc[pick] * (cols - cols[:, None])
    failed = np.argwhere((progress <= 0) & ~np.eye(cells, dtype=bool))
    if len(failed):
        start, goal = (grid_cml.cell(int(index)) for index in failed[0])
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
    Each model's info also gives the wall time of its phases, ``phases``:
    seconds by label, in the order ``train`` prints them, ``build`` (the
    object model's) or ``training`` (the grid's), then ``proof`` and
    ``save``.  No model file holds the times.
    """
    config.validate_for_models()
    config.require_seed()
    models = config.models_dir
    paths = {"object": models / OBJECT_MODEL_FILE, "grid": models / GRID_MODEL_FILE}
    info = {kind: {"path": str(path), "phases": {}} for kind, path in paths.items()}

    def timed(kind: str, phase: str, work, *args):
        started = time.perf_counter()
        result = work(*args)
        info[kind]["phases"][phase] = time.perf_counter() - started
        return result

    object_cml = timed("object", "build", build_object_cml, config)
    info["object"].update(timed("object", "proof", verify_object_cml, object_cml))
    grid_cml = timed("grid", "training", build_grid_cml, config)
    info["grid"].update(timed("grid", "proof", verify_grid_cml, grid_cml))
    models.mkdir(parents=True, exist_ok=True)
    timed("object", "save", persist.save_cml, object_cml, paths["object"])
    timed("grid", "save", persist.save_grid_cml, grid_cml, paths["grid"])
    return info


def load_models(config: ExperimentConfig) -> tuple[cml_mod.Cml, GridCml]:
    """The persisted models; ``ValueError`` if they do not fit each other or the config.

    ``persist.load_model`` puts the object signs on the maze's object graph
    and the grid chains on its shape, and refuses an object entry other
    than +1 or -1; here the pair is also refused when the files' kinds are
    swapped, a grid sign is 0, or the two ``d`` differ from each other or
    from the config's.
    """
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
    # a map is the sign of eight +-1 terms and a +-1 tie-break, an odd sum, only while
    # no cell state has a zero coordinate; then every map is +-1 and |map * v| = |v|
    if not grid_cml.signs.all():
        raise ValueError("grid model sign patterns are not all +1 or -1: a state has a zero")
    if object_cml.d != grid_cml.d:
        raise ValueError(f"object model d={object_cml.d} differs from grid model d={grid_cml.d}")
    if object_cml.d != config.d:
        raise ValueError(f"models have d={object_cml.d}, the config d={config.d}")
    return object_cml, grid_cml


# --- per-trial workers ----------------------------------------------------------


def generate_viable_maze(
    stream: hdc.Stream, objects: hdc.Dictionary, grid_cml: GridCml
) -> tuple[maze_mod.Maze, MapMemory, int]:
    """Regenerate mazes until the map is fully usable for a mission.

    Mission readiness subsumes the viability check: position recovery
    and arrival-cell object recovery must both be unambiguous for all
    eight objects.  Returned: the ready maze, its map and the candidates
    rejected before it; or, when all ``VIABLE_ATTEMPT_CAP`` candidates
    are rejected, the last of them, its map and the cap.
    """
    for rejections in range(VIABLE_ATTEMPT_CAP):
        candidate = maze_mod.generate_maze(stream)
        memory = semantic_map.build_map(objects, candidate, grid_cml, stream)
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
    stream = trial_rng(config.require_seed(), tag, trial)
    objects = object_cml.state_dictionary()
    maze, memory, rejections = generate_viable_maze(stream, objects, grid_cml)
    record: dict = {"trial": trial, "seed": config.seed, "rejections": rejections}
    goals = config.goal_sequence()
    entries, failure = [], FailureReason.NO_READY_MAZE
    if rejections < VIABLE_ATTEMPT_CAP:
        planner = object_cml
        if remove_random_door:
            door = maze_mod.DOOR_LABELS[stream.below(len(maze_mod.DOOR_LABELS))]
            planner = mission.remove_door(object_cml, door)
            maze, door_cell = maze_mod.close_door(maze, door)
            record["removed_door"] = door
            record["door_cell"] = list(door_cell)
        policy = semantic_map.encode_policy(goals, objects, stream)
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
    config: ExperimentConfig, object_cml: cml_mod.Cml, grid_cml: GridCml, trial: int
) -> dict:
    """Key-to-treasure traversal with the grid layer and sensors alone.

    No object graph, no map: one grid leg from the key's cell to the
    treasure's (the object model, taken as by every trial, goes unread).
    Greedy utility steering cannot see doors displaced from its straight
    line, so a sizeable fraction of mazes ends in a dithering abort; the
    record names the walk's last two cells.
    """
    trial_maze = maze_mod.generate_maze(trial_rng(config.require_seed(), TAG_GRID_ONLY, trial))
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
    stream = trial_rng(config.require_seed(), TAG_VIABILITY, trial)
    candidate = maze_mod.generate_maze(stream)
    memory = semantic_map.build_map(
        object_cml.state_dictionary(), candidate, grid_cml, stream
    )
    viable = semantic_map.check_viability(memory)
    return {
        "trial": trial,
        "seed": config.seed,
        "viable": viable,
        "mission_ready": viable and semantic_map.check_arrivals(memory),
    }


# --- experiment batches ---------------------------------------------------------

# name -> (config field of its trial count, trial(config, object_cml, grid_cml, trial));
# the CLI choices follow this order
EXPERIMENTS = {
    "mission": ("mission_trials", mission_trial),
    "grid_only": ("grid_only_trials", grid_only_trial),
    "viability": ("viability_mazes", viability_trial),
    "door_removal": ("door_removal_trials", partial(mission_trial, remove_random_door=True)),
}


def run_experiment(
    config: ExperimentConfig,
    name: str,
    object_cml: cml_mod.Cml,
    grid_cml: GridCml,
) -> ExperimentReport:
    """Run one named trial batch and assemble its report.

    At ``workers > 1`` a pool of at most one worker per trial maps the
    trial, with the config and models bound, over ``range(trials)`` in
    ``ceil(trials / workers)``-trial chunks: the models travel at most
    once per worker, and the records come back in trial order.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r} (choose from {tuple(EXPERIMENTS)})")
    config.validate_for_models()
    config.require_seed()
    count_field, run_trial = EXPERIMENTS[name]
    trials = getattr(config, count_field)
    started = time.perf_counter()
    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool reads it

        workers = min(config.workers, trials)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            task = partial(run_trial, config, object_cml, grid_cml)
            records = list(pool.map(task, range(trials), chunksize=-(-trials // workers)))
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
    stream = trial_rng(config.require_seed(), TAG_HDC_STATS, 0)
    started = time.perf_counter()
    xs = hdc.random_bipolar(HDC_PAIRS * config.d, stream).reshape(HDC_PAIRS, config.d)
    ys = hdc.random_bipolar(HDC_PAIRS * config.d, stream).reshape(HDC_PAIRS, config.d)
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
