import concurrent.futures
import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import position
from hdnav import cml, experiments, maze as mz, persist, semantic_map as sm
from hdnav.config import ExperimentConfig
from hdnav.grid import GridCml
from hdnav.reports import recompute_aggregates, wilson_interval
from test_cml import with_flow


def small(config, **kw):
    return dataclasses.replace(config, **kw)


def test_verify_grid_rejects_swapped_chain_entries(grid_cml, open_grid_steps):
    y = grid_cml.y.copy()
    y[[3, 4]] = y[[4, 3]]
    broken = GridCml(x=grid_cml.x, y=y, a_s=grid_cml.a_s, a_e=grid_cml.a_e)
    with pytest.raises(RuntimeError, match="failed verification") as failure:
        experiments.verify_grid_cml(broken)
    named = re.search(r"\((\d+), (\d+)\)->\((\d+), (\d+)\)", str(failure.value))
    r0, c0, r1, c1 = map(int, named.groups())
    # the named pair really is walked off a shortest path
    steps = open_grid_steps(broken, (r0, c0), (r1, c1))
    assert steps != abs(r0 - r1) + abs(c0 - c1)


def test_verify_grid_gates_the_border(open_grid_steps):
    # on a 1x3 grid whose south/north actions outscore east/west along the
    # row, only the border gate keeps the picks on the grid, as the touch
    # sensors do on a walk
    a_e = np.ones(4)
    row_grid = GridCml(x=np.zeros(1), y=np.arange(3.0), a_s=2 * a_e, a_e=a_e)
    assert experiments.verify_grid_cml(row_grid) == {"pairs_checked": 6}
    for start in range(3):
        for goal in range(3):
            steps = open_grid_steps(row_grid, (0, start), (0, goal))
            assert steps == abs(start - goal)


def test_verify_grid_rejects_a_wrong_pick_on_the_border(open_grid_steps):
    # columns 1 and 2 share one east coordinate, so between them every utility
    # is 0 and the lowest open direction wins: east from column 1, which is
    # right, but east is off the grid in column 2, where the pick is south
    # (north on the bottom row) instead of west
    flat = GridCml(
        x=np.arange(3.0), y=np.array([0.0, 1.0, 1.0]),
        a_s=np.array([1.0, 0.0]), a_e=np.array([0.0, 1.0]),
    )
    with pytest.raises(RuntimeError, match=r"\(0, 2\)->\(0, 1\)"):
        experiments.verify_grid_cml(flat)
    assert open_grid_steps(flat, (1, 1), (1, 2)) == 1
    for row in range(3):
        assert open_grid_steps(flat, (row, 2), (row, 1)) is None


def test_verify_grid_rejects_sideways_first_step(open_grid_steps):
    # with a_e = 2 a_s, toward a target straight south the east utility
    # outscores the south one, so the first step from (0, 0) goes sideways
    a_s = np.ones(4)
    skewed = GridCml(x=np.arange(2.0), y=np.arange(2.0), a_s=a_s, a_e=2 * a_s)
    with pytest.raises(RuntimeError, match=r"\(0, 0\)->\(1, 0\)"):
        experiments.verify_grid_cml(skewed)
    assert open_grid_steps(skewed, (0, 0), (1, 0)) is None


def seeded_object_cml(seed):
    return experiments.build_object_cml(ExperimentConfig(seed=seed))


def walked_proof(model):
    """The per-pair walk the table proof replaced: (pairs, tied pairs, first edge of each pair).

    ``plan_path`` from every node to every other must take ``graph.hops``
    steps, and its first hop must be the head of the edge ``step`` takes;
    ties are counted per pair as the open edges whose integer flow equals
    the best.
    """
    graph = model.graph
    checked = tied = 0
    first = np.zeros((graph.n, graph.n), dtype=int)
    for start in range(graph.n):
        for goal in range(graph.n):
            if start == goal:
                continue
            path = cml.plan_path(model, model.S[:, goal], model.S[:, start])
            assert path is not None and len(path) - 1 == graph.hops[start, goal]
            edge = cml.step(model, model.S[:, goal], model.S[:, start]).chosen_edge
            assert path[1] == graph.node_labels[graph.directed_edges[edge][1]]
            first[start, goal] = edge
            checked += 1
            legal = np.nonzero(model.G[:, start])[0]
            u = model.graph.F[legal, goal] - model.graph.F[legal, start]
            tied += np.count_nonzero(u == u.max()) > 1
    return checked, tied, first


@pytest.mark.parametrize("seed", [42, 1, 2, 3, 4, 5])
def test_verify_object_matches_the_walk_it_replaced(monkeypatch, seed):
    model = seeded_object_cml(seed)
    # the pick table the proof builds, read from its one call of the step's rule
    tables = []
    last_edge = cml.last_edge

    def recorded(best):
        tables.append(last_edge(best))
        return tables[-1]

    monkeypatch.setattr(cml, "last_edge", recorded)
    info = experiments.verify_object_cml(model)
    monkeypatch.undo()
    (picks,) = tables
    checked, tied, first = walked_proof(model)
    assert (info["pairs_checked"], info["tied_pairs"]) == (checked, tied) == (56, 14)
    off_diagonal = ~np.eye(model.graph.n, dtype=bool)
    assert np.array_equal(picks[off_diagonal], first[off_diagonal])


@pytest.mark.parametrize("seed", [42, 7, 11, 1001])
def test_tie_rule_has_rounding_headroom_on_both_sides(seed):
    model = seeded_object_cml(seed)
    info = experiments.verify_object_cml(model)
    # ties are equal integers; every other open edge trails the pick by exactly 64 units
    # of the table's 8448, 1/132 of the unit flow
    assert (info["route_margin"], info["flow_scale"]) == (64, 8448)
    # the float table the integers are rounded from lies within 1e-9 of them, so half a
    # unit of headroom on either side
    graph = model.graph
    assert graph.F.dtype == int
    assert np.abs(8448 * np.linalg.pinv(graph.B) - graph.F).max() < 1e-9


def test_verify_object_rejects_a_prediction_that_recovers_elsewhere(object_cml):
    # the k->a action lands on t: the walk k->a still reads two labels, the proof does not
    graph = object_cml.graph
    k, a, t = (graph.node_index(label) for label in "kat")
    A = object_cml.A.copy()
    A[:, graph.directed_edges.index((k, a))] = object_cml.S[:, t] - object_cml.S[:, k]
    with pytest.raises(RuntimeError, match=r"failed verification: k->a: .*recovers to t"):
        experiments.verify_object_cml(dataclasses.replace(object_cml, A=A))


def test_verify_object_rejects_an_unreachable_pair(rng):
    two_parts = cml.CmlGraph.from_undirected(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    model = cml.init_calculated(two_parts, 256, rng)
    with pytest.raises(RuntimeError, match=r"failed verification: a->c: no walk reaches c"):
        experiments.verify_object_cml(model)
    assert cml.plan_path(model, model.state("c"), model.state("a")) is None


def test_verify_object_rejects_a_graph_with_no_edge(rng):
    model = cml.init_calculated(cml.CmlGraph(("a", "b"), ()), 256, rng)
    with pytest.raises(RuntimeError, match=r"failed verification: a->b: no walk reaches b"):
        experiments.verify_object_cml(model)


def test_verify_object_proves_a_one_node_graph_with_no_pair(rng):
    # no pair to prove and no edge to score, so nothing for numpy to reduce: 0 pairs
    model = cml.init_calculated(cml.CmlGraph(("a",), ()), 256, rng)
    info = experiments.verify_object_cml(model)
    assert info == {"pairs_checked": 0, "tied_pairs": 0, "route_margin": np.inf, "flow_scale": 0}
    assert cml.plan_path(model, model.state("a"), model.state("a")) == ["a"]


def test_verify_object_rejects_a_node_with_every_gate_closed(object_cml):
    G = object_cml.G.copy()
    G[:, object_cml.graph.node_index("h")] = 0.0
    closed = dataclasses.replace(object_cml, G=G)
    with pytest.raises(RuntimeError, match=r"failed verification: h->a: no open edge leaves h"):
        experiments.verify_object_cml(closed)
    assert cml.plan_path(closed, closed.state("a"), closed.state("h")) is None


def test_verify_object_rejects_a_step_away_from_the_target(object_cml):
    # a negated flow table routes every step away: the first pair fails, and its walk too
    away = with_flow(object_cml, -object_cml.graph.F)
    with pytest.raises(RuntimeError, match=r"failed verification: a->b: .*not one hop closer"):
        experiments.verify_object_cml(away)
    assert cml.plan_path(away, away.state("b"), away.state("a")) is None


@pytest.mark.parametrize("seed", [0, 7, 42, 2**32 - 1, 2**32, 2**40 + 3, 2**64])
def test_trial_rng_is_the_generator_of_the_entropy_list(seed):
    # whatever the word counts of seed, tag and trial, and on either side of a seed
    # table's block edge, the stream's position and its words are those of
    # default_rng([seed, tag, trial])
    for tag, trial in (
        (0, 0),
        (experiments.TAG_MISSION, 5),
        (experiments.TAG_TRAIN, 2**32 - 1),
        (experiments.TAG_VIABILITY, 1023),
        (experiments.TAG_VIABILITY, 1024),
        (experiments.TAG_MISSION, 2**32),
        (experiments.TAG_MISSION, 2**32 + 1025),
        (2**32, 7),
    ):
        ours = experiments.trial_rng(seed, tag, trial)
        theirs = np.random.default_rng([seed, tag, trial])
        assert position(ours) == position(theirs)
        assert ours.words(8).tolist() == theirs.integers(0, 2**32, size=8, dtype=np.uint32).tolist()


@pytest.mark.parametrize("entropy", [(-1, 0, 0), (42, -1, 0), (42, 0, -1), (42, 0, -1025)])
def test_trial_rng_refuses_a_negative_int(entropy):
    # as numpy does; a word split that shifts a negative int never reaches 0
    with pytest.raises(ValueError):
        np.random.default_rng(list(entropy))
    with pytest.raises(ValueError):
        experiments.trial_rng(*entropy)


def test_trial_rng_does_not_depend_on_the_cached_blocks():
    # a trial's stream is the same built cold, warm, or after its block was evicted
    trial = 3 * experiments.TRIAL_BLOCK + 17
    experiments.seed_table.cache_clear()
    cold = position(experiments.trial_rng(42, experiments.TAG_VIABILITY, trial))
    assert cold == position(np.random.default_rng([42, experiments.TAG_VIABILITY, trial]))
    assert position(experiments.trial_rng(42, experiments.TAG_VIABILITY, trial)) == cold
    for block in range(experiments.seed_table.cache_info().maxsize + 1):
        experiments.trial_rng(42, experiments.TAG_MISSION, block * experiments.TRIAL_BLOCK)
    assert experiments.seed_table.cache_info().currsize == experiments.seed_table.cache_info().maxsize
    assert position(experiments.trial_rng(42, experiments.TAG_VIABILITY, trial)) == cold
    experiments.seed_table.cache_clear()
    assert position(experiments.trial_rng(42, experiments.TAG_VIABILITY, trial)) == cold
    rows = experiments.seed_table(42, experiments.TAG_VIABILITY, 3)
    assert not rows.flags.writeable


def test_seed_table_refuses_a_numpy_that_hashes_otherwise(monkeypatch):
    # the first row is checked against numpy's own SeedSequence: one flipped bit in
    # its words raises rather than seeding every trial of the block from other words
    class Flipped(np.random.SeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return super().generate_state(n_words, dtype) ^ dtype(1)

    experiments.seed_table.cache_clear()
    monkeypatch.setattr(np.random, "SeedSequence", Flipped)
    with pytest.raises(RuntimeError, match="no longer hashes"):
        experiments.trial_rng(42, experiments.TAG_VIABILITY, 5)
    monkeypatch.undo()
    assert experiments.seed_table.cache_info().currsize == 0


def test_viable_maze_generation_counts_rejections(object_cml, grid_cml):
    rng = experiments.trial_rng(42, experiments.TAG_MISSION, 0)
    maze, memory, rejections = experiments.generate_viable_maze(
        rng, object_cml.state_dictionary(), grid_cml
    )
    assert rejections >= 0
    assert sm.check_viability(memory)


def test_each_candidate_makes_one_maze_and_one_map(config, object_cml, grid_cml, monkeypatch):
    # perfbench's traced count rule: maze.generate_maze and semantic_map.build_map,
    # called through the bindings experiments uses, run once per candidate, and the
    # records say how many candidates there were, sum(rejections + 1)
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(experiments.maze_mod, "generate_maze")
    count(experiments.semantic_map, "build_map")
    records = [experiments.mission_trial(config, object_cml, grid_cml, t) for t in range(3)]
    records += [
        experiments.mission_trial(config, object_cml, grid_cml, t, remove_random_door=True)
        for t in range(3)
    ]
    records += [experiments.viability_trial(config, object_cml, grid_cml, t) for t in range(20)]
    candidates = sum(record.get("rejections", 0) + 1 for record in records)
    assert candidates > len(records)  # the mission trials rejected candidates
    assert calls == {"generate_maze": candidates, "build_map": candidates}


def test_viable_attempt_cap_has_headroom_across_seeds(config, object_cml, grid_cml):
    # a mission trial fails only if VIABLE_ATTEMPT_CAP candidates in a row are
    # not mission ready; bound the ready rate from below, pooled over six trial
    # seeds rather than one seed's largest rejection count
    candidates = ready = 0
    for seed in (1, 2, 3, 7, 42, 99):
        seeded = small(config, seed=seed)
        for trial in range(1000):
            record = experiments.viability_trial(seeded, object_cml, grid_cml, trial)
            candidates += 1
            ready += record["mission_ready"]
    # the bound holds at the model-building floor: config.d is that floor
    with pytest.raises(ValueError, match=f"d >= {config.d}"):
        small(config, d=config.d - 1).validate_for_models()
    config.validate_for_models()
    p_lo, _ = wilson_interval(ready, candidates, z=3.0)
    assert p_lo > 0.0
    assert (1.0 - p_lo) ** experiments.VIABLE_ATTEMPT_CAP < 1e-6


def assert_no_ready_maze(record, goals):
    """A trial whose maze search met the cap: classified, with no goal run, on its last maze."""
    assert record["rejections"] == experiments.VIABLE_ATTEMPT_CAP
    assert (record["success"], record["failure_reason"]) == (False, "no_ready_maze")
    assert (record["goal_sequence"], record["goals"], record["steps"]) == (goals, [], 0)
    assert "door_cell" not in record and record.get("visited_removed_cell", False) is False
    assert mz.from_text(record["maze"]).width == 20


def test_viable_generation_cap(config, object_cml, grid_cml, monkeypatch, checks):
    monkeypatch.setattr(experiments, "VIABLE_ATTEMPT_CAP", 1)
    rng = experiments.trial_rng(42, experiments.TAG_MISSION, 1)
    _, memory, rejections = experiments.generate_viable_maze(
        rng, object_cml.state_dictionary(), grid_cml
    )
    assert rejections == 1 and not sm.mission_ready(memory)
    # such a trial is a classified failure, not an exception that ends its batch
    cfg = small(config, mission_trials=2, door_removal_trials=2)
    for name in ("mission", "door_removal"):
        report = experiments.run_experiment(cfg, name, object_cml, grid_cml)
        assert report.aggregates["failure_reasons"] == {"no_ready_maze": 2}
        for record in report.records:
            assert_no_ready_maze(record, cfg.goal_sequence())
            assert ("visited_removed_cell" in record) == (name == "door_removal")
            assert checks.mission_record_errors(record, cfg.goal_sequence()) == []


def test_model_seed_12_has_a_trial_without_a_ready_maze(checks):
    # at model seed 12 (mission-ready rate about 0.003), mission trial 3043
    # rejects every one of its 2000 candidates
    seeded = ExperimentConfig(seed=12)
    models = experiments.build_object_cml(seeded), experiments.build_grid_cml(seeded)
    record = experiments.mission_trial(seeded, *models, 3043)
    assert experiments.VIABLE_ATTEMPT_CAP == 2000
    assert_no_ready_maze(record, seeded.goal_sequence())
    assert checks.mission_record_errors(record, seeded.goal_sequence()) == []


def test_mission_batch_all_succeed(config, object_cml, grid_cml):
    cfg = small(config, mission_trials=8)
    report = experiments.run_experiment(cfg, "mission", object_cml, grid_cml)
    assert report.aggregates["success_count"] == 8
    assert report.aggregates["trials"] == 8
    for record in report.records:
        assert record["failure_reason"] == "none"
        goals = [g["goal"] for g in record["goals"][:3]]
        assert goals == ["k", "t", "h"]
        maze = mz.from_text(record["maze"])
        assert maze.width == 20 and maze.height == 10


def test_mission_return_leg_plots_fresh_grid_paths(config, object_cml, grid_cml):
    # the homeward leg is not a memorized reversal of the outward leg
    cfg = small(config, mission_trials=8)
    report = experiments.run_experiment(cfg, "mission", object_cml, grid_cml)
    differing = 0
    for record in report.records:
        legs = {g["goal"]: g["grid_path"] for g in record["goals"]}
        differing += legs["h"] != list(reversed(legs["t"]))
    assert differing >= 4


def test_mission_custom_goal_sequence(config, object_cml, grid_cml):
    cfg = small(config, mission_trials=3, mission_goals="t,k")
    report = experiments.run_experiment(cfg, "mission", object_cml, grid_cml)
    assert report.aggregates["success_count"] == 3
    for record in report.records:
        assert record["goal_sequence"] == ["t", "k"]
        goals = [g["goal"] for g in record["goals"][:2]]
        assert goals == ["t", "k"]
        assert record["goals"][0]["object_path"][0] == "h"  # robot starts at home


def test_mission_short_of_its_goals_is_a_classified_failure(
    config, object_cml, grid_cml, checks
):
    # at seed 42 the 20-goal policy of trial 4 stops revealing goals after
    # 10 of them, each reached: a shortfall, not a success
    cfg = small(config, mission_trials=5, mission_goals="k,t,h,c,a,e,b,d," * 2 + "k,t,h,c")
    goals = cfg.goal_sequence()
    assert len(goals) == 20
    report = experiments.run_experiment(cfg, "mission", object_cml, grid_cml)
    for record in report.records:
        assert checks.mission_record_errors(record, goals) == []
    short = [
        r for r in report.records if not r["success"] and all(g["reached"] for g in r["goals"])
    ]
    assert short
    assert {r["failure_reason"] for r in short} == {"unrecoverable_state"}


def test_mission_with_a_policy_the_model_cannot_serve_is_unrecoverable(
    config, object_cml, grid_cml
):
    # h,k,k is one of the five length-3 policies that the seed-42 object model
    # unrolls with an extra goal, c: every goal is reached, and the trial fails
    cfg = small(config, mission_goals="h,k,k")
    record = experiments.mission_trial(cfg, object_cml, grid_cml, 0)
    assert [goal["goal"] for goal in record["goals"]] == ["h", "k", "k", "c"]
    assert all(goal["reached"] for goal in record["goals"])
    assert not record["success"]
    assert record["failure_reason"] == "unrecoverable_state"


def test_mission_policy_revealing_no_goal_is_a_classified_failure(
    config, object_cml, grid_cml, monkeypatch
):
    # a policy that reveals nothing runs no leg; the record still says why it failed
    monkeypatch.setattr(sm, "encode_policy", lambda goals, objects, rng: np.zeros(objects.dim))
    record = experiments.mission_trial(config, object_cml, grid_cml, 0)
    assert record["goals"] == []
    assert not record["success"]
    assert record["failure_reason"] == "unrecoverable_state"


def test_mission_rejects_unknown_goal_label(config, object_cml, grid_cml):
    cfg = small(config, mission_trials=1, mission_goals="k,x")
    with pytest.raises(ValueError, match="unknown goal"):
        experiments.run_experiment(cfg, "mission", object_cml, grid_cml)


def test_door_removal_batch(config, object_cml, grid_cml):
    cfg = small(config, door_removal_trials=8)
    report = experiments.run_experiment(cfg, "door_removal", object_cml, grid_cml)
    assert report.aggregates["success_count"] == 8
    doors = {r["removed_door"] for r in report.records}
    assert doors <= set(mz.DOOR_LABELS)
    assert len(doors) > 1  # random door per trial
    assert not any(r["visited_removed_cell"] for r in report.records)


def test_grid_only_batch_statistics(config, object_cml, grid_cml):
    cfg = small(config, grid_only_trials=40)
    report = experiments.run_experiment(cfg, "grid_only", object_cml, grid_cml)
    agg = report.aggregates
    assert 0 < agg["success_count"] < 40
    reasons = agg["failure_reasons"]
    assert set(reasons) <= {"dither_abort", "step_cap"}
    assert reasons.get("dither_abort", 0) >= 0.8 * sum(reasons.values())


def test_viability_batch(config, object_cml, grid_cml):
    cfg = small(config, viability_mazes=60)
    report = experiments.run_experiment(cfg, "viability", object_cml, grid_cml)
    assert report.aggregates["trials"] == 60
    assert 0 <= report.aggregates["viable_fraction"] < 0.5


def test_reports_match_recomputation(config, object_cml, grid_cml):
    cfg = small(config, grid_only_trials=15)
    report = experiments.run_experiment(cfg, "grid_only", object_cml, grid_cml)
    recomputed = recompute_aggregates(report.records)
    for key, value in report.aggregates.items():
        if isinstance(value, float):
            assert value == pytest.approx(recomputed[key], rel=1e-12)
        else:
            assert value == recomputed[key]


def test_repeat_runs_are_byte_identical(config, object_cml, grid_cml):
    cfg = small(config, mission_trials=4)
    r1 = experiments.run_experiment(cfg, "mission", object_cml, grid_cml)
    r2 = experiments.run_experiment(cfg, "mission", object_cml, grid_cml)
    assert r1.records_text() == r2.records_text()


@pytest.mark.parametrize(
    "name, trials",
    [("mission", 3), ("grid_only", 10), ("viability", 20), ("door_removal", 3)],
)
def test_worker_parallelism_preserves_records(config, object_cml, grid_cml, name, trials):
    # records cross the process boundary as the trial returns them
    count_field = experiments.EXPERIMENTS[name][0]
    serial = small(config, **{count_field: trials})
    parallel = small(config, **{count_field: trials}, workers=2)
    r1 = experiments.run_experiment(serial, name, object_cml, grid_cml)
    r2 = experiments.run_experiment(parallel, name, object_cml, grid_cml)
    assert r1.records_text() == r2.records_text()


def test_worker_pool_is_no_larger_than_the_batch(config, object_cml, grid_cml, monkeypatch):
    # an in-process stand-in for the pool: no process is started
    sizes, chunks = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks, chunksize):
            tasks = list(tasks)
            chunks.append(math.ceil(len(tasks) / chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    serial = experiments.run_experiment(
        small(config, grid_only_trials=3), "grid_only", object_cml, grid_cml
    )
    for workers in (2, 3, 64):
        cfg = small(config, grid_only_trials=3, workers=workers)
        report = experiments.run_experiment(cfg, "grid_only", object_cml, grid_cml)
        assert report.records_text() == serial.records_text()
    assert sizes == [2, 3, 3]
    # each chunk carries the models once, so no worker is sent them twice
    assert chunks == [2, 3, 3]


def flip_state_bit(path, entry: int, bit: int) -> None:
    """Flip bit ``bit`` of S entry ``entry`` in a saved object file (its one block is
    int8, one byte per entry, after the header's blank line)."""
    data = bytearray(path.read_bytes())
    data[data.index(b"\n\n") + 2 + entry] ^= 1 << bit
    path.write_bytes(bytes(data))


def test_load_models_refuses_states_that_are_not_bipolar(config, object_cml, grid_cml, tmp_path):
    # one changed bit leaves an int8 S whose size the file's checks pass; every
    # calculated model's states are +1 or -1, and the loader refuses any other
    cfg = small(config, output_dir=str(tmp_path))
    cfg.models_dir.mkdir()
    object_path = cfg.models_dir / experiments.OBJECT_MODEL_FILE
    persist.save_cml(object_cml, object_path)
    persist.save_grid_cml(grid_cml, cfg.models_dir / experiments.GRID_MODEL_FILE)
    flip_state_bit(object_path, 5, 0)  # +1 becomes 0, -1 becomes -2
    with pytest.raises(ValueError, match=r"object model states are not all \+1 or -1"):
        experiments.load_models(cfg)


def zero_grid_coordinate(grid_cml: GridCml, coordinate: int) -> GridCml:
    """The grid model with one coordinate of both actions set to 0: that coordinate is
    0 in every cell's state, so a map's entry there is an even sum, which can be 0."""
    a_s, a_e = grid_cml.a_s.copy(), grid_cml.a_e.copy()
    a_s[coordinate] = a_e[coordinate] = 0.0
    return GridCml(x=grid_cml.x, y=grid_cml.y, a_s=a_s, a_e=a_e)


def test_load_models_refuses_a_grid_model_with_a_zero_sign(config, object_cml, grid_cml, tmp_path):
    cfg = small(config, output_dir=str(tmp_path))
    cfg.models_dir.mkdir()
    persist.save_cml(object_cml, cfg.models_dir / experiments.OBJECT_MODEL_FILE)
    zeroed = zero_grid_coordinate(grid_cml, 7)
    assert not zeroed.signs[:, 7].any() and np.delete(zeroed.signs, 7, axis=1).all()
    persist.save_grid_cml(zeroed, cfg.models_dir / experiments.GRID_MODEL_FILE)
    with pytest.raises(ValueError, match=r"grid model sign patterns are not all \+1 or -1"):
        experiments.load_models(cfg)
    persist.save_grid_cml(grid_cml, cfg.models_dir / experiments.GRID_MODEL_FILE)
    assert experiments.load_models(cfg)[1].signs.all()


def test_unknown_experiment_rejected(config, object_cml, grid_cml):
    with pytest.raises(ValueError, match="unknown experiment"):
        experiments.run_experiment(config, "bogus", object_cml, grid_cml)


def test_hdc_stats_scaling(config, monkeypatch):
    monkeypatch.setattr(experiments, "HDC_PAIRS", 2000)
    report = experiments.run_hdc_stats(small(config, d=512))
    assert report.aggregates["pairs"] == 2000
    # law of large numbers: std ~ 1/sqrt(d) ~ 0.044 at d = 512
    assert report.aggregates["std"] == pytest.approx(1 / 512**0.5, rel=0.2)


@pytest.mark.parametrize("seed", [7, 42])
def test_hdc_stats_draws_the_rng_choice_pairs(config, seed):
    # hdc.random_bipolar draws what rng.choice([-1.0, 1.0]) draws on the trial's
    # generator, default_rng([seed, TAG_HDC_STATS, 0]): both read one 32-bit word per
    # entry, and the stream's sign is +1 exactly when choice picks +1
    d = 64
    rng = np.random.default_rng([seed, experiments.TAG_HDC_STATS, 0])
    xs = rng.choice(np.array([-1.0, 1.0]), size=(experiments.HDC_PAIRS, d))
    ys = rng.choice(np.array([-1.0, 1.0]), size=(experiments.HDC_PAIRS, d))
    sims = (xs * ys).sum(axis=1) / d
    reference = {
        "pairs": experiments.HDC_PAIRS,
        "d": d,
        "mean": float(sims.mean()),
        "std": float(sims.std(ddof=1)),
        "max_abs": float(np.abs(sims).max()),
    }
    report = experiments.run_hdc_stats(small(config, d=d, seed=seed))
    assert report.records == [reference]
