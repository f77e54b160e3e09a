import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import stream
from hdnav import cml, experiments, hdc, maze as mz, mission, reports, semantic_map as sm
from hdnav.grid import DELTAS
from hdnav.mission import FailureReason


@pytest.fixture(scope="module")
def mission_result(object_cml, viable_setup):
    maze, memory, _ = viable_setup
    policy = sm.encode_policy(["k", "t", "h"], memory.objects, stream(99))
    return mission.run_mission(object_cml, memory, maze, policy)


def without_door(graph: cml.CmlGraph, *doors: str) -> cml.CmlGraph:
    """The graph minus every edge that touches one of the doors."""
    cut = {graph.node_index(door) for door in doors}
    kept = tuple(edge for edge in graph.directed_edges if cut.isdisjoint(edge))
    return cml.CmlGraph(graph.node_labels, kept)


# --- dither detection ---------------------------------------------------------------


def test_detect_dither_finds_repeated_two_cycle():
    a, b = (1, 1), (1, 2)
    assert mission.detect_dither([(0, 0), b, a, b, a, b, a]) is True


def test_detect_dither_requires_three_repeats():
    a, b = (1, 1), (1, 2)
    assert mission.detect_dither([b, a, b, a]) is False
    assert mission.detect_dither([(0, 0), (0, 1), a, b, a, b, a]) is False


def test_detect_dither_needs_a_seventh_cell():
    # a walk that alternates from its start is judged on its seventh cell:
    # the bare three-repeat tail is already there at six
    a, b = (1, 1), (1, 2)
    assert mission.detect_dither([b, a, b, a, b, a]) is False
    assert mission.detect_dither([b, a, b, a, b, a, b]) is True


def test_detect_dither_ignores_straight_paths():
    path = [(0, c) for c in range(8)]
    assert mission.detect_dither(path) is False


# --- remove_door ---------------------------------------------------------------------


def test_remove_door_zeroes_incident_gates(object_cml):
    reduced = mission.remove_door(object_cml, "d")
    graph = object_cml.graph
    d_idx = graph.node_index("d")
    for edge_idx, (src, dst) in enumerate(graph.directed_edges):
        if d_idx in (src, dst):
            assert not reduced.G[edge_idx].any()
        else:
            assert np.array_equal(reduced.G[edge_idx], object_cml.G[edge_idx])
    assert np.array_equal(reduced.S, object_cml.S)
    assert np.array_equal(reduced.A, object_cml.A)
    assert np.array_equal(reduced.graph.F, object_cml.graph.F)


def test_remove_door_keeps_state_dictionary(object_cml):
    original = object_cml.state_dictionary()
    rebuilt = mission.remove_door(object_cml, "c").state_dictionary()
    assert rebuilt.labels == original.labels
    assert np.array_equal(rebuilt.vectors, original.vectors)
    assert np.array_equal(rebuilt.norms, original.norms)


@pytest.mark.parametrize("door", mz.DOOR_LABELS)
def test_remove_door_derives_nothing(object_cml, door):
    # the planner is a copy of the gates, zeroed; the graph, S and A are the original's
    # own, and the state dictionary it rebuilds from that S equals the original's
    G = object_cml.G.copy()
    reduced = mission.remove_door(object_cml, door)
    assert reduced.graph is object_cml.graph
    assert reduced.S is object_cml.S and reduced.A is object_cml.A
    states, original = reduced.state_dictionary(), object_cml.state_dictionary()
    assert states.labels == original.labels
    for table in ("vectors", "norms", "signs"):
        assert np.array_equal(getattr(states, table), getattr(original, table)), table
    assert np.array_equal(object_cml.G, G) and not np.array_equal(reduced.G, G)


def test_remove_door_rejects_non_door(object_cml):
    with pytest.raises(ValueError, match="not a door"):
        mission.remove_door(object_cml, "t")


def test_plan_reroutes_around_every_removed_door(object_cml):
    # the gating edit leaves utilities and the flow table untouched (no
    # retraining), so over each door's 42 remaining ordered pairs the planner
    # reroutes every time but can spend one extra hop when the removed door sat
    # on its preferred route; exactly four pairs do
    graph = object_cml.graph
    detours = []
    for door in mz.DOOR_LABELS:
        reduced = mission.remove_door(object_cml, door)
        pruned = without_door(graph, door)
        nodes = [label for label in graph.node_labels if label != door]
        pairs = [(start, goal) for start in nodes for goal in nodes if start != goal]
        assert len(pairs) == 42
        for start, goal in pairs:
            path = cml.plan_path(reduced, reduced.state(goal), reduced.state(start))
            assert path is not None and path[0] == start and path[-1] == goal
            assert door not in path
            oracle = pruned.hops[graph.node_index(start), graph.node_index(goal)]
            assert oracle <= len(path) - 1 <= oracle + 1 <= 2 * graph.n  # the hop cap
            if len(path) - 1 > oracle:
                detours.append((door, start, goal))
    assert sorted(detours) == [("a", "t", "h"), ("a", "t", "k"), ("d", "h", "t"), ("d", "k", "t")]


def test_plan_optimal_when_removed_door_off_route(object_cml):
    # this model's preferred key->treasure route runs through b and d, so
    # removing a leaves the unique optimal alternative intact
    reduced = mission.remove_door(object_cml, "a")
    assert cml.plan_path(reduced, reduced.state("t"), reduced.state("k")) == [
        "k", "b", "d", "t",
    ]
    reduced = mission.remove_door(object_cml, "b")
    assert cml.plan_path(reduced, reduced.state("t"), reduced.state("k")) == [
        "k", "a", "e", "t",
    ]


def test_two_left_doors_removed_makes_treasure_unreachable(object_cml):
    # with both a and b gone the key's room only connects to home; the
    # breadth-first oracle agrees there is no route, and planning fails
    reduced = mission.remove_door(mission.remove_door(object_cml, "a"), "b")
    graph = without_door(reduced.graph, "a", "b")
    assert graph.hops[graph.node_index("k"), graph.node_index("t")] == -1
    assert cml.plan_path(reduced, reduced.state("t"), reduced.state("k")) is None


# --- run_mission ----------------------------------------------------------------------


def test_mission_succeeds_on_viable_maze(mission_result):
    goals, failure = mission_result
    assert failure is FailureReason.NONE
    assert [g["goal"] for g in goals] == ["k", "t", "h"]
    assert all(g["reached"] for g in goals)


def test_mission_goal_entries_are_already_json(mission_result):
    # the executor returns the record's own entries: every path a list and
    # every cell a [row, col] list, which a tuple would never equal
    goals, _ = mission_result
    assert goals
    for entry in goals:
        assert entry == json.loads(reports.canonical_json(entry))


def test_mission_object_paths_match_reported_sets(mission_result):
    legs = {g["goal"]: g["object_path"] for g in mission_result[0]}
    assert legs["k"] == ["h", "k"]
    assert legs["t"] in (["k", "a", "e", "t"], ["k", "b", "d", "t"])
    assert legs["h"] in (["t", "e", "a", "h"], ["t", "d", "b", "h"])


def test_mission_grid_paths_are_legal(viable_setup, mission_result):
    maze, _, _ = viable_setup
    for goal in mission_result[0]:
        for cell in goal["grid_path"]:
            assert maze.in_bounds(tuple(cell)) and tuple(cell) not in maze.blocked
        for a, b in zip(goal["grid_path"], goal["grid_path"][1:]):
            step = (b[0] - a[0], b[1] - a[1])
            assert step in DELTAS.values()
        assert goal["steps"] == len(goal["grid_path"]) - 1


def test_mission_starts_at_home(viable_setup, mission_result):
    maze, _, _ = viable_setup
    first = mission_result[0][0]
    assert first["grid_path"][0] == list(maze.placements["h"])
    assert first["object_path"][0] == "h"


def test_mission_paths_connect_across_goals(viable_setup, mission_result):
    maze, _, _ = viable_setup
    previous_end = None
    for goal in mission_result[0]:
        if previous_end is not None:
            assert goal["grid_path"][0] == previous_end
        assert goal["grid_path"][-1] == list(maze.placements[goal["goal"]])
        previous_end = goal["grid_path"][-1]


def test_mission_object_hops_follow_graph_adjacency(object_cml, mission_result):
    graph = object_cml.graph
    edges = set(graph.directed_edges)
    for goal in mission_result[0]:
        for a, b in zip(goal["object_path"], goal["object_path"][1:]):
            assert (graph.node_index(a), graph.node_index(b)) in edges


def test_mission_goal_monotone_order(mission_result):
    # goals attempted strictly in encoded order
    assert [g["goal"] for g in mission_result[0]] == ["k", "t", "h"]


def test_mission_with_removed_door_avoids_its_cell(config, object_cml, grid_cml):
    record = experiments.mission_trial(config, object_cml, grid_cml, 3, remove_random_door=True)
    assert record["success"]
    assert not record["visited_removed_cell"]
    removed = record["removed_door"]
    for goal in record["goals"]:
        assert removed not in goal["object_path"]


def test_mission_unreachable_goal_reports_failure(object_cml, viable_setup):
    maze, memory, _ = viable_setup
    # seal both left-wall doors: the key leg can never complete
    reduced = mission.remove_door(mission.remove_door(object_cml, "a"), "b")
    sealed, _ = mz.close_door(maze, "a")
    sealed, _ = mz.close_door(sealed, "b")
    policy = sm.encode_policy(["t"], memory.objects, stream(1))
    _, failure = mission.run_mission(reduced, memory, sealed, policy)
    assert failure in (FailureReason.STEP_CAP, FailureReason.UNREACHABLE)


def test_mission_without_a_waypoint_cell_is_unrecoverable(object_cml, viable_setup):
    # the planner steps, but a map that holds no object gives its waypoint no cell
    maze, memory, _ = viable_setup
    noise_hv = hdc.random_bipolar(memory.grid_cml.d, stream(35))
    noise = replace(memory, map_hv=noise_hv)
    policy = sm.encode_policy(["k"], memory.objects, stream(2))
    planned = cml.step(object_cml, object_cml.state("k"), object_cml.state("h"))
    assert planned.chosen_edge is not None
    goals, failure = mission.run_mission(object_cml, noise, maze, policy)
    assert failure is FailureReason.UNRECOVERABLE_STATE
    assert len(goals) == 1 and not goals[0]["reached"]
    assert goals[0]["object_path"] == ["h"] and goals[0]["steps"] == 0
    assert goals[0]["grid_path"] == [list(maze.placements["h"])]


def test_mission_ends_at_the_goal_whose_leg_fails(object_cml, viable_setup):
    # door a closed in the maze but not in the planner: k and t are reached, and the
    # way home walks t -> e, then dithers beside a's walled cell; no later leg runs
    maze, memory, _ = viable_setup
    closed, _ = mz.close_door(maze, "a")
    policy = sm.encode_policy(["k", "t", "h"], memory.objects, stream(99))
    goals, failure = mission.run_mission(object_cml, memory, closed, policy)
    assert failure is FailureReason.DITHER_ABORT
    assert [(g["goal"], g["reached"]) for g in goals] == [("k", True), ("t", True), ("h", False)]
    assert goals[-1]["object_path"] == ["t", "e"]
    assert goals[-1]["grid_path"][-6:] == [[1, 7], [0, 7]] * 3


def test_mission_zero_step_classification(object_cml, grid_cml, viable_setup):
    maze, memory, _ = viable_setup
    states = object_cml.state_dictionary()
    assert hdc.recover(object_cml.state("k"), states) == "k"

    def run(planner, mem):
        policy = sm.encode_policy(["k"], mem.objects, stream(2))
        return mission.run_mission(planner, mem, maze, policy)

    # both states recover, but no gate leaves home: the goal is unreachable
    gated = object_cml.G.copy()
    gated[:, object_cml.graph.node_index("h")] = 0.0
    _, failure = run(replace(object_cml, G=gated), memory)
    assert failure is FailureReason.UNREACHABLE
    # goal states the planner cannot recover: the step refuses unrecognised input
    rng = stream(3)
    noise = hdc.Dictionary(
        states.labels, np.stack([hdc.random_bipolar(object_cml.d, rng) for _ in states.labels])
    )
    goals, failure = run(object_cml, sm.build_map(noise, maze, grid_cml, rng))
    assert failure is FailureReason.UNRECOVERABLE_STATE
    assert goals[0]["object_path"] == ["h"]


# --- grid_only_trial --------------------------------------------------------------------


def test_grid_only_success_and_failure_mix(config, object_cml, grid_cml):
    results = [experiments.grid_only_trial(config, object_cml, grid_cml, i) for i in range(30)]
    successes = [r for r in results if r["success"]]
    failures = [r for r in results if not r["success"]]
    assert successes and failures
    for record in failures:
        assert record["failure_reason"] in ("dither_abort", "step_cap")
    dithers = [r for r in failures if r["failure_reason"] == "dither_abort"]
    assert dithers
    for record in dithers:
        assert record["dither_cells"] == record["grid_path"][-2:]
    for record in results:
        if record["failure_reason"] != "dither_abort":
            assert record["dither_cells"] == []


def test_grid_only_straight_corridor_succeeds(grid_cml):
    # doors aligned with the key->treasure row: the greedy route is open
    width, height = 20, 10
    blocked = set()
    for row in range(height):
        if row != 4:
            blocked.add((row, 6))
            blocked.add((row, 13))
    maze = mz.Maze(
        blocked=frozenset(blocked),
        placements={
            "a": (4, 6), "b": (4, 6), "c": (4, 10), "d": (4, 13), "e": (4, 13),
            "k": (4, 2), "t": (4, 17), "h": (4, 1),
        },
    )
    path, reason = mission.grid_leg(
        grid_cml, maze, maze.placements["k"], maze.placements["t"], mission.grid_step_cap(maze)
    )
    assert reason is FailureReason.NONE
    assert path[0] == maze.placements["k"] and path[-1] == maze.placements["t"]
    assert len(path) - 1 == 15  # straight line, Manhattan-optimal


def test_grid_leg_stops_at_its_step_cap(grid_cml):
    # an open grid and a cap shorter than the walk: the leg stops after cap moves
    open_grid = mz.Maze(frozenset(), {}, grid_cml.width, grid_cml.height)
    path, reason = mission.grid_leg(grid_cml, open_grid, (0, 0), (0, 10), 4)
    assert reason is FailureReason.STEP_CAP
    assert path == [(0, col) for col in range(5)]


def test_grid_only_starts_at_key(config, object_cml, grid_cml):
    record = experiments.grid_only_trial(config, object_cml, grid_cml, 2)
    maze = mz.from_text(record["maze"])
    assert tuple(record["grid_path"][0]) == maze.placements["k"]
