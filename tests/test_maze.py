from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdnav import maze as mz
from hdnav.grid import DELTAS, DIRECTIONS


@pytest.fixture(scope="module")
def sample():
    return mz.generate_maze(np.random.default_rng(5))


def connected_from(maze, start):
    """Breadth-first search: True when every passable cell is reachable."""
    free = maze.width * maze.height - len(maze.blocked)
    seen = {start}
    queue = deque([start])
    while queue:
        row, col = queue.popleft()
        for dr, dc in DELTAS.values():
            nxt = (row + dr, col + dc)
            if maze.passable(nxt) and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == free


def wall_columns(maze):
    cols = {}
    for row, col in maze.blocked:
        cols.setdefault(col, set()).add(row)
    full = [c for c, rows in cols.items() if len(rows) >= maze.height - 2]
    return sorted(full)


def reference_layout(rng):
    """The list-based sampler that the divmod placement replaced."""
    width, height = mz.WIDTH, mz.HEIGHT
    wall1 = int(rng.integers(2, width // 3 + 1))
    wall2 = int(rng.integers(2 * width // 3, width - 2))
    hrow = int(rng.integers(2, height - 2))
    row_a = int(rng.integers(0, min(height // 2, hrow)))
    row_e = int(rng.integers(0, min(height // 2, hrow)))
    row_b = int(rng.integers(max(height // 2, hrow + 1), height))
    row_d = int(rng.integers(max(height // 2, hrow + 1), height))
    door_c_col = int(rng.integers(wall1 + 1, wall2))
    blocked = set()
    for row in range(height):
        if row not in (row_a, row_b):
            blocked.add((row, wall1))
        if row not in (row_d, row_e):
            blocked.add((row, wall2))
    for col in range(wall1 + 1, wall2):
        if col != door_c_col:
            blocked.add((hrow, col))
    placements = {
        "a": (row_a, wall1),
        "b": (row_b, wall1),
        "c": (hrow, door_c_col),
        "d": (row_d, wall2),
        "e": (row_e, wall2),
    }
    left_room = [(r, c) for r in range(height) for c in range(wall1)]
    right_room = [(r, c) for r in range(height) for c in range(wall2 + 1, width)]
    h_pick, k_pick = rng.choice(len(left_room), size=2, replace=False)
    placements["h"] = left_room[int(h_pick)]
    placements["k"] = left_room[int(k_pick)]
    placements["t"] = right_room[int(rng.integers(0, len(right_room)))]
    return mz.Maze(blocked=frozenset(blocked), placements=placements)


def test_layout_matches_list_based_reference():
    for seed in range(200):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        maze, expected = mz._sample_layout(ours), reference_layout(theirs)
        assert maze == expected
        assert list(maze.placements.items()) == list(expected.placements.items())
        assert all(type(v) is int for cell in maze.placements.values() for v in cell)
        assert ours.bit_generator.state == theirs.bit_generator.state


# --- generation invariants --------------------------------------------------------


def test_eight_distinct_objects(sample):
    assert set(sample.placements) == set(mz.OBJECT_LABELS)
    assert len(set(sample.placements.values())) == 8


def test_no_object_on_wall(sample):
    for cell in sample.placements.values():
        assert cell not in sample.blocked


def test_robot_starts_at_home(sample):
    # the maze holds no robot; its text marks home, where the robot starts, as H
    assert not hasattr(sample, "robot")
    rows = mz.to_text(sample).splitlines()[1:]
    upper = [(r, c) for r, line in enumerate(rows) for c, char in enumerate(line) if char.isupper()]
    assert upper == [sample.placements["h"]]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_layout_contract_across_seeds(seed):
    maze = mz.generate_maze(np.random.default_rng(seed))
    left_wall, right_wall = wall_columns(maze)
    # h, k left room; t right room
    assert maze.placements["h"][1] < left_wall
    assert maze.placements["k"][1] < left_wall
    assert maze.placements["t"][1] > right_wall
    # doors sit on their walls, upper/lower ordering stable
    assert maze.placements["a"][1] == left_wall
    assert maze.placements["b"][1] == left_wall
    assert maze.placements["d"][1] == right_wall
    assert maze.placements["e"][1] == right_wall
    assert maze.placements["a"][0] < maze.height // 2 <= maze.placements["b"][0]
    assert maze.placements["e"][0] < maze.height // 2 <= maze.placements["d"][0]
    # door c inside the middle room
    assert left_wall < maze.placements["c"][1] < right_wall


def test_generation_is_seed_deterministic():
    m1 = mz.generate_maze(np.random.default_rng(77))
    m2 = mz.generate_maze(np.random.default_rng(77))
    assert m1 == m2


def test_different_seeds_differ():
    m1 = mz.generate_maze(np.random.default_rng(1))
    m2 = mz.generate_maze(np.random.default_rng(2))
    assert m1.blocked != m2.blocked or m1.placements != m2.placements


def test_connectivity_from_home(sample):
    assert connected_from(sample, sample.placements["h"])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_every_layout_connected(seed):
    # connectivity holds by construction, so generation never retries
    maze = mz.generate_maze(np.random.default_rng(seed))
    assert connected_from(maze, maze.placements["h"])


def test_doors_are_only_wall_gaps(sample):
    left_wall, right_wall = wall_columns(sample)
    gaps_left = {(r, left_wall) for r in range(sample.height)} - sample.blocked
    gaps_right = {(r, right_wall) for r in range(sample.height)} - sample.blocked
    assert gaps_left == {sample.placements["a"], sample.placements["b"]}
    assert gaps_right == {sample.placements["d"], sample.placements["e"]}


def test_blocking_all_doors_separates_rooms(sample):
    blocked = sample.blocked | {sample.placements[d] for d in mz.DOOR_LABELS}
    sealed = mz.Maze(blocked=frozenset(blocked), placements=sample.placements)
    assert not connected_from(sealed, sealed.placements["h"])


# --- sensing / movement -------------------------------------------------------------


def old_sense_gate(maze, cell):
    """The sensors before they became a gate: named e/s/n/w readings, stacked [e, s, n, w]."""
    values = {}
    for direction in DIRECTIONS:
        dr, dc = DELTAS[direction]
        values[direction.lower()] = int(maze.passable((cell[0] + dr, cell[1] + dc)))
    return np.array([values["e"], values["s"], values["n"], values["w"]], dtype=float)


def test_sense_equals_named_sensors_on_sampled_mazes():
    rng = np.random.default_rng(12)
    cells = 0
    for _ in range(200):
        maze = mz.generate_maze(rng)
        for row in range(maze.height):
            for col in range(maze.width):
                if maze.passable((row, col)):
                    gate = mz.sense(maze, (row, col))
                    assert gate.dtype == float
                    assert np.array_equal(gate, old_sense_gate(maze, (row, col)))
                    cells += 1
    assert cells > 200 * 150


def test_sense_interior_open_cell():
    maze = mz.generate_maze(np.random.default_rng(5))
    # find an interior cell with no blocked neighbors
    for row in range(1, maze.height - 1):
        for col in range(1, maze.width - 1):
            cell = (row, col)
            neighborhood = [
                (row + dr, col + dc) for dr, dc in DELTAS.values()
            ]
            if maze.passable(cell) and all(maze.passable(c) for c in neighborhood):
                assert mz.sense(maze, cell).tolist() == [1.0, 1.0, 1.0, 1.0]
                return
    pytest.fail("no fully open interior cell found")


def test_sense_northwest_corner(sample):
    if not sample.passable((0, 0)):
        pytest.skip("corner blocked in this layout")
    gate = dict(zip(DIRECTIONS, mz.sense(sample, (0, 0))))
    assert gate["N"] == 0 and gate["W"] == 0


def test_sense_wall_adjacency(sample):
    left_wall, _ = wall_columns(sample)
    row_a = sample.placements["a"][0]
    row = next(r for r in range(sample.height) if r != row_a and r != sample.placements["b"][0])
    cell = (row, left_wall - 1)
    assert mz.sense(sample, cell)[DIRECTIONS.index("E")] == 0


def test_sense_blocked_cell_rejected(sample):
    wall_cell = next(iter(sample.blocked))
    with pytest.raises(ValueError, match="blocked"):
        mz.sense(sample, wall_cell)


def test_move_and_inverse(sample):
    start = sample.placements["h"]
    for direction, ok in zip(DIRECTIONS, mz.sense(sample, start)):
        if ok:
            moved = mz.move_robot(sample, start, direction)
            dr, dc = DELTAS[direction]
            assert moved == (start[0] + dr, start[1] + dc)
            back = {"E": "W", "W": "E", "N": "S", "S": "N"}[direction]
            assert mz.move_robot(sample, moved, back) == start
            return
    pytest.fail("robot boxed in")


def test_move_into_wall_raises(sample):
    home = sample.placements["h"]
    for direction, ok in zip(DIRECTIONS, mz.sense(sample, home)):
        if not ok:
            with pytest.raises(ValueError, match="illegal move"):
                mz.move_robot(sample, home, direction)
            return
    pytest.skip("robot has no adjacent wall in this layout")


def test_move_legality_matches_sense(sample):
    # a move is legal iff its sensor reads 1
    for row in range(sample.height):
        for col in range(sample.width):
            cell = (row, col)
            if not sample.passable(cell):
                continue
            for direction, ok in zip(DIRECTIONS, mz.sense(sample, cell)):
                if ok:
                    mz.move_robot(sample, cell, direction)
                else:
                    with pytest.raises(ValueError):
                        mz.move_robot(sample, cell, direction)


# --- door closing --------------------------------------------------------------------


def test_close_door_blocks_cell(sample):
    closed, cell = mz.close_door(sample, "d")
    assert cell == sample.placements["d"]
    assert cell in closed.blocked
    assert "d" not in closed.placements
    assert not closed.passable(cell)


def test_close_door_rejects_non_door(sample):
    with pytest.raises(ValueError, match="not a door"):
        mz.close_door(sample, "k")


def test_close_single_door_keeps_maze_connected(sample):
    for door in mz.DOOR_LABELS:
        closed, _ = mz.close_door(sample, door)
        assert connected_from(closed, closed.placements["h"])


# --- serialization --------------------------------------------------------------------


def test_text_round_trip(sample):
    text = mz.to_text(sample)
    assert mz.from_text(text) == sample
    assert mz.to_text(mz.from_text(text)) == text


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_text_round_trip_across_seeds(seed):
    maze = mz.generate_maze(np.random.default_rng(seed))
    text = mz.to_text(maze)
    assert mz.from_text(text) == maze
    row, col = maze.placements["h"]
    assert text.splitlines()[1 + row][col] == "H"


def test_robot_on_object_renders_uppercase(sample):
    text = mz.to_text(sample)
    assert "H" in text.split("\n", 1)[1]  # robot starts on home


def test_from_text_rejects_bad_header():
    # a size below 1 is refused by the header, not by a later row or home check
    for text in ("bogus\n....\n", "-1 2\nH..\n...\n", "0 0\n"):
        with pytest.raises(ValueError, match="header"):
            mz.from_text(text)


def test_from_text_rejects_wrong_row_length():
    with pytest.raises(ValueError, match="length"):
        mz.from_text("4 1\n...\n")


def test_from_text_requires_home():
    # to_text marks home with H, and missions start there
    with pytest.raises(ValueError, match="no home"):
        mz.from_text("2 1\n..\n")
    with pytest.raises(ValueError, match="no home"):
        mz.from_text("2 1\nk.\n")


def test_from_text_rejects_repeated_object():
    # keeping the last 'k' would drop an object from the record's maze
    with pytest.raises(ValueError, match=r"'k' repeats at \(1, 2\)"):
        mz.from_text("4 2\nHk..\n..k.\n")
    with pytest.raises(ValueError, match="'H' repeats"):
        mz.from_text("2 1\nHH\n")


@pytest.mark.parametrize("char", ["r", "h", "K", "z"])
def test_from_text_rejects_unknown_characters(char):
    # the text has no robot character ('r'): the robot starts at H, and every
    # other letter is one of the objects, lowercase
    with pytest.raises(ValueError, match=f"unknown maze character '{char}'"):
        mz.from_text(f"3 1\nH.{char}\n")
