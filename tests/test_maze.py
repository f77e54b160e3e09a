from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import position, stream
from hdnav import maze as mz
from hdnav.grid import DELTAS, DIRECTIONS


@pytest.fixture(scope="module")
def sample():
    return mz.generate_maze(stream(5))


def is_open(maze, cell):
    """On the grid and not a wall: a cell the robot can stand on."""
    return maze.in_bounds(cell) and cell not in maze.blocked


def connected_from(maze, start):
    """Breadth-first search: True when every open cell is reachable."""
    free = maze.width * maze.height - len(maze.blocked)
    seen = {start}
    queue = deque([start])
    while queue:
        row, col = queue.popleft()
        for dr, dc in DELTAS.values():
            nxt = (row + dr, col + dc)
            if is_open(maze, nxt) and nxt not in seen:
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
    # the reference makes numpy's own scalar draws; 0-2 words drawn first move the
    # layout's words across the half of a 64-bit output left pending; the layouts
    # cover every (wall1, wall2, hrow) triple the walls are built from
    triples = set()
    for seed in range(2000):
        for drawn in range(3):
            ours, theirs = stream(seed), np.random.default_rng(seed)
            for _ in range(drawn):
                ours.below(5)
            theirs.integers(0, 5, size=drawn)
            maze, expected = mz._sample_layout(ours), reference_layout(theirs)
            assert maze == expected
            assert list(maze.placements.items()) == list(expected.placements.items())
            assert all(type(v) is int for cell in maze.placements.values() for v in cell)
            assert position(ours) == position(theirs)
            triples.add((maze.placements["a"][1], maze.placements["d"][1], maze.placements["c"][0]))
    assert len(triples) == 150


@pytest.mark.parametrize("n", [1, 2, 7, 3 * 2**30, 2**32 - 1])
def test_below_matches_numpy_bounded_draw(n):
    # at 3 * 2**30 a quarter of the words are rejected, so 40 draws read past the
    # 12-word block and draw further words from the stream
    for seed in range(20):
        ours, theirs = stream(seed), np.random.default_rng(seed)
        words = ours.words(12).tolist()[::-1]
        drawn = [ours.below(n, words) for _ in range(40)]
        assert drawn == [int(theirs.integers(0, n)) for _ in range(40)]
        assert all(0 <= value < n for value in drawn)
        if n == 1:
            assert len(words) == 12  # numpy reads no word for a one-value draw
            continue
        assert not words
        assert position(ours) == position(theirs)


# hand-picked words per bound n: one whose low half of w * n, in [threshold, n), runs
# the threshold loop and is accepted there; one below the threshold, rejected; one
# past n, accepted without the threshold (2**32 - n) % n being computed
HAND_PICKED_WORDS = {
    5: {"accepted": 3435973837, "rejected": 0, "early": 2**31 + 7},
    39: {"accepted": 4184839930, "rejected": 1651910499, "early": 2**31 + 7},
    60: {"accepted": 1002159036, "rejected": 214748365, "early": 2**31 + 7},
}


@pytest.mark.parametrize("n", sorted(HAND_PICKED_WORDS))
@pytest.mark.parametrize("kind", ["accepted", "rejected", "early"])
def test_below_matches_numpy_on_hand_picked_words(n, kind):
    # numpy reads the pending 32-bit half before any fresh output, so a pending
    # word is the first word numpy's own scalar draw reads: fed the same word, from
    # the list or as the stream's pending half, below draws numpy's value and leaves
    # numpy's position; the accepted words sit exactly at the threshold
    word = HAND_PICKED_WORDS[n][kind]
    threshold, low = (2**32 - n) % n, word * n % 2**32
    assert {"accepted": threshold == low < n, "rejected": low < threshold, "early": low >= n}[kind]
    for listed in (True, False):
        theirs = np.random.default_rng(n)
        theirs.bit_generator.state = {**theirs.bit_generator.state, "has_uint32": 1, "uinteger": word}
        ours = stream(n)
        words = [word] if listed else []
        if not listed:
            ours.pending = word
        assert ours.below(n, words) == int(theirs.integers(0, n))
        assert not words
        assert position(ours) == position(theirs)


def test_wall_table_equals_the_union_of_both_columns_and_the_middle_row():
    # the walls each (wall1, wall2, hrow) triple of the reference layout's draws builds
    width, height = mz.WIDTH, mz.HEIGHT
    columns = [frozenset((row, col) for row in range(height)) for col in range(width)]
    expected = {
        (wall1, wall2, hrow): columns[wall1].union(
            columns[wall2], ((hrow, col) for col in range(wall1 + 1, wall2))
        )
        for wall1 in range(2, width // 3 + 1)
        for wall2 in range(2 * width // 3, width - 2)
        for hrow in range(2, height - 2)
    }
    assert len(expected) == 150
    assert mz._WALLS == expected


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
    maze = mz.generate_maze(stream(seed))
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
    m1 = mz.generate_maze(stream(77))
    m2 = mz.generate_maze(stream(77))
    assert m1 == m2


def test_different_seeds_differ():
    m1 = mz.generate_maze(stream(1))
    m2 = mz.generate_maze(stream(2))
    assert m1.blocked != m2.blocked or m1.placements != m2.placements


def test_connectivity_from_home(sample):
    assert connected_from(sample, sample.placements["h"])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_every_layout_connected(seed):
    # connectivity holds by construction, so generation never retries
    maze = mz.generate_maze(stream(seed))
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


# --- sensing: the gate table -------------------------------------------------------

OPPOSITE = {"E": "W", "W": "E", "N": "S", "S": "N"}


def old_sense_gate(maze, cell):
    """The sensors before they became a gate: named e/s/n/w readings, stacked [e, s, n, w]."""
    values = {}
    for direction in DIRECTIONS:
        dr, dc = DELTAS[direction]
        values[direction.lower()] = int(is_open(maze, (cell[0] + dr, cell[1] + dc)))
    return np.array([values["e"], values["s"], values["n"], values["w"]], dtype=float)


def test_sense_equals_named_sensors_on_sampled_mazes():
    rng = stream(12)
    cells = 0
    for _ in range(200):
        maze = mz.generate_maze(rng)
        for row in range(maze.height):
            for col in range(maze.width):
                if (row, col) not in maze.blocked:
                    gate = maze.gates[row, col]
                    assert gate.dtype == bool
                    assert np.array_equal(gate, old_sense_gate(maze, (row, col)))
                    cells += 1
    assert cells > 200 * 150


def old_gate_table(maze):
    """Every cell's gate by the named-sensor rule, row-major."""
    cells = [(row, col) for row in range(maze.height) for col in range(maze.width)]
    return np.stack([old_sense_gate(maze, cell) for cell in cells])


def test_gate_table_equals_named_sensors():
    rng = stream(21)
    for _ in range(50):
        maze = mz.generate_maze(rng)
        maze.gates  # built before close_door: each closed maze must build its own
        variants = [maze] + [mz.close_door(maze, door)[0] for door in mz.DOOR_LABELS]
        for variant in variants:
            assert variant.gates.shape == (variant.height, variant.width, 4)
            reference = old_gate_table(variant).reshape(variant.height, variant.width, 4)
            assert np.array_equal(variant.gates, reference)
    for width, height in [(20, 10), (7, 3), (1, 5), (5, 1), (1, 1)]:
        open_grid = mz.Maze(frozenset(), {}, width, height)
        reference = old_gate_table(open_grid).reshape(height, width, 4)
        assert np.array_equal(open_grid.gates, reference)


def test_gate_table_is_read_only(sample):
    gate = sample.gates[sample.placements["h"]]
    with pytest.raises(ValueError, match="read-only"):
        gate[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        sample.gates[0, 0] = 1.0


def test_sense_interior_open_cell():
    maze = mz.generate_maze(stream(5))
    # find an interior cell with no blocked neighbors
    for row in range(1, maze.height - 1):
        for col in range(1, maze.width - 1):
            cell = (row, col)
            neighborhood = [
                (row + dr, col + dc) for dr, dc in DELTAS.values()
            ]
            if is_open(maze, cell) and all(is_open(maze, c) for c in neighborhood):
                assert maze.gates[cell].tolist() == [1.0, 1.0, 1.0, 1.0]
                return
    pytest.fail("no fully open interior cell found")


def test_sense_northwest_corner(sample):
    if (0, 0) in sample.blocked:
        pytest.skip("corner blocked in this layout")
    gate = dict(zip(DIRECTIONS, sample.gates[0, 0]))
    assert gate["N"] == 0 and gate["W"] == 0


def test_sense_wall_adjacency(sample):
    left_wall, _ = wall_columns(sample)
    row_a = sample.placements["a"][0]
    row = next(r for r in range(sample.height) if r != row_a and r != sample.placements["b"][0])
    cell = (row, left_wall - 1)
    assert sample.gates[cell][DIRECTIONS.index("E")] == 0


def gate_moves():
    """Every move an open cell's gate offers on 20 sampled mazes, all doors open and then
    each door closed: (maze, direction, gate, neighbour), open or not."""
    rng = stream(31)
    for _ in range(20):
        maze = mz.generate_maze(rng)
        for variant in [maze] + [mz.close_door(maze, door)[0] for door in mz.DOOR_LABELS]:
            for row in range(variant.height):
                for col in range(variant.width):
                    if (row, col) in variant.blocked:
                        continue
                    for direction, gate in zip(DIRECTIONS, variant.gates[row, col]):
                        dr, dc = DELTAS[direction]
                        yield variant, direction, gate, (row + dr, col + dc)


def test_move_and_inverse():
    # every open gate's move can be undone: its neighbour is open, and that cell's gate
    # back is open too
    moves = 0
    for maze, direction, gate, nxt in gate_moves():
        if gate:
            assert is_open(maze, nxt)
            assert maze.gates[nxt][DIRECTIONS.index(OPPOSITE[direction])] == 1
            moves += 1
    assert moves > 20 * 6 * 500


def test_move_legality_matches_sense():
    # the executor moves by a direction's delta without a check: a gate is open exactly
    # when its neighbour is on the grid and not a wall
    for maze, _, gate, nxt in gate_moves():
        assert bool(gate) == is_open(maze, nxt)


# --- door closing --------------------------------------------------------------------


def test_close_door_blocks_cell(sample):
    closed, cell = mz.close_door(sample, "d")
    assert cell == sample.placements["d"]
    assert cell in closed.blocked
    assert "d" not in closed.placements
    assert not is_open(closed, cell)


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
    maze = mz.generate_maze(stream(seed))
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
