"""Three-room grid maze with doors and eight placed objects.

The layout template: two full-height vertical walls split the 10x20
grid into left/middle/right rooms.  The left wall carries door ``a``
(upper half) and door ``b`` (lower half); the right wall carries ``e``
(upper) and ``d`` (lower).  A horizontal wall spans the middle room at a
random interior row with door ``c`` in it, separating an upper sub-room
(sighted through a and e) from a lower one (b and d).  ``h`` (home) and
``k`` (key) land in the left room, ``t`` (treasure) in the right room;
the robot starts at home, ``placements["h"]``.  The maze holds no robot:
the executor tracks the robot's cell as it moves, ``move_robot`` returns
the next cell, and ``sense`` gives the touch-sensor gate at a cell.

Walls are blocked cells; doors are ordinary passable cells carrying an
object label.  The relative structure is fixed across trials while the
exact wall columns, door rows, and h/k/t cells vary with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import cml
from .grid import DELTAS, DIRECTIONS, Cell

WIDTH = 20
HEIGHT = 10

OBJECT_LABELS = ("a", "b", "c", "d", "e", "k", "t", "h")
DOOR_LABELS = ("a", "b", "c", "d", "e")

# Line-of-sight graph of the eight objects: 13 undirected pairs, 26
# directed actions.  h/k/a/b see each other across the left room, a-e and
# b-d sight lines cross the middle sub-rooms, c joins both halves, d/e/t
# share the right room.
OBJECT_GRAPH_EDGES = (
    ("h", "k"),
    ("h", "a"),
    ("h", "b"),
    ("k", "a"),
    ("k", "b"),
    ("a", "e"),
    ("b", "d"),
    ("d", "t"),
    ("e", "t"),
    ("a", "c"),
    ("b", "c"),
    ("c", "d"),
    ("c", "e"),
)


def object_graph() -> cml.CmlGraph:
    """The fixed abstract graph of the eight maze objects."""
    return cml.CmlGraph.from_undirected(list(OBJECT_LABELS), list(OBJECT_GRAPH_EDGES))


@dataclass(frozen=True)
class Maze:
    blocked: frozenset[Cell]
    placements: dict[str, Cell]  # object label -> cell
    width: int = WIDTH
    height: int = HEIGHT

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.height and 0 <= cell[1] < self.width

    def passable(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.blocked


def generate_maze(rng: np.random.Generator) -> Maze:
    """Sample a maze from the template; every layout is connected.

    No retry is needed: doors a and e sit on rows above the middle wall
    (row < hrow), doors b and d on rows below it, so a/e join the left and
    right rooms to the upper middle sub-room and b/d join them to the
    lower one, while door c joins the two sub-rooms.  Objects occupy
    passable cells and block nothing.
    """
    return _sample_layout(rng)


def _sample_layout(rng: np.random.Generator) -> Maze:
    width, height = WIDTH, HEIGHT
    wall1 = int(rng.integers(2, width // 3 + 1))            # left third, >= 2 off border
    wall2 = int(rng.integers(2 * width // 3, width - 2))    # right third, >= 2 off border
    hrow = int(rng.integers(2, height - 2))                 # interior row of middle wall
    row_a = int(rng.integers(0, min(height // 2, hrow)))    # upper half, above hrow
    row_e = int(rng.integers(0, min(height // 2, hrow)))
    row_b = int(rng.integers(max(height // 2, hrow + 1), height))  # lower half, below
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

    placements: dict[str, Cell] = {
        "a": (row_a, wall1),
        "b": (row_b, wall1),
        "c": (hrow, door_c_col),
        "d": (row_d, wall2),
        "e": (row_e, wall2),
    }
    # h and k: two distinct row-major indices into the left room (columns
    # 0..wall1-1); t: one into the right room (columns wall2+1..width-1)
    right_width = width - wall2 - 1
    h_pick, k_pick = rng.choice(height * wall1, size=2, replace=False)
    placements["h"] = divmod(int(h_pick), wall1)
    placements["k"] = divmod(int(k_pick), wall1)
    t_row, t_col = divmod(int(rng.integers(0, height * right_width)), right_width)
    placements["t"] = (t_row, wall2 + 1 + t_col)

    return Maze(blocked=frozenset(blocked), placements=placements)


def sense(maze: Maze, cell: Cell) -> np.ndarray:
    """The touch-sensor gate at a cell, in ``DIRECTIONS`` order; 0 = blocked or off-grid."""
    if not maze.passable(cell):
        raise ValueError(f"cannot sense from blocked cell {cell}")
    row, col = cell
    return np.array(
        [maze.passable((row + dr, col + dc)) for dr, dc in map(DELTAS.get, DIRECTIONS)],
        dtype=float,
    )


def move_robot(maze: Maze, cell: Cell, direction: str) -> Cell:
    """The cell one step from ``cell``; an illegal move raises."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    dr, dc = DELTAS[direction]
    nxt = (cell[0] + dr, cell[1] + dc)
    if not maze.passable(nxt):
        raise ValueError(f"illegal move {direction} from {cell} into {nxt}")
    return nxt


def close_door(maze: Maze, door: str) -> tuple[Maze, Cell]:
    """Turn a door cell into wall, removing the door from play.

    Returns the updated maze and the closed cell.  The geometry edit
    accompanies zeroing the door's gates in the object-graph learner; the
    cell becomes untraversable so sensors keep the robot honest.
    """
    if door not in DOOR_LABELS:
        raise ValueError(f"not a door: {door!r}")
    cell = maze.placements[door]
    placements = {k: v for k, v in maze.placements.items() if k != door}
    return (
        replace(maze, blocked=maze.blocked | {cell}, placements=placements),
        cell,
    )


# --- text serialization ------------------------------------------------------
#
# Header "W H", then H rows of W characters: '#' wall, '.' open cell, and
# each object's letter at its cell.  Home, where the robot starts, is the
# uppercase 'H'; the other objects are lowercase.

_LETTERS = {label: label.upper() if label == "h" else label for label in OBJECT_LABELS}
_LABELS = {letter: label for label, letter in _LETTERS.items()}


def to_text(maze: Maze) -> str:
    grid = [["."] * maze.width for _ in range(maze.height)]
    for row, col in maze.blocked:
        grid[row][col] = "#"
    for label, (row, col) in maze.placements.items():
        grid[row][col] = _LETTERS[label]
    lines = [f"{maze.width} {maze.height}"]
    lines.extend("".join(row) for row in grid)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Maze:
    """Parse ``to_text`` output: its shape against the header, then its characters.

    The text must mark home with 'H' and place each object at most once.
    """
    lines = text.strip("\n").split("\n")
    try:
        width, height = (int(part) for part in lines[0].split())
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad maze header {lines[0]!r}") from exc
    if width < 1 or height < 1:
        raise ValueError(f"bad maze header {lines[0]!r}: width and height must be >= 1")
    if len(lines) != height + 1:
        raise ValueError(f"expected {height} rows, got {len(lines) - 1}")
    for row, line in enumerate(lines[1:]):
        if len(line) != width:
            raise ValueError(f"row {row} has length {len(line)}, expected {width}")
    blocked = set()
    placements: dict[str, Cell] = {}
    for row, line in enumerate(lines[1:]):
        for col, char in enumerate(line):
            if char == "#":
                blocked.add((row, col))
            elif char in _LABELS:
                if _LABELS[char] in placements:
                    raise ValueError(f"maze character {char!r} repeats at {(row, col)}")
                placements[_LABELS[char]] = (row, col)
            elif char != ".":
                raise ValueError(f"unknown maze character {char!r} at {(row, col)}")
    if "h" not in placements:
        raise ValueError("maze text has no home 'H'")
    return Maze(blocked=frozenset(blocked), placements=placements, width=width, height=height)
