"""Three-room grid maze with doors and eight placed objects.

The layout template: two full-height vertical walls split the 10x20
grid into left/middle/right rooms.  The left wall carries door ``a``
(upper half) and door ``b`` (lower half); the right wall carries ``e``
(upper) and ``d`` (lower).  A horizontal wall spans the middle room at a
random interior row with door ``c`` in it, separating an upper sub-room
(sighted through a and e) from a lower one (b and d).  ``h`` (home) and
``k`` (key) land in the left room, ``t`` (treasure) in the right room;
the robot starts at home, ``placements["h"]``.  The maze is static data,
its walls, its placements and its gate table ``Maze.gates``, which is the
robot's touch sensors.  It holds no robot: the executor tracks the
robot's cell and makes each move, by the direction's ``grid.DELTAS``.

Walls are blocked cells; doors are ordinary passable cells carrying an
object label.  The relative structure is fixed across trials while the
exact wall columns, door rows, and h/k/t cells vary with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import cml, hdc
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

    @cached_property
    def gates(self) -> np.ndarray:
        """(H, W, 4) read-only: each cell's touch-sensor gate, in ``DIRECTIONS`` order.

        ``gates[cell]`` is True where the neighbour in that direction is
        open, False for a wall or off the grid: the robot's touch sensors at
        that cell.  A blocked cell has a gate too, which no robot reads:
        every open gate leads to an open cell, so a robot that starts on
        one never stands on a wall.
        One pass over a padded occupancy grid, built on first use.
        """
        height, width = self.height, self.width
        open_cells = np.zeros((height + 2, width + 2), dtype=bool)  # one ring of padding, closed
        open_cells[1:-1, 1:-1] = True
        for row, col in self.blocked:
            open_cells[row + 1, col + 1] = False
        table = np.stack(
            [
                open_cells[1 + dr : height + 1 + dr, 1 + dc : width + 1 + dc]
                for dr, dc in map(DELTAS.get, DIRECTIONS)
            ],
            axis=-1,
        )
        table.flags.writeable = False
        return table


def generate_maze(stream: hdc.Stream) -> Maze:
    """Sample a maze from the template; every layout is connected.

    No retry is needed: doors a and e sit on rows above the middle wall
    (row < hrow), doors b and d on rows below it, so a/e join the left and
    right rooms to the upper middle sub-room and b/d join them to the
    lower one, while door c joins the two sub-rooms.  Objects occupy
    passable cells and block nothing.
    """
    return _sample_layout(stream)


# the 32-bit words of one layout when no draw rejects its word: the eight
# wall and door draws, Floyd's two draws for h and k, their shuffle, and t
_LAYOUT_WORDS = 12
# the places each wall is drawn from; each draw's ``below`` bound is its
# range's length
_WALL1_COLS = range(2, WIDTH // 3 + 1)            # left third, >= 2 off border
_WALL2_COLS = range(2 * WIDTH // 3, WIDTH - 2)    # right third, >= 2 off border
_MIDDLE_ROWS = range(2, HEIGHT - 2)               # interior row of middle wall
# the walls of every layout before its doors open, keyed by (wall1, wall2,
# hrow): both full-height columns and the middle wall's row between them,
# 150 sets built once from one tuple per cell
_CELLS = [[(row, col) for col in range(WIDTH)] for row in range(HEIGHT)]
_WALLS = {
    (wall1, wall2, hrow): frozenset(
        [_CELLS[row][col] for row in range(HEIGHT) for col in (wall1, wall2)]
        + _CELLS[hrow][wall1 + 1 : wall2]
    )
    for wall1 in _WALL1_COLS
    for wall2 in _WALL2_COLS
    for hrow in _MIDDLE_ROWS
}


def _sample_layout(stream: hdc.Stream) -> Maze:
    """One layout from one block of 32-bit words, as numpy's scalar draws make it.

    The stream's next 12 words are drawn at once, and each bound below is
    the one a ``Generator.integers(low, high)`` call drew before: ``below`` maps
    those words to it by numpy's own rule, and draws a further word from
    the stream only when that rule rejects one.  So a stream gives the maze
    numpy's scalar draws gave, and is left where they left it.
    """
    width, height = WIDTH, HEIGHT
    words = stream.words(_LAYOUT_WORDS).tolist()[::-1]
    below = stream.below
    wall1 = _WALL1_COLS[below(len(_WALL1_COLS), words)]
    wall2 = _WALL2_COLS[below(len(_WALL2_COLS), words)]
    hrow = _MIDDLE_ROWS[below(len(_MIDDLE_ROWS), words)]
    upper = min(height // 2, hrow)                  # a, e: upper half, above hrow
    row_a = below(upper, words)
    row_e = below(upper, words)
    lower = max(height // 2, hrow + 1)              # b, d: lower half, below hrow
    row_b = lower + below(height - lower, words)
    row_d = lower + below(height - lower, words)
    door_c_col = wall1 + 1 + below(wall2 - wall1 - 1, words)

    placements: dict[str, Cell] = {
        "a": (row_a, wall1),
        "b": (row_b, wall1),
        "c": (hrow, door_c_col),
        "d": (row_d, wall2),
        "e": (row_e, wall2),
    }
    blocked = _WALLS[wall1, wall2, hrow].difference(placements.values())
    # h and k: two distinct row-major indices into the left room (columns
    # 0..wall1-1), as ``Generator.choice(n, 2, replace=False)`` draws them: Floyd's
    # two draws, then one shuffle draw that swaps the pair when it reads 0
    left = height * wall1
    h_pick = below(left - 1, words)
    k_pick = below(left, words)
    if k_pick == h_pick:
        k_pick = left - 1
    if below(2, words) == 0:
        h_pick, k_pick = k_pick, h_pick
    placements["h"] = divmod(h_pick, wall1)
    placements["k"] = divmod(k_pick, wall1)
    # t: one row-major index into the right room (columns wall2+1..width-1)
    right_width = width - wall2 - 1
    t_row, t_col = divmod(below(height * right_width, words), right_width)
    placements["t"] = (t_row, wall2 + 1 + t_col)

    return Maze(blocked=blocked, placements=placements)


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
