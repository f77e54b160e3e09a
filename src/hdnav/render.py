"""Render trial traces as text overlays or standalone SVG drawings.

Input is one record from a trial JSONL file.  ``STYLES`` maps each
style name to its renderer.  Both styles are pure functions of the
record, so the same trace always renders to the same bytes.  Mission
records draw one distinguishable path per goal leg; grid-only failure
records flag the two cells of the dithering 2-cycle.
A malformed record raises ``ValueError``: not an object, maze text that is
not a string or disagrees with its ``W H`` header, a goal entry without a
``grid_path``, or a cell that is not two ints or lies off the maze's W x H.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import maze as maze_mod
from .grid import Cell

CELL_PX = 24
LEG_MARKS = "123456789"
LEG_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
DITHER_MARK = "!"


def load_trace(path: str | Path) -> list[dict]:
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad trace record: {exc}") from exc
    if not records:
        raise ValueError(f"{path}: empty trace")
    return records


def _cells(cells: object, maze: maze_mod.Maze) -> list[Cell]:
    """A path or the dither pair: ``[row, col]`` lists of two ints, each on the maze."""
    if not isinstance(cells, list):
        raise ValueError(f"trace cells {cells!r} are not a list")
    for cell in cells:
        # JSON true is an int to isinstance, but no coordinate
        if not (isinstance(cell, list) and len(cell) == 2 and all(type(v) is int for v in cell)):
            raise ValueError(f"trace cell {cell!r} is not a [row, col] pair of ints")
        if not maze.in_bounds(tuple(cell)):  # a negative index would wrap
            raise ValueError(f"trace cell {tuple(cell)} is off the {maze.width}x{maze.height} maze")
    return [tuple(cell) for cell in cells]


def _legs(record: dict, maze: maze_mod.Maze) -> list[list[Cell]]:
    if "goals" in record:
        goals = record["goals"]
        if not isinstance(goals, list) or not all(
            isinstance(goal, dict) and "grid_path" in goal for goal in goals
        ):
            raise ValueError("trace goals are not a list of entries with a grid_path")
        return [_cells(goal["grid_path"], maze) for goal in goals]
    if "grid_path" in record:
        return [_cells(record["grid_path"], maze)]
    raise ValueError("trace record has no grid paths")


def _maze(record: dict) -> tuple[maze_mod.Maze, list[list[str]], list[list[Cell]], list[Cell]]:
    """The maze and its text lines as characters, the legs and the dither cells, all on the maze.

    ``maze.from_text`` parses the maze text, checking its header, its row
    count and each row's width; the lines are the parsed maze written out,
    its ``W H`` header first, so maze row r is line r + 1.
    """
    if not isinstance(record, dict):
        raise ValueError("trace record is not an object")
    if not isinstance(record.get("maze"), str):
        raise ValueError("trace record has no maze text")
    maze = maze_mod.from_text(record["maze"])
    lines = [list(line) for line in maze_mod.to_text(maze).splitlines()]
    legs = _legs(record, maze)
    dither = _cells(record.get("dither_cells", []), maze)
    return maze, lines, legs, dither


def render_text(record: dict) -> str:
    """Maze text with per-leg digit overlays; earliest leg wins a cell."""
    _, lines, legs, dither = _maze(record)
    grid = lines[1:]  # the maze rows themselves, not copies
    for leg_idx, leg in enumerate(legs):
        mark = LEG_MARKS[min(leg_idx, len(LEG_MARKS) - 1)]
        for row, col in leg:
            if grid[row][col] == ".":
                grid[row][col] = mark
    for row, col in dither:
        grid[row][col] = DITHER_MARK
    return "".join("".join(line) + "\n" for line in lines)


def render_svg(record: dict) -> str:
    """Standalone SVG: walls, objects, one polyline per leg, dither crosses."""
    maze, lines, legs, dither = _maze(record)
    grid, width, height = lines[1:], maze.width, maze.height
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width * CELL_PX}" height="{height * CELL_PX}" '
        f'viewBox="0 0 {width * CELL_PX} {height * CELL_PX}">',
        f'<rect width="{width * CELL_PX}" height="{height * CELL_PX}" fill="white"/>',
    ]
    for row in range(height):
        for col in range(width):
            char = grid[row][col]
            x, y = col * CELL_PX, row * CELL_PX
            if char == "#":
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{CELL_PX}" height="{CELL_PX}" '
                    f'fill="#444444"/>'
                )
            elif char != ".":
                parts.append(
                    f'<text x="{x + CELL_PX // 2}" y="{y + CELL_PX * 3 // 4}" '
                    f'font-family="monospace" font-size="{CELL_PX * 2 // 3}" '
                    f'text-anchor="middle">{char}</text>'
                )
    for leg_idx, leg in enumerate(legs):
        if len(leg) < 2:
            continue
        color = LEG_COLORS[leg_idx % len(LEG_COLORS)]
        points = " ".join(
            f"{col * CELL_PX + CELL_PX // 2},{row * CELL_PX + CELL_PX // 2}"
            for row, col in leg
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="{2 + leg_idx}" stroke-opacity="0.7"/>'
        )
    for row, col in dither:
        x, y = col * CELL_PX, row * CELL_PX
        parts.append(
            f'<path d="M {x + 4} {y + 4} L {x + CELL_PX - 4} {y + CELL_PX - 4} '
            f'M {x + CELL_PX - 4} {y + 4} L {x + 4} {y + CELL_PX - 4}" '
            f'stroke="#d62728" stroke-width="3"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# style name -> renderer; the CLI's ``--style`` choices follow this order
STYLES = {"text": render_text, "svg": render_svg}
