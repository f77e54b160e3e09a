"""Render trial traces as text overlays or standalone SVG drawings.

Input is one record from a trial JSONL file.  Both styles are pure
functions of the record, so the same trace always renders to the same
bytes.  Mission records draw one distinguishable path per goal leg;
grid-only failure records flag the two cells of the dithering 2-cycle.
A path or dither cell outside the maze's W x H raises ``ValueError``.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

LEG_MARKS = "123456789"
LEG_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
DITHER_MARK = "!"

Cell = tuple[int, int]


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


def _legs(record: dict) -> list[list[Cell]]:
    if "goals" in record:
        return [[tuple(c) for c in goal["grid_path"]] for goal in record["goals"]]
    if "grid_path" in record:
        return [[tuple(c) for c in record["grid_path"]]]
    raise ValueError("trace record has no grid paths")


def _maze(record: dict) -> tuple[str, list[list[str]], list[list[Cell]], list[Cell]]:
    """The maze header and rows, the legs and the dither cells, all on the W x H maze."""
    if "maze" not in record:
        raise ValueError("trace record has no maze text")
    header, *rows = record["maze"].strip("\n").split("\n")
    width, height = (int(x) for x in header.split())
    legs = _legs(record)
    dither = [tuple(c) for c in record.get("dither_cells", [])]
    for row, col in itertools.chain(dither, *legs):
        if not (0 <= row < height and 0 <= col < width):  # a negative index would wrap
            raise ValueError(f"trace cell ({row}, {col}) is off the {width}x{height} maze")
    return header, [list(row) for row in rows], legs, dither


def render_text(record: dict) -> str:
    """Maze text with per-leg digit overlays; earliest leg wins a cell."""
    header, grid, legs, dither = _maze(record)
    for leg_idx, leg in enumerate(legs):
        mark = LEG_MARKS[min(leg_idx, len(LEG_MARKS) - 1)]
        for row, col in leg:
            if grid[row][col] == ".":
                grid[row][col] = mark
    for row, col in dither:
        grid[row][col] = DITHER_MARK
    lines = [header]
    lines.extend("".join(row) for row in grid)
    return "\n".join(lines) + "\n"


def render_svg(record: dict, cell_px: int = 24) -> str:
    """Standalone SVG: walls, objects, one polyline per leg, dither crosses."""
    header, grid, legs, dither = _maze(record)
    width, height = (int(x) for x in header.split())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width * cell_px}" height="{height * cell_px}" '
        f'viewBox="0 0 {width * cell_px} {height * cell_px}">',
        f'<rect width="{width * cell_px}" height="{height * cell_px}" fill="white"/>',
    ]
    for row in range(height):
        for col in range(width):
            char = grid[row][col]
            x, y = col * cell_px, row * cell_px
            if char == "#":
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
                    f'fill="#444444"/>'
                )
            elif char != ".":
                parts.append(
                    f'<text x="{x + cell_px // 2}" y="{y + cell_px * 3 // 4}" '
                    f'font-family="monospace" font-size="{cell_px * 2 // 3}" '
                    f'text-anchor="middle">{char}</text>'
                )
    for leg_idx, leg in enumerate(legs):
        if len(leg) < 2:
            continue
        color = LEG_COLORS[leg_idx % len(LEG_COLORS)]
        points = " ".join(
            f"{col * cell_px + cell_px // 2},{row * cell_px + cell_px // 2}"
            for row, col in leg
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="{2 + leg_idx}" stroke-opacity="0.7"/>'
        )
    for row, col in dither:
        x, y = col * cell_px, row * cell_px
        parts.append(
            f'<path d="M {x + 4} {y + 4} L {x + cell_px - 4} {y + cell_px - 4} '
            f'M {x + cell_px - 4} {y + 4} L {x + 4} {y + cell_px - 4}" '
            f'stroke="#d62728" stroke-width="3"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(record: dict, style: str) -> str:
    if style == "text":
        return render_text(record)
    if style == "svg":
        return render_svg(record)
    raise ValueError(f"unknown render style {style!r} (text or svg)")
