import pytest

from hdnav import render

MAZE_TEXT = "\n".join(
    [
        "6 4",
        "H...#.",
        "..a.#.",
        "..##c.",
        "..k..t",
    ]
) + "\n"


def mission_record():
    return {
        "maze": MAZE_TEXT,
        "goals": [
            {"goal": "k", "grid_path": [[0, 0], [1, 0], [2, 0], [3, 0], [3, 1], [3, 2]]},
            {"goal": "t", "grid_path": [[3, 2], [3, 3], [3, 4], [3, 5]]},
            {"goal": "h", "grid_path": [[3, 5], [3, 4], [3, 3], [3, 2]]},
        ],
    }


def dither_record():
    return {
        "maze": MAZE_TEXT,
        "grid_path": [[1, 0], [1, 1], [1, 0], [1, 1], [1, 0], [1, 1], [1, 0]],
        "dither_cells": [[1, 0], [1, 1]],
        "failure_reason": "dither_abort",
    }


def test_text_render_marks_each_leg():
    art = render.render_text(mission_record())
    assert "1" in art and "2" in art
    # legs never overwrite walls or objects
    assert art.count("#") == MAZE_TEXT.count("#")
    for char in "katH":
        assert char in art


def test_text_render_earliest_leg_wins():
    art = render.render_text(mission_record())
    rows = art.splitlines()[1:]
    assert rows[3][3] == "2"  # cell (3,3) walked by legs 2 and 3; leg 2 wins


def test_text_render_flags_dither_cells():
    art = render.render_text(dither_record())
    assert art.splitlines()[2].count("!") == 2


def test_text_render_deterministic():
    assert render.render_text(mission_record()) == render.render_text(mission_record())


def test_svg_render_has_one_polyline_per_leg():
    svg = render.render_svg(mission_record())
    assert svg.count("<polyline") == 3
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_svg_render_marks_dither():
    svg = render.render_svg(dither_record())
    assert svg.count("<path d=") == 2


def test_svg_render_deterministic():
    assert render.render_svg(mission_record()) == render.render_svg(mission_record())


def test_render_style_dispatch():
    record = mission_record()
    assert render.render(record, "text") == render.render_text(record)
    assert render.render(record, "svg") == render.render_svg(record)
    for style in ("png", "vector"):
        with pytest.raises(ValueError, match="style"):
            render.render(record, style)


def test_load_trace_reports_bad_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"trial": 0}\nnot json\n')
    with pytest.raises(ValueError, match="trace.jsonl:2"):
        render.load_trace(path)


def test_load_trace_rejects_empty(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        render.load_trace(path)


@pytest.mark.parametrize("style", ["text", "svg"])
@pytest.mark.parametrize("cell", [[99, 99], [-1, -1], [2, 0], [0, 3]])
@pytest.mark.parametrize("key", ["grid_path", "dither_cells"])
def test_render_rejects_cells_off_the_maze(style, cell, key):
    record = {"maze": "3 2\nr..\n...\n", "grid_path": [[0, 0], [0, 1]], key: [cell]}
    with pytest.raises(ValueError, match="off the 3x2 maze"):
        render.render(record, style)
