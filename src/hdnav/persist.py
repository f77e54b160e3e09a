"""Versioned flat-file persistence for trained models.

A model file holds only what training drew; the object graph and the
grid's shape are the maze's (``maze.object_graph()``, ``maze.WIDTH`` and
``maze.HEIGHT``), so no file stores them.  Layout: an ASCII magic line
``HDNAV-MODEL 5 <kind>``, one ``d=<d>`` line and a blank line, then raw
row-major blocks.  An object file holds one int8 block, the (d, 8) signs
S that ``cml.init_calculated`` drew; A and the gates are derived on load
by ``cml.calculated`` on the maze's graph, and the flow table by the
graph.  A grid file holds float64 blocks: its chains x (one per row) and
y (one per column) and its two drawn actions a_s and a_e; A4, the sign
table and U are derived on load, so no file can hold a north or west
action other than -a_s or -a_e.  Round-trips are bit-exact.

Saves refuse what a file cannot hold: an object model on another graph,
one whose A or G is not what S implies, or one whose states are not all
+1 or -1; a grid of another shape than the maze's.  Saves are atomic:
the file is written beside its destination and renamed over it, so a
failed save leaves any earlier file untouched.  Loads read each header
line to at most 64 bytes, and reject a file of another magic, version or
kind, a ``d`` that is missing or not an integer of at least 1 (each error
names the field), blocks that disagree with the header (too short or
with trailing bytes, checked before any block is read), a non-finite
grid value, and an object entry other than +1 or -1, which every
single-bit flip of an int8 sign is.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from . import maze
from .cml import Cml, calculated, is_calculated
from .grid import GridCml

MAGIC = "HDNAV-MODEL"
FORMAT_VERSION = 5
# the most bytes a header line is read to; the longest valid one,
# "HDNAV-MODEL 5 object\n", is 21, so a file with no newline near its start
# costs one small read and a short refusal
_HEADER_LINE = 64


def _write(path: str | Path, kind: str, d: int, dtype, *blocks: np.ndarray) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(f"{MAGIC} {FORMAT_VERSION} {kind}\nd={d}\n\n".encode("ascii"))
            for block in blocks:
                fh.write(np.ascontiguousarray(block, dtype=dtype).tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _check_bipolar(S: np.ndarray) -> None:
    if not (np.abs(S) == 1).all():  # init_calculated draws every state +-1
        raise ValueError("object model states are not all +1 or -1")


def save_cml(cml: Cml, path: str | Path) -> None:
    """Write S as int8 signs; refuse a model that loading S would not restore."""
    if cml.graph != maze.object_graph():
        raise ValueError("only a model on the maze's object graph can be saved")
    if not is_calculated(cml):
        raise ValueError("only a calculated object model can be saved (A = s_j - s_i, open gates)")
    _check_bipolar(cml.S)
    _write(path, "object", cml.d, np.int8, cml.S)


def save_grid_cml(grid_cml: GridCml, path: str | Path) -> None:
    """Write the chains and the two drawn actions; refuse a grid of another shape."""
    if (grid_cml.width, grid_cml.height) != (maze.WIDTH, maze.HEIGHT):
        raise ValueError(
            f"grid model is {grid_cml.width}x{grid_cml.height}, the maze {maze.WIDTH}x{maze.HEIGHT}"
        )
    blocks = (grid_cml.x, grid_cml.y, grid_cml.a_s, grid_cml.a_e)
    _write(path, "grid", grid_cml.d, np.float64, *blocks)


def _read_header(fh) -> tuple[str, int]:
    """The file's kind and ``d``, read up to the blank line that ends the header.

    The header is ASCII; a byte outside it decodes as U+FFFD, so a file that
    starts with one is refused as not a model file, not with the codec's error.
    Each line is read to at most ``_HEADER_LINE`` bytes and the blank line as
    one byte, so a file with no newline where a header line should end is
    refused after a bounded read, quoting only what was read.
    """
    first = fh.readline(_HEADER_LINE).decode("ascii", "replace").strip()
    parts = first.split()
    if len(parts) != 3 or parts[0] != MAGIC:
        raise ValueError(f"not a model file (header {first!r})")
    if _header_int("version", parts[1]) != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {parts[1]} (this version reads "
            f"{FORMAT_VERSION}); retrain the models with `hdnav train`"
        )
    key, _, value = fh.readline(_HEADER_LINE).decode("ascii", "replace").rstrip("\n").partition("=")
    if key != "d":
        raise ValueError(f"{parts[2]} model header lacks the field 'd'")
    d = _header_int("d", value)
    if fh.read(1) != b"\n":
        raise ValueError("model header does not end after its 'd' line")
    return parts[2], d


def _read_blocks(fh, dtype, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Read blocks of the given dtype and shapes, which must fill the rest of the file.

    The bytes the header implies are compared with the bytes left before
    any block is read, so a header that claims more than the file holds
    is rejected without allocating for it.
    """
    itemsize = np.dtype(dtype).itemsize
    sizes = [math.prod(shape) for shape in shapes]
    expected = itemsize * sum(sizes)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < expected:
        raise ValueError("model file truncated")
    if left > expected:
        raise ValueError("model file has trailing bytes")
    blocks = []
    for shape, size in zip(shapes, sizes):
        block = np.frombuffer(fh.read(itemsize * size), dtype=dtype).reshape(shape).copy()
        if not np.isfinite(block).all():
            raise ValueError("model file holds a non-finite value")
        blocks.append(block)
    return blocks


def _header_int(key: str, text: str) -> int:
    """The number ``text`` of header field ``key``; a ``ValueError`` naming the field
    unless it is an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"model header field {key!r} must be an integer, got {text!r}") from None
    if value < 1:
        raise ValueError(f"model header field {key!r} must be at least 1, got {value}")
    return value


def load_model(path: str | Path) -> Cml | GridCml:
    with open(path, "rb") as fh:
        kind, d = _read_header(fh)
        if kind == "object":
            graph = maze.object_graph()
            (S,) = _read_blocks(fh, np.int8, (d, graph.n))
            _check_bipolar(S)
            return calculated(graph, S.astype(float))
        if kind == "grid":
            # x, y, a_s and a_e, in the order of GridCml's fields
            return GridCml(*_read_blocks(fh, np.float64, (maze.HEIGHT,), (maze.WIDTH,), (d,), (d,)))
        raise ValueError(f"unknown model kind {kind!r}")
