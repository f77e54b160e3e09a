"""Versioned flat-file persistence for trained models.

Layout: an ASCII header (magic line, then one ``key=value`` per line)
ended by a blank line, then raw row-major float64 blocks.  An object
file is its graph (``labels``, ``edges``) and one block S; A and the gates
are derived on load by ``cml.calculated``, the flow table by the graph, so
a save refuses any other model.  A grid file is its chains x and y and its
two drawn actions a_s and a_e; A4, the states and U are derived on load,
so no file can hold a north or west action other than -a_s or -a_e.
Round-trips are bit-exact.

Saves are atomic: the file is written beside its destination and
renamed over it, so a failed save leaves any earlier file untouched.
Loads reject a file whose blocks disagree with its header (too short or
with trailing bytes, checked before any block is read), hold a
non-finite value, give a header number that is not an integer (each
error names its field), a size field (``d``, ``width``, ``height``)
below 1, or describe a grid of fewer than two cells.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .cml import Cml, CmlGraph, calculated, is_calculated
from .grid import GridCml

MAGIC = "HDNAV-MODEL"
FORMAT_VERSION = 4
REQUIRED_FIELDS = {
    "object": ("d", "labels", "edges"),
    "grid": ("d", "width", "height"),
}


def _write(path: str | Path, header_lines: list[str], *blocks: np.ndarray) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(("\n".join(header_lines) + "\n\n").encode("ascii"))
            for block in blocks:
                fh.write(np.ascontiguousarray(block, dtype=np.float64).tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_cml(cml: Cml, path: str | Path) -> None:
    """Write the graph and S; refuse a model whose A or G the file could not restore."""
    if not is_calculated(cml):
        raise ValueError("only a calculated object model can be saved (A = s_j - s_i, open gates)")
    graph = cml.graph
    header = [
        f"{MAGIC} {FORMAT_VERSION} object",
        f"d={cml.d}",
        "labels=" + " ".join(graph.node_labels),
        "edges=" + " ".join(f"{s}>{t}" for s, t in graph.directed_edges),
    ]
    _write(path, header, cml.S)


def save_grid_cml(grid_cml: GridCml, path: str | Path) -> None:
    header = [
        f"{MAGIC} {FORMAT_VERSION} grid",
        f"d={grid_cml.d}",
        f"width={grid_cml.width}",
        f"height={grid_cml.height}",
    ]
    _write(path, header, grid_cml.x, grid_cml.y, grid_cml.a_s, grid_cml.a_e)


def _read_header(fh) -> tuple[str, dict[str, str]]:
    first = fh.readline().decode("ascii").strip()
    parts = first.split()
    if len(parts) != 3 or parts[0] != MAGIC:
        raise ValueError(f"not a model file (header {first!r})")
    if _header_int("version", parts[1]) != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {parts[1]} (this version reads "
            f"{FORMAT_VERSION}); retrain the models with `hdnav train`"
        )
    kind = parts[2]
    fields: dict[str, str] = {}
    while True:
        line = fh.readline().decode("ascii").rstrip("\n")
        if line == "":
            return kind, fields
        if "=" not in line:
            raise ValueError(f"bad header line {line!r}")
        key, value = line.split("=", 1)
        fields[key] = value


def _read_blocks(fh, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Read float64 blocks of the given shapes, which must fill the rest of the file.

    The bytes the header implies are compared with the bytes left before
    any block is read, so a header that claims more than the file holds
    is rejected without allocating for it.
    """
    sizes = [math.prod(shape) for shape in shapes]
    expected = 8 * sum(sizes)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < expected:
        raise ValueError("model file truncated")
    if left > expected:
        raise ValueError("model file has trailing bytes")
    blocks = []
    for shape, size in zip(shapes, sizes):
        block = np.frombuffer(fh.read(8 * size), dtype=np.float64).reshape(shape).copy()
        if not np.isfinite(block).all():
            raise ValueError("model file holds a non-finite value")
        blocks.append(block)
    return blocks


def _header_int(key: str, text: str, least: int = 1) -> int:
    """The number ``text`` of header field ``key``; a ``ValueError`` naming the field
    unless it is an integer of at least ``least``."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"model header field {key!r} must be an integer, got {text!r}") from None
    if value < least:
        raise ValueError(f"model header field {key!r} must be at least {least}, got {value}")
    return value


def _header_edge(item: str) -> tuple[int, int]:
    """One ``src>dst`` item of header field ``edges``; a ``ValueError`` naming the
    field unless it is two integers of at least 0."""
    ends = item.split(">")
    if len(ends) != 2:
        raise ValueError(f"model header field 'edges' must hold src>dst pairs, got {item!r}")
    src, dst = (_header_int("edges", end, least=0) for end in ends)
    return src, dst


def load_model(path: str | Path) -> Cml | GridCml:
    with open(path, "rb") as fh:
        kind, fields = _read_header(fh)
        for key in REQUIRED_FIELDS.get(kind, ()):
            if key not in fields:
                raise ValueError(f"{kind} model header lacks the field {key!r}")
        if kind == "object":
            d = _header_int("d", fields["d"])
            labels = tuple(fields["labels"].split(" "))
            edges = tuple(_header_edge(item) for item in fields["edges"].split())
            graph = CmlGraph(node_labels=labels, directed_edges=edges)
            (S,) = _read_blocks(fh, (d, graph.n))
            return calculated(graph, S)
        if kind == "grid":
            d, width, height = (_header_int(key, fields[key]) for key in ("d", "width", "height"))
            if width * height < 2:
                raise ValueError(f"grid needs at least two cells, got {width}x{height}")
            x, y, a_s, a_e = _read_blocks(fh, (height,), (width,), (d,), (d,))
            return GridCml(x=x, y=y, a_s=a_s, a_e=a_e)
        raise ValueError(f"unknown model kind {kind!r}")
