from types import SimpleNamespace

import numpy as np
import pytest

from hdnav import cml, maze, mission, persist
from hdnav.grid import GridCml
from hdnav.maze import object_graph
from conftest import stream
from test_cml import init_random
from test_experiments import flip_state_bit

MODEL_LINE = f"{persist.MAGIC} {persist.FORMAT_VERSION}"


def test_object_model_round_trip_bit_exact(object_cml, tmp_path):
    path = tmp_path / "object.hdm"
    persist.save_cml(object_cml, path)
    loaded = persist.load_model(path)
    assert isinstance(loaded, cml.Cml)
    assert np.array_equal(loaded.S, object_cml.S)
    assert np.array_equal(loaded.A, object_cml.A)
    assert np.array_equal(loaded.G, object_cml.G)
    assert np.array_equal(loaded.graph.F, object_cml.graph.F)
    assert loaded.graph == object_cml.graph


def test_object_file_is_header_and_states(object_cml, tmp_path):
    path = tmp_path / "object.hdm"
    persist.save_cml(object_cml, path)
    data = path.read_bytes()
    header, body = data.split(b"\n\n", 1)
    assert header.split(b"\n") == [f"{MODEL_LINE} object".encode("ascii"), b"d=1000"]
    assert len(body) == object_cml.d * object_cml.graph.n == 8_000
    signs = np.frombuffer(body, dtype=np.int8).reshape(object_cml.S.shape)
    assert np.array_equal(signs, object_cml.S)


# the graph and shape that every format-5 file assumes, written out: a file stores
# neither, so a change to either must come with a new persist.FORMAT_VERSION
PINNED_LABELS = ("a", "b", "c", "d", "e", "k", "t", "h")
PINNED_EDGES = (
    (7, 5), (5, 7), (7, 0), (0, 7), (7, 1), (1, 7), (5, 0), (0, 5), (5, 1), (1, 5),
    (0, 4), (4, 0), (1, 3), (3, 1), (3, 6), (6, 3), (4, 6), (6, 4), (0, 2), (2, 0),
    (1, 2), (2, 1), (2, 3), (3, 2), (2, 4), (4, 2),
)


def test_format_pins_the_maze_graph_and_shape():
    graph = object_graph()
    bump = "model files assume this; a change needs a new persist.FORMAT_VERSION"
    assert graph.node_labels == PINNED_LABELS, f"object labels or their order changed: {bump}"
    assert graph.directed_edges == PINNED_EDGES, f"object edges or their order changed: {bump}"
    assert (maze.WIDTH, maze.HEIGHT) == (20, 10), f"maze shape changed: {bump}"


def _random_object_cml(object_cml):
    return init_random(object_graph(), object_cml.d, stream(0))


def _on_graph(change):
    """The model's states on the maze's graph after ``change``."""
    return lambda model: cml.calculated(change(object_graph()), model.S)


def _without_h_k(graph):
    h, k = graph.node_index("h"), graph.node_index("k")
    edges = tuple(edge for edge in graph.directed_edges if set(edge) != {h, k})
    return cml.CmlGraph(graph.node_labels, edges)


def _relabelled(graph):
    # the same eight labels in another order: every edge now joins other objects
    return cml.CmlGraph(graph.node_labels[::-1], graph.directed_edges)


def _edges_reversed(graph):
    # the same edges in reverse order: the tie rule's "last tied edge" changes
    return cml.CmlGraph(graph.node_labels, graph.directed_edges[::-1])


ANOTHER_GRAPH = "only a model on the maze's object graph"
NOT_CALCULATED = "only a calculated object model"


@pytest.mark.parametrize(
    "derive,message",
    [
        (lambda model: mission.remove_door(model, "d"), NOT_CALCULATED),
        (_random_object_cml, NOT_CALCULATED),
        (_on_graph(_without_h_k), ANOTHER_GRAPH),
        (_on_graph(_relabelled), ANOTHER_GRAPH),
        (_on_graph(_edges_reversed), ANOTHER_GRAPH),
        # calculated on the maze's graph, but its states are +-2, which int8 signs
        # could not hold
        (lambda model: cml.calculated(object_graph(), 2 * model.S), r"not all \+1 or -1"),
    ],
    ids=["door_removed", "init_random", "without_h_k", "relabelled", "edges_reversed",
         "not_bipolar"],
)
def test_save_refuses_model_the_file_cannot_hold(object_cml, tmp_path, derive, message):
    with pytest.raises(ValueError, match=message):
        persist.save_cml(derive(object_cml), tmp_path / "object.hdm")
    assert list(tmp_path.iterdir()) == []


def test_save_refuses_grid_of_another_shape(grid_cml, tmp_path):
    small = GridCml(x=grid_cml.x[:4], y=grid_cml.y[:7], a_s=grid_cml.a_s, a_e=grid_cml.a_e)
    with pytest.raises(ValueError, match="grid model is 7x4, the maze 20x10"):
        persist.save_grid_cml(small, tmp_path / "grid.hdm")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bit", range(8))
def test_every_single_bit_flip_of_a_sign_is_refused(object_cml, tmp_path, bit):
    # a flipped bit turns +1 into 0, 3, 5, 9, 17, 33, 65 or -127, and -1 into -2, -3,
    # -5, -9, -17, -33, -65 or 127: never +-1, so the load refuses every one
    path = tmp_path / "object.hdm"
    for sign in (1, -1):
        persist.save_cml(object_cml, path)
        entry = int(np.flatnonzero(object_cml.S == sign)[0])
        flip_state_bit(path, entry, bit)
        body = path.read_bytes().split(b"\n\n", 1)[1]
        assert np.frombuffer(body, dtype=np.int8)[entry] not in (1, -1)
        with pytest.raises(ValueError, match=r"object model states are not all \+1 or -1"):
            persist.load_model(path)


def test_pseudo_inverse_recomputed_on_load(object_cml, tmp_path):
    # the file holds no flow table; the loaded model derives it from its graph
    path = tmp_path / "object.hdm"
    persist.save_cml(object_cml, path)
    loaded = persist.load_model(path)
    assert loaded.graph.F.tobytes() == object_cml.graph.F.tobytes()
    assert loaded.graph.F.shape == (len(object_cml.graph.directed_edges), object_cml.graph.n)


def test_loaded_model_derives_its_flow_table_when_it_first_plans(object_cml, tmp_path):
    # loading builds the learner and checks it, and pays no pseudo-inverse
    path = tmp_path / "object.hdm"
    persist.save_cml(object_cml, path)
    loaded = persist.load_model(path)
    assert "F" not in vars(loaded.graph)
    cml.step(loaded, loaded.state("t"), loaded.state("h"))
    assert "F" in vars(loaded.graph)


def test_grid_model_round_trip_bit_exact(grid_cml, tmp_path):
    path = tmp_path / "grid.hdm"
    persist.save_grid_cml(grid_cml, path)
    loaded = persist.load_model(path)
    assert isinstance(loaded, GridCml)
    # the stored plane and everything derived from it, bit for bit
    for name in ("x", "y", "a_s", "a_e", "A4", "P", "U", "signs", "basis", "plane"):
        assert getattr(loaded, name).tobytes() == getattr(grid_cml, name).tobytes(), name
    assert (loaded.width, loaded.height) == (grid_cml.width, grid_cml.height)


def test_grid_file_is_header_and_plane(grid_cml, tmp_path):
    # the file holds the chains and the two drawn actions, not A4 or the states
    path = tmp_path / "grid.hdm"
    persist.save_grid_cml(grid_cml, path)
    data = path.read_bytes()
    header, _ = data.split(b"\n\n", 1)
    assert header.split(b"\n") == [f"{MODEL_LINE} grid".encode("ascii"), b"d=1000"]
    height, width, d = grid_cml.height, grid_cml.width, grid_cml.d
    assert len(data) == len(header) + 2 + 8 * (height + width + 2 * d)
    assert len(data) - len(header) - 2 == 16_240


def test_save_load_save_is_stable(grid_cml, tmp_path):
    p1, p2 = tmp_path / "g1.hdm", tmp_path / "g2.hdm"
    persist.save_grid_cml(grid_cml, p1)
    persist.save_grid_cml(persist.load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_rejected(object_cml, tmp_path):
    path = tmp_path / "object.hdm"
    persist.save_cml(object_cml, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 100])
    with pytest.raises(ValueError, match="truncated"):
        persist.load_model(path)


def _oversized_grid_file(path):
    """141 bytes whose header claims d=10^12: far more block bytes than the file holds."""
    header = f"{MODEL_LINE} grid\nd=1000000000000\n\n".encode("ascii")
    path.write_bytes(header + bytes(141 - len(header)))
    assert path.stat().st_size == 141
    return path


def test_oversized_header_rejected_before_reading(tmp_path):
    with pytest.raises(ValueError, match="truncated"):
        persist.load_model(_oversized_grid_file(tmp_path / "huge.hdm"))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.hdm"
    path.write_bytes(b"NOT-A-MODEL 1 object\n\n")
    with pytest.raises(ValueError, match="not a model file"):
        persist.load_model(path)


def test_non_ascii_magic_rejected_as_not_a_model_file(tmp_path):
    # a byte-order mark and a NUL where the magic line should be: refused as not a model
    # file, not with the ASCII codec's message
    path = tmp_path / "junk.hdm"
    path.write_bytes(b"\xff\xfe\x00garbage")
    # the two bytes outside ASCII read as U+FFFD; the NUL is printed as its escape
    with pytest.raises(ValueError, match=r"^not a model file \(header '\ufffd\ufffd\\x00garbage'\)$"):
        persist.load_model(path)


@pytest.mark.parametrize(
    "head,message,before",
    [
        (b"", "not a model file", 0),
        # the magic line is read whole, then the d line to its bound, then one byte
        (f"{MODEL_LINE} object\nd=".encode("ascii"), "does not end after its 'd' line", 22),
    ],
    ids=["magic_line", "d_line"],
)
def test_newline_free_file_refused_after_a_bounded_read(tmp_path, head, message, before):
    # a megabyte with no newline where a header line should end: each header line is
    # read to at most its bound, and the refusal quotes only what was read
    path = tmp_path / "junk.hdm"
    path.write_bytes(head + b"1" * 2**20)
    with pytest.raises(ValueError, match=message) as refusal:
        persist.load_model(path)
    assert len(str(refusal.value)) < 200
    with open(path, "rb") as fh:
        with pytest.raises(ValueError, match=message):
            persist._read_header(fh)
        assert fh.tell() <= before + persist._HEADER_LINE


def test_non_ascii_d_line_rejected_naming_the_field(object_cml, tmp_path):
    path = tmp_path / "object.hdm"
    persist.save_cml(object_cml, path)
    header, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\nd=\xff" + body[body.index(b"\n"):])
    with pytest.raises(ValueError, match="model header field 'd' must be an integer"):
        persist.load_model(path)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 99])
def test_unsupported_version_rejected(object_cml, grid_cml, tmp_path, version):
    # a file of an older layout, of either kind, is refused before its body is read
    for kind, save, model in (
        ("object", persist.save_cml, object_cml),
        ("grid", persist.save_grid_cml, grid_cml),
    ):
        path = tmp_path / f"{kind}.hdm"
        save(model, path)
        old = f"{persist.MAGIC} {version} {kind}".encode("ascii")
        path.write_bytes(path.read_bytes().replace(f"{MODEL_LINE} {kind}".encode("ascii"), old, 1))
        with pytest.raises(ValueError, match=f"version {version} .*retrain the models"):
            persist.load_model(path)


def _append_byte(data: bytes) -> bytes:
    return data + b"\0"


def _nan_in_last_value(data: bytes) -> bytes:
    return data[:-8] + np.array([np.nan]).tobytes()


def _header_d(value: str):
    """The file with its ``d`` set to ``value``."""

    def corrupt(data: bytes) -> bytes:
        header, body = data.split(b"\n\n", 1)
        first, _ = header.split(b"\n")
        return first + b"\nd=" + value.encode("ascii") + b"\n\n" + body

    return corrupt


def _extra_header_line(data: bytes) -> bytes:
    header, body = data.split(b"\n\n", 1)
    return header + b"\nwidth=20\n\n" + body


def _kind_word(data: bytes) -> bytes:
    return data.replace(b" object\n", b" bogus\n", 1)


def _version_word(data: bytes) -> bytes:
    return data.replace(MODEL_LINE.encode("ascii"), f"{persist.MAGIC} four".encode("ascii"), 1)


def _degenerate_grid(width: int, height: int, d: int = 4):
    """A grid file whose blocks are sized for a grid of a degenerate size, with zero
    chains, in place of the input: the maze's shape, not the file, sizes the chains."""
    header = f"{MODEL_LINE} grid\nd={d}"
    body = np.zeros(max(height, 0)).tobytes() + np.zeros(max(width, 0)).tobytes()
    body += np.zeros(2 * max(d, 0)).tobytes()
    contents = (header + "\n\n").encode("ascii") + body
    return lambda data: contents


@pytest.mark.parametrize(
    "kind,corrupt,message",
    [
        ("object", _append_byte, "trailing bytes"),
        ("grid", _nan_in_last_value, "non-finite"),
        ("grid", _degenerate_grid(0, 10), "truncated"),
        ("grid", _degenerate_grid(1, 1), "truncated"),
        ("grid", _degenerate_grid(-1, -2), "truncated"),
        ("grid", _degenerate_grid(20, 10, d=0), "'d' must be at least 1, got 0"),
        ("object", _header_d("0"), "'d' must be at least 1, got 0"),
        # a header number that is not an integer is refused by its field's name
        ("object", _header_d("1e3"), "'d' must be an integer, got '1e3'"),
        ("object", _version_word, "'version' must be an integer, got 'four'"),
        # the header is the magic line and d alone; the blocks start after its blank line
        ("grid", _extra_header_line, "does not end after its 'd' line"),
        ("object", _kind_word, "unknown model kind 'bogus'"),
    ],
    ids=[
        "trailing_bytes", "nan", "zero_width_grid", "one_cell_grid",
        "negative_size_grid", "zero_d_grid", "zero_d_object",
        "float_d", "word_version", "extra_header_line", "unknown_kind",
    ],
)
def test_corrupted_file_rejected(object_cml, grid_cml, tmp_path, kind, corrupt, message):
    path = tmp_path / f"{kind}.hdm"
    if kind == "object":
        persist.save_cml(object_cml, path)
    else:
        persist.save_grid_cml(grid_cml, path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        persist.load_model(path)


def _drop_header_field(data: bytes, key: str) -> bytes:
    header, body = data.split(b"\n\n", 1)
    prefix = f"{key}=".encode("ascii")
    lines = [line for line in header.split(b"\n") if not line.startswith(prefix)]
    return b"\n".join(lines) + b"\n\n" + body


@pytest.mark.parametrize("kind,key", [("object", "d"), ("grid", "d")])
def test_missing_header_field_rejected(object_cml, grid_cml, tmp_path, kind, key):
    path = tmp_path / f"{kind}.hdm"
    if kind == "object":
        persist.save_cml(object_cml, path)
    else:
        persist.save_grid_cml(grid_cml, path)
    path.write_bytes(_drop_header_field(path.read_bytes(), key))
    with pytest.raises(ValueError, match=f"lacks the field '{key}'"):
        persist.load_model(path)


class _FailingBlock:
    """Array-like whose conversion fails, as a write error part-way through."""

    def __array__(self, dtype=None, copy=None):
        raise OSError("disk full")


def test_failed_save_keeps_existing_file(grid_cml, tmp_path):
    path = tmp_path / "grid.hdm"
    persist.save_grid_cml(grid_cml, path)
    before = path.read_bytes()
    broken = SimpleNamespace(
        d=grid_cml.d,
        width=grid_cml.width,
        height=grid_cml.height,
        x=grid_cml.x,
        y=grid_cml.y,
        a_s=grid_cml.a_s,
        a_e=_FailingBlock(),
    )
    with pytest.raises(OSError, match="disk full"):
        persist.save_grid_cml(broken, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
