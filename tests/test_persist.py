from types import SimpleNamespace

import numpy as np
import pytest

from hdnav import cml, mission, persist
from hdnav.grid import GridCml
from hdnav.maze import object_graph
from test_cml import init_random

MODEL_LINE = f"{persist.MAGIC} {persist.FORMAT_VERSION}"


def test_object_model_round_trip_bit_exact(object_cml, tmp_path):
    path = tmp_path / "object.hdm"
    persist.save_cml(object_cml, path)
    loaded = persist.load_model(path)
    assert isinstance(loaded, cml.Cml)
    assert np.array_equal(loaded.S, object_cml.S)
    assert np.array_equal(loaded.A, object_cml.A)
    assert np.array_equal(loaded.G, object_cml.G)
    assert np.array_equal(loaded.F, object_cml.F)
    assert loaded.graph == object_cml.graph


def test_edgeless_object_model_round_trips(tmp_path):
    graph = cml.CmlGraph(("a",), ())
    model = cml.init_calculated(graph, 4, np.random.default_rng(0))
    path = tmp_path / "object.hdm"
    persist.save_cml(model, path)
    loaded = persist.load_model(path)
    assert loaded.graph == graph
    assert np.array_equal(loaded.S, model.S)
    assert loaded.A.shape == (4, 0)


def test_object_file_is_header_and_states(object_cml, tmp_path):
    path = tmp_path / "object.hdm"
    persist.save_cml(object_cml, path)
    data = path.read_bytes()
    header, _ = data.split(b"\n\n", 1)
    assert [line.split(b"=")[0] for line in header.split(b"\n")[1:]] == [b"d", b"labels", b"edges"]
    assert len(data) == len(header) + 2 + 8 * object_cml.d * object_cml.graph.n


def _random_object_cml(object_cml):
    return init_random(object_graph(), object_cml.d, np.random.default_rng(0))


@pytest.mark.parametrize(
    "derive",
    [lambda model: mission.remove_door(model, "d"), _random_object_cml],
    ids=["door_removed", "init_random"],
)
def test_save_refuses_model_the_file_cannot_hold(object_cml, tmp_path, derive):
    with pytest.raises(ValueError, match="only a calculated object model"):
        persist.save_cml(derive(object_cml), tmp_path / "object.hdm")
    assert list(tmp_path.iterdir()) == []


def test_pseudo_inverse_recomputed_on_load(object_cml, tmp_path):
    # the file holds no flow table; the loaded model derives it from its graph
    path = tmp_path / "object.hdm"
    persist.save_cml(object_cml, path)
    loaded = persist.load_model(path)
    assert loaded.F.tobytes() == object_cml.F.tobytes()
    assert loaded.F.shape == (len(object_cml.graph.directed_edges), object_cml.graph.n)


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
    assert [line.split(b"=")[0] for line in header.split(b"\n")[1:]] == [b"d", b"width", b"height"]
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
    header = f"{MODEL_LINE} grid\nd=1000000000000\nwidth=2\nheight=1\n\n".encode("ascii")
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


@pytest.mark.parametrize("version", [1, 2, 3, 99])
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


def _object_size_zero(key: str):
    """The object file with one size field of its header set to 0."""

    def corrupt(data: bytes) -> bytes:
        header, body = data.split(b"\n\n", 1)
        prefix = f"{key}=".encode("ascii")
        lines = [prefix + b"0" if line.startswith(prefix) else line for line in header.split(b"\n")]
        return b"\n".join(lines) + b"\n\n" + body

    return corrupt


def _degenerate_grid(width: int, height: int, d: int = 4):
    """A grid file of a degenerate size, with zero chains, in place of the input."""
    header = "\n".join([f"{MODEL_LINE} grid", f"d={d}", f"width={width}", f"height={height}"])
    body = np.zeros(max(height, 0)).tobytes() + np.zeros(max(width, 0)).tobytes()
    body += np.zeros(2 * max(d, 0)).tobytes()
    contents = (header + "\n\n").encode("ascii") + body
    return lambda data: contents


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_append_byte, "trailing bytes"),
        (_nan_in_last_value, "non-finite"),
        (_degenerate_grid(0, 10), "two cells"),
        (_degenerate_grid(1, 1), "two cells"),
        (_degenerate_grid(-1, -2), "'width' must be at least 1, got -1"),
        (_degenerate_grid(20, 10, d=0), "'d' must be at least 1, got 0"),
        (_object_size_zero("d"), "'d' must be at least 1, got 0"),
    ],
    ids=[
        "trailing_bytes", "nan", "zero_width_grid", "one_cell_grid",
        "negative_size_grid", "zero_d_grid", "zero_d_object",
    ],
)
def test_corrupted_file_rejected(object_cml, tmp_path, corrupt, message):
    path = tmp_path / "object.hdm"
    persist.save_cml(object_cml, path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        persist.load_model(path)


def _drop_header_field(data: bytes, key: str) -> bytes:
    header, body = data.split(b"\n\n", 1)
    prefix = f"{key}=".encode("ascii")
    lines = [line for line in header.split(b"\n") if not line.startswith(prefix)]
    return b"\n".join(lines) + b"\n\n" + body


@pytest.mark.parametrize(
    "kind,key",
    [("object", key) for key in ("d", "labels", "edges")]
    + [("grid", key) for key in ("d", "width", "height")],
)
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
