import dataclasses
import itertools
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import position, stream
from hdnav import experiments, hdc, maze as mz, semantic_map as sm
from hdnav.grid import GridCml

D = 1000
LABELS = list(mz.OBJECT_LABELS)


def random_objects(seed=11):
    rng = stream(seed)
    return hdc.Dictionary(tuple(LABELS), np.stack([hdc.random_bipolar(D, rng) for _ in LABELS]))


def synthetic_map(seed):
    """Map over pseudo-orthogonal random 'positions' (the easy regime).

    No grid model has such states: they span eight dimensions, not a plane,
    so the map is scored by the float cleanup reference alone.
    """
    rng = stream(seed)
    objects = hdc.Dictionary(tuple(LABELS), np.stack([hdc.random_bipolar(D, rng) for _ in LABELS]))
    cells = tuple((i, i) for i in range(8))
    positions = np.stack([hdc.random_bipolar(D, rng) for _ in range(8)])
    terms = [
        np.sign(hdc.bind(objects.vector(label), positions[i]))
        for i, label in enumerate(LABELS)
    ]
    return hdc.bundle(np.stack(terms), rng), objects, hdc.Dictionary(cells, positions)


# --- build_map ----------------------------------------------------------------------


def test_map_is_bipolar(viable_setup):
    _, memory, _ = viable_setup
    assert np.all(np.abs(memory.map_hv) == 1.0)


def test_map_bipolar_across_seeds(object_cml, grid_cml):
    objects = object_cml.state_dictionary()
    for seed in range(20):
        rng = stream(seed)
        maze = mz.generate_maze(rng)
        memory = sm.build_map(objects, maze, grid_cml, rng)
        assert np.all(np.abs(memory.map_hv) == 1.0)


def test_map_unbinding_reveals_position(viable_setup):
    maze, memory, _ = viable_setup
    released = hdc.bind(memory.map_hv, memory.objects.vector("k"))
    k_state = memory.positions.vector(memory.position_of("k"))
    assert hdc.cosine(released, k_state) > 0.1


def test_map_term_order_is_irrelevant():
    rng = stream(31)
    terms = [hdc.random_bipolar(D, rng) for _ in range(8)]
    eta = hdc.random_bipolar(D, rng)
    forward = np.sign(np.sum(terms + [eta], axis=0))
    shuffled = np.sign(np.sum(terms[::-1] + [eta], axis=0))
    assert np.array_equal(forward, shuffled)


def test_map_dictionaries_complete(viable_setup, grid_cells):
    maze, memory, _ = viable_setup
    assert len(memory.objects) == 8
    assert len(memory.positions) == 8
    assert memory.positions.labels == tuple(
        maze.placements[label] for label in memory.objects.labels
    )
    for label in LABELS:
        cell = maze.placements[label]
        assert memory.position_of(label) == cell
        assert np.array_equal(memory.positions.vector(cell), grid_cells.vector(cell))
        found = sm.query_position(memory, memory.objects.vector(label))
        assert isinstance(found, tuple) and found == cell


def test_positions_gather_only_their_eight_states(viable_setup):
    # the dictionary's rows are the placement cells' columns of P, bit for bit, and
    # building it allocates no table of every cell's state (P is 1.6 MB)
    _, memory, _ = viable_setup
    fresh = dataclasses.replace(memory)  # positions is cached per instance
    tracemalloc.start()
    try:
        positions = fresh.positions
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert positions.vectors.tobytes() == memory.grid_cml.P.T[memory.rows].tobytes()
    assert positions.labels == tuple(memory.grid_cml.cell(row) for row in memory.rows)
    assert peak < 2**20


# --- viability ----------------------------------------------------------------------


def test_synthetic_orthogonal_positions_nearly_always_viable():
    viable = 0
    for seed in range(1000):
        map_hv, objects, positions = synthetic_map(seed)
        found = hdc.recover(hdc.bind(map_hv, objects.vectors), positions)
        viable += found == positions.labels
    assert viable >= 990


def test_fixture_map_is_viable(viable_setup):
    _, memory, _ = viable_setup
    assert sm.check_viability(memory)


def test_tampered_position_dictionary_fails_viability(viable_setup):
    # two objects' cells get parallel states, p_i = 2 p_j, so their
    # recoveries tie exactly and the map is ambiguous
    _, memory, _ = viable_setup
    grid_cml = memory.grid_cml
    cells = [memory.position_of(label) for label in LABELS]
    i, j = next(
        (i, j)
        for i in range(8)
        for j in range(8)
        if cells[i][0] != cells[j][0] and cells[i][1] != cells[j][1]
    )
    x, y = grid_cml.x.copy(), grid_cml.y.copy()
    x[cells[i][0]], y[cells[i][1]] = 2 * x[cells[j][0]], 2 * y[cells[j][1]]
    tampered_grid = GridCml(x=x, y=y, a_s=grid_cml.a_s, a_e=grid_cml.a_e)
    rows = [tampered_grid.cell_index(cells[i]), tampered_grid.cell_index(cells[j])]
    p_i, p_j = tampered_grid.P.T[rows]
    assert np.array_equal(p_i, 2 * p_j)
    tampered = dataclasses.replace(memory, grid_cml=tampered_grid)
    assert sm.check_viability(memory)
    assert not sm.check_viability(tampered)
    assert reference_forward_verdict(tampered) is False


def test_trained_grid_viability_fraction_is_small(object_cml, grid_cml, config):
    # correlated grid states make most random arrangements ambiguous; the
    # harness measures the fraction and regenerates until viable
    from hdnav import experiments

    records = [
        experiments.viability_trial(config, object_cml, grid_cml, i) for i in range(200)
    ]
    viable = sum(r["viable"] for r in records)
    ready = sum(r["mission_ready"] for r in records)
    assert 0 < viable < 60
    assert 0 < ready <= viable  # readiness additionally needs arrival feedback


def test_mission_ready_implies_viable_not_conversely(object_cml, grid_cml):
    objects = object_cml.state_dictionary()
    viable_only = 0
    checked = 0
    for i in range(300):
        rng = stream([61, i])
        maze = mz.generate_maze(rng)
        memory = sm.build_map(objects, maze, grid_cml, rng)
        if sm.mission_ready(memory):
            assert sm.check_viability(memory)
        elif sm.check_viability(memory):
            viable_only += 1
        checked += 1
    # near-parallel states make the reverse queries strictly harder, so
    # some viable maps are still not mission ready
    assert viable_only > 0


def reference_check_viability(memory):
    """The per-object loop that the batched check replaced."""
    for label in memory.objects.labels:
        query = hdc.bind(memory.map_hv, memory.objects.vector(label))
        if hdc.recover(query, memory.positions) != memory.position_of(label):
            return False
    return True


def reference_check_arrivals(memory):
    """The per-object loop, each cell asked by its row as the executor asks."""
    for label in memory.objects.labels:
        if sm.query_object(memory, memory.grid_cml.cell_index(memory.position_of(label))) != label:
            return False
    return True


def test_batched_readiness_matches_per_object_loops(object_cml, grid_cml):
    objects = object_cml.state_dictionary()
    verdicts = []
    for i in range(600):
        rng = stream([73, i])
        memory = sm.build_map(objects, mz.generate_maze(rng), grid_cml, rng)
        viable = sm.check_viability(memory)
        arrivals = sm.check_arrivals(memory)
        ready = sm.mission_ready(memory)
        assert viable == reference_check_viability(memory)
        assert arrivals == reference_check_arrivals(memory)
        assert ready == (viable and arrivals)
        verdicts.append((viable, ready))
    # every verdict pair occurs: not viable, viable only, mission ready
    assert set(verdicts) == {(False, False), (True, False), (True, True)}


def test_build_map_matches_per_object_construction(object_cml, grid_cml):
    # the reference is the float construction sign(bind(o, p)) per object;
    # build_map multiplies the int8 sign patterns instead
    objects = object_cml.state_dictionary()
    for i in range(500):
        maze = mz.generate_maze(stream([74, i]))
        rng, reference_rng = stream(i), stream(i)
        memory = sm.build_map(objects, maze, grid_cml, rng)
        cells = tuple(maze.placements[label] for label in objects.labels)
        states = grid_cml.P.T[[grid_cml.cell_index(cell) for cell in cells]]
        terms = [np.sign(hdc.bind(objects.vector(l), s)) for l, s in zip(objects.labels, states)]
        assert np.array_equal(memory.map_hv, hdc.bundle(np.stack(terms), reference_rng))
        assert memory.map_hv.dtype == np.int8
        assert position(rng) == position(reference_rng)
        assert memory.positions.labels == cells
        assert np.array_equal(memory.positions.vectors, states)
        assert np.array_equal(memory.positions.norms, np.linalg.norm(states, axis=1))


def reference_build_map(objects, maze, grid_cml, rng):
    """The float construction that the int8 sign patterns replaced."""
    rows = [grid_cml.cell_index(maze.placements[label]) for label in objects.labels]
    return hdc.bundle(np.sign(hdc.bind(objects.vectors, grid_cml.P.T[rows])), rng)


def float_cosines(queries, dictionary):
    """The (m, n) cosines of an (m, d) stack of nonzero queries to every entry."""
    return queries @ dictionary.vectors.T / np.outer(hdc.row_norms(queries), dictionary.norms)


def reference_query_position(memory, object_hv):
    """The float cleanup ``query_position`` replaced: ``hdc.recover`` of ``map * o``
    over the cosines to the map's eight gathered position states."""
    return hdc.recover(hdc.bind(memory.map_hv, object_hv), memory.positions)


def reference_query_object(memory, rows):
    """The float arrival query the int8 bind replaced: ``hdc.recover`` of the float
    map times the cells' sign patterns."""
    float_map = memory.map_hv.astype(float)
    return hdc.recover(hdc.bind(float_map, memory.grid_cml.signs[rows]), memory.objects)


def reference_forward_verdict(memory):
    """The batched float recovery that the one-block forward check replaced."""
    return reference_query_position(memory, memory.objects.vectors) == memory.positions.labels


def _assert_forward_verdicts_match(memories):
    verdicts = [sm.check_viability(memory) for memory in memories]
    assert all(type(v) is bool for v in verdicts)
    assert verdicts == [reference_forward_verdict(memory) for memory in memories]
    return verdicts


def test_forward_verdict_matches_batched_recovery_on_trained_models(
    object_cml, grid_cml, monkeypatch
):
    objects = object_cml.state_dictionary()
    memories = []
    for i in range(600):
        rng = stream([77, i])
        memories.append(sm.build_map(objects, mz.generate_maze(rng), grid_cml, rng))
    floor = hdc.THETA
    for theta in (0.0, floor, 0.3):
        monkeypatch.setattr(hdc, "THETA", theta)  # both sides read the floor at call time
        verdicts = _assert_forward_verdicts_match(memories)
        if theta == floor:
            assert 0 < sum(verdicts) < len(verdicts)


def test_forward_verdict_matches_batched_recovery_on_gaussian_objects(grid_cml):
    # sign(o * p) == sign(o) * sign(p) holds for any nonzero entries, so
    # Gaussian objects also build the reference map
    rng = stream(78)
    normal = np.random.Generator(rng.bit_generator).normal
    memories = []
    for i in range(300):
        objects = hdc.Dictionary(tuple(LABELS), normal(0.0, 1.0, size=(8, D)))
        maze = mz.generate_maze(rng)
        memory = sm.build_map(objects, maze, grid_cml, stream([80, i]))
        reference = reference_build_map(objects, maze, grid_cml, stream([80, i]))
        assert np.array_equal(memory.map_hv, reference)
        memories.append(memory)
    verdicts = _assert_forward_verdicts_match(memories)
    assert 0 < sum(verdicts) < len(verdicts)


def test_forward_verdict_reads_the_object_norms_on_a_bipolar_map(viable_setup, monkeypatch):
    # binding a bipolar map only flips signs, so each query's norm is its object's bit
    # for bit; a theta just below the smallest own-cell cosine passes the map and one
    # just above fails it, as the float reference decides
    _, memory, _ = viable_setup
    queries = hdc.bind(memory.map_hv, memory.objects.vectors)
    assert hdc.row_norms(queries).tobytes() == memory.objects.norms.tobytes()
    true = float_cosines(queries, memory.positions).diagonal().min()
    for theta, verdict in ((true * 0.999, True), (true * 1.001, False)):
        monkeypatch.setattr(hdc, "THETA", theta)
        assert reference_forward_verdict(memory) is verdict
        assert sm.check_viability(memory) is verdict


def test_forward_verdict_fails_on_a_zero_query_row(viable_setup, monkeypatch):
    # a zero query scores 0 everywhere, so in row 0 it is its own argmax and
    # meets theta 0 * |q| = 0: only its norm tells it apart
    _, memory, _ = viable_setup
    zeroed_map = memory.map_hv.copy()
    zeroed_map[::5] = 0.0
    floor = hdc.THETA
    for row in (0, 3):
        vectors = memory.objects.vectors.copy()
        vectors[row] = 0.0  # its query is zero on any map: no direction, no recovery
        objects = hdc.Dictionary(memory.objects.labels, vectors)
        for map_hv in (memory.map_hv, zeroed_map):
            tampered = dataclasses.replace(memory, map_hv=map_hv, objects=objects)
            for theta in (0.0, floor):
                monkeypatch.setattr(hdc, "THETA", theta)
                assert sm.query_position(tampered, vectors[row]) is None
                assert sm.check_viability(tampered) is False
                assert reference_forward_verdict(tampered) is False


def pinned_candidates(config, objects, grid_cml, mission_trials=10):
    """Every map the seed-42 batches score: the viability batch's, then each
    candidate of the first mission trials, rejected ones included."""
    for trial in range(config.viability_mazes):
        rng = experiments.trial_rng(config.seed, experiments.TAG_VIABILITY, trial)
        yield sm.build_map(objects, mz.generate_maze(rng), grid_cml, rng)
    for trial in range(mission_trials):
        rng = experiments.trial_rng(config.seed, experiments.TAG_MISSION, trial)
        _, _, rejections = experiments.generate_viable_maze(
            experiments.trial_rng(config.seed, experiments.TAG_MISSION, trial),
            objects, grid_cml
        )
        for _ in range(rejections + 1):
            yield sm.build_map(objects, mz.generate_maze(rng), grid_cml, rng)


def plane_cosines(memory):
    """The forward check's scores ``q_i . p_j / |p_j|`` over ``|q_i|``."""
    grid_cml, objects = memory.grid_cml, memory.objects
    scores = objects.vectors @ (memory.map_hv * grid_cml.basis).T
    return scores @ grid_cml.plane[memory.rows].T / objects.norms[:, None]


PLANE_ROUNDING = 1e-12  # bound on |plane cosine - float cosine|


def test_readiness_verdicts_do_not_hinge_on_rounding(object_cml, grid_cml, config):
    # the viability and mission digests must not depend on BLAS summation
    # order or on scoring in the plane: over the pinned batches' candidates
    # the plane scores match the float cosines to PLANE_ROUNDING, every
    # deciding score clears its runner-up and theta by far more than that,
    # and the reverse cosines are exact integer dot products over a common norm
    objects = object_cml.state_dictionary()
    assert np.array_equal(np.abs(objects.vectors), np.ones_like(objects.vectors))
    count, errors, top_gaps, theta_gaps = 0, [], [], []
    for memory in pinned_candidates(config, objects, grid_cml):
        count += 1
        forward = hdc.bind(memory.map_hv, objects.vectors)
        floats = float_cosines(forward, memory.positions)
        plane = plane_cosines(memory)
        errors.append(np.abs(plane - floats).max())
        ranked = np.sort(plane, axis=1)
        top_gaps.append((ranked[:, -1] - ranked[:, -2]).min())
        theta_gaps.append(np.abs(ranked[:, -1] - hdc.THETA).min())
        reverse = hdc.bind(memory.map_hv, np.sign(memory.positions.vectors))
        assert np.array_equal(np.abs(reverse), np.ones_like(reverse))
    assert count > config.viability_mazes + 10
    assert max(errors) <= PLANE_ROUNDING
    rounding = 1e6 * np.finfo(float).eps
    assert min(top_gaps) > max(rounding, PLANE_ROUNDING)
    assert min(theta_gaps) > max(rounding, PLANE_ROUNDING)


def test_closed_form_plane_decides_viability_as_the_state_norms(object_cml):
    # each model's plane divides by norms from the actions' Gram; a plane over the
    # rebuilt states' own row norms gives the same verdict on each of 5,000 maze
    # candidates, every maze built into a map under the models of seeds 7 and 12
    objects = object_cml.state_dictionary()
    models = []
    for seed in (7, 12):
        grid_cml = experiments.build_grid_cml(experiments.ExperimentConfig(seed=seed))
        rows, cols = grid_cml.cell(np.arange(grid_cml.width * grid_cml.height))
        coords = np.stack([grid_cml.x[rows], grid_cml.y[cols]], axis=1)
        # all a map's readiness check reads of its grid model
        state_norms = SimpleNamespace(
            basis=grid_cml.basis, plane=coords / hdc.row_norms(grid_cml.P.T)[:, None]
        )
        models.append((grid_cml, state_norms))
    rng = stream(5000)
    verdicts = []
    for _ in range(5000):
        maze = mz.generate_maze(rng)
        for grid_cml, state_norms in models:
            memory = sm.build_map(objects, maze, grid_cml, rng)
            twin = sm.MapMemory(memory.map_hv, objects, state_norms, memory.rows)
            verdicts.append((sm.check_viability(memory), sm.check_viability(twin)))
    closed_form, from_states = np.array(verdicts).reshape(5000, 2, 2).T
    assert np.array_equal(closed_form, from_states)
    # viable maps are among them at each model, not only argmax failures
    assert (closed_form.sum(axis=1) > 100).all()


def test_zero_state_cells_have_no_direction(object_cml, monkeypatch):
    # an odd grid centred on zero has its middle cell at the origin: its plane row is
    # NaN and its sign pattern all 0, a grid load_models refuses.  A map with an object
    # there is never viable, and query_position recovers nothing on it, as a NaN score
    # clears no floor in hdc.cleanup
    objects = object_cml.state_dictionary()
    actions = np.random.default_rng(81).normal(0.0, 1.0, size=(2, D))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid_cml = GridCml(np.arange(-1.0, 2.0), np.arange(-1.0, 2.0), *actions)
    centre = grid_cml.cell_index((1, 1))
    assert not grid_cml.P[:, centre].any() and not grid_cml.signs[centre].any()
    assert np.isnan(grid_cml.plane[centre]).all()
    assert np.isfinite(np.delete(grid_cml.plane, centre, axis=0)).all()
    floor = hdc.THETA
    for left_out in range(9):  # each choice of the one cell no object takes
        rows = [row for row in range(9) if row != left_out]
        rng = stream([82, left_out])
        map_hv = hdc.bundle(objects.signs * grid_cml.signs[rows], rng)
        memory = sm.MapMemory(map_hv, objects, grid_cml, rows)
        for theta in (0.0, floor):
            monkeypatch.setattr(hdc, "THETA", theta)
            verdict = sm.check_viability(memory)
            found = sm.query_position(memory, objects.vectors)
            if left_out == centre:
                # eight cells with directions make a bipolar map: the reference holds
                assert np.array_equal(np.abs(map_hv), np.ones(D))
                assert verdict == reference_forward_verdict(memory)
                assert found == reference_query_position(memory, objects.vectors)
            else:
                assert verdict is False
                assert sm.mission_ready(memory) is False
                assert found == (None,) * len(rows)


def test_rejected_maps_never_gather_positions(object_cml, grid_cml):
    objects = object_cml.state_dictionary()
    kept = 0
    for i in range(300):
        rng = stream([83, i])
        maze = mz.generate_maze(rng)
        memory = sm.build_map(objects, maze, grid_cml, rng)
        sm.check_viability(memory)
        ready = sm.mission_ready(memory)
        sm.query_position(memory, objects.vectors)
        assert "positions" not in vars(memory)
        if not ready:
            continue
        kept += 1
        cells = tuple(maze.placements[label] for label in objects.labels)
        rows = [grid_cml.cell_index(cell) for cell in cells]
        assert [memory.position_of(label) for label in objects.labels] == list(cells)
        # the positions, built on request, hold the states' rows of P and the
        # derived tables a dictionary over those rows computes
        states = np.ascontiguousarray(grid_cml.P.T[rows])
        assert memory.positions.labels == cells
        assert memory.positions.vectors.tobytes() == states.tobytes()
        assert np.array_equal(memory.positions.norms, np.linalg.norm(states, axis=1))
        assert np.array_equal(memory.positions.signs, grid_cml.signs[rows])
        assert "positions" in vars(memory)
    assert kept > 0


@pytest.fixture(scope="module")
def batch_queries(config, object_cml, grid_cml):
    """Every ``query_position`` call of the seed-42 mission and door_removal batches,
    as (memory, object vectors, result), run with ``P`` and ``positions`` poisoned."""
    calls = []
    query_position = sm.query_position

    def spy(memory, object_hv):
        found = query_position(memory, object_hv)
        calls.append((memory, object_hv, found))
        return found

    def poisoned(_):
        raise AssertionError("a mission trial read a d-dimensional state table")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sm, "query_position", spy)
        mp.setattr(GridCml, "P", property(poisoned))
        mp.setattr(sm.MapMemory, "positions", property(poisoned))
        records = [
            experiments.mission_trial(config, object_cml, grid_cml, trial, door)
            for door, count in ((False, config.mission_trials), (True, config.door_removal_trials))
            for trial in range(count)
        ]
    return records, calls


def test_mission_trials_never_gather_positions_or_read_p(batch_queries, config):
    records, calls = batch_queries
    assert len(records) == config.mission_trials + config.door_removal_trials
    assert sum(record["success"] for record in records) > 0.9 * len(records)
    assert len(calls) > 5 * len(records)
    assert all("positions" not in vars(memory) for memory, _, _ in calls)


def test_query_position_matches_float_recovery_on_the_pinned_batches(batch_queries):
    # the executor's waypoint lookups: scored in the plane, they pick what the float
    # cleanup over the gathered position states picks, and every one recovers a cell
    _, calls = batch_queries
    for memory, object_hv, found in calls:
        assert found is not None
        assert found == reference_query_position(memory, object_hv)


def test_every_kept_map_recovers_each_object_cell_one_row_at_a_time(batch_queries):
    # the executor looks an object up as one (1, d) row, mission_ready as one (8, d)
    # stack; the two products differ in the last bits, and the cells must not
    records, calls = batch_queries
    maps = {id(memory): memory for memory, _, _ in calls}.values()
    assert len(maps) == len(records)  # every pinned trial keeps one map
    for memory in maps:
        objects = memory.objects
        assert [sm.query_position(memory, objects.vectors[i]) for i in range(8)] == [
            memory.position_of(label) for label in objects.labels
        ]


def test_every_kept_map_recovers_each_arrival_exactly_one_row_at_a_time(batch_queries):
    # the executor asks the arrival query with one cell row, mission_ready with the
    # eight rows stacked: every map is +-1, so is every query (its squared norm is
    # exactly d, the precondition of this test), every score is an integer sum below
    # 2**53, and the one-row and eight-row products agree bit for bit.  Either way
    # the int8 bind recovers what the float bind does
    records, calls = batch_queries
    maps = {id(memory): memory for memory, _, _ in calls}.values()
    assert len(maps) == len(records)
    for memory in maps:
        objects, signs = memory.objects, memory.grid_cml.signs
        assert np.array_equal(np.abs(memory.map_hv), np.ones(D))
        queries = hdc.bind(memory.map_hv, signs[memory.rows])
        assert ((queries * queries).sum(axis=1) == D).all()
        assert [sm.query_object(memory, row) for row in memory.rows] == list(objects.labels)
        assert sm.query_object(memory, memory.rows) == reference_query_object(memory, memory.rows)
        for row in memory.rows:
            assert sm.query_object(memory, row) == reference_query_object(memory, row)
        stacked = queries @ objects.vectors.T
        for i, row in enumerate(memory.rows):
            one = hdc.bind(memory.map_hv, signs[row : row + 1]) @ objects.vectors.T
            assert one.tobytes() == stacked[i : i + 1].tobytes()


@pytest.mark.parametrize("seed", [42, 7])
def test_rejection_loop_candidates_ask_arrivals_as_the_float_recovery_does(seed, monkeypatch):
    # every candidate the mission rejection loop builds, kept or rejected, until 5,000
    # per model seed: its eight arrival rows at once, and its first row alone
    config = experiments.ExperimentConfig(seed=seed)
    objects = experiments.build_object_cml(config).state_dictionary()
    grid_cml = experiments.build_grid_cml(config)
    build_map, candidates, wrong = sm.build_map, [0], [0]

    def checked(*args):
        memory = build_map(*args)
        found = sm.query_object(memory, memory.rows)
        assert found == reference_query_object(memory, memory.rows)
        assert sm.query_object(memory, memory.rows[0]) == reference_query_object(memory, memory.rows[0])
        candidates[0] += 1
        wrong[0] += found != objects.labels
        return memory

    monkeypatch.setattr(sm, "build_map", checked)
    for trial in itertools.count():
        if candidates[0] >= 5000:
            break
        experiments.generate_viable_maze(
            experiments.trial_rng(seed, experiments.TAG_MISSION, trial), objects, grid_cml
        )
    assert 0 < wrong[0] < candidates[0]  # candidates that fail and pass their arrivals


def synthetic_grid_map(d, seed):
    """A +-1 map at dimension ``d`` from a grid model of random chains and actions."""
    rng = stream(seed)
    normal = np.random.Generator(rng.bit_generator).normal
    chains = normal(size=mz.HEIGHT), normal(size=mz.WIDTH)
    grid_cml = GridCml(*chains, *normal(size=(2, d)))
    objects = hdc.Dictionary(tuple(LABELS), np.stack([hdc.random_bipolar(d, rng) for _ in LABELS]))
    return sm.build_map(objects, mz.generate_maze(rng), grid_cml, rng)


@pytest.mark.parametrize("d", [500, 2000])
def test_synthetic_maps_ask_arrivals_as_the_float_recovery_does(d):
    # fl(sqrt(d))**2 != d at these d, so the floor is not the naive 10 dot >= d
    assert np.sqrt(float(d)) ** 2 != d
    cells = mz.WIDTH * mz.HEIGHT
    for seed in range(10):
        memory = synthetic_grid_map(d, [d, seed])
        assert np.array_equal(np.abs(memory.map_hv), np.ones(d))
        assert sm.query_object(memory, range(cells)) == reference_query_object(memory, range(cells))
        assert sm.query_object(memory, memory.rows[0]) == reference_query_object(memory, memory.rows[0])


@pytest.mark.parametrize("d,floor_dot", [(500, 52), (1000, 100), (2000, 202)])
def test_an_arrival_dot_at_the_floor_recovers_and_one_below_does_not(d, floor_dot):
    # one object, stored so that a cell's arrival query has the integer dot t with
    # it: it is recovered exactly when t >= THETA * fl(sqrt(d))**2, the cosine floor
    # on +-1 vectors.  That is 10 t >= d at d = 1000, and one dot step above d / 10
    # where fl(sqrt(d))**2 > d; a strict > in the floor fails the first case
    memory = synthetic_grid_map(d, [d, 99])
    objects = hdc.Dictionary(("a",), memory.objects.vectors[:1])
    row = memory.rows[0]
    # the map whose arrival query at the row is the object itself, dot d
    matching = objects.vectors[0] * memory.grid_cml.signs[row]
    scale = np.sqrt(float(d)) ** 2
    for dot in (floor_dot - 2, floor_dot):
        flipped = (d - dot) // 2
        map_hv = np.concatenate([-matching[:flipped], matching[flipped:]])
        stored = sm.MapMemory(map_hv, objects, memory.grid_cml, [row])
        assert hdc.bind(stored.map_hv, stored.grid_cml.signs[row]) @ objects.vectors[0] == dot
        expected = "a" if dot >= hdc.THETA * scale else None
        assert expected == ("a" if dot == floor_dot else None)
        assert sm.query_object(stored, row) == reference_query_object(stored, row) == expected
        assert sm.query_object(stored, [row, row]) == (expected, expected)


def test_query_position_matches_float_recovery_on_noisy_and_gaussian_queries(
    object_cml, grid_cml, monkeypatch
):
    objects = object_cml.state_dictionary()
    rng = np.random.default_rng(84)
    floor, recovered = hdc.THETA, 0
    for i in range(200):
        map_rng = stream([85, i])
        memory = sm.build_map(objects, mz.generate_maze(map_rng), grid_cml, map_rng)
        queries = [objects.vectors + scale * rng.normal(size=(8, D)) for scale in (0.5, 2, 10)]
        queries.append(rng.normal(size=(8, D)))
        for theta in (0.0, floor):
            monkeypatch.setattr(hdc, "THETA", theta)
            for stack in queries:
                found = sm.query_position(memory, stack)
                assert found == reference_query_position(memory, stack)
                assert [sm.query_position(memory, q) for q in stack] == list(found)
                recovered += sum(cell is not None for cell in found)
    assert 0 < recovered < 200 * 2 * 4 * 8


@pytest.mark.parametrize("length", [999, 2000])
def test_query_position_refuses_a_query_of_another_dimension(viable_setup, length):
    # a (2000,) query must not be read as two (1000,) queries
    _, memory, _ = viable_setup
    for shape in ((length,), (3, length)):
        with pytest.raises(ValueError, match="dimension"):
            sm.query_position(memory, np.ones(shape))


# --- queries ------------------------------------------------------------------------


def test_round_trip_on_viable_map(viable_setup):
    _, memory, _ = viable_setup
    for label in LABELS:
        pos = sm.query_position(memory, memory.objects.vector(label))
        assert pos == memory.position_of(label)
        assert sm.query_object(memory, memory.grid_cml.cell_index(pos)) == label


def test_query_position_with_noise_vector_is_none(viable_setup):
    _, memory, _ = viable_setup
    rng = stream(33)
    assert sm.query_position(memory, hdc.random_bipolar(D, rng)) is None


def test_query_position_accepts_approximate_object(viable_setup):
    _, memory, _ = viable_setup
    rng = np.random.default_rng(34)
    noisy = memory.objects.vector("t") + 0.5 * rng.normal(size=D)
    assert sm.query_position(memory, noisy) == memory.position_of("t")


def test_query_object_at_door_cell(viable_setup):
    _, memory, _ = viable_setup
    assert sm.query_object(memory, memory.grid_cml.cell_index(memory.position_of("a"))) == "a"


def test_query_object_with_noise_vector_is_none(viable_setup):
    # a map that holds no object recovers nothing at any cell; the map's own
    # object-free cells are no such case, as correlated sign patterns mostly recover
    # a placed neighbour there
    _, memory, _ = viable_setup
    noise = dataclasses.replace(memory, map_hv=hdc.random_bipolar(D, stream(35)))
    cells = memory.grid_cml.width * memory.grid_cml.height
    assert sm.query_object(noise, range(cells)) == (None,) * cells
    assert sm.query_object(noise, memory.rows[0]) is None


# --- policy -------------------------------------------------------------------------


def test_policy_is_bipolar_and_counts_goals():
    rng = stream(36)
    objects = random_objects()
    policy = sm.encode_policy(["k", "t", "h"], objects, rng)
    assert np.all(np.abs(policy) == 1.0)
    revealed = []
    for _ in range(5):
        goal, policy = sm.next_goal(policy, objects)
        if goal is None:
            break
        revealed.append(goal)
    assert len(revealed) == 3


def test_policy_replays_goals_in_order():
    rng = stream(37)
    objects = random_objects()
    policy = sm.encode_policy(["k", "t", "h"], objects, rng)
    revealed = []
    for _ in range(4):
        goal, policy = sm.next_goal(policy, objects)
        revealed.append(goal)
    assert revealed == ["k", "t", "h", None]


def test_singleton_policy():
    rng = stream(38)
    objects = random_objects()
    policy = sm.encode_policy(["t"], objects, rng)
    goal, policy = sm.next_goal(policy, objects)
    assert goal == "t"
    goal, _ = sm.next_goal(policy, objects)
    assert goal is None


def test_policy_pseudo_orthogonal_to_raw_objects():
    rng = stream(39)
    objects = random_objects()
    policy = sm.encode_policy(["k", "t", "h"], objects, rng)
    for label in LABELS:
        assert abs(hdc.cosine(policy, objects.vector(label))) < 0.1


def test_policy_rejects_unknown_goal():
    with pytest.raises(ValueError, match="unknown goal"):
        sm.encode_policy(["k", "x"], random_objects(), stream(0))


def test_policy_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        sm.encode_policy([], random_objects(), stream(0))


@given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_policy_replay_order_property(goals, seed):
    rng = stream([seed, 1])
    objects = random_objects(seed)
    policy = sm.encode_policy(goals, objects, rng)
    revealed = []
    for _ in range(len(goals)):
        goal, policy = sm.next_goal(policy, objects)
        revealed.append(goal)
    assert revealed == goals


def test_policy_exhaustion_rate():
    # after the last goal the residual is permuted junk; its projection on
    # some object grazes the 0.1 noise floor in under ~2% of seeds
    false_positives = 0
    for i in range(400):
        rng = stream([53, i])
        objects = hdc.Dictionary(tuple(LABELS), np.stack([hdc.random_bipolar(D, rng) for _ in LABELS]))
        goals = [LABELS[rng.below(8)] for _ in range(1 + rng.below(5))]
        policy = sm.encode_policy(goals, objects, rng)
        for _ in goals:
            _, policy = sm.next_goal(policy, objects)
        goal, _ = sm.next_goal(policy, objects)
        false_positives += goal is not None
    assert false_positives <= 8  # ~0.8% measured over 3000 seeds


def test_length_three_policies_that_the_seed_42_model_cannot_serve(object_cml):
    # a bundle of an odd number of goals draws no tie-break, so a length-3 policy is
    # a function of the object model alone and all 512 can be unrolled exactly; at
    # seed 42 five of them reveal one extra goal after their last
    objects = object_cml.state_dictionary()
    extra = {}
    for goals in itertools.product(objects.labels, repeat=3):
        policy = sm.encode_policy(list(goals), objects, stream(0))
        revealed = []
        for _ in range(2 * len(goals)):
            goal, policy = sm.next_goal(policy, objects)
            if goal is None:
                break
            revealed.append(goal)
        if revealed != list(goals):
            assert revealed[:3] == list(goals) and len(revealed) == 4
            extra["".join(goals)] = revealed[3]
    assert extra == {"bhc": "a", "cac": "a", "ekk": "c", "ett": "k", "hkk": "c"}
