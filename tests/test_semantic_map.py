import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdnav import hdc, maze as mz, semantic_map as sm

D = 1000
LABELS = list(mz.OBJECT_LABELS)


def random_objects(seed=11):
    rng = np.random.default_rng(seed)
    return hdc.Dictionary.from_pairs(
        [(label, hdc.random_bipolar(D, rng)) for label in LABELS]
    )


def synthetic_memory(seed):
    """Map built over pseudo-orthogonal random 'positions' (the easy regime)."""
    rng = np.random.default_rng(seed)
    objects = hdc.Dictionary.from_pairs(
        [(label, hdc.random_bipolar(D, rng)) for label in LABELS]
    )
    cells = tuple((i, i) for i in range(8))
    positions = np.stack([hdc.random_bipolar(D, rng) for _ in range(8)])
    terms = [
        hdc.sign(hdc.bind(objects.vector(label), positions[i]))
        for i, label in enumerate(LABELS)
    ]
    return sm.MapMemory(
        map_hv=hdc.bundle(terms, rng),
        objects=objects,
        positions=hdc.Dictionary(cells, positions),
    )


# --- build_map ----------------------------------------------------------------------


def test_map_is_bipolar(viable_setup):
    _, memory, _ = viable_setup
    assert hdc.is_bipolar(memory.map_hv)


def test_map_bipolar_across_seeds(object_cml, grid_cml):
    objects = object_cml.state_dictionary()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        maze = mz.generate_maze(rng)
        memory = sm.build_map(objects, maze, grid_cml, rng)
        assert hdc.is_bipolar(memory.map_hv)


def test_map_unbinding_reveals_position(viable_setup):
    maze, memory, _ = viable_setup
    released = hdc.bind(memory.map_hv, memory.objects.vector("k"))
    k_state = memory.positions.vector(memory.position_of("k"))
    assert hdc.cosine(released, k_state) > 0.1


def test_map_term_order_is_irrelevant():
    rng = np.random.default_rng(31)
    terms = [hdc.random_bipolar(D, rng) for _ in range(8)]
    eta = hdc.random_bipolar(D, rng)
    forward = hdc.sign(np.sum(terms + [eta], axis=0))
    shuffled = hdc.sign(np.sum(terms[::-1] + [eta], axis=0))
    assert np.array_equal(forward, shuffled)


def test_map_dictionaries_complete(viable_setup, grid_cml):
    maze, memory, _ = viable_setup
    assert len(memory.objects) == 8
    assert len(memory.positions) == 8
    assert memory.positions.labels == tuple(
        maze.placements[label] for label in memory.objects.labels
    )
    for label in LABELS:
        cell = maze.placements[label]
        assert memory.position_of(label) == cell
        assert np.array_equal(memory.positions.vector(cell), grid_cml.state(cell))
        found = sm.query_position(memory, memory.objects.vector(label))
        assert isinstance(found, tuple) and found == cell


# --- viability ----------------------------------------------------------------------


def test_synthetic_orthogonal_positions_nearly_always_viable():
    viable = sum(sm.check_viability(synthetic_memory(seed)) for seed in range(1000))
    assert viable >= 990


def test_fixture_map_is_viable(viable_setup):
    _, memory, _ = viable_setup
    assert sm.check_viability(memory)


def test_tampered_position_dictionary_fails_viability(viable_setup):
    _, memory, _ = viable_setup
    vectors = memory.positions.vectors.copy()
    vectors[0] = vectors[1] + 1e-9  # near-duplicate forces ambiguous recovery
    tampered = sm.MapMemory(
        map_hv=memory.map_hv,
        objects=memory.objects,
        positions=hdc.Dictionary(memory.positions.labels, vectors),
    )
    assert not sm.check_viability(tampered)


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
        rng = np.random.default_rng([61, i])
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


def reference_check_viability(memory, theta):
    """The per-object loop that the batched check replaced."""
    for label in memory.objects.labels:
        query = hdc.bind(memory.map_hv, memory.objects.vector(label))
        if hdc.recover(query, memory.positions, theta) != memory.position_of(label):
            return False
    return True


def reference_mission_ready(memory, theta):
    if not reference_check_viability(memory, theta):
        return False
    for label in memory.objects.labels:
        position_state = memory.positions.vector(memory.position_of(label))
        if sm.query_object(memory, position_state, theta) != label:
            return False
    return True


def test_batched_readiness_matches_per_object_loops(object_cml, grid_cml, config):
    objects = object_cml.state_dictionary()
    verdicts = []
    for i in range(600):
        rng = np.random.default_rng([73, i])
        memory = sm.build_map(objects, mz.generate_maze(rng), grid_cml, rng)
        viable = sm.check_viability(memory, config.theta)
        ready = sm.mission_ready(memory, config.theta)
        assert viable == reference_check_viability(memory, config.theta)
        assert ready == reference_mission_ready(memory, config.theta)
        verdicts.append((viable, ready))
    # every verdict pair occurs: not viable, viable only, mission ready
    assert set(verdicts) == {(False, False), (True, False), (True, True)}


def test_build_map_matches_per_object_construction(object_cml, grid_cml):
    # the reference is the float construction sign(bind(o, p)) per object;
    # build_map multiplies the int8 sign patterns instead
    objects = object_cml.state_dictionary()
    for i in range(500):
        maze = mz.generate_maze(np.random.default_rng([74, i]))
        rng, reference_rng = np.random.default_rng(i), np.random.default_rng(i)
        memory = sm.build_map(objects, maze, grid_cml, rng)
        cells = tuple(maze.placements[label] for label in objects.labels)
        states = np.stack([grid_cml.state(cell) for cell in cells])
        terms = [hdc.sign(hdc.bind(objects.vector(l), s)) for l, s in zip(objects.labels, states)]
        assert np.array_equal(memory.map_hv, hdc.bundle(terms, reference_rng))
        assert memory.map_hv.dtype == np.float64
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert memory.positions.labels == cells
        assert np.array_equal(memory.positions.vectors, states)
        assert np.array_equal(memory.positions.norms, np.linalg.norm(states, axis=1))


def reference_build_map(objects, maze, grid_cml, rng):
    """The float construction that the int8 sign patterns replaced."""
    positions = grid_cml.cells.take(tuple(maze.placements[label] for label in objects.labels))
    return hdc.bundle(hdc.sign(hdc.bind(objects.vectors, positions.vectors)), rng)


def reference_forward_verdict(memory, theta):
    """The batched recovery that the one-block forward check replaced."""
    return sm.query_position(memory, memory.objects.vectors, theta) == memory.positions.labels


def _assert_forward_verdicts_match(memories, theta):
    verdicts = [sm.check_viability(memory, theta) for memory in memories]
    assert all(type(v) is bool for v in verdicts)
    assert verdicts == [reference_forward_verdict(memory, theta) for memory in memories]
    return verdicts


def test_forward_verdict_matches_batched_recovery_on_trained_models(object_cml, grid_cml, config):
    objects = object_cml.state_dictionary()
    memories = []
    for i in range(600):
        rng = np.random.default_rng([77, i])
        memories.append(sm.build_map(objects, mz.generate_maze(rng), grid_cml, rng))
    for theta in (0.0, config.theta, 0.3):
        verdicts = _assert_forward_verdicts_match(memories, theta)
        if theta == config.theta:
            assert 0 < sum(verdicts) < len(verdicts)


def test_forward_verdict_matches_batched_recovery_on_gaussian_objects(grid_cml, config):
    # sign(o * p) == sign(o) * sign(p) holds for any nonzero entries, so
    # Gaussian objects also build the reference map
    rng = np.random.default_rng(78)
    memories = []
    for i in range(300):
        objects = hdc.Dictionary(tuple(LABELS), rng.normal(0.0, 1.0, size=(8, D)))
        maze = mz.generate_maze(rng)
        memory = sm.build_map(objects, maze, grid_cml, np.random.default_rng([80, i]))
        reference = reference_build_map(objects, maze, grid_cml, np.random.default_rng([80, i]))
        assert np.array_equal(memory.map_hv, reference)
        memories.append(memory)
    memories += [synthetic_memory(seed) for seed in range(50)]
    verdicts = _assert_forward_verdicts_match(memories, config.theta)
    assert 0 < sum(verdicts) < len(verdicts)


def test_forward_verdict_computes_query_norms_for_a_map_with_zero_entries(viable_setup, config):
    _, memory, _ = viable_setup
    rng = np.random.default_rng(79)
    memories = []
    for k in (1, 10, 300, 900):
        map_hv = memory.map_hv.copy()
        map_hv[rng.choice(D, size=k, replace=False)] = 0.0
        memories.append(sm.MapMemory(map_hv, memory.objects, memory.positions))
    _assert_forward_verdicts_match(memories, config.theta)
    # with 100 zero entries every query is shorter than its object, so the
    # object norms would understate each cosine by sqrt(900/1000); a theta
    # between the two readings is met only when the norms are computed
    map_hv = memory.map_hv.copy()
    map_hv[:100] = 0.0
    zeroed = sm.MapMemory(map_hv, memory.objects, memory.positions)
    queries = hdc.bind(map_hv, memory.objects.vectors)
    true = hdc.cosines(queries, hdc.row_norms(queries), memory.positions).diagonal().min()
    theta = true * (1 + np.sqrt(0.9)) / 2
    assert reference_forward_verdict(zeroed, theta) is True
    assert sm.check_viability(zeroed, theta) is True
    assert sm.check_viability(zeroed, true * 1.001) is False


def test_forward_verdict_rejects_theta_out_of_range(viable_setup):
    _, memory, _ = viable_setup
    for theta in (-0.1, 1.0):
        with pytest.raises(ValueError, match="theta"):
            sm.check_viability(memory, theta)
        with pytest.raises(ValueError, match="theta"):
            sm.mission_ready(memory, theta)


def test_forward_verdict_fails_on_a_zero_query_row(viable_setup, config):
    _, memory, _ = viable_setup
    vectors = memory.objects.vectors.copy()
    vectors[3] = 0.0  # its query is zero on any map: no direction, no recovery
    objects = hdc.Dictionary(memory.objects.labels, vectors)
    zeroed_map = memory.map_hv.copy()
    zeroed_map[::5] = 0.0
    for map_hv in (memory.map_hv, zeroed_map):
        tampered = sm.MapMemory(map_hv, objects, memory.positions)
        for theta in (0.0, config.theta):
            assert sm.query_position(tampered, vectors[3], theta) is None
            assert sm.check_viability(tampered, theta) is False
            assert reference_forward_verdict(tampered, theta) is False


def test_readiness_verdicts_do_not_hinge_on_rounding(object_cml, grid_cml, config):
    # the viability and mission digests must not depend on BLAS summation
    # order: over the pinned batch's candidates every deciding forward cosine
    # clears its runner-up and theta by far more than rounding, and the
    # reverse cosines are exact integer dot products over a common norm
    from hdnav import experiments

    objects = object_cml.state_dictionary()
    assert np.array_equal(np.abs(objects.vectors), np.ones_like(objects.vectors))
    top_gaps, theta_gaps = [], []
    for trial in range(config.viability_mazes):
        rng = experiments.trial_rng(config.seed, experiments.TAG_VIABILITY, trial)
        memory = sm.build_map(objects, mz.generate_maze(rng), grid_cml, rng)
        forward = hdc.bind(memory.map_hv, objects.vectors)
        norms = memory.positions.norms * np.linalg.norm(forward, axis=1)[:, None]
        ranked = np.sort(forward @ memory.positions.vectors.T / norms, axis=1)
        top_gaps.append((ranked[:, -1] - ranked[:, -2]).min())
        theta_gaps.append(np.abs(ranked[:, -1] - config.theta).min())
        reverse = hdc.bind(memory.map_hv, hdc.sign(memory.positions.vectors))
        assert np.array_equal(np.abs(reverse), np.ones_like(reverse))
    rounding = 1e6 * np.finfo(float).eps
    assert min(top_gaps) > rounding
    assert min(theta_gaps) > rounding


# --- queries ------------------------------------------------------------------------


def test_round_trip_on_viable_map(viable_setup):
    _, memory, _ = viable_setup
    for label in LABELS:
        pos = sm.query_position(memory, memory.objects.vector(label))
        assert pos == memory.position_of(label)
        back = sm.query_object(memory, memory.positions.vector(pos))
        assert back == label


def test_query_position_with_noise_vector_is_none(viable_setup):
    _, memory, _ = viable_setup
    rng = np.random.default_rng(33)
    assert sm.query_position(memory, hdc.random_bipolar(D, rng)) is None


def test_query_position_accepts_approximate_object(viable_setup):
    _, memory, _ = viable_setup
    rng = np.random.default_rng(34)
    noisy = memory.objects.vector("t") + 0.5 * rng.normal(size=D)
    assert sm.query_position(memory, noisy) == memory.position_of("t")


def test_query_object_at_door_cell(viable_setup):
    _, memory, _ = viable_setup
    state = memory.positions.vector(memory.position_of("a"))
    assert sm.query_object(memory, state) == "a"


def test_query_object_with_noise_vector_is_none(viable_setup):
    _, memory, _ = viable_setup
    rng = np.random.default_rng(35)
    assert sm.query_object(memory, rng.normal(size=D)) is None


# --- policy -------------------------------------------------------------------------


def test_policy_is_bipolar_and_counts_goals():
    rng = np.random.default_rng(36)
    objects = random_objects()
    policy = sm.encode_policy(["k", "t", "h"], objects, rng)
    assert hdc.is_bipolar(policy)
    revealed = []
    for _ in range(5):
        goal, policy = sm.next_goal(policy, objects)
        if goal is None:
            break
        revealed.append(goal)
    assert len(revealed) == 3


def test_policy_replays_goals_in_order():
    rng = np.random.default_rng(37)
    objects = random_objects()
    policy = sm.encode_policy(["k", "t", "h"], objects, rng)
    revealed = []
    for _ in range(4):
        goal, policy = sm.next_goal(policy, objects)
        revealed.append(goal)
    assert revealed == ["k", "t", "h", None]


def test_singleton_policy():
    rng = np.random.default_rng(38)
    objects = random_objects()
    policy = sm.encode_policy(["t"], objects, rng)
    goal, policy = sm.next_goal(policy, objects)
    assert goal == "t"
    goal, _ = sm.next_goal(policy, objects)
    assert goal is None


def test_policy_pseudo_orthogonal_to_raw_objects():
    rng = np.random.default_rng(39)
    objects = random_objects()
    policy = sm.encode_policy(["k", "t", "h"], objects, rng)
    for label in LABELS:
        assert abs(hdc.cosine(policy, objects.vector(label))) < 0.1


def test_policy_rejects_unknown_goal():
    with pytest.raises(ValueError, match="unknown goal"):
        sm.encode_policy(["k", "x"], random_objects(), np.random.default_rng(0))


def test_policy_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        sm.encode_policy([], random_objects(), np.random.default_rng(0))


@given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_policy_replay_order_property(goals, seed):
    rng = np.random.default_rng([seed, 1])
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
        rng = np.random.default_rng([53, i])
        objects = hdc.Dictionary.from_pairs(
            [(label, hdc.random_bipolar(D, rng)) for label in LABELS]
        )
        goals = [LABELS[int(rng.integers(0, 8))] for _ in range(int(rng.integers(1, 6)))]
        policy = sm.encode_policy(goals, objects, rng)
        for _ in goals:
            _, policy = sm.next_goal(policy, objects)
        goal, _ = sm.next_goal(policy, objects)
        false_positives += goal is not None
    assert false_positives <= 8  # ~0.8% measured over 3000 seeds
