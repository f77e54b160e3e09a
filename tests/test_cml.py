import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdnav import cml, hdc
from hdnav.maze import object_graph

D = 1000


@pytest.fixture(scope="module")
def graph():
    return object_graph()


# --- graph validation -----------------------------------------------------------


def test_object_graph_shape(graph):
    assert graph.n == 8
    assert graph.e == 26  # 13 sight lines, both directions


def test_graph_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop"):
        cml.CmlGraph(("a", "b"), ((0, 0),))


def test_graph_rejects_duplicate_edges():
    with pytest.raises(ValueError, match="duplicate"):
        cml.CmlGraph(("a", "b"), ((0, 1), (0, 1)))


def test_graph_rejects_bad_index():
    with pytest.raises(ValueError, match="unknown node"):
        cml.CmlGraph(("a", "b"), ((0, 5),))


# --- BFS oracle -----------------------------------------------------------------


def test_bfs_known_distances(graph):
    k, t, h = (graph.node_index(x) for x in "kth")
    assert cml.bfs_hops(graph, k, k) == 0
    assert cml.bfs_hops(graph, h, k) == 1
    assert cml.bfs_hops(graph, k, t) == 3
    assert cml.bfs_hops(graph, t, h) == 3


def test_bfs_unreachable():
    g = cml.CmlGraph(("a", "b", "c"), ((0, 1), (1, 0)))
    assert cml.bfs_hops(g, 0, 2) is None


# --- initialisation -------------------------------------------------------------


def test_init_random_shapes_and_scales(graph, rng):
    c = cml.init_random(graph, D, rng)
    assert c.S.shape == (D, 8)
    assert c.A.shape == (D, 26)
    assert c.G.shape == (26, 8)
    assert 0.05 < c.S.std() < 0.15
    assert 0.9 < c.A.std() < 1.1


def test_init_requires_enough_dimensions(graph, rng):
    with pytest.raises(ValueError, match="d >= e"):
        cml.init_random(graph, 4, rng)


def test_gating_column_counts_outgoing_edges(graph, rng):
    c = cml.init_random(graph, D, rng)
    h = graph.node_index("h")
    assert np.count_nonzero(c.G[:, h]) == 3  # h sees k, a, b
    assert set(np.unique(c.G)) == {0.0, 1.0}  # unweighted graph gates are 1


def test_pseudo_inverse_defining_property(graph, rng):
    c = cml.init_random(graph, D, rng)
    assert np.abs(c.A @ c.A_dagger @ c.A - c.A).max() < 1e-6


def test_init_calculated_exact_construction(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    for edge_idx, (src, dst) in enumerate(graph.directed_edges):
        assert np.array_equal(c.S[:, src] + c.A[:, edge_idx], c.S[:, dst])
    # node states pseudo-orthogonal
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            assert abs(hdc.cosine(c.S[:, i], c.S[:, j])) < 0.15


def test_init_calculated_reverse_edges_negate(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    index = {edge: i for i, edge in enumerate(graph.directed_edges)}
    for (src, dst), edge_idx in index.items():
        rev = index[(dst, src)]
        assert np.array_equal(c.A[:, rev], -c.A[:, edge_idx])


# --- training ---------------------------------------------------------------------


def test_calculated_is_training_fixed_point(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    trained, err = cml.train_epoch(c, 0.05)
    assert err == 0.0
    assert np.abs(trained.S - c.S).max() < 1e-12
    assert np.abs(trained.A - c.A).max() < 1e-12


def test_zero_learning_rate_changes_nothing(graph, rng):
    c = cml.init_random(graph, D, rng)
    trained, err = cml.train_epoch(c, 0.0)
    assert err > 0
    assert np.array_equal(trained.S, c.S)
    assert np.array_equal(trained.A, c.A)


def test_random_init_training_converges(graph, rng):
    c = cml.init_random(graph, D, rng)
    trained, epochs, err = cml.train(c)
    assert err < 1e-3 * np.sqrt(D)
    assert epochs < 1000  # observed ~140 epochs at lr 0.05
    # converged model predicts every edge transition
    for edge_idx, (src, dst) in enumerate(graph.directed_edges):
        residual = np.linalg.norm(trained.S[:, dst] - trained.S[:, src] - trained.A[:, edge_idx])
        assert residual < 0.5


def test_trained_model_plans_like_calculated(graph, rng):
    trained, _, _ = cml.train(cml.init_random(graph, D, rng))
    for start, goal in (("k", "t"), ("h", "t"), ("c", "h")):
        path = cml.plan_path(trained, trained.state(goal), trained.state(start))
        oracle = cml.bfs_hops(graph, graph.node_index(start), graph.node_index(goal))
        assert path is not None and len(path) - 1 == oracle


def test_training_cap_raises(graph, rng):
    c = cml.init_random(graph, D, rng)
    with pytest.raises(RuntimeError, match="converge"):
        cml.train(c, learning_rate=1e-9, epoch_cap=3)


# --- utility / selection ----------------------------------------------------------


def test_utility_zero_for_reached_target(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    u = cml.utility(c, c.state("k"), c.state("k"))
    assert np.abs(u).max() < 1e-9


def test_utility_matches_least_squares_oracle(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    diff = c.state("t") - c.state("k")
    u = cml.utility(c, c.state("t"), c.state("k"))
    oracle, *_ = np.linalg.lstsq(c.A, diff, rcond=None)
    assert np.abs(u - oracle).max() < 1e-8


def test_one_hop_utility_is_gated_max(graph, rng):
    # anti-parallel reverse columns halve A's rank, so the one-hop
    # coefficient is ~0.25 rather than 1; the gated argmax is what matters
    c = cml.init_calculated(graph, D, rng)
    h, k = graph.node_index("h"), graph.node_index("k")
    edge_idx = graph.directed_edges.index((h, k))
    u = cml.utility(c, c.state("k"), c.state("h"))
    assert u[edge_idx] == pytest.approx(0.25, abs=0.05)
    assert cml.select_action(u, c.G[:, h]) == edge_idx


def test_utility_antisymmetric(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    u_fwd = cml.utility(c, c.state("t"), c.state("k"))
    u_rev = cml.utility(c, c.state("k"), c.state("t"))
    assert np.abs(u_fwd + u_rev).max() < 1e-9


def test_select_action_honors_gating():
    assert cml.select_action(np.array([0.2, 0.9, 5.0]), np.array([1.0, 1.0, 0.0])) == 1


def test_select_action_accepts_negative_maximum():
    assert cml.select_action(np.array([-0.5, -0.1]), np.array([1.0, 1.0])) == 1


def test_select_action_all_gated_out():
    assert cml.select_action(np.array([1.0, 2.0]), np.array([0.0, 0.0])) is None


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_select_action_never_picks_gated_edge(seed):
    r = np.random.default_rng(seed)
    u = r.normal(size=10)
    g = r.choice([0.0, 1.0], size=10)
    pick = cml.select_action(u, g)
    assert pick is None or g[pick] != 0.0


# --- step -------------------------------------------------------------------------


def test_step_refuses_noise_target(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    noise = hdc.random_bipolar(D, rng)
    result = cml.step(c, noise, c.state("h"), 0.1)
    assert result.chosen_edge is None
    assert result.predicted_next is None
    assert not result.recognised


def test_step_refuses_noise_current(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    result = cml.step(c, c.state("k"), hdc.random_bipolar(D, rng), 0.1)
    assert result.chosen_edge is None
    assert result.predicted_next is None
    assert not result.recognised


def test_step_accepts_noisy_but_recoverable_target(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    noisy = c.state("k") + 0.5 * rng.normal(size=D)
    clean = cml.step(c, c.state("k"), c.state("h"), 0.1)
    noisy_step = cml.step(c, noisy, c.state("h"), 0.1)
    assert noisy_step.chosen_edge == clean.chosen_edge


def test_step_prediction_close_to_destination(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    result = cml.step(c, c.state("k"), c.state("h"), 0.1)
    assert result.recognised
    assert hdc.cosine(result.predicted_next, c.state("k")) > 0.9
    edge = result.chosen_edge
    assert np.array_equal(result.predicted_next, c.state("h") + c.A[:, edge])


def test_step_zero_when_all_gates_closed(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    gated = c.G.copy()
    gated[:, graph.node_index("h")] = 0.0
    from dataclasses import replace

    result = cml.step(replace(c, G=gated), c.state("k"), c.state("h"), 0.1)
    assert result.chosen_edge is None
    assert result.predicted_next is None
    assert result.recognised  # both states recover; no gate leaves h


# --- plan_path --------------------------------------------------------------------


def test_plan_path_already_at_target(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    assert cml.plan_path(c, c.state("k"), c.state("k")) == ["k"]


def test_plan_path_quoted_routes(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    path = cml.plan_path(c, c.state("t"), c.state("k"))
    assert path in (["k", "a", "e", "t"], ["k", "b", "d", "t"])


def test_plan_path_all_pairs_bfs_optimal(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    for start in range(graph.n):
        for goal in range(graph.n):
            if start == goal:
                continue
            path = cml.plan_path(c, c.S[:, goal], c.S[:, start])
            assert path is not None
            assert len(path) - 1 == cml.bfs_hops(graph, start, goal)
            assert path[0] == graph.node_labels[start]
            assert path[-1] == graph.node_labels[goal]


def test_plan_path_traverses_only_graph_edges(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    edges = set(graph.directed_edges)
    path = cml.plan_path(c, c.state("t"), c.state("h"))
    for a, b in zip(path, path[1:]):
        assert (graph.node_index(a), graph.node_index(b)) in edges


def test_plan_path_unreachable_fails(rng):
    g = cml.CmlGraph.from_undirected(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    c = cml.init_calculated(g, 256, rng)
    assert cml.plan_path(c, c.state("c"), c.state("a")) is None


def test_determinism_same_seed_same_model_and_paths(graph):
    c1 = cml.init_calculated(graph, D, np.random.default_rng(9))
    c2 = cml.init_calculated(graph, D, np.random.default_rng(9))
    assert np.array_equal(c1.S, c2.S)
    assert np.array_equal(c1.A, c2.A)
    p1 = cml.plan_path(c1, c1.state("t"), c1.state("k"))
    p2 = cml.plan_path(c2, c2.state("t"), c2.state("k"))
    assert p1 == p2


def test_state_dictionary_built_once(graph, rng):
    model = cml.init_calculated(graph, D, rng)
    states = model.state_dictionary()
    assert model.state_dictionary() is states
    assert states.labels == graph.node_labels
    assert np.array_equal(states.vectors, model.S.T)
