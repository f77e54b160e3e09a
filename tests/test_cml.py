from dataclasses import replace

import numpy as np
import pytest

from hdnav import cml, hdc, mission
from hdnav.maze import object_graph

D = 1000


@pytest.fixture(scope="module")
def graph():
    return object_graph()


# --- reference: the paper's delta rule from random states --------------------------


def init_random(graph: cml.CmlGraph, d: int, rng: np.random.Generator) -> cml.Cml:
    """Gaussian initialisation: S ~ N(0, 0.1), A ~ N(0, 1), every gate open."""
    S = rng.normal(0.0, 0.1, size=(d, graph.n))
    A = rng.normal(0.0, 1.0, size=(d, len(graph.directed_edges)))
    return replace(cml.calculated(graph, S), A=A)


def train(
    model: cml.Cml, learning_rate: float = 0.05, epoch_cap: int = 10_000
) -> tuple[cml.Cml, int, float]:
    """Run train_epoch until the mean edge error drops below 1e-3 * sqrt(d).

    Raises RuntimeError when the epoch cap is reached without converging.
    """
    tolerance = 1e-3 * np.sqrt(model.d)
    error = np.inf
    for epoch in range(epoch_cap):
        model, error = cml.train_epoch(model, learning_rate)
        if error < tolerance:
            return model, epoch + 1, error
    raise RuntimeError(
        f"training failed to converge: error {error:.3g} after {epoch_cap} epochs"
    )


def reference_utility(model: cml.Cml) -> np.ndarray:
    """The paper's utilities A_dagger (s_t - s_c) of a model, (e, n, n) by (edge, t, c)."""
    A_dagger = np.linalg.pinv(model.A, rcond=1e-10)
    scores = A_dagger @ model.S  # (e, n): A_dagger s for every node state
    return scores[:, :, None] - scores[:, None, :]


def reference_pick(utility: np.ndarray, gate: np.ndarray) -> int | None:
    """Gated winner-take-all: the open edge with the largest utility, ties to the lowest."""
    legal = np.nonzero(gate)[0]
    return int(legal[np.argmax(utility[legal])]) if len(legal) else None


def flow_utility(model: cml.Cml, target: str, current: str) -> np.ndarray:
    """The flow table's score of every edge toward the target."""
    t, c = model.graph.node_index(target), model.graph.node_index(current)
    return model.F[:, t] - model.F[:, c]


def incidence(graph: cml.CmlGraph) -> np.ndarray:
    """The (n, e) incidence matrix, built edge by edge."""
    B = np.zeros((graph.n, len(graph.directed_edges)))
    for edge, (src, dst) in enumerate(graph.directed_edges):
        B[dst, edge], B[src, edge] = 1.0, -1.0
    return B


# --- graph validation -----------------------------------------------------------


def test_object_graph_shape(graph):
    assert graph.n == 8
    assert len(graph.directed_edges) == 26  # 13 sight lines, both directions


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
    c = init_random(graph, D, rng)
    assert c.S.shape == (D, 8)
    assert c.A.shape == (D, 26)
    assert c.G.shape == (26, 8)
    assert 0.05 < c.S.std() < 0.15
    assert 0.9 < c.A.std() < 1.1


def test_init_calculated_plans_with_fewer_dimensions_than_edges(graph, rng):
    # no planning quantity depends on d: the flow table is the graph's
    c = cml.init_calculated(graph, 16, rng)
    assert c.d < len(graph.directed_edges)
    for start in range(graph.n):
        for goal in range(graph.n):
            path = cml.plan_path(c, c.S[:, goal], c.S[:, start])
            assert len(path) - 1 == cml.bfs_hops(graph, start, goal)


def test_gating_column_counts_outgoing_edges(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    h = graph.node_index("h")
    assert np.count_nonzero(c.G[:, h]) == 3  # h sees k, a, b
    assert set(np.unique(c.G)) == {0.0, 1.0}  # unweighted graph gates are 1


def test_pseudo_inverse_defining_property(graph, object_cml):
    # F is the Moore-Penrose inverse of the graph's incidence matrix
    B, F = incidence(graph), object_cml.F
    assert F.shape == (len(graph.directed_edges), graph.n)
    assert np.abs(B @ F @ B - B).max() < 1e-12
    assert np.abs(F @ B @ F - F).max() < 1e-12
    assert np.abs(B @ F - (B @ F).T).max() < 1e-12
    assert np.abs(F @ B - (F @ B).T).max() < 1e-12


def test_init_calculated_exact_construction(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    for edge_idx, (src, dst) in enumerate(graph.directed_edges):
        assert np.array_equal(c.S[:, src] + c.A[:, edge_idx], c.S[:, dst])
    # node states pseudo-orthogonal
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            assert abs(hdc.cosine(c.S[:, i], c.S[:, j])) < 0.15


def test_calculated_matches_the_per_edge_loop(graph, rng):
    S = rng.normal(size=(D, graph.n))  # generic floats, so any rounding difference shows
    c = cml.calculated(graph, S)
    e = len(graph.directed_edges)
    A, G = np.zeros((D, e)), np.zeros((e, graph.n))
    for edge_idx, (src, dst) in enumerate(graph.directed_edges):
        A[:, edge_idx] = S[:, dst] - S[:, src]
        G[edge_idx, src] = 1.0
    assert np.array_equal(c.A, A)
    assert np.array_equal(c.G, G)
    assert cml.is_calculated(c)


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
    c = init_random(graph, D, rng)
    trained, err = cml.train_epoch(c, 0.0)
    assert err > 0
    assert np.array_equal(trained.S, c.S)
    assert np.array_equal(trained.A, c.A)


def test_random_init_training_converges(graph, rng):
    c = init_random(graph, D, rng)
    trained, epochs, err = train(c)
    assert err < 1e-3 * np.sqrt(D)
    assert epochs < 1000  # observed ~140 epochs at lr 0.05
    # converged model predicts every edge transition
    for edge_idx, (src, dst) in enumerate(graph.directed_edges):
        residual = np.linalg.norm(trained.S[:, dst] - trained.S[:, src] - trained.A[:, edge_idx])
        assert residual < 0.5


def test_trained_model_plans_like_calculated(graph, rng):
    trained, _, _ = train(init_random(graph, D, rng))
    for start, goal in (("k", "t"), ("h", "t"), ("c", "h")):
        path = cml.plan_path(trained, trained.state(goal), trained.state(start))
        oracle = cml.bfs_hops(graph, graph.node_index(start), graph.node_index(goal))
        assert path is not None and len(path) - 1 == oracle
    # the delta rule's own utilities pick the flow table's hop wherever one edge wins
    utility = reference_utility(trained)
    untied = 0
    for c in range(graph.n):
        for t in range(graph.n):
            best = np.flatnonzero(cml.best_edges(trained, t, c))
            if t != c and len(best) == 1:
                assert reference_pick(utility[:, t, c], trained.G[:, c]) == best[0]
                untied += 1
    assert untied == graph.n * (graph.n - 1) - len(EXACT_TIES)


def test_training_cap_raises(graph, rng):
    c = init_random(graph, D, rng)
    with pytest.raises(RuntimeError, match="converge"):
        train(c, learning_rate=1e-9, epoch_cap=3)


# --- utility / tie rule -------------------------------------------------------------


def test_utility_zero_for_reached_target(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    assert np.abs(flow_utility(c, "k", "k")).max() < 1e-9


def test_utility_matches_least_squares_oracle(graph, object_cml):
    # A = S B for the graph's incidence matrix B, and S has full column rank,
    # so the paper's A_dagger (s_t - s_c) is the minimum-norm flow F (e_t - e_c)
    # on every pair, whatever the states
    for model in (object_cml, cml.init_calculated(graph, D, np.random.default_rng(7))):
        flow = model.F[:, :, None] - model.F[:, None, :]
        assert np.abs(reference_utility(model) - flow).max() < 1e-13
    diff = object_cml.state("t") - object_cml.state("k")
    oracle, *_ = np.linalg.lstsq(object_cml.A, diff, rcond=None)
    assert np.abs(flow_utility(object_cml, "t", "k") - oracle).max() < 1e-8


def test_one_hop_utility_is_gated_max(graph, rng):
    # anti-parallel reverse edges split the flow, so the one-hop
    # coefficient is 0.25 rather than 1; the gated best is what matters
    c = cml.init_calculated(graph, D, rng)
    h, k = graph.node_index("h"), graph.node_index("k")
    edge_idx = graph.directed_edges.index((h, k))
    assert flow_utility(c, "k", "h")[edge_idx] == pytest.approx(0.25, abs=1e-12)
    assert np.flatnonzero(cml.best_edges(c, k, h)).tolist() == [edge_idx]


def test_utility_antisymmetric(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    assert np.abs(flow_utility(c, "t", "k") + flow_utility(c, "k", "t")).max() < 1e-9


# (current, target) pairs whose best two gated utilities are equal: symmetric
# routes carry the same share of the flow
EXACT_TIES = {
    ("a", "b"), ("b", "a"), ("c", "h"), ("h", "c"), ("c", "k"), ("k", "c"),
    ("c", "t"), ("t", "c"), ("d", "e"), ("e", "d"), ("h", "t"), ("t", "h"),
    ("k", "t"), ("t", "k"),
}


def door_models(object_cml):
    return {"all_doors": object_cml, "door_d_removed": mission.remove_door(object_cml, "d")}


def test_flow_table_ties_are_exact_or_far_apart(graph, object_cml):
    # on every pair, any two out-edges score within 1e-12 of each other or
    # 5e-3 apart, so the 1e-9 tie tolerance cannot misread either case
    ties = set()
    for c in range(graph.n):
        out = np.nonzero(object_cml.G[:, c])[0]
        for t in range(graph.n):
            if c == t:
                continue
            u = object_cml.F[out, t] - object_cml.F[out, c]
            gaps = np.abs(u[:, None] - u[None, :])
            assert np.all((gaps < 1e-12) | (gaps >= 5e-3))
            best = out[u >= u.max() - 1e-12]
            assert np.array_equal(np.flatnonzero(cml.best_edges(object_cml, t, c)), best)
            if len(best) > 1:
                ties.add((graph.node_labels[c], graph.node_labels[t]))
    assert ties == EXACT_TIES


@pytest.mark.parametrize("doors", ["all_doors", "door_d_removed"])
def test_step_takes_the_last_tied_edge(graph, object_cml, doors):
    model = door_models(object_cml)[doors]
    ties = set()
    for c in range(graph.n):
        out = np.nonzero(model.G[:, c])[0]
        for t in range(graph.n):
            if c == t or len(out) == 0:
                continue
            u = model.F[out, t] - model.F[out, c]
            best = out[u >= u.max() - 1e-12]
            result = cml.step(model, model.S[:, t], model.S[:, c])
            assert result.chosen_edge == best[-1]
            if len(best) > 1:
                ties.add((graph.node_labels[c], graph.node_labels[t]))
    if doors == "all_doors":
        assert ties == EXACT_TIES
    else:  # closing d's gates leaves 9 of the 14 ties: none out of d or t, nor c->t
        assert ties < EXACT_TIES and len(ties) == 9


@pytest.mark.parametrize("doors", ["all_doors", "door_d_removed"])
def test_step_picks_survive_rounding_noise_in_the_flow_table(graph, object_cml, doors):
    # another BLAS build may round F differently in its last bits; no pick moves
    model = door_models(object_cml)[doors]
    pairs = [(c, t) for c in range(graph.n) for t in range(graph.n) if c != t]

    def picks(m):
        return [cml.step(m, m.S[:, t], m.S[:, c]).chosen_edge for c, t in pairs]

    expected = picks(model)
    noise = np.random.default_rng(0)
    for _ in range(20):
        noisy = replace(model)
        object.__setattr__(noisy, "F", model.F + noise.uniform(-1e-12, 1e-12, model.F.shape))
        assert picks(noisy) == expected


# --- step -------------------------------------------------------------------------


def test_step_refuses_noise_target(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    noise = hdc.random_bipolar(D, rng)
    result = cml.step(c, noise, c.state("h"))
    assert result.chosen_edge is None
    assert result.predicted_next is None
    assert not result.recognised


def test_step_refuses_noise_current(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    result = cml.step(c, c.state("k"), hdc.random_bipolar(D, rng))
    assert result.chosen_edge is None
    assert result.predicted_next is None
    assert not result.recognised


def test_step_accepts_noisy_but_recoverable_target(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    noisy = c.state("k") + 0.5 * rng.normal(size=D)
    clean = cml.step(c, c.state("k"), c.state("h"))
    noisy_step = cml.step(c, noisy, c.state("h"))
    assert noisy_step.chosen_edge == clean.chosen_edge


def test_step_prediction_close_to_destination(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    result = cml.step(c, c.state("k"), c.state("h"))
    assert result.recognised
    assert hdc.cosine(result.predicted_next, c.state("k")) > 0.9
    edge = result.chosen_edge
    assert np.array_equal(result.predicted_next, c.state("h") + c.A[:, edge])


def test_step_zero_when_all_gates_closed(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    gated = c.G.copy()
    gated[:, graph.node_index("h")] = 0.0
    result = cml.step(replace(c, G=gated), c.state("k"), c.state("h"))
    assert result.chosen_edge is None
    assert result.predicted_next is None
    assert result.recognised  # both states recover; no gate leaves h


def test_tie_set_broadcasts_like_the_one_pair_rule(graph, object_cml):
    # one call over all (current, target) pairs gives each pair's own tie set and pick
    index = np.arange(graph.n)
    for model in door_models(object_cml).values():
        table = cml.best_edges(model, index[None, :], index[:, None])
        picks = cml.last_edge(table)
        for c in range(graph.n):
            for t in range(graph.n):
                best = cml.best_edges(model, t, c)
                assert np.array_equal(table[:, c, t], best)
                if best.any():
                    assert picks[c, t] == np.flatnonzero(best)[-1]
        # closed gates leave an empty tie set, never a pick among closed edges
        door = graph.node_index("d")
        assert table[:, door].any() == (model is object_cml)


def test_hop_distances_equal_bfs_hops(graph):
    one_way = cml.CmlGraph(("a", "b", "c"), ((0, 1), (1, 2)))
    two_parts = cml.CmlGraph.from_undirected(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    for g in (graph, one_way, two_parts):
        hops = cml.hop_distances(g)
        for start in range(g.n):
            for goal in range(g.n):
                oracle = cml.bfs_hops(g, start, goal)
                assert hops[start, goal] == (-1 if oracle is None else oracle)


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
