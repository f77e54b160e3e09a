from dataclasses import replace

import numpy as np
import pytest

from conftest import stream
from hdnav import cml, hdc, mission
from hdnav.maze import object_graph

D = 1000


@pytest.fixture(scope="module")
def graph():
    return object_graph()


# --- reference: the paper's delta rule from random states --------------------------


def init_random(graph: cml.CmlGraph, d: int, rng: hdc.Stream) -> cml.Cml:
    """Gaussian initialisation: S ~ N(0, 0.1), A ~ N(0, 1), every gate open, drawn by a
    ``Generator`` on the stream's ``PCG64``."""
    normal = np.random.Generator(rng.bit_generator).normal
    S = normal(0.0, 0.1, size=(d, graph.n))
    A = normal(0.0, 1.0, size=(d, len(graph.directed_edges)))
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


def flow_scale(graph: cml.CmlGraph) -> int:
    """2 n tau for a connected graph: tau is the determinant of the reduced Laplacian."""
    B = incidence(graph)
    tau = round(np.linalg.det((B @ B.T / 2)[1:, 1:]))
    return 2 * graph.n * tau


def flow_utility(model: cml.Cml, target: str, current: str) -> np.ndarray:
    """The flow table's score of every edge toward the target, as a share of the unit flow."""
    t, c = model.graph.node_index(target), model.graph.node_index(current)
    return (model.graph.F[:, t] - model.graph.F[:, c]) / flow_scale(model.graph)


def with_flow(model: cml.Cml, F: np.ndarray) -> cml.Cml:
    """The model on a copy of its graph whose flow table is F, in place of the derived one."""
    graph = cml.CmlGraph(model.graph.node_labels, model.graph.directed_edges)
    object.__setattr__(graph, "F", F)
    return replace(model, graph=graph)


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


# --- graph tables ---------------------------------------------------------------


def test_graph_tables_are_derived_on_first_use_and_compare_nothing():
    # a graph built only to compare against derives no table, and one whose tables are
    # derived is still equal to, and hashes like, one whose tables are not
    fresh, used = object_graph(), object_graph()
    assert used.F.shape == (26, 8)
    assert vars(fresh).keys() == {"node_labels", "directed_edges"}
    assert fresh == used and hash(fresh) == hash(used)


@pytest.mark.parametrize("table", ["src", "dst", "B", "F", "hops"])
def test_graph_tables_are_read_only(graph, table):
    with pytest.raises(ValueError, match="read-only"):
        getattr(graph, table)[0] = 1


def test_graph_tables_match_the_edges(graph):
    assert graph.src.tolist() == [src for src, _ in graph.directed_edges]
    assert graph.dst.tolist() == [dst for _, dst in graph.directed_edges]
    assert graph.B.tobytes() == incidence(graph).tobytes()
    # the same bytes as the rounded pseudo-inverse of the incidence built edge by edge,
    # at twice the node count times the spanning-tree count
    assert flow_scale(graph) == 2 * 8 * 528
    F = np.rint(8448 * np.linalg.pinv(incidence(graph))).astype(int)
    assert graph.F.dtype == int and graph.F.tobytes() == F.tobytes()


@pytest.mark.parametrize(
    "edges", [((0, 1), (1, 2)), ((0, 1), (1, 0), (1, 2)), ((0, 1), (0, 1), (1, 0))]
)
def test_flow_table_refuses_a_graph_that_is_not_bidirected(edges):
    # B B^T halves to the undirected Laplacian only when every edge comes with its
    # reverse: a one-way path, a one-way edge beside a two-way one, and a doubled edge
    # with a single reverse get no table, and the refusal says why
    g = cml.CmlGraph(("a", "b", "c"), edges)
    with pytest.raises(ValueError, match="needs a bidirected graph"):
        g.F


def test_actions_are_the_state_differences_bit_for_bit(graph, object_cml):
    # A = S B adds one +s_j and one -s_i to zeros per entry, so it rounds as s_j - s_i
    # does; on bipolar states and on generic floats, where any rounding would show
    src, dst = np.array(graph.directed_edges).T
    gaussian = [np.random.default_rng(seed).normal(size=(D, graph.n)) for seed in range(1, 31)]
    for S in [object_cml.S, *gaussian]:
        A = cml.calculated(graph, S).A
        differences = np.subtract(S[:, dst], S[:, src], order="C")
        assert A.flags.c_contiguous and A.tobytes() == differences.tobytes()


# --- BFS oracle -----------------------------------------------------------------


def test_bfs_known_distances(graph):
    k, t, h = (graph.node_index(x) for x in "kth")
    assert graph.hops[k, k] == 0
    assert graph.hops[h, k] == 1
    assert graph.hops[k, t] == 3
    assert graph.hops[t, h] == 3


def test_bfs_unreachable():
    g = cml.CmlGraph(("a", "b", "c"), ((0, 1), (1, 0)))
    assert g.hops[0, 2] == -1


def breadth_first_hops(graph: cml.CmlGraph, start: int, goal: int) -> int:
    """Shortest-walk edge count by a breadth-first search per pair, -1 where no walk
    exists: the reference that ``CmlGraph.hops`` is checked against."""
    frontier, seen, hops = {start}, {start}, 0
    while frontier:
        if goal in frontier:
            return hops
        frontier = {dst for src, dst in graph.directed_edges if src in frontier} - seen
        seen |= frontier
        hops += 1
    return -1


def test_hops_of_a_one_way_path():
    # no walk runs back along a -> b -> c, so a table that read the edges reversed, which
    # no bidirected graph can show, fails here
    g = cml.CmlGraph(("a", "b", "c"), ((0, 1), (1, 2)))
    assert g.hops.dtype == int
    assert g.hops.tolist() == [[0, 1, 2], [-1, 0, 1], [-1, -1, 0]]


def test_hops_equal_breadth_first_search_on_random_graphs():
    # directed graphs of 1-7 nodes, with self-loops, repeated edges and isolated nodes,
    # then a one-way path whose ends are n - 1 edges apart
    rng = np.random.default_rng(0)
    graphs = []
    for _ in range(300):
        n = int(rng.integers(1, 8))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2))
        graphs.append(cml.CmlGraph(tuple("abcdefg"[:n]), tuple(map(tuple, edges.tolist()))))
    graphs.append(cml.CmlGraph(tuple("abcdefg"), tuple((i, i + 1) for i in range(6))))
    for g in graphs:
        nodes = range(g.n)
        assert g.hops.tolist() == [[breadth_first_hops(g, s, t) for t in nodes] for s in nodes]
    assert graphs[-1].hops[0].tolist() == list(range(7))


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
            assert len(path) - 1 == graph.hops[start, goal]


def test_gating_column_counts_outgoing_edges(graph, rng):
    c = cml.init_calculated(graph, D, rng)
    h = graph.node_index("h")
    assert c.G.dtype == bool
    assert np.count_nonzero(c.G[:, h]) == 3  # h sees k, a, b
    assert set(np.unique(c.G)) == {0.0, 1.0}  # unweighted graph gates are 1


def test_pseudo_inverse_defining_property(graph, object_cml):
    # F over its scale is the Moore-Penrose inverse of the graph's incidence matrix
    B, F = incidence(graph), object_cml.graph.F / flow_scale(graph)
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
    S = np.random.Generator(rng.bit_generator).normal(size=(D, graph.n))  # generic floats, so any rounding difference shows
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
        oracle = graph.hops[graph.node_index(start), graph.node_index(goal)]
        assert path is not None and len(path) - 1 == oracle
    # the delta rule's own utilities pick the flow table's hop wherever one edge wins
    utility = reference_utility(trained)
    untied = 0
    for c in range(graph.n):
        for t in range(graph.n):
            best = np.flatnonzero(cml.best_edges(cml.route_scores(trained, t, c)))
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
    for model in (object_cml, cml.init_calculated(graph, D, stream(7))):
        flow = (model.graph.F[:, :, None] - model.graph.F[:, None, :]) / flow_scale(graph)
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
    assert np.flatnonzero(cml.best_edges(cml.route_scores(c, k, h))).tolist() == [edge_idx]


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
    # the table is 8448 pinv(B) as integers, the float pseudo-inverse within 1e-9 of
    # them: half a unit of headroom before rounding could move an entry
    F, scale = object_cml.graph.F, flow_scale(graph)
    float_table = scale * np.linalg.pinv(incidence(graph))
    assert np.abs(F - float_table).max() < 1e-9
    assert F.dtype == int and np.abs(F).max() == 8 * 231
    # on every pair, two out-edges score the same integer or 48 units (1/176) apart
    ties = set()
    for c in range(graph.n):
        out = np.nonzero(object_cml.G[:, c])[0]
        for t in range(graph.n):
            if c == t:
                continue
            u = F[out, t] - F[out, c]
            gaps = np.abs(u[:, None] - u[None, :])
            assert np.all((gaps == 0) | (gaps >= 48))
            best = out[u == u.max()]
            scores = cml.route_scores(object_cml, t, c)
            assert np.array_equal(np.flatnonzero(cml.best_edges(scores)), best)
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
            u = model.graph.F[out, t] - model.graph.F[out, c]
            best = out[u == u.max()]
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
    # another BLAS build may round pinv(B) differently in its last bits: the integer
    # table it rounds to is the same, bit for bit, so no pick moves
    model = door_models(object_cml)[doors]
    pairs = [(c, t) for c in range(graph.n) for t in range(graph.n) if c != t]

    def picks(m):
        return [cml.step(m, m.S[:, t], m.S[:, c]).chosen_edge for c, t in pairs]

    expected = picks(model)
    noise = np.random.default_rng(0)
    pseudo_inverse = np.linalg.pinv(incidence(graph))
    for _ in range(20):
        noisy = pseudo_inverse + noise.uniform(-1e-12, 1e-12, pseudo_inverse.shape)
        F = np.rint(flow_scale(graph) * noisy).astype(int)
        assert F.tobytes() == model.graph.F.tobytes()
        assert picks(with_flow(model, F)) == expected


# each gate set's (current, target) pairs with more than one edge in their tie set
TIED_PAIRS = {"all_doors": 14, "a": 7, "b": 7, "c": 9, "d": 9, "e": 9}


@pytest.mark.parametrize("doors", TIED_PAIRS)
def test_exact_ties_pick_as_the_float_tolerance_rule_did(graph, object_cml, doors):
    # the rule before the integer table: scores from the float pseudo-inverse, and a tie
    # set of every open edge within 1e-9 of the best; the same tie set and pick on all
    # 56 pairs, with every door's gates closed in turn
    model = object_cml if doors == "all_doors" else mission.remove_door(object_cml, doors)
    pseudo_inverse = np.linalg.pinv(incidence(graph))
    index = np.arange(graph.n)
    best = cml.best_edges(cml.route_scores(model, index[None, :], index[:, None]))
    picks = cml.last_edge(best)
    tied = 0
    for c in range(graph.n):
        for t in range(graph.n):
            if c == t:
                continue
            u = np.where(model.G[:, c], pseudo_inverse[:, t] - pseudo_inverse[:, c], -np.inf)
            old = (u >= u.max() - 1e-9) & (u > -np.inf)
            assert np.array_equal(best[:, c, t], old)
            if old.any():
                assert picks[c, t] == np.flatnonzero(old)[-1]
            tied += np.count_nonzero(old) > 1
    assert tied == TIED_PAIRS[doors]


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
    noisy = c.state("k") + 0.5 * np.random.Generator(rng.bit_generator).normal(size=D)
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
        table = cml.best_edges(cml.route_scores(model, index[None, :], index[:, None]))
        picks = cml.last_edge(table)
        for c in range(graph.n):
            for t in range(graph.n):
                best = cml.best_edges(cml.route_scores(model, t, c))
                assert np.array_equal(table[:, c, t], best)
                if best.any():
                    assert picks[c, t] == np.flatnonzero(best)[-1]
        # closed gates leave an empty tie set, never a pick among closed edges
        door = graph.node_index("d")
        assert table[:, door].any() == (model is object_cml)


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
            assert len(path) - 1 == graph.hops[start, goal]
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


def test_disconnected_graph_plans_within_each_component(rng):
    # components: a triangle (3 nodes, 3 spanning trees), a path of three (1 tree) and a
    # lone node, so the table's scale is 2 (3 * 3) (3 * 1) (1 * 1) = 54; a path of three
    # alone leaves thirds at its 2 tau = 2, so the node counts are needed
    g = cml.CmlGraph.from_undirected(
        list("abcdefg"), [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f")]
    )
    assert np.abs(g.F - 54 * np.linalg.pinv(incidence(g))).max() < 1e-12
    c = cml.init_calculated(g, 256, rng)
    for start in range(g.n):
        for goal in range(g.n):
            path = cml.plan_path(c, c.S[:, goal], c.S[:, start])
            hops = g.hops[start, goal]
            assert (path is None) == (hops < 0)
            assert path is None or len(path) - 1 == hops


def test_graph_with_no_edge_refuses_to_step_and_to_plan(rng):
    # no edge leaves either node: the tie set is empty, so the step refuses as it does
    # at a node whose every gate is closed, and the plan fails
    c = cml.init_calculated(cml.CmlGraph(("a", "b"), ()), 256, rng)
    assert c.graph.F.shape == (0, 2)
    assert cml.step(c, c.state("b"), c.state("a")) == cml.StepResult(None, None, True)
    assert cml.plan_path(c, c.state("b"), c.state("a")) is None


def test_determinism_same_seed_same_model_and_paths(graph):
    c1 = cml.init_calculated(graph, D, stream(9))
    c2 = cml.init_calculated(graph, D, stream(9))
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
