"""Cognitive map learner over an abstract directed graph.

A map learner is three matrices trained (or calculated) together so that
for every directed edge (i -> j) the node states and the edge action
satisfy ``s_j ~= s_i + a_edge``:

- ``S`` (d x n): one state column per node,
- ``A`` (d x e): one action column per directed edge,
- ``G`` (e x n): gating; entry (edge, node) is 1 when the edge leaves
  that node and is open, else 0.

Planning works without any path search.  As ``A = S B`` for the graph's
(n x e) incidence matrix B, the paper's least-squares action utility is
the minimum-norm flow ``F[:, target] - F[:, current]`` of the (e x n)
table ``F = pinv(B)``, whatever the states.  The pick rule is written
once, as ``best_edges`` (the tie set: every open edge within
``TIE_TOLERANCE`` of the best) and ``last_edge`` (the step takes the
last of it), so exact ties between symmetric routes never fall to
rounding.  Both broadcast over target and current index arrays:
``step`` runs them for its one pair, and the planner proof
(``experiments.verify_object_cml``) for every pair at once.  Iterating
the step with the predicted state ``s_c + a_edge`` fed back walks a
near-optimal path.  A step that refuses to act says why: an input it
did not recognise, or a node with no open gate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import hdc

# Exact ties in F agree to about 1e-15; the step's pick beats every open edge
# outside its tie set by 1/132 or more (``route_margin`` of the planner proof).
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CmlGraph:
    """Directed graph with labelled nodes."""

    node_labels: tuple[str, ...]
    directed_edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.node_labels)
        if len(set(self.node_labels)) != n:
            raise ValueError("node labels must be unique")
        seen = set()
        for src, dst in self.directed_edges:
            if src == dst:
                raise ValueError(f"self-loop on node {src}")
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src}, {dst}) references unknown node")
            if (src, dst) in seen:
                raise ValueError(f"duplicate directed edge ({src}, {dst})")
            seen.add((src, dst))

    @property
    def n(self) -> int:
        return len(self.node_labels)

    def node_index(self, label: str) -> int:
        return self.node_labels.index(label)

    @classmethod
    def from_undirected(
        cls, node_labels: list[str], undirected_edges: list[tuple[str, str]]
    ) -> "CmlGraph":
        """Build the bidirectional graph: each listed pair yields both directions."""
        index = {label: i for i, label in enumerate(node_labels)}
        directed = []
        for u, v in undirected_edges:
            directed.append((index[u], index[v]))
            directed.append((index[v], index[u]))
        return cls(tuple(node_labels), tuple(directed))


def bfs_hops(graph: CmlGraph, start: int, goal: int) -> int | None:
    """Shortest-path edge count by breadth-first search; None if unreachable.

    Independent of the map learner: used as the optimality oracle for
    planned paths.
    """
    if start == goal:
        return 0
    adjacency: list[list[int]] = [[] for _ in range(graph.n)]
    for src, dst in graph.directed_edges:
        adjacency[src].append(dst)
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        node, hops = queue.popleft()
        for nxt in adjacency[node]:
            if nxt == goal:
                return hops + 1
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, hops + 1))
    return None


@dataclass(frozen=True)
class Cml:
    """Map learner state (S, A, G) on its graph.

    The node-state dictionary and the flow table ``F = pinv(B)`` (e x n)
    of the graph's incidence matrix are derived once, on construction;
    they are plain attributes, not fields.
    """

    S: np.ndarray  # (d, n)
    A: np.ndarray  # (d, e)
    G: np.ndarray  # (e, n)
    graph: CmlGraph

    def __post_init__(self) -> None:
        states = hdc.Dictionary(self.graph.node_labels, self.S.T.copy())
        object.__setattr__(self, "_states", states)
        # A = S B, so the incidence matrix B is the actions of identity states
        B = _state_differences(self.graph, np.eye(self.graph.n))
        object.__setattr__(self, "F", np.linalg.pinv(B))

    @property
    def d(self) -> int:
        return self.S.shape[0]

    def state(self, label: str) -> np.ndarray:
        return self.S[:, self.graph.node_index(label)]

    def state_dictionary(self) -> hdc.Dictionary:
        return self._states


@dataclass(frozen=True)
class StepResult:
    """One planning step: the predicted next state and the chosen edge index.

    A refused step has ``chosen_edge is None`` and no prediction;
    ``recognised`` says why: False when the target or current state fails
    recovery, True when both recover but no gated action leaves the node.
    """

    predicted_next: np.ndarray | None
    chosen_edge: int | None
    recognised: bool


def _gating_from_graph(graph: CmlGraph) -> np.ndarray:
    src = np.array(graph.directed_edges, dtype=int).reshape(-1, 2)[:, 0]
    return (src[:, None] == np.arange(graph.n)).astype(float)


def _state_differences(graph: CmlGraph, S: np.ndarray) -> np.ndarray:
    src, dst = np.array(graph.directed_edges, dtype=int).reshape(-1, 2).T
    return np.subtract(S[:, dst], S[:, src], order="C")  # C order like S, not a gather's


def calculated(graph: CmlGraph, S: np.ndarray) -> Cml:
    """The learner that the states S imply on the graph.

    For each directed edge (i -> j) the action column is s_j - s_i, so
    the one-step prediction ``s_i + a`` lands on s_j exactly and the
    per-edge training error is zero; every out-edge gate is open (1).
    """
    return Cml(S=S, A=_state_differences(graph, S), G=_gating_from_graph(graph), graph=graph)


def is_calculated(cml: Cml) -> bool:
    """True when A and G are exactly what ``calculated`` derives from S and the graph."""
    A, G = _state_differences(cml.graph, cml.S), _gating_from_graph(cml.graph)
    return np.array_equal(cml.A, A) and np.array_equal(cml.G, G)


def init_calculated(graph: CmlGraph, d: int, rng: np.random.Generator) -> Cml:
    """Exact construction: random bipolar states, actions as state differences."""
    S = np.stack([hdc.random_bipolar(d, rng) for _ in range(graph.n)], axis=1)
    return calculated(graph, S)


def train_epoch(cml: Cml, learning_rate: float) -> tuple[Cml, float]:
    """One batch epoch of the prediction-error delta rule over all edges.

    For each directed edge (i -> j) the prediction is ``s_i + a`` and the
    error ``s_j - (s_i + a)``.  The edge action accumulates
    ``lr * error`` and the destination state column accumulates
    ``-lr * error`` (it moves toward the prediction); all updates apply
    at epoch end.  Returns the updated learner and the mean per-edge
    error norm measured before the update.
    """
    if learning_rate < 0:
        raise ValueError("learning rate must be nonnegative")
    src = np.fromiter((s for s, _ in cml.graph.directed_edges), dtype=int)
    dst = np.fromiter((t for _, t in cml.graph.directed_edges), dtype=int)
    err = cml.S[:, dst] - (cml.S[:, src] + cml.A)  # (d, e)
    epoch_error = float(np.linalg.norm(err, axis=0).mean())
    A = cml.A + learning_rate * err
    dS = np.zeros_like(cml.S)
    np.add.at(dS.T, dst, (-learning_rate * err).T)
    S = cml.S + dS
    return replace(cml, S=S, A=A), epoch_error


def route_scores(cml: Cml, target, current) -> np.ndarray:
    """Each edge's flow toward the target, ``F[edge, target] - F[edge, current]``.

    ``target`` and ``current`` are node indices, or index arrays that
    broadcast together; the result has one row per edge in front of their
    shape.  An edge whose gate at the current node is closed scores -inf.
    """
    F = cml.F
    # a nonzero gate is open; ``where`` reads the gate as bool without a comparison
    return np.where(cml.G[:, current], F[:, target] - F[:, current], -np.inf)


def best_edges(cml: Cml, target, current) -> np.ndarray:
    """The tie set of each (target, current) pair, as an edge mask.

    True for the open edges out of the current node whose
    ``route_scores`` are within ``TIE_TOLERANCE`` of the best; no edge
    where every gate is closed.  Broadcasts like ``route_scores``.
    """
    scores = route_scores(cml, target, current)
    return (scores >= scores.max(axis=0) - TIE_TOLERANCE) & (scores > -np.inf)


def last_edge(best: np.ndarray) -> np.ndarray:
    """The edge a step takes from each tie set of ``best_edges``: its last, in edge order.

    Meaningless for an empty tie set; the caller checks for one first.
    """
    return len(best) - 1 - best[::-1].argmax(axis=0)


def step(cml: Cml, target: np.ndarray, current: np.ndarray) -> StepResult:
    """One modular planning step from approximate state inputs.

    Both inputs are sanitised by one recovery of their two-row stack over
    the node-state columns; if either fails the noise floor ``hdc.THETA``,
    the learner refuses to act.  Otherwise it takes the ``last_edge`` of the
    ``best_edges`` out of the recovered current node, and the result
    carries the predicted next state ``s_c + a_edge`` (or a refusal when
    every gate of the node is closed).
    """
    inputs = np.stack((target, current))
    target_label, current_label = hdc.recover(inputs, cml.state_dictionary())
    if target_label is None or current_label is None:
        return StepResult(None, None, False)
    t_idx = cml.graph.node_index(target_label)
    c_idx = cml.graph.node_index(current_label)
    best = best_edges(cml, t_idx, c_idx)
    if not best.any():
        return StepResult(None, None, True)
    edge = int(last_edge(best))
    return StepResult(cml.S[:, c_idx] + cml.A[:, edge], edge, True)


def plan_path(cml: Cml, target: np.ndarray, start: np.ndarray) -> list[str] | None:
    """Iterate step with prediction feedback until the target is reached.

    The predicted next state loops back as the current state after every
    step.  Returns the node-label sequence including both endpoints, or
    None when a step fails or 4 n steps (n nodes) pass before the path
    ends on the recovered target's label.
    """
    inputs = np.stack((target, start))
    target_label, start_label = hdc.recover(inputs, cml.state_dictionary())
    if target_label is None or start_label is None:
        return None
    target_state = cml.state(target_label)
    path = [start_label]
    current = start
    while path[-1] != target_label:
        if len(path) > 4 * cml.graph.n:
            return None
        result = step(cml, target_state, current)
        if result.chosen_edge is None:
            return None
        path.append(cml.graph.node_labels[cml.graph.directed_edges[result.chosen_edge][1]])
        current = result.predicted_next
    return path
