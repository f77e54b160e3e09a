"""Cognitive map learner over an abstract directed graph.

A map learner is three matrices trained (or calculated) together so that
for every directed edge (i -> j) the node states and the edge action
satisfy ``s_j ~= s_i + a_edge``:

- ``S`` (d x n): one state column per node,
- ``A`` (d x e): one action column per directed edge,
- ``G`` (e x n): gating; entry (edge, node) is 1 when the edge leaves
  that node and is open, else 0.

Planning works without any path search: the utility of every action with
respect to a target state is ``u = A_dagger (target - current)`` and a
winner-take-all pick over the gated utilities chooses the next hop.
Iterating that single step with the predicted state fed back as the
current state walks a near-optimal path through the graph.  A step that
refuses to act says why: an input it did not recognise, or a node with
no open gate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import hdc

PINV_RCOND = 1e-10
DEFAULT_LEARNING_RATE = 0.05
DEFAULT_EPOCH_CAP = 10_000


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

    @property
    def e(self) -> int:
        return len(self.directed_edges)

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


def bfs_hops(
    graph: CmlGraph, start: int, goal: int, disabled_nodes: set[int] | None = None
) -> int | None:
    """Shortest-path edge count by breadth-first search; None if unreachable.

    Independent of the map learner: used as the optimality oracle for
    planned paths.  ``disabled_nodes`` removes nodes (and all their
    edges) from consideration, except that start and goal always count.
    """
    disabled = disabled_nodes or set()
    if start == goal:
        return 0
    adjacency: list[list[int]] = [[] for _ in range(graph.n)]
    for src, dst in graph.directed_edges:
        if src in disabled or dst in disabled:
            continue
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
    """Trained map learner state: (S, A, G) plus the cached pseudo-inverse of A.

    The node-state dictionary is derived from S once, on construction; it
    is a plain attribute, not a field.
    """

    S: np.ndarray  # (d, n)
    A: np.ndarray  # (d, e)
    G: np.ndarray  # (e, n)
    graph: CmlGraph
    A_dagger: np.ndarray  # (e, d)

    def __post_init__(self) -> None:
        states = hdc.Dictionary(self.graph.node_labels, self.S.T.copy())
        object.__setattr__(self, "_states", states)

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
    return np.subtract(S[:, dst], S[:, src], order="C")  # C order like S; a gather gives F


def _pinv(A: np.ndarray) -> np.ndarray:
    # SVD-based Moore-Penrose inverse; singular values below
    # PINV_RCOND * sigma_max are treated as zero.
    return np.linalg.pinv(A, rcond=PINV_RCOND)


def init_random(graph: CmlGraph, d: int, rng: np.random.Generator) -> Cml:
    """Gaussian initialisation: S ~ N(0, 0.1), A ~ N(0, 1)."""
    if d < graph.e:
        raise ValueError(f"need d >= e for planning, got d={d} < e={graph.e}")
    S = rng.normal(0.0, 0.1, size=(d, graph.n))
    A = rng.normal(0.0, 1.0, size=(d, graph.e))
    return Cml(S=S, A=A, G=_gating_from_graph(graph), graph=graph, A_dagger=_pinv(A))


def calculated(graph: CmlGraph, S: np.ndarray) -> Cml:
    """The learner that the states S imply on the graph.

    For each directed edge (i -> j) the action column is s_j - s_i, so
    the one-step prediction ``s_i + a`` lands on s_j exactly and the
    per-edge training error is zero; every out-edge gate is open (1).
    """
    A = _state_differences(graph, S)
    return Cml(S=S, A=A, G=_gating_from_graph(graph), graph=graph, A_dagger=_pinv(A))


def is_calculated(cml: Cml) -> bool:
    """True when A and G are exactly what ``calculated`` derives from S and the graph."""
    A, G = _state_differences(cml.graph, cml.S), _gating_from_graph(cml.graph)
    return np.array_equal(cml.A, A) and np.array_equal(cml.G, G)


def init_calculated(graph: CmlGraph, d: int, rng: np.random.Generator) -> Cml:
    """Exact construction: random bipolar states, actions as state differences."""
    if d < graph.e:
        raise ValueError(f"need d >= e for planning, got d={d} < e={graph.e}")
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
    return replace(cml, S=S, A=A, A_dagger=_pinv(A)), epoch_error


def train(
    cml: Cml,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    tolerance: float | None = None,
    epoch_cap: int = DEFAULT_EPOCH_CAP,
) -> tuple[Cml, int, float]:
    """Run train_epoch until the mean edge error drops below tolerance.

    Default tolerance is 1e-3 * sqrt(d).  Raises RuntimeError when the
    epoch cap is reached without converging.
    """
    if tolerance is None:
        tolerance = 1e-3 * np.sqrt(cml.d)
    error = np.inf
    for epoch in range(epoch_cap):
        cml, error = train_epoch(cml, learning_rate)
        if error < tolerance:
            return cml, epoch + 1, error
    raise RuntimeError(
        f"training failed to converge: error {error:.3g} after {epoch_cap} epochs"
    )


def utility(cml: Cml, target: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Per-action progress scores: u = A_dagger (target - current)."""
    return cml.A_dagger @ (target - current)


def select_action(u: np.ndarray, g: np.ndarray) -> int | None:
    """Winner-take-all over the open gates.

    Among actions with nonzero gate, returns the index maximising ``u``
    even when that maximum is negative (a closed action must never beat
    an open one that merely scores badly).  Returns None when every gate
    is zero.
    """
    if len(u) != len(g):
        raise ValueError("utility and gating vectors must have equal length")
    legal = np.nonzero(g)[0]
    if len(legal) == 0:
        return None
    return int(legal[np.argmax(u[legal])])


def step(cml: Cml, target: np.ndarray, current: np.ndarray, theta: float) -> StepResult:
    """One modular planning step from approximate state inputs.

    Both inputs are sanitised by one recovery of their two-row stack over
    the node-state columns; if either fails the noise floor the learner
    refuses to act.  Otherwise the gated winner-take-all picks an edge out
    of the recovered current node, and the result carries the predicted
    next state ``s_c + a_edge`` (or a refusal when every gate of the node
    is closed).
    """
    inputs = np.stack((target, current))
    target_label, current_label = hdc.recover(inputs, cml.state_dictionary(), theta)
    if target_label is None or current_label is None:
        return StepResult(None, None, False)
    t_idx = cml.graph.node_index(target_label)
    c_idx = cml.graph.node_index(current_label)
    u = utility(cml, cml.S[:, t_idx], cml.S[:, c_idx])
    edge = select_action(u, cml.G[:, c_idx])
    if edge is None:
        return StepResult(None, None, True)
    return StepResult(cml.S[:, c_idx] + cml.A[:, edge], edge, True)


def plan_path(
    cml: Cml,
    target: np.ndarray,
    start: np.ndarray,
    theta: float = hdc.DEFAULT_THETA,
    max_steps: int | None = None,
) -> list[str] | None:
    """Iterate step with prediction feedback until the target is reached.

    The predicted next state loops back as the current state after every
    step.  Returns the node-label sequence including both endpoints, or
    None when a step fails or ``max_steps`` steps pass before the path
    ends on the recovered target's label.
    """
    if max_steps is None:
        max_steps = 4 * cml.graph.n
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    inputs = np.stack((target, start))
    target_label, start_label = hdc.recover(inputs, cml.state_dictionary(), theta)
    if target_label is None or start_label is None:
        return None
    target_state = cml.state(target_label)
    path = [start_label]
    current = start
    while path[-1] != target_label:
        if len(path) > max_steps:
            return None
        result = step(cml, target_state, current, theta)
        if result.chosen_edge is None:
            return None
        path.append(cml.graph.node_labels[cml.graph.directed_edges[result.chosen_edge][1]])
        current = result.predicted_next
    return path
