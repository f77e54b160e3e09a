"""Cognitive map learner over an abstract directed graph.

A map learner is three matrices trained (or calculated) together so that
for every directed edge (i -> j) the node states and the edge action
satisfy ``s_j ~= s_i + a_edge``:

- ``S`` (d x n): one state column per node,
- ``A`` (d x e): one action column per directed edge,
- ``G`` (e x n): gating, a bool table; entry (edge, node) is True when the
  edge leaves that node and is open.

Planning works without any path search.  The graph is the one home of its
tables, each derived on first use: the (n x e) incidence matrix B, so
``A = S B``, and from it the (e x n) flow table F, which no learner
copies.  The paper's least-squares action utility is the minimum-norm
flow ``pinv(B)[:, target] - pinv(B)[:, current]``, whatever the states,
so a learner that never plans never pays for the table.  That flow is
rational: ``B B^T = 2 L`` for the undirected graph's Laplacian L, so
``pinv(B) = B^T L^+ / 2``, and an edge i -> j carries ``(phi_j - phi_i) / 2``
of the unit flow, where ``phi = L^+ (e_t - e_c)`` are the node potentials
of a unit current from c to t.  By the matrix-tree theorem ``B^T L^+`` is
rational over the product, over components, of ``n_k tau_k`` (nodes times
spanning trees), so F holds ``pinv(B)`` times twice that product as exact
integers, and every route decision is an integer comparison.  The pick
rule is written once, as ``route_scores`` (each gated edge's utility),
``best_edges`` (the tie set: every open edge whose score equals the best)
and ``last_edge`` (the step takes the last of it), so ties between
symmetric routes are exact.  All three broadcast over target and current
index arrays: ``step`` runs them for its one pair, and the planner proof
(``experiments.verify_object_cml``) for every pair at once, scoring once,
against the graph's hop table ``hops``, which reads the edges alone.
Iterating the step with the predicted state ``s_c + a_edge`` fed back
walks a near-optimal path.  A step that refuses to act says why: an input
it did not recognise, or a node with no open gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import hdc

def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class CmlGraph:
    """Directed graph with labelled nodes; its tables, the edge tails ``src`` and heads
    ``dst``, B, F and ``hops``, are read-only, derived on first use, and not fields (not
    in ``==``)."""

    node_labels: tuple[str, ...]
    directed_edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.node_labels)

    @cached_property
    def src(self) -> np.ndarray:
        return _read_only(np.array([edge[0] for edge in self.directed_edges], dtype=int))

    @cached_property
    def dst(self) -> np.ndarray:
        return _read_only(np.array([edge[1] for edge in self.directed_edges], dtype=int))

    @cached_property
    def B(self) -> np.ndarray:
        eye = np.eye(self.n)  # the actions of identity states; C order, not a gather's
        return _read_only(np.subtract(eye[:, self.dst], eye[:, self.src], order="C"))

    @cached_property
    def hops(self) -> np.ndarray:
        """(n, n) int: ``hops[start, goal]`` edges on a shortest directed walk, -1 for none.

        Read from ``src`` and ``dst`` alone, never from F or a learner's gates, so it is
        the planner proof's independent oracle.  ``reach[k]`` marks the pairs that a walk
        of at most k edges joins, for k < n; a pair joined at all is joined within n - 1
        edges, and then by exactly ``n - hops`` of the n masks.
        """
        reach = [np.eye(self.n, dtype=bool)]
        step = reach[0][self.src].T @ reach[0][self.dst]  # step[i, j]: an edge i -> j
        for _ in range(self.n - 1):
            reach.append(reach[-1] | reach[-1] @ step)
        return _read_only(np.where(reach[-1], self.n - np.sum(reach, axis=0), -1))

    @cached_property
    def F(self) -> np.ndarray:
        """``pinv(B)`` scaled to exact integers, as an int array: ``2 det(L + P) pinv(B)``.

        On a bidirected graph, where every edge comes with its reverse, ``B B^T = 2 L``
        for the undirected graph's Laplacian L; any other graph is refused.  P averages
        each component, so ``(L + P)^-1 = L^+ + P`` and ``B^T P = 0``:
        ``pinv(B) = B^T (L + P)^-1 / 2``, and ``det(L + P)`` is the product over
        components of ``n_k tau_k``, which clears every denominator of ``B^T L^+``.
        On the object graph (n = 8, tau = 528) the scale is 8448, and the float
        table lies within 5e-13 of the integers; one that rounding moved more
        than 1e-6 off them is refused.
        """
        if sorted(self.directed_edges) != sorted((j, i) for i, j in self.directed_edges):
            raise ValueError("the flow table needs a bidirected graph: an edge lacks its reverse")
        # a walk joins i to j when j is in i's component, so ``reach / reach.sum(axis=0)`` is P
        reach = self.hops >= 0
        shifted = self.B @ self.B.T / 2 + reach / reach.sum(axis=0)  # L + P
        table = round(np.linalg.det(shifted)) * self.B.T @ np.linalg.inv(shifted)
        if np.abs(table - np.rint(table)).max(initial=0.0) > 1e-6:  # a graph may have no edge
            raise ValueError("the graph's flow table is not integral")
        return _read_only(np.rint(table).astype(int))

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


@dataclass(frozen=True)
class Cml:
    """Map learner state (S, A, G) on its graph.

    The node-state dictionary is derived once, on construction, as an
    attribute, not a field.  The flow table is the graph's own
    (``graph.F``), derived when a step first reads it.
    """

    S: np.ndarray  # (d, n)
    A: np.ndarray  # (d, e)
    G: np.ndarray  # (e, n)
    graph: CmlGraph

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


def calculated(graph: CmlGraph, S: np.ndarray) -> Cml:
    """The learner that the states S imply on the graph.

    The actions are ``A = S B``: for each directed edge (i -> j) the action
    column is s_j - s_i, so the one-step prediction ``s_i + a`` lands on s_j
    exactly and the per-edge training error is zero; every out-edge gate is open (True).
    """
    G = graph.src[:, None] == np.arange(graph.n)
    return Cml(S=S, A=S @ graph.B, G=G, graph=graph)


def is_calculated(cml: Cml) -> bool:
    """True when A and G are exactly what ``calculated`` derives from S and the graph."""
    model = calculated(cml.graph, cml.S)
    return np.array_equal(cml.A, model.A) and np.array_equal(cml.G, model.G)


def init_calculated(graph: CmlGraph, d: int, stream: hdc.Stream) -> Cml:
    """Exact construction: random bipolar states, actions as state differences."""
    S = np.stack([hdc.random_bipolar(d, stream) for _ in range(graph.n)], axis=1)
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
    err = cml.S @ cml.graph.B - cml.A  # (d, e): s_j - (s_i + a) for each edge (i -> j)
    epoch_error = float(np.linalg.norm(err, axis=0).mean())
    A = cml.A + learning_rate * err
    S = cml.S - learning_rate * err @ (cml.graph.B > 0).T  # each head sums its in-edges' errors
    return replace(cml, S=S, A=A), epoch_error


def route_scores(cml: Cml, target, current) -> np.ndarray:
    """Each edge's flow toward the target, ``F[edge, target] - F[edge, current]``.

    F is the graph's integer flow table, ``cml.graph.F``, so the scores are
    exact integers.  ``target`` and ``current`` are node indices, or index
    arrays that broadcast together; the result has one row per edge in
    front of their shape.  An edge whose gate at the current node is
    closed scores -inf.
    """
    F = cml.graph.F
    return np.where(cml.G[:, current], F[:, target] - F[:, current], -np.inf)


def best_edges(scores: np.ndarray) -> np.ndarray:
    """The tie set of each (target, current) pair, as an edge mask, from ``route_scores``.

    True for the open edges whose scores equal the best, exactly; no edge
    where every gate is closed, or where the graph has no edge.  ``scores``
    has one row per edge, and the mask has its shape.
    """
    return (scores == scores.max(axis=0, initial=-np.inf)) & (scores > -np.inf)


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
    best = best_edges(route_scores(cml, t_idx, c_idx))
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
        path.append(cml.graph.node_labels[cml.graph.dst[result.chosen_edge]])
        current = result.predicted_next
    return path
