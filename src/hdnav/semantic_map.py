"""Associative object-position memory and the permutation-encoded goal policy.

The map hypervector is the signed bundle of the eight object/position
bindings (one per placed object, plus a tie-break vector to keep the
total bipolar):

    map = sgn(sgn(o_1 * p_1) + ... + sgn(o_8 * p_8) + eta)

Each term ``sgn(o_i * p_i)`` equals ``sgn(o_i) * sgn(p_i)`` (exactly, for
the bipolar object states), and the object dictionary and the grid
model hold those sign patterns as int8 tables computed once, so a map
build multiplies patterns and takes no sign of its own.

Binding the map with an object vector releases a noisy copy of that
object's position, cleaned up against the trial's eight known position
states; binding with a cell's sign pattern (its row of the grid model's
``signs``) releases the object stored there, so the arrival query asks
by cell index.  Grid states of different cells can be strongly
correlated, so not every arrangement yields a map whose recoveries are
all unambiguous.  The ``check_viability`` predicate tells usable maps apart,
``check_arrivals`` checks the reverse direction, and the harness
regenerates mazes that fail either.  Grid states lie in span{a_s, a_e},
so every position lookup scores in that plane and reads no state: the
forward check and the executor's ``query_position`` share one score,
two small products from the map and the cells' ``plane`` rows.  Every
recovery, by label or by cell, is decided by ``hdc.cleanup``'s one rule.

A goal policy is a bundle of permuted object vectors, the i-th goal
shifted i places.  Unpermuting once exposes the next goal above the
noise floor; when the rotation runs past the last goal the recovery
falls below threshold, signalling completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hdc
from .grid import Cell, GridCml
from .maze import Maze


@dataclass(frozen=True)
class MapMemory:
    """The map hypervector, the object dictionary and the eight placement cells.

    ``map_hv`` is the one copy of the map, int8 as ``bundle`` sums it, and
    bipolar: a bundle of eight +-1 terms and a +-1 tie-break is an odd
    sum, and a loaded grid model has no zero sign
    (``experiments.load_models`` refuses one).  So binding the map only
    flips signs, and a query ``map * v`` has the norm of ``v`` bit for
    bit.  ``rows`` holds the ``grid_cml.cell_index`` of each object's
    cell, in ``objects`` order.  A map derives nothing when it is built:
    each lookup binds the map to the plane basis where it scores
    (``_plane_scores``).  ``positions``, the dictionary of those cells'
    states keyed by the cells themselves, is built on first use from
    ``grid_cml.states``; no lookup of the package reads it.
    """

    map_hv: np.ndarray
    objects: hdc.Dictionary
    grid_cml: GridCml
    rows: list[int]

    @cached_property
    def positions(self) -> hdc.Dictionary:
        rows, cols = self.grid_cml.cell(np.array(self.rows))
        cells = tuple(zip(rows.tolist(), cols.tolist()))
        return hdc.Dictionary(cells, self.grid_cml.states(rows, cols))

    def position_of(self, label: str) -> Cell:
        return self.grid_cml.cell(self.rows[self.objects.labels.index(label)])


def build_map(
    objects: hdc.Dictionary, maze: Maze, grid_cml: GridCml, stream: hdc.Stream
) -> MapMemory:
    """Bind each object to the state of its cell and bundle the signed terms.

    Each term is ``sign(o_i) * sign(p_i)`` from the dictionaries' int8 sign
    patterns, which equals ``sign(bind(o_i, p_i))``; ``bundle`` sums the
    eight int8 terms exactly in int8, adds its tie-break draw there too,
    and returns the sum's int8 sign, the map.  The tie-break is the
    stream's next d signs.
    """
    rows = [grid_cml.cell_index(maze.placements[label]) for label in objects.labels]
    terms = objects.signs * grid_cml.signs.take(rows, axis=0)
    map_hv = hdc.bundle(terms, stream)  # even count, so bundle adds the tie-break eta
    return MapMemory(map_hv, objects, grid_cml, rows)


def _plane_scores(memory: MapMemory, vectors: np.ndarray) -> np.ndarray:
    """``q . p_j / |p_j|`` for each query ``q = map * v`` and each of the map's cells j.

    ``vectors`` is an (n, d) stack of the ``v``; the scores are (n, 8), one
    column per object in ``objects`` order.  As ``p_j = x a_s + y a_e``,
    the (n, 2) block ``v . (map * [a_s; a_e])`` times the cells' ``plane``
    rows gives every score.  The map is bound to the basis here, on each
    call: a built map's readiness check reads it once, and only a kept
    map's waypoint lookups read it again.  A zero-state cell (a NaN plane
    row) scores NaN.
    """
    grid = memory.grid_cml
    return vectors @ (memory.map_hv * grid.basis).T @ grid.plane.take(memory.rows, axis=0).T


def check_viability(memory: MapMemory) -> bool:
    """True when every object's position recovers unambiguously from the map.

    Grid states of different cells can be strongly correlated, so a
    sizeable share of arrangements yields maps whose position recoveries
    collide; those maps are unusable and counted by the viability
    statistic.

    Object ``i``, queried as ``q_i = map * o_i``, must recover its own
    cell from its plane scores against the map's cells by
    ``hdc.cleanup``'s rule, as ``query_position`` decides it; the query
    norms are the objects' own, as the map is bipolar.  Most maps fail
    the argmax alone.
    """
    objects = memory.objects
    scores = _plane_scores(memory, objects.vectors)
    if scores.argmax(axis=1).tolist() != list(range(len(scores))):
        return False
    return hdc.cleanup(scores, objects.norms, memory.rows) == tuple(memory.rows)


def check_arrivals(memory: MapMemory) -> bool:
    """True when each object's cell recovers that object: reliable arrival feedback.

    Each placement cell is asked by its row, as the executor asks at each
    arrival cell, and with near-parallel grid states that reverse direction
    can collide on maps whose forward recoveries are clean.
    """
    return query_object(memory, memory.rows) == memory.objects.labels


def mission_ready(memory: MapMemory) -> bool:
    """Viability plus reliable arrival feedback: the full round trip.

    The mission harness regenerates mazes until both directions hold for
    all eight objects.
    """
    return check_viability(memory) and check_arrivals(memory)


def query_position(
    memory: MapMemory, object_hv: np.ndarray
) -> Cell | None | tuple[Cell | None, ...]:
    """Cell of the object bound into the map; None below threshold.

    Works for approximate object vectors (e.g. planner predictions), not
    just exact dictionary entries.  An (n, d) stack of object vectors
    gives a tuple of n results.

    Each query ``q = map * o`` is scored against the map's eight cells in
    the plane, as ``check_viability`` scores it, and ``hdc.cleanup``
    decides with the norm ``|q| = |o|`` of the bipolar map.  That is
    ``hdc.recover`` over ``positions`` up to rounding.  A zero query
    recovers nothing.
    """
    vectors = np.atleast_2d(object_hv)
    cells = [memory.grid_cml.cell(row) for row in memory.rows]
    # _plane_scores raises on a dimension mismatch
    found = hdc.cleanup(_plane_scores(memory, vectors), hdc.row_norms(vectors), cells)
    return found if object_hv.ndim > 1 else found[0]


def query_object(memory: MapMemory, rows) -> str | None | tuple[str | None, ...]:
    """Object label stored at the cell of row-major index ``rows``; None below the floor.

    The map is unbound with the cell's sign pattern, its row of
    ``grid_cml.signs``: grid states of nearby cells differ mostly in
    magnitude profile, and comparing sign patterns against sign patterns
    keeps the stored object separable from its angular neighbors even
    where raw-state cosines crowd toward 1.  An object-free cell mostly
    recovers a placed neighbour's label, so the answer is read only at
    the cells the executor plans to.  A sequence of n indices gives a
    tuple of n results.

    The map and the sign patterns are both int8 +-1, so the bind is an
    int8 product and every query is +-1: ``recover`` casts it to float once
    and scores it by dots that are exact integers, however many rows are
    asked at once.
    """
    signs = memory.grid_cml.signs.take(rows, axis=0)
    return hdc.recover(hdc.bind(memory.map_hv, signs), memory.objects)


def encode_policy(
    goals: list[str], objects: hdc.Dictionary, stream: hdc.Stream
) -> np.ndarray:
    """The policy hypervector: the goal vectors bundled, the i-th goal permuted by i (1-based)."""
    if not goals:
        raise ValueError("policy needs at least one goal")
    for goal in goals:
        if goal not in objects:
            raise ValueError(f"unknown goal object {goal!r}")
    terms = [hdc.permute(objects.vector(goal), i) for i, goal in enumerate(goals, start=1)]
    return hdc.bundle(np.stack(terms), stream)


def next_goal(policy: np.ndarray, objects: hdc.Dictionary) -> tuple[str | None, np.ndarray]:
    """Unpermute the policy hypervector once and recover the revealed goal.

    Returns (label, advanced policy): the unpermuted vector, which holds
    the goals not yet revealed, still permuted.  A None label means the
    policy is exhausted (the unpermuted vector no longer resembles any
    object).
    """
    unrolled = hdc.permute(policy, -1)
    return hdc.recover(unrolled, objects), unrolled
