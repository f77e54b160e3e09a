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
states; binding with a cell's sign pattern releases the object stored
there.  Grid states of different cells can be strongly correlated, so
not every arrangement yields a map whose recoveries are all
unambiguous.  The ``check_viability`` predicate tells usable maps apart,
``check_arrivals`` checks the reverse direction, and the harness
regenerates mazes that fail either.  Grid states lie in span{a_s, a_e},
so every position lookup scores in that plane and reads no state: the
forward check and the executor's ``query_position`` share one score,
two small products from the map and the cells' ``plane`` rows.  Every
recovery is made at the one noise floor ``hdc.THETA``.

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

    ``map_hv`` is a sign vector (entries -1, 0 or +1; a bundle is
    bipolar).  ``rows`` holds the ``grid_cml.cell_index`` of each object's
    cell, in ``objects`` order.  ``positions``, the dictionary of those
    cells' states keyed by the cells themselves, is built on first use;
    no lookup of the package reads it.
    """

    map_hv: np.ndarray
    objects: hdc.Dictionary
    grid_cml: GridCml
    rows: list[int]

    @cached_property
    def positions(self) -> hdc.Dictionary:
        cells = tuple(self.grid_cml.cell(row) for row in self.rows)
        return hdc.Dictionary(cells, self.grid_cml.states(self.rows))

    def position_of(self, label: str) -> Cell:
        return self.grid_cml.cell(self.rows[self.objects.labels.index(label)])


def build_map(
    objects: hdc.Dictionary, maze: Maze, grid_cml: GridCml, rng: np.random.Generator
) -> MapMemory:
    """Bind each object to the state of its cell and bundle the signed terms.

    Each term is ``sign(o_i) * sign(p_i)`` from the dictionaries' int8 sign
    patterns, which equals ``sign(bind(o_i, p_i))``; ``bundle`` sums the
    int8 terms exactly in int16 and adds its tie-break draw in float.
    """
    rows = [grid_cml.cell_index(maze.placements[label]) for label in objects.labels]
    terms = objects.signs * grid_cml.signs[rows]
    map_hv = hdc.bundle(terms, rng)  # even count, so bundle adds the tie-break eta
    return MapMemory(map_hv, objects, grid_cml, rows)


def _plane_scores(memory: MapMemory, vectors: np.ndarray) -> np.ndarray:
    """``q . p_j / |p_j|`` for each query ``q = map * v`` and each of the map's cells j.

    ``vectors`` is an (n, d) stack of the ``v``; the scores are (n, 8), one
    column per object in ``objects`` order.  As ``p_j = x a_s + y a_e``,
    the (n, 2) block ``v . (map * [a_s; a_e])`` times the cells' ``plane``
    rows gives every score.  A zero-state cell (a NaN plane row) scores NaN.
    """
    grid_cml = memory.grid_cml
    return vectors @ (memory.map_hv * grid_cml.basis).T @ grid_cml.plane[memory.rows].T


def check_viability(memory: MapMemory) -> bool:
    """True when every object's position recovers unambiguously from the map.

    Grid states of different cells can be strongly correlated, so a
    sizeable share of arrangements yields maps whose position recoveries
    collide; those maps are unusable and counted by the viability
    statistic.

    Object ``i`` recovers its position when its plane score against cell
    ``j``, with ``q_i = map * o_i``, is largest at ``j = i`` and reaches
    ``hdc.THETA * |q_i|``: the rule ``query_position`` applies.
    Unbinding a map without zero entries flips signs only, so ``|q_i|`` is
    the object's norm, bit for bit; a map with a zero entry computes it.
    A zero query or a zero-state cell (a NaN plane row) is never viable.
    """
    objects, m = memory.objects, memory.map_hv
    norms = objects.norms if m.all() else np.sqrt(np.square(objects.vectors) @ np.square(m))
    scores = _plane_scores(memory, objects.vectors)
    return scores.argmax(axis=1).tolist() == list(range(len(scores))) and bool(
        ((scores.diagonal() >= hdc.THETA * norms) & (norms > 0)).all()
    )


def check_arrivals(memory: MapMemory) -> bool:
    """True when each object's cell recovers that object: reliable arrival feedback.

    The executor queries the object found at each arrival cell, and with
    near-parallel grid states that reverse direction can collide on maps
    whose forward recoveries are clean.
    """
    signs = memory.grid_cml.signs[memory.rows]
    return query_object(memory, signs) == memory.objects.labels


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
    the plane, as ``check_viability`` scores it: the largest score wins,
    ties go to the lowest index, and it must reach ``hdc.THETA * |q|``.
    That is ``hdc.recover`` over ``positions`` up to rounding.  A zero
    query recovers nothing, and a zero-state cell is never recovered.
    """
    vectors = np.atleast_2d(object_hv)
    norms = hdc.row_norms(hdc.bind(memory.map_hv, vectors))  # raises on a dimension mismatch
    scores = _plane_scores(memory, vectors)
    scores[np.isnan(scores)] = -np.inf  # as recover scores a zero-norm entry
    cell, rows = memory.grid_cml.cell, memory.rows
    # argmax returns the first (lowest) index on ties
    found = tuple(
        cell(rows[b]) if score >= hdc.THETA * norm and norm > 0 else None
        for score, norm, b in zip(
            scores.max(axis=1).tolist(), norms.tolist(), scores.argmax(axis=1).tolist()
        )
    )
    return found if object_hv.ndim > 1 else found[0]


def query_object(
    memory: MapMemory, position_hv: np.ndarray
) -> str | None | tuple[str | None, ...]:
    """Object label stored at a grid position; None at object-free cells.

    The position input is sign-normalised before unbinding: grid states
    of nearby cells differ mostly in magnitude profile, and comparing
    sign patterns against sign patterns keeps the stored object
    separable from its angular neighbors even where raw-state cosines
    crowd toward 1.  An (n, d) stack of positions gives a tuple of n
    results.
    """
    return hdc.recover(hdc.bind(memory.map_hv, hdc.sign(position_hv)), memory.objects)


def encode_policy(
    goals: list[str], objects: hdc.Dictionary, rng: np.random.Generator
) -> np.ndarray:
    """The policy hypervector: the goal vectors bundled, the i-th goal permuted by i (1-based)."""
    if not goals:
        raise ValueError("policy needs at least one goal")
    for goal in goals:
        if goal not in objects:
            raise ValueError(f"unknown goal object {goal!r}")
    terms = [hdc.permute(objects.vector(goal), i) for i, goal in enumerate(goals, start=1)]
    return hdc.bundle(np.stack(terms), rng)


def next_goal(policy: np.ndarray, objects: hdc.Dictionary) -> tuple[str | None, np.ndarray]:
    """Unpermute the policy hypervector once and recover the revealed goal.

    Returns (label, advanced policy): the unpermuted vector, which holds
    the goals not yet revealed, still permuted.  A None label means the
    policy is exhausted (the unpermuted vector no longer resembles any
    object).
    """
    unrolled = hdc.permute(policy, -1)
    return hdc.recover(unrolled, objects), unrolled
