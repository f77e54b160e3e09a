"""Associative object-position memory and the permutation-encoded goal policy.

The map hypervector is the signed bundle of the eight object/position
bindings (one per placed object, plus a tie-break vector to keep the
total bipolar):

    map = sgn(sgn(o_1 * p_1) + ... + sgn(o_8 * p_8) + eta)

Each term ``sgn(o_i * p_i)`` equals ``sgn(o_i) * sgn(p_i)`` (exactly, for
the bipolar object states), and the object and cell dictionaries hold
those sign patterns as int8 tables computed once, so a map build
multiplies patterns and takes no sign of its own.

Binding the map with an object vector releases a noisy copy of that
object's position, cleaned up against the trial's eight known position
states; binding with a position state releases the object stored there.
Unbinding a bipolar map only flips signs, so each forward query has its
object's norm and the readiness check scores it with the norms the
object dictionary already holds.  Grid states of different cells can be
strongly correlated, so not every arrangement yields a map whose
recoveries are all unambiguous; the ``check_viability`` predicate tells
usable maps apart and the harness regenerates mazes that fail it.

A goal policy is a bundle of permuted object vectors, the i-th goal
shifted i places.  Unpermuting once exposes the next goal above the
noise floor; when the rotation runs past the last goal the recovery
falls below threshold, signalling completion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hdc
from .grid import Cell, GridCml
from .maze import Maze


@dataclass(frozen=True)
class MapMemory:
    """The map hypervector plus the trial's explicit dictionaries.

    ``map_hv`` is a sign vector (entries -1, 0 or +1; a bundle is
    bipolar).  ``positions`` holds the grid states of the eight placement
    cells, keyed by the cells themselves, one row per object in
    ``objects`` order: the sub-dictionary of the grid model's ``cells``.
    """

    map_hv: np.ndarray
    objects: hdc.Dictionary
    positions: hdc.Dictionary

    def position_of(self, label: str) -> Cell:
        return self.positions.labels[self.objects.labels.index(label)]


@dataclass(frozen=True)
class Policy:
    """Bundled goal sequence: the goals not yet revealed, still permuted."""

    policy_hv: np.ndarray


def build_map(
    objects: hdc.Dictionary, maze: Maze, grid_cml: GridCml, rng: np.random.Generator
) -> MapMemory:
    """Bind each object to the state of its cell and bundle the signed terms.

    Each term is ``sign(o_i) * sign(p_i)`` from the dictionaries' int8 sign
    patterns, which equals ``sign(bind(o_i, p_i))``; ``bundle`` sums the
    int8 terms exactly in int16 and adds its tie-break draw in float.
    """
    positions = grid_cml.cells.take(tuple(maze.placements[label] for label in objects.labels))
    terms = objects.signs * positions.signs
    map_hv = hdc.bundle(terms, rng)  # even count, so bundle adds the tie-break eta
    return MapMemory(map_hv, objects, positions)


def check_viability(memory: MapMemory, theta: float = hdc.DEFAULT_THETA) -> bool:
    """True when every object's position recovers unambiguously from the map.

    Grid states of different cells can be strongly correlated, so a
    sizeable share of arrangements yields maps whose position recoveries
    collide; those maps are unusable and counted by the viability
    statistic.

    All eight objects are scored in one cosine block: object ``i`` recovers
    its own position when row ``i``'s best entry is entry ``i`` at a cosine
    of at least ``theta`` (the position labels are unique).  Unbinding a map
    without zero entries flips signs only, so each query's norm is its
    object's norm, bit for bit; a map with a zero entry computes them.
    """
    hdc.check_theta(theta)
    objects = memory.objects
    queries = hdc.bind(memory.map_hv, objects.vectors)
    norms = objects.norms if memory.map_hv.all() else hdc.row_norms(queries)
    sims = hdc.cosines(queries, norms, memory.positions)
    return sims.argmax(axis=1).tolist() == list(range(len(sims))) and bool(
        sims.diagonal().min() >= theta
    )


def mission_ready(memory: MapMemory, theta: float = hdc.DEFAULT_THETA) -> bool:
    """Viability plus reliable arrival feedback: the full round trip.

    The executor also queries the object found at each arrival cell, and
    with near-parallel grid states that reverse direction can collide on
    maps whose forward recoveries are clean.  The mission harness
    regenerates mazes until both directions hold for all eight objects.
    """
    if not check_viability(memory, theta):
        return False
    return query_object(memory, memory.positions.signs, theta) == memory.objects.labels


def query_position(
    memory: MapMemory, object_hv: np.ndarray, theta: float = hdc.DEFAULT_THETA
) -> Cell | None | tuple[Cell | None, ...]:
    """Cell of the object bound into the map; None below threshold.

    Works for approximate object vectors (e.g. planner predictions), not
    just exact dictionary entries.  An (n, d) stack of object vectors
    gives a tuple of n results.
    """
    return hdc.recover(hdc.bind(memory.map_hv, object_hv), memory.positions, theta)


def query_object(
    memory: MapMemory, position_hv: np.ndarray, theta: float = hdc.DEFAULT_THETA
) -> str | None | tuple[str | None, ...]:
    """Object label stored at a grid position; None at object-free cells.

    The position input is sign-normalised before unbinding: grid states
    of nearby cells differ mostly in magnitude profile, and comparing
    sign patterns against sign patterns keeps the stored object
    separable from its angular neighbors even where raw-state cosines
    crowd toward 1.  An (n, d) stack of positions gives a tuple of n
    results.
    """
    return hdc.recover(
        hdc.bind(memory.map_hv, hdc.sign(position_hv)), memory.objects, theta
    )


def encode_policy(
    goals: list[str], objects: hdc.Dictionary, rng: np.random.Generator
) -> Policy:
    """Bundle the goal vectors, the i-th goal permuted by i (1-based)."""
    if not goals:
        raise ValueError("policy needs at least one goal")
    for goal in goals:
        if goal not in objects:
            raise ValueError(f"unknown goal object {goal!r}")
    terms = [hdc.permute(objects.vector(goal), i) for i, goal in enumerate(goals, start=1)]
    return Policy(policy_hv=hdc.bundle(terms, rng))


def next_goal(
    policy: Policy, objects: hdc.Dictionary, theta: float = hdc.DEFAULT_THETA
) -> tuple[str | None, Policy]:
    """Unpermute the policy once and recover the revealed goal.

    Returns (label, advanced policy); a None label means the policy is
    exhausted (the unpermuted vector no longer resembles any object).
    """
    unrolled = hdc.permute(policy.policy_hv, -1)
    return hdc.recover(unrolled, objects, theta), Policy(policy_hv=unrolled)
