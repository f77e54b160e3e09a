"""Hierarchical sequential-goal executor.

Three nested loops wire the modules together.  The outer loop unrolls
the policy one goal at a time.  The middle loop asks the object-graph
learner for the next waypoint object on the way to the goal, looks its
position up in the map memory, and hands that position to the grid
layer.  The inner loop steps the robot cell by cell under touch-sensor
gating until it stands on the waypoint, where the map is queried for the
object found there and the answer feeds the middle loop.  The middle
loop ends when that answer is the goal's label.  Every decision is one
cleanup by ``hdc.cleanup``'s rule: the next goal, the planner's inputs,
the waypoint's cell and the object found on arrival.

The executor reads each layer through its smallest interface: the maze's
gate table ``Maze.gates`` is the robot's touch sensors, the grid layer
turns a target cell and the gate at the robot's cell into a direction,
and the object layer returns the next predicted state or a refusal that
says whether it recognised its inputs.  The robot's cell is the
executor's own state, and the executor makes each move, by the
direction's ``DELTAS``; it starts at home, ``maze.placements["h"]``.

The executor never raises on a failed trial: every abort path is
classified (dithering, step caps, unrecoverable states, unreachable
targets) and returned with the goal entries of the trial record.
"""

from __future__ import annotations

import copy
import enum

import numpy as np

from . import cml as cml_mod
from . import semantic_map
from .grid import DELTAS, Cell, GridCml, grid_step
from .maze import DOOR_LABELS, Maze
from .semantic_map import MapMemory


class FailureReason(enum.Enum):
    NONE = "none"
    DITHER_ABORT = "dither_abort"
    STEP_CAP = "step_cap"
    UNRECOVERABLE_STATE = "unrecoverable_state"
    UNREACHABLE = "unreachable"
    NO_READY_MAZE = "no_ready_maze"  # mission_trial's: no mission-ready maze within the cap


def grid_step_cap(maze: Maze) -> int:
    """Steps allowed for one grid leg: 4 * (W + H)."""
    return 4 * (maze.width + maze.height)


def detect_dither(path: list[Cell]) -> bool:
    """True when the walk ends in a position 2-cycle, its last two cells, repeated
    three times; a walk of fewer than seven cells never dithers."""
    return len(path) >= 7 and path[-6:] == path[-2:] * 3


def remove_door(object_cml: cml_mod.Cml, door: str) -> cml_mod.Cml:
    """Close the gates of every edge touching a door node.

    Only the gating matrix changes: the copy shares the states, actions,
    state dictionary and graph (with its flow table), so planning reroutes
    around the missing node with no retraining and nothing derived again.
    """
    if door not in DOOR_LABELS:
        raise ValueError(f"not a door: {door!r}")
    door_idx = object_cml.graph.node_index(door)
    G = object_cml.G.copy()
    G[(object_cml.graph.src == door_idx) | (object_cml.graph.dst == door_idx)] = False
    reduced = copy.copy(object_cml)  # not ``replace``, which would rebuild the dictionary
    object.__setattr__(reduced, "G", G)
    return reduced


def grid_leg(
    grid_cml: GridCml, maze: Maze, start: Cell, target_cell: Cell, step_cap: int
) -> tuple[list[Cell], FailureReason]:
    """Drive the robot from ``start`` to a target cell under sensor gating.

    Each step reads the gate at the robot's cell, ``maze.gates[cell]``,
    and moves by the ``DELTAS`` of the direction ``grid_step`` picks.  No
    move needs a check: ``start`` is open, ``grid.moves`` never picks a
    closed gate while one is open, ``grid_step`` refuses a cell whose
    gates are all closed, and every open gate leads to an open cell.
    Returns the cells walked, ``start`` first, and how the leg ended; a
    dithering leg's 2-cycle is the walk's last two cells.  The leg ends
    when the robot stands on the target cell, by the environment's true
    coordinates.  A similarity test on the grid states would not do:
    near-duplicate states pass it a few cells early, while the utilities
    still point at the real target.
    """
    cell, path = start, [start]
    while True:
        if cell == target_cell:
            return path, FailureReason.NONE
        if len(path) - 1 >= step_cap:
            return path, FailureReason.STEP_CAP
        dr, dc = DELTAS[grid_step(grid_cml, target_cell, cell, maze.gates[cell])]
        cell = (cell[0] + dr, cell[1] + dc)
        path.append(cell)
        if detect_dither(path):
            return path, FailureReason.DITHER_ABORT


def run_mission(
    object_cml: cml_mod.Cml, memory: MapMemory, maze: Maze, policy: np.ndarray
) -> tuple[list[dict], FailureReason]:
    """Execute the goals the policy hypervector reveals; returns the goal entries and the failure.

    One entry per goal attempted, as the trial record stores it: ``goal``,
    ``reached``, ``object_path`` (the labels found, from where the goal's
    leg began), ``grid_path`` (its cells as ``[row, col]`` lists, from the
    robot's cell at the start) and ``steps`` (the moves made).  The robot
    starts at home, ``maze.placements["h"]``.  The grid legs run on
    ``memory.grid_cml``, the grid model the map was built from.  The
    hypervector dimensions of the models, the map and the policy must
    agree.  The entries end at the first goal not reached, with its
    failure, or with ``FailureReason.NONE`` once the policy reveals no
    further goal; whether the revealed goals were the encoded ones is the
    caller's to judge.
    """
    goals: list[dict] = []
    failure = FailureReason.NONE
    hop_cap = 2 * object_cml.graph.n
    cells_budget = 10 * maze.width * maze.height
    objects, grid_cml = memory.objects, memory.grid_cml
    current_label = "h"  # the robot starts at home and knows it
    robot = maze.placements[current_label]

    while failure is FailureReason.NONE:
        goal_label, policy = semantic_map.next_goal(policy, objects)
        if goal_label is None:
            break
        o_star = objects.vector(goal_label)
        object_path = [current_label]
        grid_path: list[Cell] = [robot]
        hops = 0

        while current_label != goal_label:
            if hops >= hop_cap:
                failure = FailureReason.STEP_CAP
                break
            hops += 1
            planned = cml_mod.step(object_cml, o_star, objects.vector(current_label))
            if planned.chosen_edge is None:
                # recognised inputs with no open gate: the goal is cut off
                failure = (
                    FailureReason.UNREACHABLE
                    if planned.recognised
                    else FailureReason.UNRECOVERABLE_STATE
                )
                break
            cell = semantic_map.query_position(memory, planned.predicted_next)
            if cell is None:
                failure = FailureReason.UNRECOVERABLE_STATE
                break
            leg, failure = grid_leg(
                grid_cml, maze, robot, cell, min(grid_step_cap(maze), cells_budget)
            )
            robot = leg[-1]
            cells_budget -= len(leg) - 1
            grid_path.extend(leg[1:])
            if failure is not FailureReason.NONE:
                break
            found = semantic_map.query_object(memory, grid_cml.cell_index(robot))
            if found is not None:  # non-recoveries are ignored
                current_label = found
                object_path.append(found)

        goals.append(
            {
                "goal": goal_label,
                "reached": failure is FailureReason.NONE,
                "object_path": object_path,
                "grid_path": [list(cell) for cell in grid_path],
                "steps": len(grid_path) - 1,
            }
        )
    return goals, failure
