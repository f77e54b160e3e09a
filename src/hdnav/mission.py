"""Hierarchical sequential-goal executor.

Three nested loops wire the modules together.  The outer loop unrolls
the policy one goal at a time.  The middle loop asks the object-graph
learner for the next waypoint object on the way to the goal, looks its
position up in the map memory, and hands that position to the grid
layer.  The inner loop steps the robot cell by cell under touch-sensor
gating until it stands on the waypoint, where the map is queried for the
object found there and the answer feeds the middle loop.  The middle
loop ends when that answer is the goal's label.  Every decision is one
recovery at the same noise floor ``theta``: the next goal, the planner's
inputs, the waypoint's cell and the object found on arrival.

The executor reads each layer through its smallest interface: the maze
gives the sensor gate at a cell and checks each move, the grid layer
turns a target cell and that gate into a direction, and the object layer
returns the next predicted state or a refusal that says whether it
recognised its inputs.  The robot's cell is the executor's own state;
``Maze.robot`` is only where the trial starts.

The executor never raises on a failed trial: every abort path is
classified (dithering, step caps, unrecoverable states, unreachable
targets) and reported in the trial result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from . import cml as cml_mod
from . import hdc, semantic_map
from .grid import Cell, GridCml, grid_step
from .maze import DOOR_LABELS, Maze, move_robot, sense
from .semantic_map import MapMemory, Policy


class FailureReason(enum.Enum):
    NONE = "none"
    DITHER_ABORT = "dither_abort"
    STEP_CAP = "step_cap"
    UNRECOVERABLE_STATE = "unrecoverable_state"
    UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class GoalOutcome:
    goal: str
    reached: bool
    object_path: tuple[str, ...]
    grid_path: tuple[Cell, ...]
    steps: int


@dataclass(frozen=True)
class TrialResult:
    success: bool
    goal_outcomes: tuple[GoalOutcome, ...]
    failure_reason: FailureReason
    dither_cells: tuple[Cell, ...] = ()

    @property
    def total_steps(self) -> int:
        return sum(outcome.steps for outcome in self.goal_outcomes)


@dataclass(frozen=True)
class MissionContext:
    """Everything one trial needs; hypervector dimensions must agree."""

    object_cml: cml_mod.Cml
    grid_cml: GridCml
    memory: MapMemory
    maze: Maze
    policy: Policy
    theta: float = hdc.DEFAULT_THETA  # the noise floor of every recovery


def grid_step_cap(maze: Maze) -> int:
    """Steps allowed for one grid leg: 4 * (W + H)."""
    return 4 * (maze.width + maze.height)


def detect_dither(path: list[Cell]) -> tuple[Cell, Cell] | None:
    """The two cells of a position 2-cycle repeated three times, if present."""
    if len(path) < 7:
        return None
    a, b = path[-1], path[-2]
    if a == b:
        return None
    if path[-3] == a and path[-5] == a and path[-4] == b and path[-6] == b:
        return (b, a)
    return None


def remove_door(object_cml: cml_mod.Cml, door: str) -> cml_mod.Cml:
    """Zero the gates of every edge touching a door node.

    Only the gating matrix changes: states, actions, and the cached
    pseudo-inverse stay untouched, so planning reroutes around the
    missing node with no retraining.
    """
    if door not in DOOR_LABELS:
        raise ValueError(f"not a door: {door!r}")
    door_idx = object_cml.graph.node_index(door)
    G = object_cml.G.copy()
    for edge_idx, (src, dst) in enumerate(object_cml.graph.directed_edges):
        if door_idx in (src, dst):
            G[edge_idx, :] = 0.0
    return replace(object_cml, G=G)


@dataclass
class _LegResult:
    path: list[Cell]
    reason: FailureReason
    dither_cells: tuple[Cell, ...] = ()


def _grid_leg(
    grid_cml: GridCml, maze: Maze, start: Cell, target_cell: Cell, step_cap: int
) -> _LegResult:
    """Drive the robot from ``start`` to a target cell under sensor gating.

    The leg ends when the robot stands on the target cell, by the
    environment's true coordinates.  A similarity test on the grid states
    would not do: near-duplicate states pass it a few cells early, while
    the utilities still point at the real target.
    """
    cell, path = start, [start]
    while True:
        if cell == target_cell:
            return _LegResult(path=path, reason=FailureReason.NONE)
        if len(path) - 1 >= step_cap:
            return _LegResult(path=path, reason=FailureReason.STEP_CAP)
        direction = grid_step(grid_cml, target_cell, cell, sense(maze, cell))
        cell = move_robot(maze, cell, direction)
        path.append(cell)
        cycle = detect_dither(path)
        if cycle is not None:
            return _LegResult(path=path, reason=FailureReason.DITHER_ABORT, dither_cells=cycle)


def run_mission(ctx: MissionContext) -> TrialResult:
    """Execute every goal in the policy; returns the full trial trace."""
    maze = ctx.maze
    policy = ctx.policy
    outcomes: list[GoalOutcome] = []
    hop_cap = 2 * ctx.object_cml.graph.n
    cells_budget = 10 * maze.width * maze.height
    objects = ctx.memory.objects
    robot = maze.robot
    current_label = "h"  # the robot starts at home and knows it

    while True:
        goal_label, policy = semantic_map.next_goal(policy, objects, ctx.theta)
        if goal_label is None:
            break
        o_star = objects.vector(goal_label)
        object_path = [current_label]
        grid_path: list[Cell] = [robot]
        hops = 0
        failure = FailureReason.NONE
        dither: tuple[Cell, ...] = ()

        while current_label != goal_label:
            if hops >= hop_cap:
                failure = FailureReason.STEP_CAP
                break
            hops += 1
            planned = cml_mod.step(
                ctx.object_cml, o_star, objects.vector(current_label), ctx.theta
            )
            if planned.chosen_edge is None:
                # recognised inputs with no open gate: the goal is cut off
                failure = (
                    FailureReason.UNREACHABLE
                    if planned.recognised
                    else FailureReason.UNRECOVERABLE_STATE
                )
                break
            cell = semantic_map.query_position(
                ctx.memory, planned.predicted_next, ctx.theta
            )
            if cell is None:
                failure = FailureReason.UNRECOVERABLE_STATE
                break
            leg = _grid_leg(
                ctx.grid_cml, maze, robot, cell, min(grid_step_cap(maze), cells_budget)
            )
            robot = leg.path[-1]
            cells_budget -= len(leg.path) - 1
            grid_path.extend(leg.path[1:])
            if leg.reason is not FailureReason.NONE:
                failure = leg.reason
                dither = leg.dither_cells
                break
            found = semantic_map.query_object(
                ctx.memory, ctx.grid_cml.state(robot), ctx.theta
            )
            if found is not None:  # non-recoveries are ignored
                current_label = found
                object_path.append(found)

        reached = failure is FailureReason.NONE
        outcomes.append(
            GoalOutcome(
                goal=goal_label,
                reached=reached,
                object_path=tuple(object_path),
                grid_path=tuple(grid_path),
                steps=len(grid_path) - 1,
            )
        )
        if not reached:
            return TrialResult(
                success=False,
                goal_outcomes=tuple(outcomes),
                failure_reason=failure,
                dither_cells=dither,
            )

    return TrialResult(
        success=bool(outcomes) and all(o.reached for o in outcomes),
        goal_outcomes=tuple(outcomes),
        failure_reason=FailureReason.NONE,
    )


def run_grid_only(grid_cml: GridCml, maze: Maze) -> TrialResult:
    """Key-to-treasure traversal with the grid layer and sensors alone.

    No object graph, no map: the target is the treasure cell's state.
    Greedy utility steering cannot see doors displaced from its straight
    line, so a sizeable fraction of mazes ends in a dithering abort; the
    result carries the classification for the baseline statistic.
    """
    leg = _grid_leg(
        grid_cml, maze, maze.placements["k"], maze.placements["t"], grid_step_cap(maze)
    )
    reached = leg.reason is FailureReason.NONE
    outcome = GoalOutcome(
        goal="t",
        reached=reached,
        object_path=("k", "t") if reached else ("k",),
        grid_path=tuple(leg.path),
        steps=len(leg.path) - 1,
    )
    return TrialResult(
        success=reached,
        goal_outcomes=(outcome,),
        failure_reason=leg.reason,
        dither_cells=leg.dither_cells,
    )
