"""Grid-position map learner: shared cardinal actions, touch-sensor gating.

Physical grids let one action serve every cell: movement east from any
cell adds the same action vector.  The model holds two random Gaussian
action vectors, a_s for south and a_e for east; north and west are their
exact negations, so opposite moves cancel (``a_s + a_n = 0``) and no
model can hold any other north or west action.

The cell states start from zero and are trained against the fixed
actions over every directed adjacency until
``p_neighbor ~= p_cell + a_direction`` holds everywhere.
Every delta-rule update lies in span{a_s, a_e}, so the states stay rank
2: cell (row, col) is exactly ``x[row] * a_s + y[col] * a_e``.  Training
therefore iterates the two coordinate chains x (one scalar per row) and
y (one per column), stacked as one array ``[y, x]`` whose seam is no edge
and steps by exactly 0; the stopping rule is read once per block of
``GRID_EPOCH_BLOCK`` epochs, for each of them.  The model is the chains
and the two actions, and derives everything else from them once: the
action matrix A4 in ``DIRECTIONS`` order, the cell dictionary ``cells``
(one row per cell in row-major order, norms computed once), its
transposed view P (d x W H), whose column for a cell is that cell's
state, and the plane tables that score ``q . p / |p|`` as
``(basis @ q) . plane[cell]``.

Navigation differs from the abstract learner in two ways: the action
utilities use the plain transpose of the action matrix instead of a
pseudo-inverse, and the per-node gating matrix is replaced by the live
touch-sensor gate in ``DIRECTIONS`` order, [E, S, N, W] (0 = wall
contact).  The transpose utility ``A4^T (p_target - p_current)`` is
linear in the states, so the model derives the 4 x (W H) table
``U = A4^T P`` once and every move reads the difference of two of its
columns.  ``moves`` is the one move rule, a gated winner-take-all over
those differences that broadcasts over cell index arrays: ``grid_step``
runs it for the executor's one move, and the open-grid proof
(``experiments.verify_grid_cml``) for every cell pair at once.  A step
returns only the direction it picks; the executor, which owns the
robot's cell, makes the move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hdc

Cell = tuple[int, int]  # (row, col); (0, 0) is the northwest corner

DIRECTIONS = ("E", "S", "N", "W")
DELTAS: dict[str, Cell] = {"E": (0, 1), "S": (1, 0), "N": (-1, 0), "W": (0, -1)}

GRID_LEARNING_RATE = 0.05
GRID_EPOCH_CAP = 20_000  # training epochs before train_grid gives up
GRID_EPOCH_BLOCK = 64  # epochs trained between two reads of the stopping rule


@dataclass(frozen=True)
class GridCml:
    """Trained grid learner: the two coordinate chains and the two drawn actions.

    ``A4``, ``cells``, ``P``, the utility table ``U``, ``basis``,
    ``plane``, ``width`` and ``height`` are derived on construction; they
    are plain attributes.  ``A4`` is ``[a_e, a_s, -a_s, -a_e]`` in
    ``DIRECTIONS`` order.  ``cells`` is the state dictionary, one row per
    cell in row-major order with its norm computed once; ``P`` is the
    transposed view of its rows, one column per cell.  ``basis`` is
    ``[a_s; a_e]``, (2, d), and ``plane`` holds each cell's
    ``(x[row], y[col]) / |p|``, (W H, 2), NaN for a zero state.
    """

    x: np.ndarray  # (height,) south coordinate of each row
    y: np.ndarray  # (width,) east coordinate of each column
    a_s: np.ndarray  # (d,) south action; north is -a_s
    a_e: np.ndarray  # (d,) east action; west is -a_e

    def __post_init__(self) -> None:
        height, width = len(self.x), len(self.y)
        # (width * height, d), row row*width + col for cell (row, col): each
        # entry is x[row] a_s + y[col] a_e, the same two roundings as the sum of
        # two (width * height, d) outer products, from (height, d) and (width, d)
        S = np.multiply.outer(self.x, self.a_s)[:, None] + np.multiply.outer(self.y, self.a_e)
        S = S.reshape(width * height, -1)
        labels = tuple((row, col) for row in range(height) for col in range(width))
        A4 = np.stack([self.a_e, self.a_s, -self.a_s, -self.a_e], axis=1)  # (d, 4)
        object.__setattr__(self, "A4", A4)
        object.__setattr__(self, "cells", hdc.Dictionary(labels, S))
        object.__setattr__(self, "P", S.T)  # (d, width * height), a view
        object.__setattr__(self, "U", A4.T @ self.P)  # (4, width * height)
        object.__setattr__(self, "basis", np.stack([self.a_s, self.a_e]))
        coords = np.stack([np.repeat(self.x, width), np.tile(self.y, height)], axis=1)
        norms = self.cells.norms[:, None]
        plane = np.divide(coords, norms, out=np.full(coords.shape, np.nan), where=norms > 0)
        object.__setattr__(self, "plane", plane)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)

    @property
    def d(self) -> int:
        return self.P.shape[0]

    def cell_index(self, cell: Cell) -> int:
        row, col = cell
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise ValueError(f"cell {cell} outside {self.height}x{self.width} grid")
        return row * self.width + col

    def state(self, cell: Cell) -> np.ndarray:
        return self.P[:, self.cell_index(cell)]


def directed_edge_count(width: int, height: int) -> int:
    """Directed adjacencies of the full grid: 2 * ((W-1) H + (H-1) W)."""
    return 2 * ((width - 1) * height + (height - 1) * width)


def train_grid(width: int, height: int, a_s: np.ndarray, a_e: np.ndarray) -> GridCml:
    """Train the grid states from zeros over all directed adjacencies, actions fixed.

    Each epoch accumulates, for every directed edge (i -> j) with action
    a, the batch update that shrinks the prediction error
    ``p_j - (p_i + a)``: the source column gains ``lr * err`` (lr =
    0.05) and the destination column loses it.  West/north edges mirror
    east/south edges exactly (their actions are negations), contributing
    the same update again.  With P = x a_s + y a_e, an east edge's error is
    ``(y[c+1] - y[c] - 1) a_e`` in every row, so the batch update moves
    the y chain by twice that coefficient and never leaves the span (the
    same holds for south edges and x).  Convergence is the mean error
    norm over all directed edges dropping below 1e-2 * sqrt(d); each
    edge's norm is its chain coefficient times ``|a_e|`` or ``|a_s|``.

    The two chains are trained as one array ``z = [y, x]``; the seam
    between y's last entry and x's first is no edge, so its error is held
    at exactly 0 and its step adds 0.  Every entry gets the operations of
    two separate chains in their order (``err = (z[j+1] - z[j]) - 1``,
    then ``+ 0.1 err[j]``, then ``- 0.1 err[j-1]``), so the chains are
    bit-identical to training x and y apart.  An epoch stores its errors
    and the chains it started from in one row of a block buffer; after
    each ``GRID_EPOCH_BLOCK`` epochs the stopping rule is read for the
    whole block at once, and the chains of the first epoch whose residual
    is below the tolerance are returned.  The row sums run along a
    contiguous axis, the same pairwise sums as a 1-D ``sum``.
    """
    if width * height < 2:
        raise ValueError("grid needs at least two cells")
    tol = 1e-2 * np.sqrt(len(a_s))
    norm_e, norm_s = float(np.linalg.norm(a_e)), float(np.linalg.norm(a_s))
    edge_pairs = directed_edge_count(width, height) // 2
    z = np.zeros(width + height)  # [y, x]: east coordinate of each column, south of each row
    low, high = z[:-1], z[1:]  # the two ends of each chain step, views of z
    step = np.empty(width + height - 1)
    errors = np.empty((GRID_EPOCH_BLOCK, width + height - 1))
    starts = np.empty((GRID_EPOCH_BLOCK, width + height))
    for first in range(0, GRID_EPOCH_CAP, GRID_EPOCH_BLOCK):
        block = min(GRID_EPOCH_BLOCK, GRID_EPOCH_CAP - first)
        for err, start in zip(errors[:block], starts[:block]):
            start[:] = z
            np.subtract(high, low, out=err)
            err -= 1.0
            err[width - 1] = 0.0  # the seam is no edge
            np.multiply(err, 2 * GRID_LEARNING_RATE, out=step)
            low += step
            high -= step
        residual = np.abs(errors[:block])
        mean_residual = (
            height * norm_e * np.add.reduce(residual[:, : width - 1], axis=1)
            + width * norm_s * np.add.reduce(residual[:, width:], axis=1)
        ) / edge_pairs
        converged = np.flatnonzero(mean_residual < tol)
        if len(converged):
            chains = starts[converged[0]]
            return GridCml(
                x=chains[width:].copy(), y=chains[:width].copy(), a_s=a_s.copy(), a_e=a_e.copy()
            )
    raise RuntimeError(
        f"grid training failed to converge: residual {mean_residual[-1]:.3g} "
        f"after {GRID_EPOCH_CAP} epochs"
    )


def moves(grid_cml: GridCml, target, current, gate: np.ndarray) -> np.ndarray:
    """The gated winner-take-all move: the ``DIRECTIONS`` index of each pick.

    ``target`` and ``current`` are row-major cell indices, or index arrays
    that broadcast together; ``gate`` has one row per direction (0 = wall
    contact) and broadcasts against them.  Each move scores
    ``U[:, target] - U[:, current]``, a closed gate scores -inf, and the
    largest score wins even when it is negative (a closed move must never
    beat an open one that merely scores badly); ties go to the lowest
    index.  Where every gate is closed the pick is 0.
    """
    U = grid_cml.U
    # a nonzero gate is open; ``where`` reads the gate as bool without a comparison
    return np.where(gate, U[:, target] - U[:, current], -np.inf).argmax(axis=0)


def grid_step(
    grid_cml: GridCml, target_cell: Cell, current_cell: Cell, gate: np.ndarray
) -> str:
    """One sensor-gated move toward the target cell: the direction ``moves`` picks.

    ``gate`` is the touch-sensor gate in ``DIRECTIONS`` order; when every
    gate is closed there is no legal move and ``ValueError`` is raised.
    The environment, which owns the true coordinates, makes the move.
    """
    if not any(gate):  # the builtin over four floats costs a tenth of ``gate.any()``
        raise ValueError(f"no legal move from {current_cell}: all sensors report walls")
    target, current = grid_cml.cell_index(target_cell), grid_cml.cell_index(current_cell)
    return DIRECTIONS[moves(grid_cml, target, current, gate)]
