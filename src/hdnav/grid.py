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
2: cell (row, col) is exactly ``x[row] * a_s + y[col] * a_e``, the one
state formula, which ``GridCml.states`` evaluates.  Training
is therefore linear in the two coordinate chains x (one scalar per row)
and y (one per column), and ``train_grid`` writes its trajectory in
closed form: each n-node chain is its fixed point (``fixed_chains``,
centred with unit steps) minus the modes of a path, the cosines
``v_k[j] = sqrt(2/n) cos(pi k (j + 1/2) / n)`` for k = 1..n-1
(``path_modes``), each decaying by ``1 - 2 lr (2 - 2 cos(pi k / n))``
per epoch.  The stopping rule is read ``GRID_EPOCH_BLOCK`` epochs at a
time; it holds at about ``ceil(ln(tol / c_1) / ln rate_1)``, when the
slowest mode (the longer chain's first, y's on the 20x10 maze) has
decayed from its epoch-0 share ``c_1`` of the residual to the tolerance.
The model is the chains and the two actions, and derives everything
else from them once: the action matrix A4 in ``DIRECTIONS`` order, the int8
table ``signs`` of the cells' sign patterns (one row per cell in
row-major order; a map binds these), the utility table ``U`` below, and
the plane tables that score ``q . p / |p|`` as ``(basis @ q) .
plane[cell]``.  The sign rule is not the grid's own: ``signs`` is
``hdc.sign_pattern`` of the states, the rule a dictionary's rows use, so
the grid and the object layer bind sign terms made one way.  The
d-dimensional states are built once, for ``signs`` alone, and dropped:
``U`` and the plane need only the chains and the actions' dot products.
Cell (row, col)'s state is ``c @ basis`` with ``c = (x[row], y[col])``
and ``basis = [a_s; a_e]``, so its utilities ``A4^T p`` are ``c @ (basis
@ A4)``, a (2, 4) table, and ``|p|`` is ``sqrt(c . (G c))`` with the
(2, 2) Gram ``G = basis @ basis^T``.  ``states`` rebuilds any cells'
states on request, and ``P`` the whole (d x W H) table from it, whose
column for a cell is that cell's state, bit for bit.  Cells are indexed
row-major; ``cell_index`` and ``cell`` convert both ways.

Navigation differs from the abstract learner in two ways: the action
utilities use the plain transpose of the action matrix instead of a
pseudo-inverse, and the per-node gating matrix is replaced by the live
touch-sensor gate in ``DIRECTIONS`` order, [E, S, N, W] (False = wall
contact).  The transpose utility ``A4^T (p_target - p_current)`` is
linear in the states, so the model derives the (W H) x 4 table
``U = (A4^T P)^T`` once, in that closed form, one row per cell with the
directions last, and every move reads the difference of two of its rows.
``moves`` is the one move rule, a gated winner-take-all over those
differences that broadcasts over cell index arrays: ``grid_step`` runs
it for the executor's one move, and the open-grid proof
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
GRID_EPOCH_BLOCK = 64  # epochs whose stopping rule train_grid reads at once


@dataclass(frozen=True)
class GridCml:
    """Trained grid learner: the two coordinate chains and the two drawn actions.

    ``A4``, ``signs``, the utility table ``U``, ``basis``, ``plane``,
    ``width`` and ``height`` are derived on construction; they are plain
    attributes.  ``A4`` is ``[a_e, a_s, -a_s, -a_e]`` in ``DIRECTIONS``
    order.  ``signs`` holds each cell's ``hdc.sign_pattern``, (W H, d)
    int8, one row per cell in row-major order, from the one state table a
    build makes.  ``basis`` is ``[a_s; a_e]``, (2, d).  With ``coords``
    each cell's ``(x[row], y[col])``, ``U`` is ``(A4^T P)^T`` in closed
    form, ``coords @ (basis @ A4)``, (W H, 4), one row of four utilities
    per cell; ``plane`` holds each cell's ``(x[row], y[col]) / |p|``,
    (W H, 2), NaN for a zero state, with ``|p|^2`` read from the Gram
    ``basis @ basis^T``.  No table of states is kept: ``states`` and
    ``P`` rebuild them on request.
    """

    x: np.ndarray  # (height,) south coordinate of each row
    y: np.ndarray  # (width,) east coordinate of each column
    a_s: np.ndarray  # (d,) south action; north is -a_s
    a_e: np.ndarray  # (d,) east action; west is -a_e

    def __post_init__(self) -> None:
        height, width = len(self.x), len(self.y)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        A4 = np.stack([self.a_e, self.a_s, -self.a_s, -self.a_e], axis=1)  # (d, 4)
        object.__setattr__(self, "A4", A4)
        # the one d-dimensional table a build makes, (width * height, d), for the sign rule
        object.__setattr__(self, "signs", hdc.sign_pattern(self.P.T))
        basis = np.stack([self.a_s, self.a_e])
        object.__setattr__(self, "basis", basis)
        # each state is coords[cell] @ basis, so the tables below need only the
        # actions' dot products: basis @ A4 (2, 4) and the Gram basis @ basis.T (2, 2)
        coords = np.stack([np.repeat(self.x, width), np.tile(self.y, height)], axis=1)
        # (width * height, 4), direction last so that a move's argmax runs along contiguous rows
        object.__setattr__(self, "U", coords @ (basis @ A4))
        norms = np.sqrt(np.sum(coords @ (basis @ basis.T) * coords, axis=1))[:, None]
        plane = np.divide(coords, norms, out=np.full(coords.shape, np.nan), where=norms > 0)
        object.__setattr__(self, "plane", plane)

    @property
    def d(self) -> int:
        return len(self.a_s)

    def states(self, rows, cols) -> np.ndarray:
        """The states of cells (rows, cols), ``x[rows] a_s + y[cols] a_e``, d along the last axis.

        ``rows`` and ``cols`` are index arrays that broadcast together, as
        in ``moves``; each entry takes the same two roundings however many
        cells are built at once.
        """
        return np.multiply.outer(self.x[rows], self.a_s) + np.multiply.outer(self.y[cols], self.a_e)

    @property
    def P(self) -> np.ndarray:
        """The (d, W H) state table, one column per cell, built anew on each read."""
        # (height, 1, d) + (width, d): row row*width + col of the reshaped table is
        # cell (row, col), from one (height, d) and one (width, d) outer product
        S = self.states(np.arange(self.height)[:, None], np.arange(self.width))
        return S.reshape(self.width * self.height, -1).T

    def cell_index(self, cell: Cell) -> int:
        row, col = cell
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise ValueError(f"cell {cell} outside {self.height}x{self.width} grid")
        return row * self.width + col

    def cell(self, index):
        """The cell at row-major index ``index``: the inverse of ``cell_index``.

        An index array gives the arrays of rows and of columns.
        """
        return divmod(index, self.width)


def directed_edge_count(width: int, height: int) -> int:
    """Directed adjacencies of the full grid: 2 * ((W-1) H + (H-1) W)."""
    return 2 * ((width - 1) * height + (height - 1) * width)


def fixed_chains(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """The chains ``(x, y)`` training converges to: each keeps a sum of 0 and steps by 1."""
    return np.arange(height) - (height - 1) / 2, np.arange(width) - (width - 1) / 2


def path_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The non-constant eigenpairs of an n-node path's Laplacian: (eigenvalues, modes).

    Mode k = 1..n-1 is the DCT-II cosine ``v_k[j] = sqrt(2/n) cos(pi k (j + 1/2) / n)``,
    one row of ``modes``, with eigenvalue ``2 - 2 cos(pi k / n)`` (Strang 1999,
    "The Discrete Cosine Transform", SIAM Review 41(1)); the rows are
    orthonormal.  A one-node path has none.
    """
    k = np.arange(1, n)
    modes = np.sqrt(2 / n) * np.cos(np.pi * np.outer(k, np.arange(n) + 0.5) / n)
    return 2 - 2 * np.cos(np.pi * k / n), modes


def train_grid(width: int, height: int, a_s: np.ndarray, a_e: np.ndarray) -> GridCml:
    """The grid states that training from zeros over all directed adjacencies reaches.

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

    So each chain, of n nodes, follows its own linear update from zero,
    ``c <- c - 2 lr L (c - c*)``, where ``L`` is the n-node path's
    Laplacian and ``c*`` the chain's fixed point (``fixed_chains``).  The
    modes of ``L`` are cosines (``path_modes``): mode k has weight ``w_k =
    v_k . c*`` and decays by ``rate_k = 1 - 2 lr (2 - 2 cos(pi k / n))``
    per epoch, and the constant mode's weight is exactly 0, for ``c*`` is
    centred (a one-node chain has no other mode, and a one-cell grid no
    edge: it stops at epoch 0).  The chain at the start of epoch n is
    ``c* - sum_k rate_k^n w_k v_k``, and its steps miss 1 by
    ``-sum_k rate_k^n w_k diff(v_k)``.
    Both chains' modes are stacked, so a block of epochs is one product
    with a block-diagonal table of the modes' steps.  The stopping rule is
    read for ``GRID_EPOCH_BLOCK`` epochs at a time, in epoch order (the
    residual, an L1 sum, is not monotone in n), and the chains of the
    first epoch below the tolerance are returned.  Near the stop the
    residual is the slowest mode alone, the longer chain's first (y's at
    W = 20, H = 10: rate 0.99754, against 0.99021 for x's), so the
    stopping epoch is about ``ceil(ln(tol / c_1) / ln rate_1)``, with
    ``c_1`` that mode's share of the residual at epoch 0.
    """
    # an epoch's mean residual weighs each step's miss by its edges' action norm
    norms = [height * np.sqrt(a_e @ a_e), width * np.sqrt(a_s @ a_s)]
    weights = np.repeat(norms, [width - 1, height - 1]) / (directed_edge_count(width, height) // 2)
    x_star, y_star = fixed_chains(width, height)
    (eig_y, v_y), (eig_x, v_x) = path_modes(width), path_modes(height)
    rate = 1 - 2 * GRID_LEARNING_RATE * np.concatenate([eig_y, eig_x])
    w = np.concatenate([v_y @ y_star, v_x @ x_star])
    # block diagonal: row k holds mode k's steps, y's modes in y's W - 1, x's in x's H - 1
    steps = np.zeros((len(rate), len(rate)))
    steps[: width - 1, : width - 1] = np.diff(v_y, axis=1)
    steps[width - 1 :, width - 1 :] = np.diff(v_x, axis=1)
    for first in range(0, GRID_EPOCH_CAP, GRID_EPOCH_BLOCK):
        epochs = np.arange(first, min(first + GRID_EPOCH_BLOCK, GRID_EPOCH_CAP))
        modes = rate ** epochs[:, None] * w  # (block, W + H - 2): each mode's share of c* - c
        mean_residual = np.abs(modes @ steps) @ weights
        converged = np.flatnonzero(mean_residual < 1e-2 * np.sqrt(len(a_s)))
        if len(converged):
            y, x = np.split(modes[converged[0]], [width - 1])
            return GridCml(x=x_star - x @ v_x, y=y_star - y @ v_y, a_s=a_s.copy(), a_e=a_e.copy())
    raise RuntimeError(
        f"grid training failed to converge: residual {mean_residual[-1]:.3g} "
        f"after {GRID_EPOCH_CAP} epochs"
    )


def moves(grid_cml: GridCml, target, current, gate: np.ndarray) -> np.ndarray:
    """The gated winner-take-all move: the ``DIRECTIONS`` index of each pick.

    ``target`` and ``current`` are row-major cell indices, or index arrays
    that broadcast together; ``gate`` holds the directions along its last
    axis (False = wall contact) and broadcasts against them.  Each move scores
    ``U[target] - U[current]``, a closed gate scores -inf, and the
    largest score wins even when it is negative (a closed move must never
    beat an open one that merely scores badly); ties go to the lowest
    index.  Where every gate is closed the pick is 0.
    """
    U = grid_cml.U
    return np.where(gate, U[target] - U[current], -np.inf).argmax(axis=-1)


def grid_step(
    grid_cml: GridCml, target_cell: Cell, current_cell: Cell, gate: np.ndarray
) -> str:
    """One sensor-gated move toward the target cell: the direction ``moves`` picks.

    ``gate`` is the touch-sensor gate in ``DIRECTIONS`` order, the maze's
    ``gates[current_cell]``; when every gate is closed there is no legal
    move and ``ValueError`` is raised.  The executor, which owns the
    robot's cell, makes the move by the direction's ``DELTAS``.
    """
    if not any(gate):
        raise ValueError(f"no legal move from {current_cell}: all sensors report walls")
    target, current = grid_cml.cell_index(target_cell), grid_cml.cell_index(current_cell)
    return DIRECTIONS[moves(grid_cml, target, current, gate)]
