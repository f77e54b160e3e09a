import hashlib
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdnav import experiments, grid as grid_mod, hdc
from hdnav.config import ExperimentConfig
from hdnav.grid import (
    DELTAS, DIRECTIONS, GridCml, directed_edge_count, fixed_chains, grid_step, moves,
    path_modes, train_grid,
)
from hdnav.maze import Maze

D = 1000


@pytest.fixture(scope="module")
def actions():
    """(a_s, a_e): Gaussian south and east actions, drawn in that order."""
    rng = np.random.default_rng(3)
    return rng.normal(0.0, 1.0, size=D), rng.normal(0.0, 1.0, size=D)


@pytest.fixture(scope="module")
def small_grid(actions):
    # 5x5 grid trains in well under a second; used for exhaustive checks
    return train_grid(5, 5, *actions)


def reference_train_grid(width, height, d, a_s, a_e, learning_rate=0.05, epoch_cap=20_000):
    """The delta rule over the full (d x H x W) state array, one column per cell.

    The direct form of the training objective that ``train_grid`` reduces
    to two coordinate chains; kept as the reference it must match.
    """
    tol = 1e-2 * np.sqrt(d)
    P3 = np.zeros((d, height, width))
    a_e = a_e[:, None, None]
    a_s = a_s[:, None, None]
    for _ in range(epoch_cap):
        err_e = P3[:, :, 1:] - (P3[:, :, :-1] + a_e)
        err_s = P3[:, 1:, :] - (P3[:, :-1, :] + a_s)
        mean_residual = np.concatenate(
            [
                np.sqrt((err_e**2).sum(axis=0)).ravel(),
                np.sqrt((err_s**2).sum(axis=0)).ravel(),
            ]
        ).mean()
        if mean_residual < tol:
            return P3.reshape(d, height * width)
        upd = np.zeros_like(P3)
        upd[:, :, :-1] += (2 * learning_rate) * err_e
        upd[:, :, 1:] -= (2 * learning_rate) * err_e
        upd[:, :-1, :] += (2 * learning_rate) * err_s
        upd[:, 1:, :] -= (2 * learning_rate) * err_s
        P3 += upd
    raise RuntimeError("reference training did not converge")


def reference_chains(width, height, actions, epoch_cap=grid_mod.GRID_EPOCH_CAP):
    """The two-chain loop ``train_grid`` replaced: (x, y, stopping epoch) per action pair.

    One epoch at a time, each chain on its own, the stopping rule read
    before every update; ``train_grid``'s closed form must match it.  The
    chains' trajectory does not depend on the actions, only the stopping
    epoch does (through ``|a_s|`` and ``|a_e|``), so one pass serves every
    ``(a_s, a_e)`` in ``actions``: each pair's rule is read at every epoch,
    as the same scalar expression, until that pair stops.
    """
    edge_pairs = directed_edge_count(width, height) // 2
    rules = [
        (1e-2 * np.sqrt(len(a_s)), float(np.linalg.norm(a_e)), float(np.linalg.norm(a_s)))
        for a_s, a_e in actions
    ]
    stopped = [None] * len(rules)
    x = np.zeros(height)
    y = np.zeros(width)
    for epoch in range(epoch_cap):
        err_x = np.diff(x) - 1.0
        err_y = np.diff(y) - 1.0
        sum_y, sum_x = float(np.abs(err_y).sum()), float(np.abs(err_x).sum())
        for pair, (tol, norm_e, norm_s) in enumerate(rules):
            mean_residual = (height * norm_e * sum_y + width * norm_s * sum_x) / edge_pairs
            if stopped[pair] is None and mean_residual < tol:
                stopped[pair] = (x.copy(), y.copy(), epoch)
        if None not in stopped:
            return stopped
        y[:-1] += (2 * grid_mod.GRID_LEARNING_RATE) * err_y
        y[1:] -= (2 * grid_mod.GRID_LEARNING_RATE) * err_y
        x[:-1] += (2 * grid_mod.GRID_LEARNING_RATE) * err_x
        x[1:] -= (2 * grid_mod.GRID_LEARNING_RATE) * err_x
    raise RuntimeError(
        f"grid training failed to converge: residual {mean_residual:.3g} "
        f"after {epoch_cap} epochs"
    )


def loop_step(x, y):
    """The step the two-chain loop takes out of chains (x, y), as ``[y, x]``."""
    steps = []
    for chain in (y, x):
        err = np.diff(chain) - 1.0
        change = np.append(err, 0.0) - np.insert(err, 0, 0.0)  # +err[j], then -err[j-1]
        steps.append((2 * grid_mod.GRID_LEARNING_RATE) * change)
    return np.concatenate(steps)


# the tolerance between the closed-form chains and the loop's: float64 rounding
# of chains of magnitude <= 32 over a few thousand epochs, with headroom
CHAIN_TOL = 1e-12


def assert_matches_loop(trained: GridCml, x, y, a_s, a_e) -> None:
    """``trained`` holds the loop's chains within ``CHAIN_TOL`` and its exact sign table.

    The middle cell of an odd-by-odd grid is left out of the signs: both of
    its chain entries are 0 up to the loop's rounding, so its state is
    rounding noise with no sign to keep.
    """
    assert np.abs(trained.x - x).max() <= CHAIN_TOL and np.abs(trained.y - y).max() <= CHAIN_TOL
    width, height = len(y), len(x)
    noise = (np.abs(np.repeat(x, width)) < CHAIN_TOL) & (np.abs(np.tile(y, height)) < CHAIN_TOL)
    assert noise.sum() == (width % 2) * (height % 2)
    signs = GridCml(x, y, a_s, a_e).signs
    assert np.array_equal(trained.signs[~noise], signs[~noise])


def reference_grid_utility(grid: GridCml, P: np.ndarray, target, current) -> np.ndarray:
    """The d-dimensional transpose utility A4^T (p_t - p_c) that the table replaced,
    read from the state table ``P`` at row-major cell indices."""
    return grid.A4.T @ (P[:, target] - P[:, current])


def closed_form_tables(grid: GridCml) -> tuple[np.ndarray, np.ndarray]:
    """``U`` and ``plane`` from the chains and the actions' dot products alone.

    A state is ``coords[cell] @ basis``, with ``coords[cell] = (x[row], y[col])`` and
    ``basis = [a_s; a_e]``, so its utilities ``A4^T p`` are ``coords[cell] @ (basis @
    A4)`` and its squared norm is ``coords[cell] @ G @ coords[cell]``, with the Gram
    ``G = basis @ basis^T``.  For a grid with no zero state.
    """
    a_s, a_e = grid.a_s, grid.a_e
    basis = np.stack([a_s, a_e])
    A4 = np.stack([a_e, a_s, -a_s, -a_e], axis=1)
    coords = np.stack([np.repeat(grid.x, grid.width), np.tile(grid.y, grid.height)], axis=1)
    norms = np.sqrt(np.sum(coords @ (basis @ basis.T) * coords, axis=1))[:, None]
    return coords @ (basis @ A4), coords / norms


# bound on how far a closed-form table moves from its d-dimensional derivation, as a
# share of the latter's largest |entry| (model seeds 1, 7, 12, 13, 27 and 42 read at
# most 2.8e-15)
TABLE_ROUNDING = 1e-14


def assert_within_rounding(table: np.ndarray, reference: np.ndarray) -> None:
    assert np.abs(table - reference).max() <= TABLE_ROUNDING * np.abs(reference).max()


def state(grid: GridCml, cell) -> np.ndarray:
    """The cell's d-dimensional state: its column of the rebuilt table ``P``."""
    return grid.P[:, grid.cell_index(cell)]


def reference_select_action(u: np.ndarray, g: np.ndarray) -> int | None:
    """The per-move rule ``moves`` replaced: the best of the nonzero gates, or None."""
    legal = np.nonzero(g)[0]
    return int(legal[np.argmax(u[legal])]) if len(legal) else None


def utility(grid: GridCml, target_cell, current_cell) -> np.ndarray:
    """The four table utilities of one move, ``U[target] - U[current]``."""
    return grid.U[grid.cell_index(target_cell)] - grid.U[grid.cell_index(current_cell)]


# the 15 sensor gates with at least one open direction, as rows of [E, S, N, W]
ALL_GATES = np.array([g for g in itertools.product((0, 1), repeat=4) if any(g)], dtype=float)


def open_maze(grid: GridCml) -> Maze:
    """The wall-free maze of the grid's size."""
    return Maze(frozenset(), {}, grid.width, grid.height)


def open_sensors(grid: GridCml, cell) -> np.ndarray:
    return open_maze(grid).gates[cell]


def navigate_open(grid: GridCml, start, goal, cap=200):
    cell, steps = start, 0
    while cell != goal and steps < cap:
        dr, dc = DELTAS[grid_step(grid, goal, cell, open_sensors(grid, cell))]
        cell = (cell[0] + dr, cell[1] + dc)
        assert open_maze(grid).in_bounds(cell)
        steps += 1
    return steps if cell == goal else None


# --- actions ---------------------------------------------------------------------


def test_actions_exact_antiparallel_pairs(grid_cml):
    a_e, a_s, a_n, a_w = grid_cml.A4.T
    assert np.array_equal(a_s, grid_cml.a_s) and np.array_equal(a_e, grid_cml.a_e)
    assert np.array_equal(a_n, -a_s)
    assert np.array_equal(a_w, -a_e)
    assert np.array_equal(a_s + a_n, np.zeros(D))
    assert hdc.cosine(a_s, a_n) == pytest.approx(-1.0)
    assert hdc.cosine(a_e, a_w) == pytest.approx(-1.0)


def test_south_east_pseudo_orthogonal(grid_cml):
    assert abs(hdc.cosine(grid_cml.a_s, grid_cml.a_e)) < 0.15


def test_derived_actions_and_table_equal_the_stacked_action_matrix(config):
    # the reference: the (d, 4) matrix stacked from the south and east draws
    # of the training generator, default_rng([seed, TAG_TRAIN, 1]), and their
    # negations, C-ordered
    rng = np.random.default_rng([config.seed, experiments.TAG_TRAIN, 1])
    a_s = rng.normal(0.0, 1.0, size=config.d)
    a_e = rng.normal(0.0, 1.0, size=config.d)
    stacked = np.stack([a_e, a_s, -a_s, -a_e], axis=1)
    grid_cml = experiments.build_grid_cml(config)
    assert np.array_equal(grid_cml.a_s, a_s) and np.array_equal(grid_cml.a_e, a_e)
    assert grid_cml.A4.flags.c_contiguous
    assert grid_cml.A4.tobytes() == stacked.tobytes()
    assert grid_cml.U.flags.c_contiguous
    # U reads the stacked matrix's dot products with the two actions at each cell's
    # chain coordinates, bit for bit; the d-dimensional product agrees up to rounding
    coords = np.stack([np.repeat(grid_cml.x, 20), np.tile(grid_cml.y, 10)], axis=1)
    assert grid_cml.U.tobytes() == (coords @ (np.stack([a_s, a_e]) @ stacked)).tobytes()
    assert_within_rounding(grid_cml.U, (stacked.T @ grid_cml.P).T)


# --- training ---------------------------------------------------------------------


def test_directed_edge_count_10x20():
    assert directed_edge_count(20, 10) == 740


def test_trained_grid_shapes(grid_cml):
    assert grid_cml.x.shape == (10,)
    assert grid_cml.y.shape == (20,)
    assert grid_cml.P.shape == (D, 200)
    assert grid_cml.a_s.shape == grid_cml.a_e.shape == (D,)
    assert grid_cml.A4.shape == (D, 4)
    assert grid_cml.width == 20 and grid_cml.height == 10


def test_neighbor_prediction_residuals(grid_cml):
    # the training objective: p_neighbor ~ p_cell + a_direction
    tol = 1e-2 * np.sqrt(D)
    a_e, a_s = grid_cml.a_e, grid_cml.a_s
    residuals = []
    for row in range(grid_cml.height):
        for col in range(grid_cml.width):
            here = state(grid_cml, (row, col))
            if col + 1 < grid_cml.width:
                residuals.append(np.linalg.norm(state(grid_cml, (row, col + 1)) - here - a_e))
            if row + 1 < grid_cml.height:
                residuals.append(np.linalg.norm(state(grid_cml, (row + 1, col)) - here - a_s))
    assert float(np.mean(residuals)) < tol
    assert float(np.max(residuals)) < 10 * tol


def test_grid_states_show_parallel_and_antiparallel_structure(grid_cml):
    # unlike pseudo-orthogonal abstract states, grid states crowd toward +/-1
    norms = np.linalg.norm(grid_cml.P, axis=0)
    unit = grid_cml.P / norms
    cc = unit.T @ unit
    off = cc[~np.eye(cc.shape[0], dtype=bool)]
    assert off.max() > 0.99
    assert off.min() < -0.99


def test_duplicate_states_exist(grid_cml):
    # centered states make proportional-offset cells near-exact duplicates;
    # this is the hazard that motivates recovery over the 8 known positions
    norms = np.linalg.norm(grid_cml.P, axis=0)
    unit = grid_cml.P / norms
    cc = unit.T @ unit
    np.fill_diagonal(cc, 0.0)
    assert (cc > 0.999).sum() >= 2


def test_grid_states_are_rank_two(grid_cml):
    # P = x a_s + y a_e: the delta rule never leaves span{a_s, a_e}
    sigma = np.linalg.svd(grid_cml.P, compute_uv=False)
    assert sigma[2] / sigma[0] < 1e-12


def test_grid_states_separate_into_row_and_column_chains(grid_cml):
    a_e, a_s = grid_cml.a_e, grid_cml.a_s
    coef, *_ = np.linalg.lstsq(np.stack([a_s, a_e], axis=1), grid_cml.P, rcond=None)
    shape = (grid_cml.height, grid_cml.width)
    x_coef, y_coef = coef[0].reshape(shape), coef[1].reshape(shape)
    # the south coefficient depends on the row only, the east one on the column only
    assert np.abs(x_coef - x_coef[:, :1]).max() < 1e-9
    assert np.abs(y_coef - y_coef[:1, :]).max() < 1e-9
    x, y = x_coef[:, 0], y_coef[0, :]
    # ... and they are the chains the model stores
    assert np.abs(x - grid_cml.x).max() < 1e-9
    assert np.abs(y - grid_cml.y).max() < 1e-9
    rebuilt = np.stack(
        [x[r] * a_s + y[c] * a_e for r in range(shape[0]) for c in range(shape[1])],
        axis=1,
    )
    assert np.abs(rebuilt - grid_cml.P).max() < 1e-9


@pytest.mark.parametrize("width,height", [(6, 4), (3, 7), (1, 5)])
def test_train_grid_matches_reference_delta_rule(actions, width, height):
    trained = train_grid(width, height, *actions)
    reference = reference_train_grid(width, height, D, *actions)
    assert trained.P.shape == reference.shape
    assert np.abs(trained.P - reference).max() < 1e-10


TRAINING_SHAPES = [(20, 10), (7, 3), (5, 5), (1, 5), (5, 1), (2, 1), (64, 2)]


@pytest.mark.parametrize("width,height", TRAINING_SHAPES)
def test_train_grid_matches_the_two_chain_loop(width, height):
    actions = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        actions.append((rng.normal(0.0, 1.0, size=D), rng.normal(0.0, 1.0, size=D)))
    references = reference_chains(width, height, actions)
    for seed, ((a_s, a_e), (x, y, _)) in enumerate(zip(actions, references)):
        assert_matches_loop(train_grid(width, height, a_s, a_e), x, y, a_s, a_e)
        # CHAIN_TOL cannot accept a neighbouring epoch: the loop contracts, so the
        # step into the stopping epoch is no shorter than the step out of it, and
        # either neighbour's chains differ from these in some entry by at least the
        # step out's root mean square (the smallest seen is 7.8e-5, at 64x2)
        step = loop_step(x, y)
        assert np.linalg.norm(step) / np.sqrt(len(step)) > 1e3 * CHAIN_TOL, seed


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_training_stops_at_the_same_epoch_across_a_block_boundary(actions, monkeypatch, offset):
    # the stopping epoch is the last of a block (-1), the first of the next (0), or its second (1)
    ((x, y, epoch),) = reference_chains(20, 10, [actions])
    block = epoch - offset
    monkeypatch.setattr(grid_mod, "GRID_EPOCH_BLOCK", block)
    assert epoch // block == (0 if offset < 0 else 1) and epoch % block == offset % block
    assert_matches_loop(train_grid(20, 10, *actions), x, y, *actions)


MODEL_SEEDS = [*range(1, 31), 42]


@pytest.fixture(scope="module")
def model_seed_loops():
    """Per model seed: build_grid_cml's draws and the loop's (x, y, epoch), from one pass."""
    actions = []
    for seed in MODEL_SEEDS:
        rng = np.random.default_rng([seed, experiments.TAG_TRAIN, 1])
        actions.append((rng.normal(0.0, 1.0, size=D), rng.normal(0.0, 1.0, size=D)))
    return dict(zip(MODEL_SEEDS, zip(actions, reference_chains(20, 10, actions))))


@pytest.mark.parametrize("seed", MODEL_SEEDS)
def test_model_seed_trains_the_loops_grid(model_seed_loops, seed):
    (a_s, a_e), (x, y, _) = model_seed_loops[seed]
    assert_matches_loop(train_grid(20, 10, a_s, a_e), x, y, a_s, a_e)


def test_training_cap_raises(actions, monkeypatch):
    # neither cap is a multiple of the block; the message gives the last epoch's residual
    for cap in (5, grid_mod.GRID_EPOCH_BLOCK + 7):
        assert cap % grid_mod.GRID_EPOCH_BLOCK
        monkeypatch.setattr(grid_mod, "GRID_EPOCH_CAP", cap)
        with pytest.raises(RuntimeError, match=f"after {cap} epochs") as expected:
            reference_chains(20, 10, [actions], epoch_cap=cap)
        with pytest.raises(RuntimeError) as raised:
            train_grid(20, 10, *actions)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("n", range(1, 65))
def test_path_modes_are_the_path_laplacians_eigenpairs(n):
    # the Laplacian of an n-node path, D^T D with D taking each step; one node has no step
    D_path = np.diff(np.eye(n), axis=0)
    laplacian = D_path.T @ D_path
    eigenvalues, modes = path_modes(n)
    assert eigenvalues.shape == (n - 1,) and modes.shape == (n - 1, n)
    assert np.allclose(laplacian @ modes.T, modes.T * eigenvalues, rtol=0, atol=1e-12)
    assert np.allclose(modes @ modes.T, np.eye(n - 1), rtol=0, atol=1e-12)
    # with the constant mode they are all n: eigenvalues 0 < 2 - 2 cos(pi k / n) < 4, distinct
    assert np.all(np.diff(eigenvalues) > 0) and np.all((0 < eigenvalues) & (eigenvalues < 4))
    assert np.allclose(modes.sum(axis=1), 0.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 65))
def test_constant_mode_weighs_exactly_zero(n):
    # each fixed chain is half-integers (exact in float64) whose exact sum, and so the
    # constant mode's weight sum / sqrt(n), is 0: the modes path_modes leaves out
    # carry nothing
    x_star, y_star = fixed_chains(n, n)
    assert np.array_equal(x_star, y_star) and np.all(np.diff(x_star) == 1.0)
    assert math.fsum(x_star) == 0.0


def test_a_one_cell_grid_trains_to_its_fixed_point(actions):
    # no step and no mode: the residual is 0 from the first epoch
    trained = train_grid(1, 1, *actions)
    assert np.array_equal(trained.x, [0.0]) and np.array_equal(trained.y, [0.0])


@pytest.mark.parametrize("seed", MODEL_SEEDS)
def test_first_mode_estimates_the_stopping_epoch(model_seed_loops, seed):
    # near the stop the residual is the y chain's first mode alone, the slowest
    # (rate 0.99754, against 0.99021 for x's), decaying from its epoch-0 share c_1;
    # the loop's epoch is train_grid's (test_model_seed_trains_the_loops_grid)
    (a_s, a_e), (_, _, epoch) = model_seed_loops[seed]
    eigenvalues, modes = path_modes(20)
    rate = 1 - 2 * grid_mod.GRID_LEARNING_RATE * eigenvalues[0]
    weight = modes[0] @ fixed_chains(20, 10)[1]
    share = 10 * np.linalg.norm(a_e) / (directed_edge_count(20, 10) // 2)
    c_1 = share * abs(weight) * np.abs(np.diff(modes[0])).sum()
    estimate = math.ceil(math.log(1e-2 * np.sqrt(D) / c_1) / math.log(rate))
    assert epoch - 1 <= estimate <= epoch


# --- utilities ---------------------------------------------------------------------


def test_utility_zero_at_target(grid_cml):
    assert np.abs(utility(grid_cml, (4, 7), (4, 7))).max() < 1e-9


def test_utility_opposite_directions_negate(grid_cml):
    u = utility(grid_cml, (7, 3), (4, 3))
    e, s, n, w = u
    assert n == pytest.approx(-s)
    assert w == pytest.approx(-e)
    assert s > 0 > n  # target 3 cells south


def test_utility_east_adjacent_target(grid_cml):
    u = utility(grid_cml, (5, 11), (5, 10))
    assert int(np.argmax(u)) == DIRECTIONS.index("E")


def test_utility_table_is_actions_transpose_times_states(grid_cml):
    # (A4^T P)^T in closed form: the (2, 4) table basis @ A4 read at each cell's chain
    # coordinates, which the d-dimensional product matches up to rounding
    assert grid_cml.U.shape == (200, 4)
    U, _ = closed_form_tables(grid_cml)
    assert np.array_equal(grid_cml.U, U)
    assert_within_rounding(grid_cml.U, (grid_cml.A4.T @ grid_cml.P).T)


@pytest.mark.parametrize("model_seed", [1, 7, 12, 13, 27, 42])
def test_closed_form_utilities_pick_as_the_state_table(model_seed):
    # at six model seeds, with cos(a_s, a_e) of either sign, the closed-form table picks
    # the move the d-dimensional (A4^T P)^T table picks, for every ordered cell pair
    # (the 39,800 distinct ones and the 200 stays) under all 15 gates
    grid_cml = experiments.build_grid_cml(ExperimentConfig(seed=model_seed))
    state_table = SimpleNamespace(U=(grid_cml.A4.T @ grid_cml.P).T)  # all ``moves`` reads
    index = np.arange(grid_cml.width * grid_cml.height)
    target, current, gates = index[None, None, :], index[None, :, None], ALL_GATES[:, None, None, :]
    picks = moves(grid_cml, target, current, gates)
    assert picks.shape == (15, 200, 200)
    assert np.array_equal(picks, moves(state_table, target, current, gates))


def test_table_picks_equal_matvec_picks_for_every_gate(grid_cml):
    # all 39,800 ordered pairs under all 15 gates in one call of the move rule
    cells = grid_cml.width * grid_cml.height
    index = np.arange(cells)
    gates = ALL_GATES[:, None, None, :]  # (gate, current, target, direction)
    picks = moves(grid_cml, index[None, None, :], index[None, :, None], gates)
    off_diagonal = ~np.eye(cells, dtype=bool)
    picks = picks[:, off_diagonal]  # (gate, pair), pairs current-major
    pairs = [(c, t) for c in range(cells) for t in range(cells) if c != t]
    assert picks.shape == (len(ALL_GATES), len(pairs)) == (15, 39_800)
    # the d-dimensional utilities pick the same moves, one product per current cell
    # over all its targets
    P = grid_cml.P
    reference = np.concatenate(
        [reference_grid_utility(grid_cml, P, index[index != c], [c]) for c in index], axis=1
    )
    legal = ALL_GATES[:, :, None] != 0  # (gate, direction, pair)
    assert np.array_equal(picks, np.argmax(np.where(legal, reference, -np.inf), axis=1))
    # ... and so does the per-move rule over the nonzero gates, on every 7th pair
    table = grid_cml.U[index[None, :]] - grid_cml.U[index[:, None]]
    table = table[off_diagonal]  # (pair, direction)
    for pair in range(0, len(pairs), 7):
        for gate_index, gate in enumerate(ALL_GATES):
            assert reference_select_action(table[pair], gate) == picks[gate_index, pair]
    # the picks do not hinge on rounding: the top two legal utilities stay far apart
    ranked = np.sort(np.where(ALL_GATES[:, None, :] != 0, table, -np.inf), axis=-1)
    gaps = ranked[..., -1] - ranked[..., -2]
    assert gaps[np.isfinite(gaps)].min() > 1e-6 * np.abs(grid_cml.U).max()


def test_moves_picks_an_open_gate_under_every_gate_for_every_pair(grid_cml):
    # the executor moves by the pick without a check: under each of the 15 gates with
    # an open direction, every (target, current) pair of the model, target == current
    # too, picks an open direction, in one call of the move rule
    index = np.arange(grid_cml.width * grid_cml.height)
    gates = ALL_GATES[:, None, None, :]  # (gate, current, target, direction)
    picks = moves(grid_cml, index[None, None, :], index[None, :, None], gates)
    assert picks.shape == (15, 200, 200)
    assert ALL_GATES[np.arange(15)[:, None, None], picks].all()


def test_moves_honors_gating(grid_cml):
    # (4, 7) toward (4, 9): east scores best and west worst; with east closed,
    # the better of south and north wins
    target, current = grid_cml.cell_index((4, 9)), grid_cml.cell_index((4, 7))
    u = utility(grid_cml, (4, 9), (4, 7))
    assert moves(grid_cml, target, current, np.ones(4)) == DIRECTIONS.index("E")
    assert moves(grid_cml, target, current, np.array([0.0, 1.0, 1.0, 1.0])) == 1 + np.argmax(u[1:3])


def test_moves_accepts_negative_maximum(grid_cml):
    # only west is open on the way east: its score is negative, and it still wins
    target, current = grid_cml.cell_index((4, 9)), grid_cml.cell_index((4, 7))
    assert utility(grid_cml, (4, 9), (4, 7))[3] < 0
    assert moves(grid_cml, target, current, np.array([0.0, 0.0, 0.0, 1.0])) == 3


def test_moves_all_gated_out(grid_cml):
    # the rule alone would fall back to index 0; the step refuses to move
    target, current = grid_cml.cell_index((4, 9)), grid_cml.cell_index((4, 7))
    assert moves(grid_cml, target, current, np.zeros(4)) == 0
    with pytest.raises(ValueError, match="no legal move"):
        grid_step(grid_cml, (4, 9), (4, 7), np.zeros(4))


# a 5x5 model on random chains, so that its scores follow no order that training sets
RANDOM_GRID = GridCml(*np.random.default_rng(13).normal(0.0, 1.0, size=(4, 5)))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_moves_never_picks_gated_edge(seed):
    grid_cml = RANDOM_GRID
    r = np.random.default_rng(seed)
    target, current = r.integers(0, 25, size=2)
    g = r.choice([0.0, 1.0], size=4)
    pick = moves(grid_cml, target, current, g)
    expected = reference_select_action(grid_cml.U[target] - grid_cml.U[current], g)
    if expected is None:  # every gate closed: grid_step raises instead of moving
        assert pick == 0
    else:
        assert g[pick] != 0.0 and pick == expected


def ignore_gate(grid_cml, target, current, gate):
    return np.argmax(grid_cml.U[target] - grid_cml.U[current], axis=-1)


def highest_index_on_ties(grid_cml, target, current, gate):
    scores = np.where(gate != 0, grid_cml.U[target] - grid_cml.U[current], -np.inf)
    return scores.shape[-1] - 1 - scores[..., ::-1].argmax(axis=-1)


# a row whose south action outscores east: only the border gate keeps the
# first move on the row
BORDER_GATED_ROW = GridCml(np.zeros(1), np.arange(3.0), 2 * np.ones(4), np.ones(4))
# a column whose last two rows share a state: between them every score is
# zero, and only the lowest index steps south
TIED_COLUMN = GridCml(np.array([1.0, 2.0, 2.0]), np.zeros(1), np.ones(4), np.ones(4))


@pytest.mark.parametrize(
    "mutant,model,start,goal",
    [
        (ignore_gate, BORDER_GATED_ROW, (0, 0), (0, 2)),
        (highest_index_on_ties, TIED_COLUMN, (1, 0), (2, 0)),
    ],
    ids=["ignore_gate", "highest_index_on_ties"],
)
def test_rule_mutations_change_steps_and_fail_verification(
    mutant, model, start, goal, monkeypatch
):
    # the executor and the proof run one move rule: break it, and both see it
    gate = open_sensors(model, start)
    before = grid_step(model, goal, start, gate)
    assert experiments.verify_grid_cml(model)["pairs_checked"] == 6
    monkeypatch.setattr(grid_mod, "moves", mutant)
    assert grid_step(model, goal, start, gate) != before
    with pytest.raises(RuntimeError, match="failed verification"):
        experiments.verify_grid_cml(model)


# --- stepping ---------------------------------------------------------------------


def test_two_steps_reach_target_two_east(grid_cml):
    start, goal = (3, 5), (3, 7)
    assert navigate_open(grid_cml, start, goal) == 2


def test_step_with_blocked_east_picks_alternative(grid_cml):
    gate = np.array([0.0, 1.0, 1.0, 1.0])  # [E, S, N, W]
    direction = grid_step(grid_cml, (5, 12), (5, 10), gate)
    assert direction in ("S", "N", "W")


def test_step_requires_some_open_direction(grid_cml):
    with pytest.raises(ValueError, match="no legal move"):
        grid_step(grid_cml, (0, 0), (5, 5), np.zeros(4))


def test_step_never_moves_into_gated_direction(grid_cml):
    rng = np.random.default_rng(11)
    for _ in range(50):
        cell = (int(rng.integers(1, 9)), int(rng.integers(1, 19)))
        goal = (int(rng.integers(0, 10)), int(rng.integers(0, 20)))
        blocked_dir = int(rng.integers(0, 4))
        gate = np.ones(4)
        gate[blocked_dir] = 0.0
        direction = grid_step(grid_cml, goal, cell, gate)
        assert direction != DIRECTIONS[blocked_dir]


# --- open-grid optimality -----------------------------------------------------------


def test_small_grid_exhaustively_manhattan_optimal(small_grid):
    for r0 in range(5):
        for c0 in range(5):
            for r1 in range(5):
                for c1 in range(5):
                    if (r0, c0) == (r1, c1):
                        continue
                    steps = navigate_open(small_grid, (r0, c0), (r1, c1))
                    assert steps == abs(r0 - r1) + abs(c0 - c1)


def test_large_grid_sampled_manhattan_optimal(grid_cml):
    rng = np.random.default_rng(7)
    for _ in range(50):
        start = (int(rng.integers(0, 10)), int(rng.integers(0, 20)))
        goal = (int(rng.integers(0, 10)), int(rng.integers(0, 20)))
        if start == goal:
            continue
        steps = navigate_open(grid_cml, start, goal)
        assert steps == abs(start[0] - goal[0]) + abs(start[1] - goal[1])


def test_cell_index_row_major(grid_cml):
    assert grid_cml.cell_index((0, 0)) == 0
    assert grid_cml.cell_index((3, 4)) == 3 * 20 + 4
    with pytest.raises(ValueError, match="outside"):
        grid_cml.cell_index((10, 0))


def test_plane_tables_score_states_over_their_norms(grid_cml):
    # (basis @ q) . plane[cell] is q . p / |p| for any q: the state is
    # x a_s + y a_e, so its dot product with q needs only q . a_s and q . a_e
    assert np.array_equal(grid_cml.basis, np.stack([grid_cml.a_s, grid_cml.a_e]))
    assert grid_cml.plane.shape == (grid_cml.width * grid_cml.height, 2)
    # the norms come from the actions' Gram; the states' own norms agree up to rounding
    _, plane = closed_form_tables(grid_cml)
    assert np.array_equal(grid_cml.plane, plane)
    rng = np.random.default_rng(9)
    queries = rng.normal(0.0, 1.0, size=(5, D))
    for cell in ((0, 0), (9, 19), (3, 7), (5, 0)):
        row = grid_cml.cell_index(cell)
        norm = np.linalg.norm(grid_cml.P[:, row])
        coords = np.array([grid_cml.x[cell[0]] / norm, grid_cml.y[cell[1]] / norm])
        assert_within_rounding(grid_cml.plane[row], coords)
        scores = queries @ grid_cml.basis.T @ grid_cml.plane[row]
        assert np.allclose(scores, queries @ state(grid_cml, cell) / norm, rtol=0, atol=1e-12)


def test_states_gather_matches_p_columns(grid_cml):
    cells = ((0, 0), (9, 19), (3, 7), (5, 0))
    rows = [grid_cml.cell_index(cell) for cell in cells]
    assert rows == [0, 199, 67, 100]
    assert [grid_cml.cell(row) for row in rows] == list(cells)
    with pytest.raises(ValueError, match="outside"):
        grid_cml.cell_index((0, 20))


@pytest.mark.parametrize("width, height", [(20, 10), (7, 5)])
def test_states_with_broadcast_indices_equal_p_columns(actions, width, height):
    # an odd grid centred on zero holds a zero state; every state is built bit for bit
    model = train_grid(width, height, *actions)
    P = model.P
    every = model.states(np.arange(height)[:, None], np.arange(width))
    assert every.shape == (height, width, D)
    assert every.reshape(width * height, D).tobytes() == P.T.tobytes()
    rows = np.array([[0], [height - 1], [height // 2]])
    cols = np.array([[0, width // 2, width - 1]])
    picked = model.states(rows, cols)
    assert picked.shape == (3, 3, D)
    for i, j in itertools.product(range(3), range(3)):
        cell = (int(rows[i, 0]), int(cols[0, j]))
        assert picked[i, j].tobytes() == P[:, model.cell_index(cell)].tobytes()
    rows, cols = model.cell(np.arange(width * height))
    assert model.states(rows, cols).tobytes() == P.T.tobytes()


def reference_states(grid_cml):
    """The (d, W H) outer-product construction of the states, one column per cell."""
    a_e, a_s = grid_cml.a_e, grid_cml.a_s
    P = np.outer(a_s, np.repeat(grid_cml.x, grid_cml.width))
    P += np.outer(a_e, np.tile(grid_cml.y, grid_cml.height))
    return P


# sha256 prefixes of P's bytes, built from the chains of the cosine modes; P is
# rebuilt on each read and must not move by a bit
P_DIGESTS = {42: "b21ed46bdd959424", 1: "cbbf5618b0a6b681", 7: "54e43e8fab704436"}


@pytest.mark.parametrize("model_seed", [42, 1, 7])
def test_state_table_is_rebuilt_bit_for_bit(model_seed):
    grid_cml = experiments.build_grid_cml(ExperimentConfig(seed=model_seed))
    reference = reference_states(grid_cml)
    P = grid_cml.P
    assert P.shape == (D, 200) and P.flags.f_contiguous
    assert hashlib.sha256(P.tobytes()).hexdigest()[:16] == P_DIGESTS[model_seed]
    assert np.array_equal(P, reference)
    assert P is not grid_cml.P  # built anew on each read
    assert np.array_equal(grid_cml.signs, np.sign(reference.T).astype(np.int8))
    # U and plane are the closed forms, bit for bit, and the tables derived from the
    # reference states up to rounding: the utilities A4^T p, and the plane rows over
    # the norms a dictionary over the state rows computes
    U, plane = closed_form_tables(grid_cml)
    assert np.array_equal(grid_cml.U, U) and np.array_equal(grid_cml.plane, plane)
    assert_within_rounding(grid_cml.U, (grid_cml.A4.T @ reference).T)
    norms = np.linalg.norm(np.ascontiguousarray(reference.T), axis=1)[:, None]
    coords = np.stack([np.repeat(grid_cml.x, 20), np.tile(grid_cml.y, 10)], axis=1)
    assert_within_rounding(grid_cml.plane, coords / norms)


def test_model_keeps_no_state_table(grid_cml):
    # the plane is the stored state: no float table of d * W * H entries, and no
    # cell dictionary or per-cell state accessor
    tables = [
        name
        for name, value in vars(grid_cml).items()
        if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.size >= D * 200
    ]
    assert tables == []
    assert not hasattr(grid_cml, "cells") and not hasattr(grid_cml, "state")
    assert grid_cml.d == D
    assert grid_cml.signs.dtype == np.int8 and grid_cml.signs.shape == (200, D)

@pytest.mark.parametrize("model_seed, regions", [(42, 164), (7, 172), (12, 164)])
def test_sign_patterns_are_the_angular_regions_of_the_boundary_rays(model_seed, regions):
    # coordinate k of a cell's state is x[row] a_s[k] + y[col] a_e[k], positive exactly
    # when the cell's angle phi = atan2(y[col], x[row]) lies within 90 degrees of
    # theta_k = atan2(a_e[k], a_s[k]); so its rays theta_k +/- pi/2 split the circle, and
    # two cells' patterns differ where a ray separates their angles. Regions and rays
    # come from the angles alone; patterns and Hamming distances from the sign table
    grid_cml = experiments.build_grid_cml(ExperimentConfig(seed=model_seed))
    rows, cols = grid_cml.cell(np.arange(grid_cml.width * grid_cml.height))
    phi = np.arctan2(grid_cml.y[cols], grid_cml.x[rows]) % (2 * np.pi)
    theta = np.arctan2(grid_cml.a_e, grid_cml.a_s)
    rays = np.sort(np.concatenate([theta + np.pi / 2, theta - np.pi / 2]) % (2 * np.pi))
    below = np.searchsorted(rays, phi)  # the rays below each cell's angle
    # identity 1: the region past the last ray wraps round to the one before the first
    assert len(np.unique(below % len(rays))) == len(np.unique(grid_cml.signs, axis=0)) == regions
    # identity 2: an arc shorter than pi holds at most one ray of each antipodal pair
    between = np.abs(below[:, None] - below[None, :])
    short = np.abs(phi[:, None] - phi[None, :]) <= np.pi
    crossings = np.where(short, between, len(rays) - between)
    signs = grid_cml.signs.astype(int)
    assert np.array_equal((grid_cml.d - signs @ signs.T) // 2, crossings)
