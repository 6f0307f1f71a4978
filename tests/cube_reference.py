"""Whole-cube slow references: every cube point in memory at once.

`analysis._cube_law` and `forest._probe_histograms` walk the cube in slabs;
these build the full output matrix, the full packed-key vector, the law from
them and the points x cells probe-count table in one step, so tests can check
the slab walks against them.
"""
from __future__ import annotations

import math

import numpy as np

from forestlab.forest import (
    DEFAULT_STATE_BUDGET,
    DecisionForest,
    _blocks,
    _check_enum_budget,
    _tree_on_cube,
    cube_order,
    restrict,
)


def eval_forest_on_cube(
    forest: DecisionForest,
    cells_order: list | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> np.ndarray:
    """All outputs over the cube, as an (assignments, trees) matrix.

    Assignment index i encodes symbol (i // lam**rank) % lam for the cell at
    position rank in cells_order.  Cells outside cells_order must not be
    probed by the forest.
    """
    if cells_order is None:
        cells_order = cube_order(forest)
    lam = forest.input_space.alphabet
    n = _check_enum_budget(lam, len(cells_order), budget)
    width = forest.output_space.alphabet + 1
    dtype = np.uint8 if width <= 255 else np.int32
    m = forest.output_space.cells
    out = np.empty((n, m), dtype=dtype)
    cube = out.reshape((lam,) * len(cells_order) + (m,))
    rank_of = {c: r for r, c in enumerate(cells_order)}
    for tree in range(m):
        cube[..., tree] = _tree_on_cube(forest, tree, rank_of, dtype)
    return out


def packed_outputs_on_cube(
    forest: DecisionForest,
    cells_order: list | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> np.ndarray | None:
    """Outputs over the cube packed into one integer key per assignment.

    Keys are big-endian base (alphabet+1) over tree outputs, int32 when
    base**trees fits and int64 otherwise.  Returns None when the packed
    range does not fit a signed 64-bit integer.
    """
    if cells_order is None:
        cells_order = cube_order(forest)
    base = forest.output_space.alphabet + 1
    m = forest.output_space.cells
    if m * math.log2(base) > 62:
        return None
    lam = forest.input_space.alphabet
    _check_enum_budget(lam, len(cells_order), budget)
    dtype = np.int32 if base ** m < 2 ** 31 else np.int64
    packed = np.zeros((lam,) * len(cells_order), dtype=dtype)
    rank_of = {c: r for r, c in enumerate(cells_order)}
    for tree in range(m):
        packed *= base
        packed += _tree_on_cube(forest, tree, rank_of, dtype)
    return packed.reshape(-1)


def whole_cube_law(forest: DecisionForest, budget: int = DEFAULT_STATE_BUDGET, cells: tuple = ()) -> tuple:
    """`analysis._cube_law` from one np.unique over the whole cube."""
    order = cube_order(forest, cells)
    lam, k = forest.input_space.alphabet, len(order)
    base, m = forest.output_space.alphabet + 1, forest.output_space.cells
    span = base ** m
    group = sum(
        np.arange(lam, dtype=np.int64).reshape([lam if a == k - 1 - order.index(c) else 1 for a in range(k)]) * lam**r
        for r, c in enumerate(cells)
    )
    packed = packed_outputs_on_cube(forest, order, budget) if lam ** len(cells) * span < 1 << 62 else None
    if packed is None:
        table = eval_forest_on_cube(forest, order, budget)
        lead = np.asarray(group).astype(np.min_scalar_type(lam ** len(cells) - 1))
        lead = np.broadcast_to(lead, (lam,) * k).reshape(-1, 1)
        table, counts = np.unique(np.hstack([lead, table]), axis=0, return_counts=True)
        return table[:, 1:], counts, table[:, 0].astype(np.int64)
    keys, counts = np.unique(group * span + packed.reshape((lam,) * k) if cells else packed, return_counts=True)
    rows = keys[:, None] // base ** np.arange(m - 1, -1, -1, dtype=np.int64) % base
    return rows, counts, keys // span if cells else np.zeros(len(keys), dtype=np.int64)


def query_counts_on_cube(forest: DecisionForest, cells: tuple = (), budget: int = DEFAULT_STATE_BUDGET) -> tuple:
    """Per-assignment probe counts for every cell of the cube of the probed cells and `cells`.

    Returns (counts, order), with order = cube_order(forest, cells), where
    counts[i, r] is the number of trees probing order[r] on assignment i:
    each probe adds 1 to its block of the whole table.
    """
    order = cube_order(forest, cells)
    lam = forest.input_space.alphabet
    n = _check_enum_budget(lam, len(order), budget)
    rank_of = {c: r for r, c in enumerate(order)}
    counts = np.zeros((n, len(order)), dtype=np.int64)
    view = counts.reshape((lam,) * len(order) + (len(order),))
    for tree in range(forest.output_space.cells):
        for cell, _, index in _blocks(forest, tree, rank_of):
            if cell >= 0:
                view[index + (rank_of[cell],)] += 1
    return counts, order


def restricted_tails(forest: DecisionForest, assignment: dict, mu: float) -> np.ndarray:
    """Exact tails Pr[count_j > mu] per input cell j of restrict(forest, assignment), from its whole table."""
    counts, order = query_counts_on_cube(restrict(forest, assignment))
    tail = np.zeros(forest.input_space.cells)
    tail[order] = (counts > mu).mean(axis=0)
    return tail
