"""Distributions, entropies, and collision statistics for forest outputs.

All entropies are in bits.  Exact routines enumerate assignments of the
cells a forest actually probes; anything else is Monte-Carlo with a
counter-based generator, so trial t depends only on (seed, t).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .forest import (
    DEFAULT_SET_BUDGET,
    DEFAULT_STATE_BUDGET,
    BudgetError,
    DecisionForest,
    UsageError,
    _check_enum_budget,
    _draw_generator,
    _slab_axes,
    _tree_on_cube,
    _uniform_inputs,
    _walk,
    cube_order,
)

SUM_TOLERANCE = 1e-9
# steps derive_seed numbers per seed
SEED_STEPS = 1 << 20


def derive_seed(seed: int, step: int) -> int:
    """Stable per-step seed so reruns never depend on batching.

    The step fills the low 20 bits, so it must sit in [0, 2**20) and the
    seed must be nonnegative for distinct pairs to give distinct seeds.
    """
    if seed < 0 or not 0 <= step < SEED_STEPS:
        raise UsageError(
            "bad_seed", f"derived seeds need seed >= 0 and step in [0, 2**20), got {seed}, {step}"
        )
    return (seed << 20) ^ step


def _check_seed_steps(steps: int, what: str, reason: str = "bad_trials") -> None:
    """Refuse, before its first step, a loop that would take more steps than derive_seed numbers."""
    if steps > SEED_STEPS:
        raise UsageError(reason, f"{what} must be at most 2**20, got {steps}")


def hoeffding_halfwidth(trials: int) -> float:
    """99% two-sided half-width for a mean of [0,1] samples."""
    if trials < 1:
        raise UsageError("bad_trials", f"a mean needs at least 1 trial, got {trials}")
    return math.sqrt(math.log(2.0 / (1.0 - 0.99)) / (2.0 * trials))


class Distribution:
    """Finite law over outcome tuples: distinct `rows` with `weights` over a `total`.

    Row i has probability weights[i] / total.  A law built from a dict of
    outcome tuples to probabilities is checked (each outcome has the arity and
    int64 symbols, no probability is negative or NaN, and they sum to one
    within 1e-9) and keeps the probabilities as weights over a total of 1.0.
    Exact and sampled laws come from `_from_counts` with their integer counts.
    `bot`, if set, is the integer that encodes the blank symbol.
    """

    def __init__(self, probs: dict, arity: int, bot: int | None = None):
        total = 0.0
        for outcome, p in probs.items():
            if len(outcome) != arity:
                raise UsageError("bad_outcome", f"outcome {outcome} has arity {len(outcome)}")
            if not p >= -SUM_TOLERANCE:  # written so that NaN fails too
                raise UsageError("bad_probability", f"probability {p} is negative or not a number")
            total += p
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            raise UsageError("bad_probability", f"probabilities sum to {total}")
        try:
            rows = np.array(list(probs), dtype=np.int64).reshape(len(probs), arity)
        except (OverflowError, TypeError, ValueError):
            rows = None
        if rows is None or list(map(tuple, rows.tolist())) != list(probs):  # a float symbol casts silently
            raise UsageError("bad_outcome", "outcome symbols must be integers in [-2**63, 2**63)")
        self.rows, self.weights, self.total = rows, np.array(list(probs.values()), dtype=np.float64), 1.0
        self.arity, self.bot = arity, bot

    @classmethod
    def _from_counts(cls, rows: np.ndarray, counts: np.ndarray, bot: int | None) -> "Distribution":
        """The law of distinct `rows` seen `counts` times each; trusted, never checked."""
        dist = object.__new__(cls)
        dist.rows, dist.weights, dist.total = rows, counts, int(counts.sum())
        dist.arity, dist.bot = rows.shape[1], bot
        return dist

    @property
    def probs(self) -> dict:
        """The law as a dict from outcome tuples to probabilities, rebuilt on every read."""
        # tuples built column-wise, about twice as fast as one tuple per row list; no column means empty tuples
        outcomes = zip(*self.rows.T.tolist()) if self.arity else [()] * len(self.rows)
        return dict(zip(outcomes, (self.weights / self.total).tolist()))


@dataclass(frozen=True)
class OutcomeSet:
    """Finite set of tuples over a shared arity and alphabet.

    `indices` holds the members' int64 cube indices (rank r weighted by alphabet**r),
    built on first use; past 2**63 points it raises enum_budget.  A set from
    `_from_indices` holds only `indices` and rebuilds `members` on first read.
    """

    members: frozenset
    arity: int
    alphabet: int
    description: str = ""

    def __post_init__(self):
        for x in self.members:
            if len(x) != self.arity:
                raise UsageError("bad_outcome", f"member {x} has arity {len(x)}")
            for sym in x:
                if not 0 <= sym < self.alphabet:
                    raise UsageError("bad_outcome", f"symbol {sym} outside alphabet")

    @classmethod
    def _from_indices(cls, indices: np.ndarray, arity: int, alphabet: int, description: str = "") -> "OutcomeSet":
        """The set of distinct cube indices `indices`, all in [0, alphabet**arity)."""
        indices = np.asarray(indices)
        valid = indices.ndim == 1 and indices.dtype.kind in "iu" and np.can_cast(indices.dtype, np.int64)
        valid = valid and ((0 <= indices) & (indices < alphabet**arity)).all()
        if not (valid and np.unique(indices).size == indices.size):
            raise UsageError("bad_outcome", f"cube indices must be distinct integers in [0, {alphabet}^{arity})")
        outcome_set = object.__new__(cls)
        vars(outcome_set).update(
            indices=indices.astype(np.int64), arity=arity, alphabet=alphabet, description=description
        )
        return outcome_set

    def __getattr__(self, name: str):
        # only `members` of a set from _from_indices is ever missing; it is rebuilt once
        if name != "members":
            raise AttributeError(name)
        digits = self.indices[:, None] // self.alphabet ** np.arange(self.arity, dtype=np.int64) % self.alphabet
        object.__setattr__(self, "members", frozenset(map(tuple, digits.tolist())))
        return self.members

    def __len__(self) -> int:
        members = vars(self).get("members")
        return len(self.indices if members is None else members)

    @functools.cached_property
    def indices(self) -> np.ndarray:
        if self.alphabet ** self.arity > np.iinfo(np.int64).max:
            raise BudgetError("enum_budget", f"{self.alphabet}^{self.arity} cube indices overflow int64")
        points = np.array(list(self.members), dtype=np.int64).reshape(len(self), self.arity)
        return points @ self.alphabet ** np.arange(self.arity, dtype=np.int64)


# ---------------------------------------------------------------------------
# forest output laws


def _cube_law(forest: DecisionForest, budget: int, cells: tuple = ()) -> tuple:
    """(distinct output rows, cube points giving each, assignment index b of `cells` behind each).

    The cube spans the probed cells and `cells`, which come sorted; b encodes
    symbol (b // alphabet**rank) % alphabet for the cell at position rank.
    Rows come in (b, row) order, in the tree tables' dtype (uint8 up to 254
    output symbols plus blank, else int32), from the batches of `_cube_groups`.
    """
    batches = list(_cube_groups(forest, budget, cells))
    keys, counts, group = batches[0] if len(batches) == 1 else map(np.concatenate, zip(*batches))
    return _key_rows(forest, keys), counts, group


def _cube_groups(forest: DecisionForest, budget: int, cells: tuple = ()):
    """Yield (sorted distinct keys, cube points giving each, b behind each) for runs of whole groups, in b order.

    A key packs the outputs base (sigma+1), or past int64 is the output row
    as one structured value that sorts and merges like an integer.  The
    named cells lead the cube's axes, so b is the C-order index over them
    and each group is one contiguous chunk.  The cube is walked in slabs of
    `_slab_axes` trailing axes, each filled with one pass per table of
    `_fused_tables` and sorted chunk by chunk.  A slab of whole groups is
    yielded as it is; a group over several slabs merges their parts like
    the digits of a binary counter, so memory is one slab plus at most
    log2(slabs) + 1 parts of at most the group's distinct keys.
    """
    order = [c for c in cube_order(forest, cells) if c not in cells] + list(cells)
    lam, k, free = forest.input_space.alphabet, len(order), len(order) - len(cells)
    base, m = forest.output_space.alphabet + 1, forest.output_space.cells
    _check_enum_budget(lam, k, budget)
    rank_of = {c: r for r, c in enumerate(order)}
    dtype = np.uint8 if base <= 255 else np.int32
    tables = [_tree_on_cube(forest, tree, rank_of, dtype) for tree in range(m)]
    wide = base**m >= 1 << 62
    inner = _slab_axes(lam, k)
    if wide:  # a key is a row of the slab, viewed as one structured value with a field per tree
        slab = np.empty((lam,) * inner + (m,), dtype=dtype)
    else:
        slab = np.empty((lam,) * inner, dtype=np.int64 if base**m >= 1 << 31 else np.int32)
        tables, weights = _fused_tables(tables, base)
        weights = [slab.dtype.type(w) for w in weights]
    flat = (slab.view([(f"t{tree}", dtype) for tree in range(m)]) if wide else slab).reshape(-1)
    # a slab holds `rows` whole groups of `chunk` points, or one group spans `per_group` slabs
    chunk, per_group = lam ** min(free, inner), lam ** max(0, free - inner)
    rows, last = len(flat) // chunk, lam ** (k - inner) - 1
    parts = []
    for index, lead in enumerate(itertools.product(range(lam), repeat=k - inner)):
        # restriction as indexing: each table at the slab's symbols, or at 0 on axes it spans once
        cut = [table[tuple(v if n > 1 else 0 for v, n in zip(lead, table.shape))] for table in tables] if lead else tables
        if wide:
            for column, values in enumerate(cut):
                slab[..., column] = values
        else:
            np.multiply(cut[0], weights[0], out=slab)
            for values, weight in zip(cut[1:], weights[1:]):
                slab += values * weight
        keys, counts, row = _sorted_runs(flat, chunk)
        parts.append((keys, counts))
        done = index % per_group + 1
        while done % 2 == 0:  # one carry per trailing zero bit of the slab count: the last two parts merge
            parts[-2:] = [_merge(parts[-2:])]
            done //= 2
        if index % per_group == per_group - 1:
            keys, counts = _merge(parts)
            group = row if per_group == 1 else np.zeros(len(keys), dtype=np.int64)
            group += index // per_group * rows
            parts = []
            if index == last:  # freed before the caller reduces the last batch
                del slab, flat
            yield keys, counts, group


def _sorted_runs(keys: np.ndarray, chunk: int) -> tuple:
    """(distinct keys, count of each, chunk of each) of `keys`, each chunk of `chunk` keys sorted in place."""
    keys.reshape(-1, chunk).sort(axis=1)
    starts = np.concatenate(([True], keys[1:] != keys[:-1], [True]))
    starts[::chunk] = True
    edges = np.flatnonzero(starts)
    return keys[edges[:-1]], edges[1:] - edges[:-1], edges[:-1] // chunk


def _fused_tables(tables: list, base: int) -> tuple:
    """(fused tables, key weight of each): the tree tables in output order, each fused into the table before it
    when one's axes hold the other's and the fused digits, table * base + tree, stay under 2**16 (uint8 or
    uint16; int32 tables, past 254 symbols, never fuse).  So a fused table is no bigger than the larger of
    the two, and it weighs base**(trees after it) in the packed key.  The two cards of each last-round
    switch of the shuffle share a cone, so their trees fuse.
    """
    fused, widths = tables[:1], [base]  # widths[i] is base**(trees in fused[i])
    for table in tables[1:]:
        prev, width = fused[-1], widths[-1] * base
        # one table's axes hold the other's when their broadcast shape is one of the two
        nested = prev.shape == table.shape or tuple(map(max, prev.shape, table.shape)) in (prev.shape, table.shape)
        if nested and base <= 255 and width <= 1 << 16:
            fused[-1] = prev.astype(np.uint8 if width <= 1 << 8 else np.uint16, copy=False) * base + table
            widths[-1] = width
        else:
            fused.append(table)
            widths.append(base)
    return fused, [base ** len(tables) // width for width in itertools.accumulate(widths, int.__mul__)]


def _key_rows(forest: DecisionForest, keys: np.ndarray) -> np.ndarray:
    """The output rows behind `_cube_groups` keys, in the tree tables' dtype; structured keys are viewed as rows."""
    if keys.dtype.names:
        return keys.view(keys.dtype[0]).reshape(len(keys), -1)
    base, m = forest.output_space.alphabet + 1, forest.output_space.cells
    rows = np.empty((len(keys), m), dtype=np.uint8 if base <= 255 else np.int32)
    step = (1 << 17) // m  # keys per block, so each column's int64 temporaries stay under 1 MiB; m < 63 here
    for start in range(0, len(keys), step):
        block = keys[start : start + step]
        for column in range(m):
            rows[start : start + step, column] = block // base ** (m - 1 - column) % base
    return rows


def _merge(parts: list) -> tuple:
    """The distinct keys of the (keys, int64 counts) parts, each sorted and distinct, with summed counts.

    The parts are left unchanged, and one part comes back as it is.  Keys,
    integers or structured rows, merge in pairs, neighbours first, so each
    is merged O(log parts) times: np.searchsorted finds where each key of
    one part sits in the other, its count is added where the key is present
    and np.insert adds it where not.
    """
    while len(parts) > 1:
        merged = []
        for (keys, counts), (new, more) in zip(parts[::2], parts[1::2]):
            at = np.searchsorted(keys, new)
            present = at < len(keys)
            present[present] = keys[at[present]] == new[present]
            counts = counts.copy()
            counts[at[present]] += more[present]
            absent = ~present
            merged.append((np.insert(keys, at[absent], new[absent]), np.insert(counts, at[absent], more[absent])))
        parts = merged + parts[len(merged) * 2 :]
    return parts[0]


def output_distribution(
    forest: DecisionForest, budget: int = DEFAULT_STATE_BUDGET
) -> Distribution:
    """Exact law of the output tuple under a uniform input."""
    rows, counts, _ = _cube_law(forest, budget)
    return Distribution._from_counts(rows, counts, forest.output_space.bot)


def sample_forest_outputs(forest: DecisionForest, trials: int, seed: int) -> np.ndarray:
    """Outputs on `trials` uniform inputs, one row per trial."""
    return eval_forest_on_inputs(forest, _uniform_inputs(forest.input_space, trials, seed))


def eval_forest_on_inputs(forest: DecisionForest, inputs: np.ndarray) -> np.ndarray:
    """Vectorized forest evaluation on explicit input rows."""
    dtype = np.uint8 if forest.output_space.alphabet + 1 <= 255 else np.int32
    out = np.empty((inputs.shape[0], forest.output_space.cells), dtype=dtype)
    value = forest._flat[1]
    for tree in range(forest.output_space.cells):
        out[:, tree] = value[_walk(forest, tree, inputs)]
    return out


# ---------------------------------------------------------------------------
# entropy


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits."""
    return _entropy_bits((dist.weights / dist.total).tolist())


def _entropy_bits(probs: Iterable[float]) -> float:
    # math.log2 summed left to right: numpy's log2 differs in the last bit on some inputs
    acc = 0.0
    for p in probs:
        if p > 0.0:
            acc -= p * math.log2(p)
    return acc


@dataclass
class ConditionalEntropyDetail:
    value: float
    cells: tuple
    per_assignment: np.ndarray  # entropy given each assignment of the cells
    mode: str = "exact"
    biased: str | None = None
    trials: int | None = None
    seed: int | None = None


def _checked_cells(forest: DecisionForest, cells: Iterable[int]) -> list:
    """The named cells, sorted and deduplicated; any outside the input space raises bad_cells."""
    cells = sorted(set(cells))
    for c in cells:
        if not 0 <= c < forest.input_space.cells:
            raise UsageError("bad_cells", f"cell {c} outside the input space")
    return cells


def conditional_entropy_detail(
    forest: DecisionForest,
    cells: Iterable[int],
    budget: int = DEFAULT_STATE_BUDGET,
) -> ConditionalEntropyDetail:
    """Exact H(output | named cells), with the per-assignment profile.

    Assignment index b encodes symbol (b // alphabet**rank) % alphabet for
    the cell at position rank in sorted(cells); each batch of whole groups is reduced as it comes.
    """
    cells = _checked_cells(forest, cells)
    batches = _cube_groups(forest, budget, tuple(cells))
    per_assignment = np.concatenate([_group_entropies(counts, group) for _, counts, group in batches])
    return ConditionalEntropyDetail(float(per_assignment.mean()), tuple(cells), per_assignment)


def _group_entropies(counts: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The entropy of each group of one `_cube_groups` batch, from group[0] to group[-1], all of one size."""
    first, groups = int(group[0]), int(group[-1]) - int(group[0]) + 1
    frac = counts / (int(counts.sum()) // groups)
    terms = np.log2(frac, where=frac > 0, out=np.zeros_like(frac))
    terms *= np.negative(frac, out=frac)  # in place, one batch-sized array fewer
    return np.bincount(group - first, weights=terms, minlength=groups)


def monte_carlo_conditional_entropy(
    forest: DecisionForest,
    cells: Iterable[int],
    trials: int = 100_000,
    seed: int = 0,
    assignments: int = 64,
) -> ConditionalEntropyDetail:
    """H(output | named cells) in bits: the mean plug-in entropy, biased low, of batches with the cells fixed."""
    if assignments < 1:
        raise UsageError("bad_parameter", f"assignments must be positive, got {assignments}")
    _check_seed_steps(assignments, "assignments", "bad_parameter")
    if trials < 2 * assignments:  # one sample per assignment has plug-in entropy 0 whatever the law
        raise UsageError("bad_trials", f"{assignments} assignments need {2 * assignments} trials, got {trials}")
    cells = _checked_cells(forest, cells)
    lam = forest.input_space.alphabet
    seeds = [derive_seed(seed, b) for b in range(assignments)]  # refuses a negative seed before Philox does
    rng = np.random.Generator(np.random.Philox(seed))
    inner = trials // assignments
    per = np.zeros(assignments)
    for b, batch_seed in enumerate(seeds):
        inputs = _uniform_inputs(forest.input_space, inner, batch_seed)
        inputs[:, cells] = rng.integers(0, lam, size=len(cells))
        _, counts = np.unique(eval_forest_on_inputs(forest, inputs), axis=0, return_counts=True)
        frac = counts / inner
        per[b] = float(-(frac * np.log2(frac)).sum())
    return ConditionalEntropyDetail(
        float(per.mean()),
        tuple(cells),
        per,
        mode="monte_carlo",
        biased="low",
        trials=assignments * inner,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# statistical distance


def tv_distance(a: Distribution, b: Distribution) -> float:
    """Total variation distance, half the l1 gap over the joint support."""
    if a.arity != b.arity:
        raise UsageError("mismatched_spaces", f"arity {a.arity} vs {b.arity}")
    p, q = a.weights / a.total, b.weights / b.total
    keys_a, keys_b = _row_keys(a.rows, b.rows)
    _, in_a, in_b = np.intersect1d(keys_a, keys_b, assume_unique=True, return_indices=True)
    terms = [np.abs(p[in_a] - q[in_b]), np.abs(np.delete(p, in_a)), np.abs(np.delete(q, in_b))]
    return 0.5 * math.fsum(np.concatenate(terms).tolist())


def _tv_to_uniform_perm(law: Distribution) -> float:
    """TV to the uniform law on the n! decks of n = law.arity cards, from the law's own rows.

    TV = 1 - sum of min(p, 1/n!) over the rows that are decks (a blank is no card);
    integer counts make the sum an integer over total * n!, so one Fraction rounds it.
    """
    n, decks = law.arity, math.factorial(law.arity)
    perm = (np.sort(law.rows, axis=1) == np.arange(n)).all(axis=1)
    if law.bot is not None:
        perm &= (law.rows != law.bot).all(axis=1)
    overlap = sum(min(count * decks, law.total) for count in law.weights[perm].tolist())
    return float(1 - Fraction(overlap, law.total * decks))


def _row_keys(a: np.ndarray, b: np.ndarray) -> tuple:
    """int64 keys for the rows of a and of b, equal exactly when the rows are equal.

    Each column, shifted to start at 0, is packed in one at a time; when
    the packed keys would pass int64, the rows are numbered by np.unique.
    """
    # one contiguous copy per side: reducing a tall, narrow matrix down axis 0 is about 7 times slower
    columns = [np.ascontiguousarray(rows.T) for rows in (a, b)]
    lo = np.minimum(*(c.min(axis=1) for c in columns)).tolist()
    radix = [h - l + 1 for l, h in zip(lo, np.maximum(*(c.max(axis=1) for c in columns)).tolist())]
    if math.prod(radix) >= 1 << 63:
        keys = np.unique(np.concatenate((a, b)), axis=0, return_inverse=True)[1].reshape(-1)
        return keys[: len(a)], keys[len(a) :]
    packed = []
    for rows in columns:
        keys = np.zeros(rows.shape[1], dtype=np.int64)
        for column, l, r in zip(rows, lo, radix):
            keys *= r
            keys += column.astype(np.int64) - l
        packed.append(keys)
    return tuple(packed)


def _rows_have_collision(rows: np.ndarray, bot: int | None, count_bot: bool) -> np.ndarray:
    """Per-row flag: repeated non-blank symbol (or any blank if requested)."""
    srt = np.sort(rows, axis=1)
    eq = srt[:, 1:] == srt[:, :-1]
    if bot is not None:
        eq &= srt[:, 1:] != bot
    hit = eq.any(axis=1)
    if count_bot and bot is not None:
        hit |= (rows == bot).any(axis=1)
    return hit


def _collision_mass(dist: Distribution, count_bot: bool) -> float:
    """The law's mass on rows with a collision; integer counts are summed before the one division."""
    hit = _rows_have_collision(dist.rows, dist.bot, count_bot)
    return float(dist.weights[hit].sum() / dist.total)


def tv_lower_bound_via_collision(dist: Distribution) -> float:
    """Pr[some non-blank symbol repeats, or any blank appears] under the law.

    A uniform deck, one card per output cell, never triggers the event, so
    the probability lower bounds the total variation distance to the
    uniform permutation law.
    """
    return _collision_mass(dist, count_bot=True)


# ---------------------------------------------------------------------------
# collision statistics


@dataclass(frozen=True)
class IndependentEnsemble:
    """Independent variables over [n] plus blank, one probability row each.

    Row i has n+1 entries; the last is the blank mass.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise UsageError("bad_ensemble", "rows must form a 2d table with n+1 columns")
        if not (rows >= -SUM_TOLERANCE).all():  # written so that NaN fails too
            raise UsageError("bad_probability", "negative or NaN mass in an ensemble row")
        gaps = np.abs(rows.sum(axis=1) - 1.0)
        if not gaps.max() <= SUM_TOLERANCE:
            raise UsageError("bad_probability", f"row sums off by up to {gaps.max()}")
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1] - 1

    def row_entropies(self) -> np.ndarray:
        p = self.rows
        terms = -p * np.log2(p, where=p > 0, out=np.zeros_like(p))
        return terms.sum(axis=1)


def uniform_ensemble(m: int, n: int) -> IndependentEnsemble:
    rows = np.full((m, n + 1), 1.0 / n)
    rows[:, n] = 0.0
    return IndependentEnsemble(rows)


ENSEMBLE_EXACT_LIMIT = 20


def ensemble_collision_probability(ensemble: IndependentEnsemble) -> float:
    """Exact Pr[some symbol is taken by two or more variables].

    Symbols are swept in order while a subset table tracks which variables
    already claimed a symbol injectively; the complement event is exactly
    the total mass of injective outcomes with the rest blank.
    """
    m, n = ensemble.m, ensemble.n
    if m > ENSEMBLE_EXACT_LIMIT:
        raise BudgetError("enum_budget", f"exact ensemble collision needs m <= {ENSEMBLE_EXACT_LIMIT}")
    size = 1 << m
    idx = np.arange(size)
    has = [(idx >> i) & 1 == 1 for i in range(m)]
    dp = np.zeros(size)
    dp[0] = 1.0
    for k in range(n):
        new = dp.copy()
        for i in range(m):
            p = ensemble.rows[i, k]
            if p:
                new[has[i]] += dp[~has[i]] * p
        dp = new
    blank_weight = np.ones(size)
    for i in range(m):
        blank_weight[~has[i]] *= ensemble.rows[i, n]
    return float(1.0 - (dp * blank_weight).sum())


def sample_ensemble(ensemble: IndependentEnsemble, trials: int, seed: int) -> np.ndarray:
    """Rows of independent draws; blank comes out as symbol n."""
    u = _draw_generator(trials, seed).random((trials, ensemble.m))
    out = np.empty((trials, ensemble.m), dtype=np.int32)
    for i in range(ensemble.m):
        cum = np.cumsum(ensemble.rows[i])
        cum[-1] = 1.0
        out[:, i] = np.searchsorted(cum, u[:, i], side="right")
    return out


def collision_probability(
    source,
    mode: str = "exact",
    trials: int = 100_000,
    seed: int = 0,
    budget: int = DEFAULT_STATE_BUDGET,
) -> float:
    """Pr[some non-blank symbol repeats] for a forest or an ensemble: exact, or over seeded draws."""
    ensemble = isinstance(source, IndependentEnsemble)
    if not ensemble and not isinstance(source, DecisionForest):
        raise UsageError("bad_source", f"cannot compute collisions for {type(source).__name__}")
    if mode == "exact":
        return ensemble_collision_probability(source) if ensemble else _collision_mass(output_distribution(source, budget), False)
    if mode != "monte_carlo":
        raise UsageError("bad_mode", f"unknown mode {mode!r}")
    if trials < 1:
        raise UsageError("bad_trials", f"trials must be at least 1, got {trials}")
    if ensemble:
        rows, bot = sample_ensemble(source, trials, seed), source.n
    else:
        rows, bot = sample_forest_outputs(source, trials, seed), source.output_space.bot
    return float(_rows_have_collision(rows, bot, count_bot=False).mean())


# ---------------------------------------------------------------------------
# Hamming geometry


def neighborhood(
    outcome_set: OutcomeSet, k: int, budget: int = DEFAULT_SET_BUDGET
) -> OutcomeSet:
    """All tuples within distance k, materialized breadth-first."""
    if not outcome_set.members:
        raise UsageError("empty_set", "cannot expand an empty set")
    if k < 0:
        raise UsageError("bad_radius", "negative radius")
    lam = outcome_set.alphabet
    seen = set(outcome_set.members)
    frontier = set(outcome_set.members)
    for _ in range(min(k, outcome_set.arity)):  # past the arity nothing new is in reach
        nxt = set()
        for x in frontier:
            for pos in range(outcome_set.arity):
                old = x[pos]
                for v in range(lam):
                    if v != old:
                        y = x[:pos] + (v,) + x[pos + 1 :]
                        if y not in seen:
                            nxt.add(y)
        seen |= nxt
        if len(seen) > budget:
            raise BudgetError("set_budget", f"neighborhood exceeds {budget} members")
        if not nxt:
            break
        frontier = nxt
    return OutcomeSet(
        frozenset(seen),
        outcome_set.arity,
        outcome_set.alphabet,
        description=f"radius-{k} expansion of {outcome_set.description or 'a set'}",
    )


def cube_distances_to_set(
    outcome_set: OutcomeSet, budget: int = DEFAULT_STATE_BUDGET
) -> np.ndarray:
    """Distance from every cube point to the set, as an int32 array.

    Point index i encodes symbol (i // alphabet**rank) % alphabet at
    coordinate rank, matching the enumeration order used elsewhere.  The
    cube starts at 0 on the members and at the arity elsewhere; one pass
    per coordinate lets each point take the least value along that
    coordinate's line plus 1, because Hamming distance is a sum of
    per-coordinate 0/1 distances.
    """
    if not len(outcome_set):
        raise UsageError("empty_set", "cannot measure distances to an empty set")
    lam = outcome_set.alphabet
    s = outcome_set.arity
    n = _check_enum_budget(lam, s, budget)
    indices = outcome_set.indices
    dist = np.full(n, s, dtype=np.int32)
    dist[indices] = 0
    cube = dist.reshape((lam,) * s)
    for axis in range(s):
        np.minimum(cube, cube.min(axis=axis, keepdims=True) + 1, out=cube)
    return dist


# ---------------------------------------------------------------------------
# distribution dump format


def parse_distribution(text: str, bot: int | None = None) -> Distribution:
    probs: dict = {}
    arity = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rendered, _, prob = line.partition("\t")
        tokens = rendered.split(",")
        if "_" in tokens and bot is None:
            raise UsageError("bad_outcome", "blank symbol in dump but no blank value given")
        try:
            outcome = tuple(bot if tok == "_" else int(tok) for tok in tokens)
            p = float(prob)
        except ValueError:
            raise UsageError("bad_file", f"dump line {line!r} is not comma-joined symbols, a tab and a number")
        if arity is None:
            arity = len(outcome)
        probs[outcome] = probs.get(outcome, 0.0) + p
    if arity is None:
        raise UsageError("empty_distribution", "no outcomes in dump")
    return Distribution(probs, arity=arity, bot=bot)
