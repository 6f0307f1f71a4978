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
        return dict(zip(map(tuple, self.rows.tolist()), (self.weights / self.total).tolist()))


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
    Rows come in (b, row) order, decoded from the keys b * (sigma+1)**m +
    packed outputs, or from the output matrix led by b when keys overflow int64.
    The cube is walked in slabs of `_slab_axes` trailing axes, each at one
    symbol of the leading ones, so memory is one slab plus the distinct rows.
    """
    order = cube_order(forest, cells)
    lam, k = forest.input_space.alphabet, len(order)
    base, m = forest.output_space.alphabet + 1, forest.output_space.cells
    span = base ** m
    _check_enum_budget(lam, k, budget)
    rank_of = {c: r for r, c in enumerate(order)}
    # one arange per named cell on that cell's axis; the cell at rank r sits on axis k-1-r
    group = sum(
        (np.arange(lam, dtype=np.int64).reshape([lam if a == k - 1 - rank_of[c] else 1 for a in range(k)]) * lam**r
         for r, c in enumerate(cells)),
        np.zeros((1,) * k, dtype=np.int64),
    ).astype(np.min_scalar_type(lam ** len(cells) - 1))
    dtype = np.uint8 if base <= 255 else np.int32
    tables = [group] + [_tree_on_cube(forest, tree, rank_of, dtype) for tree in range(m)]
    wide = lam ** len(cells) * span >= 1 << 62
    inner = _slab_axes(lam, k)
    if wide:  # b in its narrowest type, so the matrix keeps the outputs' type when b fits it
        slab = np.empty((lam,) * inner + (m + 1,), dtype=np.result_type(group.dtype, dtype))
    else:
        slab = np.empty((lam,) * inner, dtype=np.int64 if lam ** len(cells) * span >= 1 << 31 else np.int32)
    parts, merged, waiting = [], 0, 0
    for lead in itertools.product(range(lam), repeat=k - inner):
        # restriction as indexing: each table at the slab's symbols, or at 0 on axes it spans once
        cut = [table[tuple(v if n > 1 else 0 for v, n in zip(lead, table.shape))] for table in tables] if lead else tables
        if wide:
            for column, values in enumerate(cut):
                slab[..., column] = values
            parts.append(np.unique(slab.reshape(-1, m + 1), axis=0, return_counts=True))
        else:
            slab[...] = cut[0]
            for values in cut[1:]:
                slab *= base
                slab += values
            keys = slab.reshape(-1)
            keys.sort()
            edges = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
            parts.append((keys[edges[:-1]], edges[1:] - edges[:-1]))
        waiting += len(parts[-1][0])
        if waiting >= max(lam**inner, merged):  # so each row is merged O(log) times
            parts = [_merge(parts)]
            merged, waiting = len(parts[0][0]), 0
    keys, counts = _merge(parts) if len(parts) > 1 else parts[0]
    if wide:
        return keys[:, 1:], counts, keys[:, 0].astype(np.int64)
    rows = keys[:, None] // base ** np.arange(m - 1, -1, -1, dtype=np.int64) % base
    # calloc'd zeros stay untouched; a computed b raised the shuffle's peak RSS by about 1 MiB
    return rows, counts, (keys // span).astype(np.int64) if cells else np.zeros(len(keys), dtype=np.int64)


def _merge(parts: list) -> tuple:
    """Distinct keys (or rows) of the (keys, counts) parts, sorted, with their summed int64 counts."""
    keys = np.concatenate([p[0] for p in parts])
    keys, inverse = np.unique(keys, axis=0 if keys.ndim > 1 else None, return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inverse.reshape(-1), np.concatenate([p[1] for p in parts]))
    return keys, counts


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
    the cell at position rank in sorted(cells).
    """
    cells = _checked_cells(forest, cells)
    _, counts, group = _cube_law(forest, budget, tuple(cells))
    per_assignment = _group_entropies(counts, group, forest.input_space.alphabet ** len(cells))
    return ConditionalEntropyDetail(float(per_assignment.mean()), tuple(cells), per_assignment)


def _group_entropies(counts: np.ndarray, group: np.ndarray, groups: int) -> np.ndarray:
    """The entropy of each of `groups` equal-sized groups of a grouped law's counts, group b where `group` is b."""
    frac = counts / (int(counts.sum()) // groups)
    terms = -frac * np.log2(frac, where=frac > 0, out=np.zeros_like(frac))
    return np.bincount(group, weights=terms, minlength=groups)


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
    lo = np.minimum(a.min(axis=0), b.min(axis=0)).tolist()
    radix = [h - l + 1 for l, h in zip(lo, np.maximum(a.max(axis=0), b.max(axis=0)).tolist())]
    if math.prod(radix) >= 1 << 63:
        keys = np.unique(np.concatenate((a, b)), axis=0, return_inverse=True)[1].reshape(-1)
        return keys[: len(a)], keys[len(a) :]
    packed = []
    for rows in (a, b):
        keys = np.zeros(len(rows), dtype=np.int64)
        for column, l, r in zip(rows.T, lo, radix):
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
