"""Distributions, entropies, and collision statistics for forest outputs.

All entropies are in bits.  Exact routines enumerate assignments of the
cells a forest actually probes; anything else is Monte-Carlo with a
counter-based generator, so trial t depends only on (seed, t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .forest import (
    DEFAULT_SET_BUDGET,
    DEFAULT_STATE_BUDGET,
    BudgetError,
    DecisionForest,
    UsageError,
    _digits,
    _input_symbols,
    _leaf_values,
    cube_order,
    eval_forest_on_cube,
    packed_outputs_on_cube,
    unpack_output_key,
)

SUM_TOLERANCE = 1e-9


def derive_seed(seed: int, step: int) -> int:
    """Stable per-step seed so reruns never depend on batching.

    The step fills the low 20 bits, so it must sit in [0, 2**20) and the
    seed must be nonnegative for distinct pairs to give distinct seeds.
    """
    if seed < 0 or not 0 <= step < 1 << 20:
        raise UsageError(
            "bad_seed", f"derived seeds need seed >= 0 and step in [0, 2**20), got {seed}, {step}"
        )
    return (seed << 20) ^ step


def hoeffding_halfwidth(trials: int, confidence: float = 0.99) -> float:
    """99% two-sided half-width for a mean of [0,1] samples."""
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * trials))


@dataclass
class Measurement:
    """One reported quantity with its estimation context."""

    quantity: str
    mode: str
    value: float
    ci_halfwidth: float | None = None
    seed: int | None = None
    trials: int | None = None

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "mode": self.mode,
            "value": self.value,
            "ci_halfwidth": self.ci_halfwidth,
            "seed": self.seed,
            "trials": self.trials,
        }


@dataclass
class Distribution:
    """Finite law over outcome tuples, stored as a support table.

    The table maps outcome tuples to probabilities, sums to one within
    1e-9, and optionally knows which integer encodes the blank symbol.
    """

    probs: dict
    arity: int
    bot: int | None = None

    def __post_init__(self):
        total = 0.0
        for outcome, p in self.probs.items():
            if len(outcome) != self.arity:
                raise UsageError("bad_outcome", f"outcome {outcome} has arity {len(outcome)}")
            if p < -SUM_TOLERANCE:
                raise UsageError("bad_probability", f"negative probability {p}")
            total += p
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise UsageError("bad_probability", f"probabilities sum to {total}")

    def support(self) -> list:
        return sorted(self.probs)

    def mass(self, outcomes: Iterable) -> float:
        return sum(self.probs.get(tuple(o), 0.0) for o in outcomes)


@dataclass(frozen=True)
class OutcomeSet:
    """Finite set of tuples over a shared arity and alphabet."""

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

    def __len__(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# forest output laws


def output_distribution(
    forest: DecisionForest, budget: int = DEFAULT_STATE_BUDGET
) -> Distribution:
    """Exact law of the output tuple under a uniform input."""
    order = cube_order(forest)
    lam = forest.input_space.alphabet
    n = lam ** len(order)
    if n > budget:
        raise BudgetError("enum_budget", f"{lam}^{len(order)} states exceed the budget {budget}")
    base = forest.output_space.alphabet + 1
    m = len(forest.trees)
    packed = packed_outputs_on_cube(forest, order, budget)
    probs: dict = {}
    if packed is not None:
        keys, counts = np.unique(packed, return_counts=True)
        for key, cnt in zip(keys.tolist(), counts.tolist()):
            probs[unpack_output_key(key, m, base)] = cnt / n
    else:
        rows = eval_forest_on_cube(forest, order, budget)
        for row in map(tuple, rows.tolist()):
            probs[row] = probs.get(row, 0.0) + 1.0 / n
    return Distribution(probs, arity=m, bot=forest.output_space.bot)


def sample_forest_outputs(
    forest: DecisionForest, trials: int, seed: int
) -> np.ndarray:
    """Outputs on `trials` uniform inputs, one row per trial."""
    rng = np.random.Generator(np.random.Philox(seed))
    s = forest.input_space.cells
    lam = forest.input_space.alphabet
    inputs = rng.integers(0, lam, size=(trials, s), dtype=np.uint8)
    return eval_forest_on_inputs(forest, inputs)


def eval_forest_on_inputs(forest: DecisionForest, inputs: np.ndarray) -> np.ndarray:
    """Vectorized forest evaluation on explicit input rows."""
    width = forest.output_space.alphabet + 1
    dtype = np.uint8 if width <= 255 else np.int32
    out = np.empty((inputs.shape[0], len(forest.trees)), dtype=dtype)
    rows = np.arange(inputs.shape[0], dtype=np.int64)
    symbol = _input_symbols(inputs)
    for tree in range(len(forest.trees)):
        _leaf_values(forest, tree, rows, symbol, out[:, tree])
    return out


# ---------------------------------------------------------------------------
# entropy


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits."""
    acc = 0.0
    for p in dist.probs.values():
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


def conditional_entropy_detail(
    forest: DecisionForest,
    cells: Iterable[int],
    budget: int = DEFAULT_STATE_BUDGET,
) -> ConditionalEntropyDetail:
    """Exact H(output | named cells), with the per-assignment profile.

    Assignment index b encodes symbol (b // alphabet**rank) % alphabet for
    the cell at position rank in sorted(cells).
    """
    cells = sorted(set(cells))
    for c in cells:
        if not 0 <= c < forest.input_space.cells:
            raise UsageError("bad_cells", f"cell {c} outside the input space")
    lam = forest.input_space.alphabet
    order = cube_order(forest, cells)
    n = lam ** len(order)
    if n > budget:
        raise BudgetError("enum_budget", f"{lam}^{len(order)} states exceed the budget {budget}")
    packed = packed_outputs_on_cube(forest, order, budget)
    if packed is None:
        rows = eval_forest_on_cube(forest, order, budget)
        _, packed = np.unique(rows, axis=0, return_inverse=True)
        packed = packed.astype(np.int64)
    _, out_ids = np.unique(packed, return_inverse=True)
    out_ids = out_ids.astype(np.int64)
    distinct = int(out_ids.max()) + 1 if out_ids.size else 1

    rank_of = {c: r for r, c in enumerate(order)}
    idx = np.arange(n, dtype=np.int64)
    group = np.zeros(n, dtype=np.int64)
    for r, c in enumerate(cells):
        group += _digits(idx, rank_of[c], lam) * (lam ** r)
    del idx
    groups = lam ** len(cells)
    if groups * distinct > (1 << 62):
        raise BudgetError("enum_budget", "conditional grouping key would overflow")

    combined = group * distinct + out_ids
    uniq, counts = np.unique(combined, return_counts=True)
    gid = uniq // distinct
    rows_per_group = n // groups
    frac = counts / rows_per_group
    terms = -frac * np.log2(frac, where=frac > 0, out=np.zeros_like(frac))
    per_assignment = np.bincount(gid, weights=terms, minlength=groups)
    value = float(per_assignment.mean()) if groups else 0.0
    return ConditionalEntropyDetail(value, tuple(cells), per_assignment)


def conditional_entropy(
    forest: DecisionForest,
    cells: Iterable[int],
    mode: str = "exact",
    trials: int = 100_000,
    seed: int = 0,
    budget: int = DEFAULT_STATE_BUDGET,
) -> float:
    """H(output | named cells) in bits.

    Monte-Carlo mode draws assignments of the cells and applies the plug-in
    entropy estimate to each restricted forest, which biases the value low;
    the detail record flags this.
    """
    if mode == "exact":
        return conditional_entropy_detail(forest, cells, budget).value
    if mode != "monte_carlo":
        raise UsageError("bad_mode", f"unknown mode {mode!r}")
    return monte_carlo_conditional_entropy(forest, cells, trials, seed).value


def monte_carlo_conditional_entropy(
    forest: DecisionForest,
    cells: Iterable[int],
    trials: int = 100_000,
    seed: int = 0,
    assignments: int = 64,
) -> ConditionalEntropyDetail:
    cells = sorted(set(cells))
    lam = forest.input_space.alphabet
    rng = np.random.Generator(np.random.Philox(seed))
    inner = max(1, trials // max(1, assignments))
    per = np.zeros(assignments)
    from .forest import restrict  # local import keeps module load light

    for b in range(assignments):
        beta = {c: int(v) for c, v in zip(cells, rng.integers(0, lam, size=len(cells)))}
        rows = sample_forest_outputs(restrict(forest, beta), inner, derive_seed(seed, b))
        _, counts = np.unique(rows, axis=0, return_counts=True)
        frac = counts / inner
        per[b] = float(-(frac * np.log2(frac)).sum())
    return ConditionalEntropyDetail(
        float(per.mean()),
        tuple(cells),
        per,
        mode="monte_carlo",
        biased="low",
        trials=trials,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# statistical distance


def tv_distance(a: Distribution, b: Distribution) -> float:
    """Total variation distance, half the l1 gap over the joint support."""
    if a.arity != b.arity:
        raise UsageError("mismatched_spaces", f"arity {a.arity} vs {b.arity}")
    acc = 0.0
    for outcome in set(a.probs) | set(b.probs):
        acc += abs(a.probs.get(outcome, 0.0) - b.probs.get(outcome, 0.0))
    return 0.5 * acc


def _rows_have_collision(rows: np.ndarray, bot: int | None, count_bot: bool) -> np.ndarray:
    """Per-row flag: repeated non-blank symbol (or any blank if requested)."""
    if rows.shape[1] < 2:
        hit = np.zeros(rows.shape[0], dtype=bool)
    else:
        srt = np.sort(rows, axis=1)
        eq = srt[:, 1:] == srt[:, :-1]
        if bot is not None:
            eq &= srt[:, 1:] != bot
        hit = eq.any(axis=1)
    if count_bot and bot is not None:
        hit |= (rows == bot).any(axis=1)
    return hit


def _forest_rows(
    forest: DecisionForest, mode: str, trials: int, seed: int, budget: int
) -> np.ndarray:
    """Output rows: every cube point when exact, seeded uniform draws otherwise."""
    if mode == "exact":
        return eval_forest_on_cube(forest, budget=budget)
    if mode == "monte_carlo":
        return sample_forest_outputs(forest, trials, seed)
    raise UsageError("bad_mode", f"unknown mode {mode!r}")


def tv_lower_bound_via_collision(
    forest: DecisionForest,
    n: int | None = None,
    mode: str = "exact",
    trials: int = 100_000,
    seed: int = 0,
    budget: int = DEFAULT_STATE_BUDGET,
) -> float:
    """Pr[some non-blank symbol repeats, or any blank appears].

    A uniform deck never triggers the event, so the probability lower
    bounds the total variation distance to the uniform permutation law.
    """
    if n is None:
        n = forest.output_space.cells
    if len(forest.trees) != n:
        raise UsageError("mismatched_spaces", f"{len(forest.trees)} outputs vs deck size {n}")
    if forest.output_space.alphabet > n:
        raise UsageError("mismatched_spaces", "output alphabet exceeds the deck size")
    rows = _forest_rows(forest, mode, trials, seed, budget)
    return float(_rows_have_collision(rows, forest.output_space.bot, count_bot=True).mean())


# ---------------------------------------------------------------------------
# collision statistics


def collision_stat(z, bot: int | None = None) -> int:
    """Total count of repeated non-blank symbols, sum of (multiplicity - 1)."""
    counts: dict = {}
    for sym in z:
        if bot is not None and sym == bot:
            continue
        counts[sym] = counts.get(sym, 0) + 1
    return sum(c - 1 for c in counts.values() if c > 1)


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
        if (rows < -SUM_TOLERANCE).any():
            raise UsageError("bad_probability", "negative mass in an ensemble row")
        gaps = np.abs(rows.sum(axis=1) - 1.0)
        if gaps.max() > SUM_TOLERANCE:
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
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random((trials, ensemble.m))
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
    """Pr[some non-blank symbol repeats] for a forest or an ensemble."""
    if isinstance(source, IndependentEnsemble):
        if mode == "exact":
            return ensemble_collision_probability(source)
        if mode == "monte_carlo":
            rows = sample_ensemble(source, trials, seed)
            return float(_rows_have_collision(rows, source.n, count_bot=False).mean())
        raise UsageError("bad_mode", f"unknown mode {mode!r}")
    if not isinstance(source, DecisionForest):
        raise UsageError("bad_source", f"cannot compute collisions for {type(source).__name__}")
    rows = _forest_rows(source, mode, trials, seed, budget)
    return float(_rows_have_collision(rows, source.output_space.bot, count_bot=False).mean())


# ---------------------------------------------------------------------------
# Hamming geometry


def hamming_dist_to_set(x, outcome_set: OutcomeSet) -> int:
    """Coordinates to change before x lands in the set."""
    if not outcome_set.members:
        raise UsageError("empty_set", "distance to an empty set is undefined")
    x = tuple(x)
    if len(x) != outcome_set.arity:
        raise UsageError("bad_outcome", f"point arity {len(x)} vs set arity {outcome_set.arity}")
    best = outcome_set.arity
    for member in outcome_set.members:
        d = sum(1 for a, b in zip(x, member) if a != b)
        if d < best:
            best = d
            if best == 0:
                break
    return best


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
    for _ in range(k):
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
    """Distance from every cube point to the set, via multi-source layers.

    Point index i encodes symbol (i // alphabet**rank) % alphabet at
    coordinate rank, matching the enumeration order used elsewhere.
    """
    if not outcome_set.members:
        raise UsageError("empty_set", "cannot measure distances to an empty set")
    lam = outcome_set.alphabet
    s = outcome_set.arity
    n = lam ** s
    if n > budget:
        raise BudgetError("enum_budget", f"{lam}^{s} states exceed the budget {budget}")
    dist = np.full(n, -1, dtype=np.int32)
    cur = np.fromiter(
        (sum(sym * lam ** r for r, sym in enumerate(x)) for x in outcome_set.members),
        dtype=np.int64,
        count=len(outcome_set.members),
    )
    dist[cur] = 0
    level = 0
    while cur.size:
        level += 1
        parts = []
        for r in range(s):
            digit = _digits(cur, r, lam)
            base = cur - digit * (lam ** r)
            for v in range(lam):
                parts.append(base + v * (lam ** r))
        cand = np.unique(np.concatenate(parts))
        fresh = cand[dist[cand] < 0]
        dist[fresh] = level
        cur = fresh
    return dist


# ---------------------------------------------------------------------------
# distribution dump format


def dump_distribution(dist: Distribution) -> str:
    """Line format: comma-joined outcome, tab, probability. Blank is `_`."""
    lines = []
    for outcome in dist.support():
        rendered = ",".join(
            "_" if dist.bot is not None and sym == dist.bot else str(sym) for sym in outcome
        )
        lines.append(f"{rendered}\t{dist.probs[outcome]:.17g}")
    return "\n".join(lines) + "\n"


def parse_distribution(text: str, bot: int | None = None) -> Distribution:
    probs: dict = {}
    arity = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rendered, prob = line.split("\t")
        syms = []
        for tok in rendered.split(","):
            if tok == "_":
                if bot is None:
                    raise UsageError("bad_outcome", "blank symbol in dump but no blank value given")
                syms.append(bot)
            else:
                syms.append(int(tok))
        outcome = tuple(syms)
        if arity is None:
            arity = len(outcome)
        probs[outcome] = probs.get(outcome, 0.0) + float(prob)
    if arity is None:
        raise UsageError("empty_distribution", "no outcomes in dump")
    return Distribution(probs, arity=arity, bot=bot)
