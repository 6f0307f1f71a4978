"""Reference samplers and forest generators.

The butterfly card shuffle moves cards in rounds: cards at positions i and
n/2+i are dealt to positions 2i and 2i+1, in an order decided by one fair
coin per pair.  Compiling the shuffle into a decision forest gives one tree
per final position, probing one coin per round from the last round back to
the first.  A direct network simulation of the same wiring is kept alongside
as an independent reference.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .analysis import Distribution
from .forest import (
    BucketStructure,
    DecisionForest,
    DecisionTree,
    InputSpace,
    Internal,
    Leaf,
    OutputSpace,
    UsageError,
)


@dataclass(frozen=True)
class ThorpSpec:
    """Shuffle of n = 2**log2n cards for a number of rounds."""

    log2n: int
    rounds: int

    def __post_init__(self):
        if self.log2n < 1:
            raise UsageError("bad_spec", "need at least 2 cards")
        if self.rounds < 1:
            raise UsageError("bad_spec", "need at least one round")

    @property
    def n(self) -> int:
        return 1 << self.log2n

    @property
    def switches(self) -> int:
        return self.n // 2

    @property
    def coins(self) -> int:
        return self.rounds * self.switches


def coin_cell(spec: ThorpSpec, round_t: int, switch: int) -> int:
    """Input cell holding the coin of `switch` in 1-based round `round_t`."""
    return (round_t - 1) * spec.switches + switch


def thorp_network_permutation(spec: ThorpSpec, coins) -> tuple:
    """Simulate the switching network directly on an identity deck.

    Entry p of the result is the card sitting at position p after all
    rounds.  This is the reference implementation the compiled forest is
    checked against.
    """
    if len(coins) != spec.coins:
        raise UsageError("bad_input", f"expected {spec.coins} coins, got {len(coins)}")
    half = spec.switches
    deck = list(range(spec.n))
    for t in range(1, spec.rounds + 1):
        nxt = [0] * spec.n
        for i in range(half):
            a, b = deck[i], deck[half + i]
            if coins[coin_cell(spec, t, i)]:
                a, b = b, a
            nxt[2 * i] = a
            nxt[2 * i + 1] = b
        deck = nxt
    return tuple(deck)


def thorp_forest(spec: ThorpSpec) -> DecisionForest:
    """Compile the shuffle into one depth-`rounds` tree per final position.

    The tree for position p unwinds the rounds backwards: the coin of the
    last round tells which position the card came from, and so on down to
    the identity deck.  Level t therefore probes a coin of round
    rounds - t + 1, which is exactly the bucket structure reported by
    thorp_bucket_structure.
    """
    half = spec.switches

    def build(t: int, pos: int):
        if t == 0:
            return Leaf(pos)
        i, j = divmod(pos, 2)
        cell = coin_cell(spec, t, i)
        if j == 0:
            srcs = (i, half + i)
        else:
            srcs = (half + i, i)
        return Internal(cell, (build(t - 1, srcs[0]), build(t - 1, srcs[1])))

    trees = tuple(DecisionTree(build(spec.rounds, p)) for p in range(spec.n))
    return DecisionForest(
        InputSpace(spec.coins, 2),
        OutputSpace(spec.n, spec.n, bot_allowed=False),
        trees,
    )


def thorp_bucket_structure(spec: ThorpSpec) -> BucketStructure:
    """Bucket t holds the coins of round rounds - t + 1."""
    half = spec.switches
    buckets = []
    for level in range(spec.rounds):
        t = spec.rounds - level
        buckets.append(tuple(range((t - 1) * half, t * half)))
    return BucketStructure(tuple(buckets))


def fisher_yates(n: int, seed_or_rng) -> tuple:
    """Classic backward swap shuffle of the identity deck."""
    if n < 1:
        raise UsageError("bad_spec", "need at least one card")
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def uniform_perm_distribution(n: int) -> Distribution:
    """Uniform law on all n! decks, materialized (n <= 8)."""
    if not 1 <= n <= 8:
        raise UsageError("bad_spec", "uniform permutation law is materialized only up to n=8")
    total = math.factorial(n)
    probs = {perm: 1.0 / total for perm in itertools.permutations(range(n))}
    return Distribution(probs, arity=n)


@dataclass(frozen=True)
class ForestGenSpec:
    """Shape constraints for the seeded random forest generator.

    Trees are drawn top-down with a per-node stop probability, then leaf
    labels are drawn uniformly (the blank symbol participates when the
    output space allows it).  Optional caps: at most `max_tree_cells`
    distinct cells per tree, at most `max_cell_influence` trees touching
    any one cell, probes at level t restricted to bucket t when a bucket
    structure is given.
    """

    cells: int
    alphabet: int
    out_cells: int
    out_alphabet: int
    depth: int
    seed: int
    nonadaptive: bool = False
    bot_allowed: bool = False
    max_tree_cells: int | None = None
    max_cell_influence: int | None = None
    buckets: BucketStructure | None = None
    stop_prob: float = 0.3

    def __post_init__(self):
        if self.depth < 0:
            raise UsageError("bad_spec", "negative depth")
        if self.nonadaptive and self.depth > 1:
            raise UsageError("unsatisfiable", "nonadaptive forests have depth at most 1")
        if self.buckets is not None:
            if self.buckets.cells != self.cells:
                raise UsageError("unsatisfiable", "bucket structure does not cover the cells")
            if self.depth > len(self.buckets):
                raise UsageError("unsatisfiable", "declared depth exceeds the bucket count")
        if not 0.0 <= self.stop_prob < 1.0:
            raise UsageError("bad_spec", "stop probability must sit in [0, 1)")


def random_forest(spec: ForestGenSpec) -> DecisionForest:
    """Draw a forest satisfying every constraint declared in the spec."""
    rng = random.Random(spec.seed)
    space = InputSpace(spec.cells, spec.alphabet)
    out = OutputSpace(spec.out_cells, spec.out_alphabet, spec.bot_allowed)
    labels = spec.out_alphabet + (1 if spec.bot_allowed else 0)
    influence = [0] * spec.cells
    cap = spec.max_cell_influence

    def leaf() -> Leaf:
        return Leaf(rng.randrange(labels))

    trees = []
    for _ in range(spec.out_cells):
        open_cells = [c for c in range(spec.cells) if cap is None or influence[c] < cap]
        if spec.max_tree_cells is not None:
            pool = set(rng.sample(open_cells, min(spec.max_tree_cells, len(open_cells))))
        else:
            pool = set(open_cells)

        tree_cells: set = set()

        def build(level: int, used: set):
            if level >= spec.depth or rng.random() < spec.stop_prob:
                return leaf()
            if spec.buckets is not None:
                candidates = sorted((set(spec.buckets.buckets[level]) & pool) - used)
            else:
                candidates = sorted(pool - used)
            if not candidates:
                return leaf()
            cell = rng.choice(candidates)
            tree_cells.add(cell)
            used.add(cell)
            kids = tuple(build(level + 1, used) for _ in range(spec.alphabet))
            used.remove(cell)
            return Internal(cell, kids)

        trees.append(DecisionTree(build(0, set())))
        for c in tree_cells:
            influence[c] += 1
    return DecisionForest(space, out, tuple(trees))
