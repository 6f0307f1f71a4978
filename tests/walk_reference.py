"""Uncached slow reference for the greedy cell-fixing walk.

`harness.enforce_avg_lipschitz` shares its restricted forests between walks
that drew the same values, keeping one node per forest; this walk restricts
and recomputes the expected probe counts at every step, so tests can check
the shared walk tree against it.
"""
from __future__ import annotations

import math
import random

import numpy as np

from forestlab.forest import DecisionForest, expected_query_counts, restrict


def enforce_avg_lipschitz(forest: DecisionForest, mu: float, eps: float, seed: int) -> tuple:
    """(success, steps, final forest, budget) of the walk, one `restrict` per step."""
    budget = int(math.floor(2.0 * forest.input_space.cells * forest.depth / mu * math.log2(1.0 / eps)))
    rng = random.Random(seed)
    current = forest
    steps = []
    while True:
        ec = expected_query_counts(current)
        heaviest = int(np.argmax(ec))
        if float(ec[heaviest]) <= mu + 1e-12:
            return True, tuple(steps), current, budget
        if len(steps) >= budget:
            return False, tuple(steps), current, budget
        value = rng.randrange(current.input_space.alphabet)
        steps.append((heaviest, value, float(ec[heaviest])))
        current = restrict(current, {heaviest: value})
