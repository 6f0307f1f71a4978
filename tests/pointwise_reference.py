"""Pointwise slow references: one output row or one point at a time.

The library counts collisions over whole output matrices
(`analysis._rows_have_collision`) and measures distances to a set over the
whole cube (`analysis.cube_distances_to_set`), and reads TV to the uniform
deck off a law's rows (`analysis._tv_to_uniform_perm`); these score a single
row or point by direct loops, so tests can check the array forms against them.
"""
from __future__ import annotations

import math
from fractions import Fraction

from forestlab.analysis import Distribution, OutcomeSet
from forestlab.forest import UsageError


def collision_stat(z, bot: int | None = None) -> int:
    """Total count of repeated non-blank symbols, sum of (multiplicity - 1)."""
    counts: dict = {}
    for sym in z:
        if bot is not None and sym == bot:
            continue
        counts[sym] = counts.get(sym, 0) + 1
    return sum(c - 1 for c in counts.values() if c > 1)


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


def exact_tv_to_uniform_perm(law: Distribution) -> Fraction:
    """Half of: |p - 1/n!| over the law's rows that are decks, p over its other rows, 1/n! per missing deck."""
    n = law.arity
    deck = Fraction(1, math.factorial(n))
    gaps, seen = Fraction(0), 0
    for row, count in zip(law.rows.tolist(), law.weights.tolist()):
        p = Fraction(count, law.total)
        if sorted(row) == list(range(n)) and law.bot not in row:
            gaps, seen = gaps + abs(p - deck), seen + 1
        else:
            gaps += p
    return (gaps + (math.factorial(n) - seen) * deck) / 2
