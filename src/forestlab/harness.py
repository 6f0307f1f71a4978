"""Verifiers and experiments for the smoothness, entropy, and collision bounds.

Every `verify_*` routine measures one inequality on a concrete instance and
returns an ExperimentReport (`verify_harper` and `verify_entropy_deviation`
return one per radius or cell of their batch); claim preconditions that fail
are reported with a distinct status rather than raised, so corpus sweeps can
count guard hits.
Exact modes enumerate, Monte-Carlo modes record their trial count and seed.
"""
from __future__ import annotations

import collections
import math
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .analysis import (
    ENSEMBLE_EXACT_LIMIT,
    Distribution,
    IndependentEnsemble,
    OutcomeSet,
    _check_seed_steps,
    _checked_cells,
    _collision_mass,
    _cube_groups,
    _cube_law,
    _entropy_bits,
    _group_entropies,
    _key_rows,
    _tv_to_uniform_perm,
    collision_probability,
    conditional_entropy_detail,
    cube_distances_to_set,
    derive_seed,
    entropy,
    hoeffding_halfwidth,
    output_distribution,
    tv_lower_bound_via_collision,
)
from .forest import (
    DEFAULT_STATE_BUDGET,
    BucketStructure,
    DecisionForest,
    OutputSpace,
    UsageError,
    _cell_tails,
    _copy_table,
    _deep_probe_mass,
    _leaf_labels,
    _leaf_mass,
    _probe_histograms,
    expected_query_counts,
    is_bucketed,
    prune_on_query_set,
    restrict,
)
from .report import ExperimentReport

TOL = 1e-9

DEFAULT_EPSILONS = (0.5, 0.25, 0.125)

# the constant c of the coupling bound: expected changes <= c * sqrt(depth * ln(1/acceptance))
COUPLING_CALIBRATION = 2.0


# ---------------------------------------------------------------------------
# containment of low-entropy laws


def containment_set(dist: Distribution, k: float) -> tuple:
    """Small high-mass container for a law of entropy at most k.

    The container keeps every outcome with probability at least 2^(-2k).
    Its size never exceeds 2^(2k); whenever the entropy really is at most
    k, it also carries mass at least one half.
    """
    if k < 0:
        raise UsageError("bad_parameter", "entropy budget must be nonnegative")
    threshold = 2.0 ** (-2.0 * k)
    probs = dist.weights / dist.total
    kept = probs >= threshold
    members = list(map(tuple, dist.rows[kept].tolist()))
    mass = sum(probs[kept].tolist())
    h = entropy(dist)
    size_bound = 2.0 ** (2.0 * k) if k < 512 else math.inf  # 2.0 ** 1024 overflows
    entropy_applies = h <= k + TOL
    alphabet = 1 + (int(dist.rows.max()) if dist.rows.size else 0)
    container = OutcomeSet(
        frozenset(members),
        dist.arity,
        max(alphabet, 1),
        description=f"outcomes with mass >= 2^(-2*{k:g})",
    )
    report = ExperimentReport(
        lemma_id="containment",
        bound=0.5,
        measured=mass,
        direction="ge" if entropy_applies else None,
        status="ok" if len(members) <= size_bound + TOL else "fail",
        details={
            "size": len(members),
            "size_bound": size_bound,
            "entropy": h,
            "k": float(k),
            "mass_checked": entropy_applies,
        },
    )
    return container, report


# ---------------------------------------------------------------------------
# entropy bounds


def _blank_mixture_cap(m: int, sigma: int, filled: float) -> float:
    """log2(m+1) plus `filled` expected non-blank coordinates times log2(m * sigma)."""
    return math.log2(m + 1) + filled * math.log2(m * sigma)


def verify_mixture_bound(dist: Distribution, sigma: int) -> ExperimentReport:
    """Entropy of a mostly-blank tuple law, against the support-counting cap.

    The cap is log2(m+1) plus the expected number of non-blank coordinates
    times log2(m * sigma).
    """
    if sigma < 1:
        raise UsageError("bad_parameter", "output alphabet must be positive")
    m = dist.arity
    filled = m if dist.bot is None else (dist.rows != dist.bot).sum(axis=1)
    expected_filled = sum((dist.weights / dist.total * filled).tolist(), 0.0)  # left to right, as a loop adds
    bound = _blank_mixture_cap(m, sigma, expected_filled)
    measured = entropy(dist)
    return ExperimentReport(
        lemma_id="mixture-bound",
        bound=bound,
        measured=measured,
        direction="le",
        details={"expected_filled": expected_filled, "arity": m, "sigma": sigma},
    )


def verify_chain_bound(
    forest: DecisionForest, buckets: BucketStructure, budget: int = DEFAULT_STATE_BUDGET
) -> ExperimentReport:
    """Output entropy against the sum of leave-one-block-out conditionals."""
    if buckets.cells != forest.input_space.cells:
        raise UsageError("bad_buckets", "partition does not cover the input cells")
    measured = entropy(output_distribution(forest, budget=budget))
    # the output entropy given every cell outside each block, block by block
    cells = range(forest.input_space.cells)
    terms = [conditional_entropy_detail(forest, [c for c in cells if c not in b], budget).value for b in buckets.buckets]
    bound = float(sum(terms))
    return ExperimentReport(
        lemma_id="chain-bound",
        bound=bound,
        measured=measured,
        direction="le",
        details={"terms": terms, "blocks": [list(b) for b in buckets.buckets]},
    )


def verify_entropy_deviation(
    forest: DecisionForest, cells: Sequence[int], budget: int = DEFAULT_STATE_BUDGET
) -> list:
    """How far fixing each of `cells` can move the output entropy, one report per cell, from one law.

    The cap combines the blank-mixture bound with the expected number of
    probes the forest sends to the fixed cell.
    """
    _checked_cells(forest, cells)
    lam = forest.input_space.alphabet
    m = forest.output_space.cells
    sigma = forest.output_space.alphabet
    h = entropy(output_distribution(forest, budget=budget))
    probed = set(forest.mentioned_cells())
    expected = expected_query_counts(forest)
    reports = []
    for cell in cells:
        if cell in probed:
            # one law grouped by the cell's value, walked a run of whole groups at a time
            per_value = []
            for _, counts, group in _cube_groups(forest, budget, (cell,)):
                sizes = np.bincount(group - group[0])
                probs, ends = (counts / (int(counts.sum()) // len(sizes))).tolist(), sizes.cumsum().tolist()
                per_value += [_entropy_bits(probs[a:b]) for a, b in zip([0] + ends, ends)]
        else:  # every restriction is the forest itself
            per_value = [h] * lam
        ec = float(expected[cell])
        reports.append(ExperimentReport(
            lemma_id="entropy-deviation",
            bound=_blank_mixture_cap(m, sigma, ec),
            measured=max(abs(hv - h) for hv in per_value),
            direction="le",
            details={"entropy": h, "per_value": per_value, "expected_probes": ec, "cell": cell},
        ))
    return reports


# ---------------------------------------------------------------------------
# probe-count tails


def _tail_cases(thresholds: list, tails: list) -> tuple:
    """The report's cases, one per eps of DEFAULT_EPSILONS, and its measured value: the largest tail - eps."""
    cases = [{"eps": eps, "threshold": t, "tail": tail} for eps, t, tail in zip(DEFAULT_EPSILONS, thresholds, tails)]
    return cases, max((case["tail"] - case["eps"] for case in cases), default=-math.inf)


def verify_second_moment_tail(
    forest: DecisionForest,
    budget: int = DEFAULT_STATE_BUDGET,
) -> ExperimentReport:
    """Tail of the output sum of a 0/1 forest at the second-moment threshold.

    With kappa the expected sum, d the depth, and mu the largest expected
    probe count of any cell, the mass strictly above 2(kappa +
    log2(1/eps) * d * mu) must be at most eps for each eps of DEFAULT_EPSILONS.
    """
    if forest.output_space.bot_allowed:
        raise UsageError("bad_leaf", "tail bound needs blank-free outputs")
    if _leaf_labels(forest) - {0, 1}:
        raise UsageError("bad_leaf", "tail bound needs 0/1 leaf values")
    rows, counts, _ = _cube_law(forest, budget)
    totals = rows.sum(axis=1, dtype=np.int64)
    n = counts.sum()
    kappa = float(totals @ counts / n)
    mu = float(expected_query_counts(forest).max())
    d = forest.depth
    thresholds = [2.0 * (kappa + math.log2(1.0 / eps) * d * mu) for eps in DEFAULT_EPSILONS]
    cases, worst = _tail_cases(thresholds, [float(counts[totals > t].sum() / n) for t in thresholds])
    return ExperimentReport(
        lemma_id="second-moment-tail",
        bound=0.0,
        measured=worst,
        direction="le",
        details={"kappa": kappa, "mu": mu, "depth": d, "cases": cases},
    )


def verify_avg_to_tail_lipschitz(
    forest: DecisionForest,
    budget: int = DEFAULT_STATE_BUDGET,
) -> ExperimentReport:
    """Average probe smoothness implies a probe-count tail bound.

    For mu the exact largest expected probe count, the chance any cell is
    probed more than 3 * mu * depth^2 * log2(1/eps) times is at most eps,
    for each eps of DEFAULT_EPSILONS.
    """
    ec = expected_query_counts(forest)
    mu = float(ec.max())
    d = forest.depth
    hist, order = _probe_histograms(forest, budget=budget)
    thresholds = [3.0 * mu * d * d * math.log2(1.0 / eps) for eps in DEFAULT_EPSILONS]
    tails = [float(_cell_tails(hist, order, forest.input_space.cells, t).max()) for t in thresholds]
    cases, worst = _tail_cases(thresholds, tails)
    return ExperimentReport(
        lemma_id="avg-to-tail-lipschitz",
        bound=0.0,
        measured=worst,
        direction="le",
        details={"mu": mu, "depth": d, "cases": cases, "cells": list(order)},
    )


# ---------------------------------------------------------------------------
# enforcing average smoothness by fixing cells


@dataclass(frozen=True)
class RestrictionTrace:
    """Record of the greedy cell-fixing walk.

    Steps hold (cell, drawn value, expected probe count of the cell when it
    was fixed), in order.
    """

    success: bool
    steps: tuple
    final_forest: DecisionForest
    budget: int
    mu: float
    eps: float
    seed: int


def _heaviest_step(forest: DecisionForest) -> tuple:
    """(heaviest cell, its expected probe count, {drawn value: restricted forest}) of a walk at `forest`.

    Kept in the forest's `vars()` like `_flat`, so walks on one forest share a
    lazy tree with one node per distinct prefix of drawn values, as long-lived as the forest.
    """
    step = vars(forest).get("_heaviest_step")
    if step is None:
        ec = expected_query_counts(forest)
        heaviest = int(np.argmax(ec))
        step = vars(forest)["_heaviest_step"] = (heaviest, float(ec[heaviest]), {})
    return step


def enforce_avg_lipschitz(
    forest: DecisionForest, mu: float, eps: float, seed: int
) -> RestrictionTrace:
    """Fix the heaviest cell to a fresh uniform value until smooth.

    The walk stops with success once every expected probe count is at most
    mu, and with failure once the depth budget 2 * cells * depth / mu *
    log2(1/eps) is exhausted.  Ties pick the lowest cell index.  Walks that
    drew the same values share their restricted forests (`_heaviest_step`).
    """
    if mu <= 0:
        raise UsageError("bad_parameter", "mu must be positive")
    if not 0.0 < eps < 1.0:
        raise UsageError("bad_parameter", "eps must sit in (0, 1)")
    s = forest.input_space.cells
    d = forest.depth
    budget = 2.0 * s * d / mu * math.log2(1.0 / eps)
    if not math.isfinite(budget):
        raise UsageError("bad_parameter", f"mu {mu:g} and eps {eps:g} leave no finite step budget")
    budget = int(math.floor(budget))
    rng = random.Random(seed)
    lam = forest.input_space.alphabet
    current = forest
    steps = []
    while True:
        heaviest, load, children = _heaviest_step(current)
        if load <= mu + 1e-12:
            success = True
            break
        if len(steps) >= budget:
            success = False
            break
        value = rng.randrange(lam)
        steps.append((heaviest, value, load))
        child = children.get(value)
        if child is None:
            child = children[value] = restrict(current, {heaviest: value})
        current = child
    return RestrictionTrace(
        success=success,
        steps=tuple(steps),
        final_forest=current,
        budget=budget,
        mu=float(mu),
        eps=float(eps),
        seed=seed,
    )


def verify_lipschitz_after_conditioning(
    forest: DecisionForest,
    mu: float,
    delta: float,
    trials: int = 10_000,
    seed: int = 0,
    budget: int = DEFAULT_STATE_BUDGET,
) -> ExperimentReport:
    """Tail smoothness should survive conditioning, up to a square root.

    The claim needs the forest (mu, delta)-tail-smooth exactly; a forest
    that is not is reported with status precondition_violation.  Random
    restrictions are drawn, each fixing a uniform half of the cells (at
    least one) to uniform values, and each restricted forest is tested
    exactly against the (mu, sqrt(delta)) tail; the failure fraction is
    compared with sqrt(delta) plus one Monte-Carlo half-width.  The draws
    of one subset share one probe-count histogram over their distinct
    assignments of its probed cells, reduced to one failure flag each,
    which every draw reads.
    """
    if not 0.0 <= delta <= 1.0:
        raise UsageError("bad_parameter", "delta must sit in [0, 1]")
    halfwidth = hoeffding_halfwidth(trials)
    _check_seed_steps(trials, "conditioning trials")
    s = forest.input_space.cells
    hist, order = _probe_histograms(forest, budget=budget)
    base_tail = float(_cell_tails(hist, order, s, mu).max())
    sqrt_delta = math.sqrt(delta)
    lam, probed = forest.input_space.alphabet, set(order)
    draws = {}  # per distinct drawn subset, the symbols of each of its draws in increasing cell order
    for t in range(trials):
        rng = random.Random(derive_seed(seed, t))
        subset = tuple(sorted(rng.sample(range(s), max(1, s // 2))))
        draws.setdefault(subset, []).append([rng.randrange(lam) for _ in subset])
    failures = 0
    for subset, values in draws.items():
        keep = [i for i, c in enumerate(subset) if c in probed]  # an unprobed cell changes no count
        times = collections.Counter(tuple(v[i] for i in keep) for v in values)
        if keep:
            hist, free = _probe_histograms(forest, tuple(subset[i] for i in keep), list(times), budget)
            failed = _cell_tails(hist, free, s, mu).max(axis=1) > sqrt_delta + 1e-12
            failures += int(np.dot(list(times.values()), failed))
        elif base_tail > sqrt_delta + 1e-12:  # every draw keeps the base tail
            failures += len(values)
    measured = failures / trials
    bound = sqrt_delta + halfwidth
    return ExperimentReport(
        lemma_id="lipschitz-restriction",
        bound=bound,
        measured=measured,
        direction="le",
        mode="monte_carlo",
        trials=trials,
        seed=seed,
        status="ok" if base_tail <= delta + 1e-12 else "precondition_violation",
        details={
            "sqrt_delta": sqrt_delta,
            "halfwidth": halfwidth,
            "failures": failures,
            "base_tail": base_tail,
        },
    )


# ---------------------------------------------------------------------------
# coupling a uniform input to a uniform accepting input


@dataclass(frozen=True)
class CouplingSample:
    x: tuple
    y: tuple
    dist: int


def _optimal_symbol_coupling(lam: int, child_counts, total) -> list:
    """Joint table coupling the uniform symbol with the accepting marginal.

    Shared mass min(p, q) sits on the diagonal; leftover mass is matched in
    increasing symbol order on both sides.
    """
    p = [Fraction(1, lam)] * lam
    q = [Fraction(c, total) for c in child_counts]
    table = [[Fraction(0)] * lam for _ in range(lam)]
    rp = []
    rq = []
    for a in range(lam):
        shared = min(p[a], q[a])
        table[a][a] = shared
        rp.append(p[a] - shared)
        rq.append(q[a] - shared)
    i = j = 0
    while i < lam and j < lam:
        if rp[i] == 0:
            i += 1
            continue
        if rq[j] == 0:
            j += 1
            continue
        t = min(rp[i], rq[j])
        table[i][j] += t
        rp[i] -= t
        rq[j] -= t
    return table


def _coupling_tables(forest: DecisionForest) -> tuple:
    """Accepting completions below every row of a one-tree forest, and the coupling table of each probe.

    Counts come from one backward pass over the preorder rows.  A probe
    with no accepting completion is never reached and gets no table.
    """
    trees = forest.output_space.cells
    if trees != 1:
        raise UsageError("bad_forest", f"coupling needs a single-tree forest, got {trees} trees")
    lam, s = forest.input_space.alphabet, forest.input_space.cells
    rows = forest._table.rows
    counts, tables = [0] * len(rows), {}
    for r in reversed(range(len(rows))):
        cell, value, depth, kids = rows[r]
        if cell >= 0:
            counts[r] = sum(counts[k] for k in kids)
            if counts[r]:
                tables[r] = _optimal_symbol_coupling(lam, [counts[k] for k in kids], counts[r])
        elif value in (0, 1):
            counts[r] = value * lam ** (s - depth)
        else:
            raise UsageError("bad_leaf", "coupling needs 0/1 leaf values")
    if counts[0] == 0:
        raise UsageError("zero_acceptance", "the tree accepts nothing")
    return counts, tables


def coupled_sample(forest: DecisionForest, seed: int) -> CouplingSample:
    """One uniform input and its coupled uniform accepted input.

    The forest has one tree with 0/1 leaves.  The walk follows the tree; at
    each probe the observed symbol is coupled optimally with the symbol law
    of a uniform accepting input that reaches the node, and the walk
    continues along the coupled value.
    """
    _, tables = _coupling_tables(forest)
    lam, s = forest.input_space.alphabet, forest.input_space.cells
    rows = forest._table.rows
    rng = random.Random(seed)
    x = tuple(rng.randrange(lam) for _ in range(s))
    y = list(x)
    node = 0
    while rows[node][0] >= 0:
        cell = rows[node][0]
        row = tables[node][x[cell]]
        support = [cand for cand in range(lam) if row[cand] > 0]
        r = rng.random() / lam  # row sums to p_a = 1/lam
        b = support[-1]
        acc = 0.0
        for cand in support:
            acc += float(row[cand])
            if r < acc:
                b = cand
                break
        y[cell] = b
        node = rows[node][3][b]
    changed = sum(1 for i in range(s) if x[i] != y[i])
    return CouplingSample(x=x, y=tuple(y), dist=changed)


def couple_accepting(forest: DecisionForest) -> ExperimentReport:
    """Exact report on the coupling that `coupled_sample` draws from.

    Checks, in one forward pass over the rows and without sampling, that
    the transformed marginal is the uniform accepting law and that the
    expected number of changed coordinates stays below
    COUPLING_CALIBRATION * sqrt(depth * ln(1/acceptance)).
    """
    counts, tables = _coupling_tables(forest)
    lam, rows = forest.input_space.alphabet, forest._table.rows
    total = counts[0]
    acceptance = Fraction(total, lam ** forest.input_space.cells)
    # reach[r]: chance that the coupled input reaches row r.  Rows without
    # reach have no accepting completion: a leaf adds 0 and a probe is skipped.
    reach = [Fraction(0)] * len(rows)
    reach[0] = Fraction(1)
    expected_changes = Fraction(0)
    tv_gap = Fraction(0)
    for r, (cell, _, _, kids) in enumerate(rows):
        if cell < 0:
            tv_gap += abs(reach[r] - Fraction(counts[r], total))
        elif reach[r]:
            table = tables[r]
            expected_changes += reach[r] * (1 - sum(table[a][a] for a in range(lam)))
            for b, kid in enumerate(kids):
                reach[kid] = reach[r] * sum(table[a][b] for a in range(lam))
    depth = forest.depth
    bound = COUPLING_CALIBRATION * math.sqrt(depth * math.log(1.0 / float(acceptance)))
    measured = float(expected_changes)
    tv = 0.5 * float(tv_gap)
    return ExperimentReport(
        lemma_id="coupling",
        bound=bound,
        measured=measured,
        direction="le",
        status="ok" if tv <= TOL else "fail",
        details={
            "marginal_tv": tv,
            "acceptance": float(acceptance),
            "depth": depth,
            "calibration": COUPLING_CALIBRATION,
        },
    )


# ---------------------------------------------------------------------------
# collision lower bounds


def verify_at_least_two(q: Sequence[float], alpha: float) -> ExperimentReport:
    """Chance of two or more of independent rare events, from below.

    Needs every probability at most alpha and their sum at most 1/8; the
    exact chance must then be at least (sum^2)/4 - 2*alpha*sum.
    """
    if not math.isfinite(alpha):  # 2 * inf * 0 is NaN
        raise UsageError("bad_parameter", f"alpha must be finite, got {alpha}")
    q = [float(v) for v in q]
    for v in q:
        if not 0.0 <= v <= 1.0:
            raise UsageError("bad_probability", f"event probability {v} outside [0, 1]")
    qbar = sum(q)
    precondition = all(v <= alpha + 1e-12 for v in q) and qbar <= 0.125 + 1e-12
    none = math.prod(1.0 - v for v in q)
    exactly_one = 0.0
    for i, v in enumerate(q):
        rest = math.prod(1.0 - w for j, w in enumerate(q) if j != i)
        exactly_one += v * rest
    measured = 1.0 - none - exactly_one
    bound = qbar * qbar / 4.0 - 2.0 * alpha * qbar
    return ExperimentReport(
        lemma_id="at-least-two",
        bound=bound,
        measured=measured,
        direction="ge",
        status="ok" if precondition else "precondition_violation",
        details={"qbar": qbar, "alpha": alpha, "events": len(q)},
    )


def verify_light_mass(p: Sequence[float], c: float) -> ExperimentReport:
    """High-entropy laws put mass on individually light outcomes.

    Needs c > 4/n and entropy at least c * log2(n); the mass of outcomes
    with probability at most n^(-c/2) must then reach c/8.
    """
    p = np.asarray(list(p), dtype=np.float64)
    n = p.size
    if n < 1 or not (p >= -1e-12).all() or not abs(p.sum() - 1.0) <= 1e-9:  # NaN fails too
        raise UsageError("bad_probability", "p must be a probability table")
    h = float(-(p[p > 0] * np.log2(p[p > 0])).sum())
    precondition = c > 4.0 / n and h >= c * math.log2(n) - TOL
    threshold = n ** (-c / 2.0)
    measured = float(p[p <= threshold].sum())
    bound = c / 8.0
    return ExperimentReport(
        lemma_id="light-mass",
        bound=bound,
        measured=measured,
        direction="ge",
        status="ok" if precondition else "precondition_violation",
        details={"entropy": h, "c": c, "n": n, "threshold": threshold},
    )


def verify_harper(
    outcome_set: OutcomeSet, radii: Sequence[float], budget: int = DEFAULT_STATE_BUDGET
) -> list:
    """Mass within distance k of a set against the concentration bound, for each k of `radii`.

    Both sides are computed exactly on the cube; the exponent uses base-2
    logs to match the bits convention used everywhere else.
    """
    if not len(outcome_set):
        raise UsageError("empty_set", "cannot verify on an empty set")
    if not all(k >= 0 for k in radii):
        raise UsageError("bad_radius", "negative or NaN radius")
    s = outcome_set.arity
    if s < 1 or outcome_set.alphabet < 2:
        raise UsageError("bad_parameter", "the harper bound needs arity >= 1 and alphabet >= 2")
    dist = cube_distances_to_set(outcome_set, budget=budget)
    n = dist.size
    within = np.bincount(dist, minlength=s + 1).cumsum().tolist()
    p_set = len(outcome_set) / n
    # each k as a float, capped at the largest: a radius past the float range squares to inf, so its bound is 1
    floats = [float(min(k, sys.float_info.max)) for k in radii]
    return [
        ExperimentReport(
            lemma_id="harper",
            bound=1.0 - math.exp(-(r * r) / (2.0 * s * math.log2(outcome_set.alphabet))) / p_set,
            measured=within[int(min(k, s))] / n,
            direction="ge",
            details={"set_mass": p_set, "k": k, "arity": s},
        )
        for k, r in zip(radii, floats)
    ]


def collision_ensemble_report(
    ensemble: IndependentEnsemble,
    trials: int = 100_000,
    seed: int = 0,
) -> ExperimentReport:
    """Collision chance of an independent ensemble, with its entropy profile.

    Exact when the ensemble has at most ENSEMBLE_EXACT_LIMIT variables,
    Monte-Carlo otherwise.  The report juxtaposes the measured chance with the qualitative
    high-entropy prediction 1 - exp(-delta^4 m^3 / n^2); no constant is
    asserted, so the pass flag only reflects a successful computation.
    """
    m, n = ensemble.m, ensemble.n
    entropies = ensemble.row_entropies()
    log2n = math.log2(n) if n >= 2 else 0.0
    delta = float(entropies.min() / (m * log2n)) if log2n > 0 else 0.0
    mode = "exact" if m <= ENSEMBLE_EXACT_LIMIT else "monte_carlo"
    measured = collision_probability(ensemble, mode=mode, trials=trials, seed=seed)
    sampled = mode == "monte_carlo"
    reference = 1.0 - math.exp(-(delta ** 4) * m ** 3 / (n * n)) if n else 0.0
    symbol_mass = ensemble.rows[:, :n]
    expected_stat = float(
        (symbol_mass.sum(axis=0) - (1.0 - np.prod(1.0 - symbol_mass, axis=0))).sum()
    )
    return ExperimentReport(
        lemma_id="ensemble-collision",
        bound=reference,
        measured=measured,
        direction=None,
        mode=mode,
        trials=trials if sampled else None,
        seed=seed if sampled else None,
        details={
            "delta": delta,
            "min_row_entropy": float(entropies.min()),
            "joint_entropy": float(entropies.sum()),
            "expected_collision_stat": expected_stat,
            "qualitative_reference_only": True,
        },
    )


def verify_collision_tv(forest: DecisionForest, budget: int = DEFAULT_STATE_BUDGET) -> ExperimentReport:
    """Collision-or-blank mass never exceeds the exact TV distance to the uniform deck.

    With at most n output symbols on n output cells, a row fails to be a
    permutation exactly when it repeats a symbol or holds a blank, so
    measured = bound + the sum of (p - 1/n!)+ over the permutation rows.
    """
    n = forest.output_space.cells
    if forest.output_space.alphabet > n:
        raise UsageError("mismatched_spaces", "output alphabet exceeds the deck size")
    law = output_distribution(forest, budget=budget)
    lower = tv_lower_bound_via_collision(law)
    measured = _tv_to_uniform_perm(law)
    return ExperimentReport(
        lemma_id="collision-tv",
        bound=lower,
        measured=measured,
        direction="ge",
        details={"n": n},
    )


# ---------------------------------------------------------------------------
# structural experiments


@dataclass(frozen=True)
class DepthReductionReport:
    """First move of the flattening argument on a forest.

    Trees are grouped by their first probe; a random group selection I is
    drawn, the selected subforest is pruned on deeper probes into I, and the
    entropy cost of the pruning is measured.
    """

    alpha: float
    seed: int
    selected_cells: tuple
    tree_indices: tuple = ()
    subforest: DecisionForest | None = None
    pruned: DecisionForest | None = None
    h_selected: float = 0.0
    h_pruned: float = 0.0
    expected_extra_queries: float = 0.0
    expected_blank_outputs: float = 0.0


def _expected_blanks(forest: DecisionForest) -> float:
    bot = forest.output_space.bot
    return 0.0 if bot is None else _leaf_mass(forest, bot)


def depth_reduction_step(
    forest: DecisionForest, alpha: float, seed: int, budget: int = DEFAULT_STATE_BUDGET
) -> DepthReductionReport:
    """Group trees by first probe, select groups, prune deeper re-probes."""
    if forest.depth < 2:
        raise UsageError("too_shallow", "depth reduction needs depth at least 2")
    if not 0.0 <= alpha <= 1.0:
        raise UsageError("bad_parameter", "alpha must sit in [0, 1]")
    rows = forest._table.rows
    groups: dict = {}
    for ti, root in enumerate(forest._table.roots):
        if rows[root][0] >= 0:
            groups.setdefault(rows[root][0], []).append(ti)
    rng = random.Random(seed)
    selected = tuple(c for c in sorted(groups) if rng.random() < alpha)
    indices = tuple(ti for c in selected for ti in groups[c])
    if not indices:
        return DepthReductionReport(alpha=alpha, seed=seed, selected_cells=selected)
    indices = tuple(sorted(indices))
    sub_out = OutputSpace(
        len(indices), forest.output_space.alphabet, forest.output_space.bot_allowed
    )
    subforest = _copy_table(forest, sub_out, lambda row, depth: rows[row], indices)
    pruned = prune_on_query_set(subforest, selected, exempt_first_query=True)
    extra = _deep_probe_mass(subforest, set(selected))
    return DepthReductionReport(
        alpha=alpha,
        seed=seed,
        selected_cells=selected,
        tree_indices=indices,
        subforest=subforest,
        pruned=pruned,
        h_selected=entropy(output_distribution(subforest, budget=budget)),
        h_pruned=entropy(output_distribution(pruned, budget=budget)),
        expected_extra_queries=extra,
        expected_blank_outputs=_expected_blanks(pruned) - _expected_blanks(subforest),
    )


def bucketed_dichotomy_experiment(
    forest: DecisionForest,
    buckets: BucketStructure,
    entropy_threshold: float,
    seed: int = 0,
    betas: int = 1,
    budget: int = DEFAULT_STATE_BUDGET,
) -> ExperimentReport:
    """Either contain a low-entropy output law or isolate one probe level.

    Below the threshold the containment construction is reported.  Above
    it, the level whose leave-it-free conditional entropy is largest is
    kept, every other level is fixed to sampled values, and the resulting
    depth-1 forests are summarized by entropy and collision chance.
    """
    if betas < 0:
        raise UsageError("bad_parameter", f"betas must be nonnegative, got {betas}")
    _check_seed_steps(betas, "dichotomy betas")
    if not is_bucketed(forest, buckets):
        raise UsageError("not_bucketed", "forest does not respect the bucket structure")
    dist = output_distribution(forest, budget=budget)
    h = entropy(dist)
    if h <= entropy_threshold + TOL:
        container, inner = containment_set(dist, entropy_threshold)
        details = {**inner.details, "branch": "containment", "container_size": len(container)}
        return replace(inner, lemma_id="bucketed-dichotomy", seed=seed, details=details)
    lam = forest.input_space.alphabet
    # the output entropy given every cell outside each block, from the law grouped by those cells; a sample
    # depends only on (seed, b) and those cells, so its group is drawn before the walk and kept as it passes
    conditionals = []
    for block in buckets.buckets:
        outside = [c for c in range(forest.input_space.cells) if c not in block]
        draws = [random.Random(derive_seed(seed, b)) for b in range(betas)]
        assignments = [{c: rng.randrange(lam) for c in outside} for rng in draws]
        wanted = [sum(a[c] * lam**rank for rank, c in enumerate(outside)) for a in assignments]
        entropies, kept = [], {}
        for keys, counts, group in _cube_groups(forest, budget, tuple(outside)):
            entropies.append(_group_entropies(counts, group))
            for index in {i for i in wanted if group[0] <= i <= group[-1]}:
                start, stop = np.searchsorted(group, (index, index + 1))
                kept[index] = keys[start:stop].copy(), counts[start:stop].copy()
        conditionals.append(float(np.concatenate(entropies).mean()))
        if conditionals[-1] > max(conditionals[:-1], default=-math.inf):
            best, others, chosen = len(conditionals) - 1, outside, [(a, kept[i]) for a, i in zip(assignments, wanted)]
    samples = []
    for assignment, (keys, counts) in chosen:
        restricted = Distribution._from_counts(_key_rows(forest, keys), counts, dist.bot)
        samples.append({
            "assignment": [[c, assignment[c]] for c in others],
            "entropy": entropy(restricted),
            "collision_probability": _collision_mass(restricted, count_bot=False),
        })
    return ExperimentReport(
        lemma_id="bucketed-dichotomy",
        bound=entropy_threshold,
        measured=h,
        direction=None,
        seed=seed,
        details={
            "branch": "collision",
            "bucket": best,
            "conditional_entropies": conditionals,
            "samples": samples,
        },
    )


# ---------------------------------------------------------------------------
# numeric facts


def verify_taylor_bound() -> ExperimentReport:
    """(1-x)^n against its second-order expansion on a dense grid of x in (0, 1) and n in [2, 64]."""
    xs = np.linspace(0.005, 0.995, 199)
    ns = range(2, 65)
    worst = -math.inf
    for n in ns:
        lhs = (1.0 - xs) ** n
        rhs = 1.0 - n * xs + (n * xs) ** 2 / 2.0
        worst = max(worst, float((lhs - rhs).max()))
    return ExperimentReport(
        lemma_id="taylor-bound",
        bound=0.0,
        measured=worst,
        direction="le",
        tolerance=1e-12,
        details={"grid": len(xs), "max_n": max(ns)},
    )


def verify_sum_ratio_bound(a: Sequence[float], b: Sequence[float]) -> ExperimentReport:
    """Sum of ratios against the squared-sum lower bound."""
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.shape != b.shape or a.size == 0:
        raise UsageError("bad_parameter", "need equal-length nonempty vectors")
    if not (np.isfinite(a) & (a >= 0)).all() or not (np.isfinite(b) & (b > 0)).all():
        raise UsageError("bad_parameter", "need finite nonnegative a and finite positive b")
    with np.errstate(over="ignore"):  # an overflowing sum comes out inf and is refused below
        measured = float((a / b).sum())
        weighted = float((a * b).sum())
        total = float(a.sum())
    if not all(math.isfinite(v) for v in (measured, weighted, total * total)):
        raise UsageError("bad_parameter", "the sums of a and b overflow the float range")
    scale = 1.0
    if total > 0 and weighted < sys.float_info.min:  # a * b underflowed: sum a and b scaled to a largest term of 1
        scale = float(a.max() / b.max())
        a, b = a / a.max(), b / b.max()
        total, weighted = float(a.sum()), float((a * b).sum())
        if weighted == 0.0:
            raise UsageError("bad_parameter", "the sum of a * b underflows the float range")
    bound = total ** 2 / weighted * scale if weighted > 0 else 0.0
    return ExperimentReport(
        lemma_id="sum-ratio",
        bound=bound,
        measured=measured,
        direction="ge",
        details={"terms": int(a.size)},
    )
