"""Verifiers and experiments for the smoothness, entropy, and collision bounds.

Every `verify_*` routine measures one inequality on a concrete instance and
returns an ExperimentReport; claim preconditions that fail are reported with
a distinct status rather than raised, so corpus sweeps can count guard hits.
Exact modes enumerate, Monte-Carlo modes record their trial count and seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .analysis import (
    ENSEMBLE_EXACT_LIMIT,
    Distribution,
    IndependentEnsemble,
    OutcomeSet,
    collision_probability,
    conditional_entropy_detail,
    cube_distances_to_set,
    derive_seed,
    entropy,
    hoeffding_halfwidth,
    output_distribution,
    tv_distance,
    tv_lower_bound_via_collision,
)
from .forest import (
    DEFAULT_STATE_BUDGET,
    BucketStructure,
    DecisionForest,
    DecisionTree,
    InputSpace,
    Internal,
    Leaf,
    Node,
    OutputSpace,
    UsageError,
    _deep_probe_mass,
    _leaf_labels,
    _leaf_mass,
    eval_forest_on_cube,
    expected_query_counts,
    is_bucketed,
    prune_on_query_set,
    query_counts_on_cube,
    restrict,
)
from .report import ExperimentReport
from .samplers import uniform_perm_distribution

TOL = 1e-9

DEFAULT_EPSILONS = (0.5, 0.25, 0.125)


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
    members = [x for x, p in dist.probs.items() if p >= threshold]
    mass = sum(dist.probs[x] for x in members)
    h = entropy(dist)
    size_bound = 2.0 ** (2.0 * k)
    size_ok = len(members) <= size_bound + TOL
    entropy_applies = h <= k + TOL
    mass_ok = mass >= 0.5 - TOL if entropy_applies else True
    alphabet = 1 + max((max(x) for x in dist.probs if x), default=0)
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
        passed=bool(size_ok and mass_ok),
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


def verify_mixture_bound(
    dist: Distribution, sigma: int, bot: int | None = None
) -> ExperimentReport:
    """Entropy of a mostly-blank tuple law, against the support-counting cap.

    The cap is log2(m+1) plus the expected number of non-blank coordinates
    times log2(m * sigma).
    """
    if sigma < 1:
        raise UsageError("bad_parameter", "output alphabet must be positive")
    if bot is None:
        bot = dist.bot
    m = dist.arity
    expected_filled = 0.0
    for outcome, p in dist.probs.items():
        filled = sum(1 for sym in outcome if bot is None or sym != bot)
        expected_filled += p * filled
    bound = math.log2(m + 1) + expected_filled * math.log2(m * sigma)
    measured = entropy(dist)
    return ExperimentReport(
        lemma_id="mixture-bound",
        bound=bound,
        measured=measured,
        passed=measured <= bound + TOL,
        details={"expected_filled": expected_filled, "arity": m, "sigma": sigma},
    )


def _complement_cells(total: int, block: Iterable[int]) -> list:
    block = set(block)
    return [c for c in range(total) if c not in block]


def verify_chain_bound(forest: DecisionForest, buckets: BucketStructure) -> ExperimentReport:
    """Output entropy against the sum of leave-one-block-out conditionals."""
    s = forest.input_space.cells
    if buckets.cells != s:
        raise UsageError("bad_buckets", "partition does not cover the input cells")
    measured = entropy(output_distribution(forest))
    terms = []
    for block in buckets.buckets:
        detail = conditional_entropy_detail(forest, _complement_cells(s, block))
        terms.append(detail.value)
    bound = float(sum(terms))
    return ExperimentReport(
        lemma_id="chain-bound",
        bound=bound,
        measured=measured,
        passed=measured <= bound + TOL,
        details={"terms": terms, "blocks": [list(b) for b in buckets.buckets]},
    )


def verify_entropy_deviation(forest: DecisionForest, cell: int) -> ExperimentReport:
    """How far fixing one cell can move the output entropy.

    The cap combines the blank-mixture bound with the expected number of
    probes the forest sends to the fixed cell.
    """
    if not 0 <= cell < forest.input_space.cells:
        raise UsageError("bad_cells", f"cell {cell} outside the input space")
    lam = forest.input_space.alphabet
    m = forest.output_space.cells
    sigma = forest.output_space.alphabet
    h = entropy(output_distribution(forest))
    deviation = 0.0
    per_value = []
    for v in range(lam):
        hv = entropy(output_distribution(restrict(forest, {cell: v})))
        per_value.append(hv)
        deviation = max(deviation, abs(hv - h))
    ec = float(expected_query_counts(forest)[cell])
    bound = math.log2(m + 1) + ec * math.log2(m * sigma)
    return ExperimentReport(
        lemma_id="entropy-deviation",
        bound=bound,
        measured=deviation,
        passed=deviation <= bound + TOL,
        details={"entropy": h, "per_value": per_value, "expected_probes": ec, "cell": cell},
    )


# ---------------------------------------------------------------------------
# probe-count tails


def verify_second_moment_tail(
    forest: DecisionForest,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    budget: int = DEFAULT_STATE_BUDGET,
) -> ExperimentReport:
    """Tail of the output sum of a 0/1 forest at the second-moment threshold.

    With kappa the expected sum, d the depth, and mu the largest expected
    probe count of any cell, the mass strictly above 2(kappa +
    log2(1/eps) * d * mu) must be at most eps for each requested eps.
    """
    if forest.output_space.bot_allowed:
        raise UsageError("bad_leaf", "tail bound needs blank-free outputs")
    if _leaf_labels(forest) - {0, 1}:
        raise UsageError("bad_leaf", "tail bound needs 0/1 leaf values")
    rows = eval_forest_on_cube(forest, budget=budget)
    totals = rows.sum(axis=1, dtype=np.int64)
    kappa = float(totals.mean())
    mu = float(expected_query_counts(forest).max())
    d = forest.depth
    cases = []
    worst = -math.inf
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise UsageError("bad_parameter", f"eps {eps} outside (0, 1)")
        threshold = 2.0 * (kappa + math.log2(1.0 / eps) * d * mu)
        tail = float((totals > threshold).mean())
        cases.append({"eps": eps, "threshold": threshold, "tail": tail})
        worst = max(worst, tail - eps)
    return ExperimentReport(
        lemma_id="second-moment-tail",
        bound=0.0,
        measured=worst,
        passed=worst <= TOL,
        details={"kappa": kappa, "mu": mu, "depth": d, "cases": cases},
    )


def verify_avg_to_tail_lipschitz(
    forest: DecisionForest,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    budget: int = DEFAULT_STATE_BUDGET,
) -> ExperimentReport:
    """Average probe smoothness implies a probe-count tail bound.

    For mu the exact largest expected probe count, the chance any cell is
    probed more than 3 * mu * depth^2 * log2(1/eps) times is at most eps.
    """
    ec = expected_query_counts(forest)
    mu = float(ec.max())
    d = forest.depth
    counts, order = query_counts_on_cube(forest, budget=budget)
    cases = []
    worst = -math.inf
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise UsageError("bad_parameter", f"eps {eps} outside (0, 1)")
        threshold = 3.0 * mu * d * d * math.log2(1.0 / eps)
        if counts.size:
            tail = float((counts > threshold).mean(axis=0).max())
        else:
            tail = 0.0
        cases.append({"eps": eps, "threshold": threshold, "tail": tail})
        worst = max(worst, tail - eps)
    return ExperimentReport(
        lemma_id="avg-to-tail-lipschitz",
        bound=0.0,
        measured=worst,
        passed=worst <= TOL,
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

    steps: tuple
    final_forest: DecisionForest
    success: bool
    budget: int
    mu: float
    eps: float
    seed: int


def enforce_avg_lipschitz(
    forest: DecisionForest, mu: float, eps: float, seed: int
) -> RestrictionTrace:
    """Fix the heaviest cell to a fresh uniform value until smooth.

    The walk stops with success once every expected probe count is at most
    mu, and with failure once the depth budget 2 * cells * depth / mu *
    log2(1/eps) is exhausted.  Ties pick the lowest cell index.
    """
    if mu <= 0:
        raise UsageError("bad_parameter", "mu must be positive")
    if not 0.0 < eps < 1.0:
        raise UsageError("bad_parameter", "eps must sit in (0, 1)")
    s = forest.input_space.cells
    d = forest.depth
    budget = int(math.floor(2.0 * s * d / mu * math.log2(1.0 / eps)))
    rng = random.Random(seed)
    lam = forest.input_space.alphabet
    current = forest
    steps = []
    while True:
        ec = expected_query_counts(current)
        heaviest = int(np.argmax(ec))
        if float(ec[heaviest]) <= mu + 1e-12:
            success = True
            break
        if len(steps) >= budget:
            success = False
            break
        value = rng.randrange(lam)
        steps.append((heaviest, value, float(ec[heaviest])))
        current = restrict(current, {heaviest: value})
    return RestrictionTrace(
        steps=tuple(steps),
        final_forest=current,
        success=success,
        budget=budget,
        mu=float(mu),
        eps=float(eps),
        seed=seed,
    )


def _max_tail(forest: DecisionForest, mu: float, budget: int) -> float:
    counts, _ = query_counts_on_cube(forest, budget=budget)
    if not counts.size:
        return 0.0
    return float((counts > mu).mean(axis=0).max())


def default_restriction_sampler(forest: DecisionForest, subset_size: int) -> Callable:
    """Uniform values on a per-trial random subset of the cells."""
    s = forest.input_space.cells
    lam = forest.input_space.alphabet

    def draw(rng: random.Random) -> dict:
        cells = rng.sample(range(s), subset_size)
        return {c: rng.randrange(lam) for c in sorted(cells)}

    return draw


def verify_lipschitz_after_conditioning(
    forest: DecisionForest,
    mu: float,
    delta: float,
    trials: int = 10_000,
    seed: int = 0,
    subset_size: int | None = None,
    sampler: Callable | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> ExperimentReport:
    """Tail smoothness should survive conditioning, up to a square root.

    The forest must be (mu, delta)-tail-smooth exactly.  Random restrictions
    are then drawn and each restricted forest is tested exactly against the
    (mu, sqrt(delta)) tail; the failure fraction is compared with
    sqrt(delta) plus one Monte-Carlo half-width.
    """
    if not 0.0 <= delta <= 1.0:
        raise UsageError("bad_parameter", "delta must sit in [0, 1]")
    base_tail = _max_tail(forest, mu, budget)
    if base_tail > delta + 1e-12:
        raise UsageError(
            "precondition",
            f"forest tail {base_tail:.6g} exceeds delta {delta:.6g} before conditioning",
        )
    sqrt_delta = math.sqrt(delta)
    if sampler is None:
        size = subset_size if subset_size is not None else max(1, forest.input_space.cells // 2)
        sampler = default_restriction_sampler(forest, size)
    failures = 0
    for t in range(trials):
        rng = random.Random(derive_seed(seed, t))
        assignment = sampler(rng)
        restricted = restrict(forest, assignment)
        if _max_tail(restricted, mu, budget) > sqrt_delta + 1e-12:
            failures += 1
    halfwidth = hoeffding_halfwidth(trials)
    measured = failures / trials
    bound = sqrt_delta + halfwidth
    return ExperimentReport(
        lemma_id="lipschitz-restriction",
        bound=bound,
        measured=measured,
        passed=measured <= bound + TOL,
        mode="monte_carlo",
        trials=trials,
        seed=seed,
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


def _annotate_acceptance(node: Node, depth: int, s: int, lam: int):
    """Attach to every node the count of accepting completions below it."""
    if isinstance(node, Leaf):
        if node.value not in (0, 1):
            raise UsageError("bad_leaf", "coupling needs 0/1 leaf values")
        return (node, node.value * lam ** (s - depth), ())
    kids = tuple(_annotate_acceptance(c, depth + 1, s, lam) for c in node.children)
    return (node, sum(k[1] for k in kids), kids)


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


def couple_accepting(
    tree: DecisionTree,
    space: InputSpace,
    mode: str = "sample",
    seed: int = 0,
    calibration: float = 2.0,
):
    """Transform a uniform input into a uniform accepted input, step by step.

    The walk follows the tree; at each probe the observed symbol is coupled
    optimally with the symbol law of a uniform accepting input that reaches
    the node, and the walk continues along the coupled value.  Sample mode
    returns one CouplingSample.  Exact mode checks, by recursion and without
    sampling, that the transformed marginal is the uniform accepting law and
    that the expected number of changed coordinates stays below
    calibration * sqrt(depth * ln(1/acceptance)).
    """
    lam = space.alphabet
    s = space.cells
    root = _annotate_acceptance(tree.root, 0, s, lam)
    total = root[1]
    if total == 0:
        raise UsageError("zero_acceptance", "the tree accepts nothing")
    acceptance = Fraction(total, lam ** s)

    if mode == "sample":
        rng = random.Random(seed)
        x = tuple(rng.randrange(lam) for _ in range(s))
        y = list(x)
        node, count, kids = root
        while not isinstance(node, Leaf):
            table = _optimal_symbol_coupling(lam, [k[1] for k in kids], count)
            a = x[node.query]
            row = table[a]
            support = [cand for cand in range(lam) if row[cand] > 0]
            r = rng.random() / lam  # row sums to p_a = 1/lam
            b = support[-1]
            acc = 0.0
            for cand in support:
                acc += float(row[cand])
                if r < acc:
                    b = cand
                    break
            y[node.query] = b
            node, count, kids = kids[b]
        changed = sum(1 for i in range(s) if x[i] != y[i])
        return CouplingSample(x=x, y=tuple(y), dist=changed)

    if mode != "exact_report":
        raise UsageError("bad_mode", f"unknown coupling mode {mode!r}")
    depth = DecisionForest(space, OutputSpace(1, 2), (tree,)).depth
    expected_changes = Fraction(0)
    tv_gap = Fraction(0)

    def walk(annotated, reach: Fraction, depth_here: int):
        nonlocal expected_changes, tv_gap
        node, count, kids = annotated
        if isinstance(node, Leaf):
            target = Fraction(count, total)
            tv_gap += abs(reach - target)
            return
        table = _optimal_symbol_coupling(lam, [k[1] for k in kids], count)
        stay = sum(table[a][a] for a in range(lam))
        expected_changes += reach * (1 - stay)
        for b in range(lam):
            mass = sum(table[a][b] for a in range(lam))
            if mass:
                walk(kids[b], reach * mass, depth_here + 1)

    walk(root, Fraction(1), 0)
    bound = calibration * math.sqrt(depth * math.log(1.0 / float(acceptance))) if total else 0.0
    measured = float(expected_changes)
    tv = 0.5 * float(tv_gap)
    passed = tv <= TOL and measured <= bound + TOL
    return ExperimentReport(
        lemma_id="coupling",
        bound=bound,
        measured=measured,
        passed=passed,
        details={
            "marginal_tv": tv,
            "acceptance": float(acceptance),
            "depth": depth,
            "calibration": calibration,
        },
    )


def sample_coupling_distance(
    tree: DecisionTree, space: InputSpace, trials: int, seed: int
) -> tuple:
    """Mean changed-coordinate count over seeded coupling samples."""
    dists = [
        couple_accepting(tree, space, mode="sample", seed=derive_seed(seed, t)).dist
        for t in range(trials)
    ]
    return float(np.mean(dists)), dists


# ---------------------------------------------------------------------------
# collision lower bounds


def verify_at_least_two(q: Sequence[float], alpha: float) -> ExperimentReport:
    """Chance of two or more of independent rare events, from below.

    Needs every probability at most alpha and their sum at most 1/8; the
    exact chance must then be at least (sum^2)/4 - 2*alpha*sum.
    """
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
        passed=bool(precondition and measured >= bound - TOL),
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
    if n < 1 or (p < -1e-12).any() or abs(p.sum() - 1.0) > 1e-9:
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
        passed=bool(precondition and measured >= bound - TOL),
        status="ok" if precondition else "precondition_violation",
        details={"entropy": h, "c": c, "n": n, "threshold": threshold},
    )


def verify_harper(
    outcome_set: OutcomeSet, k: int, budget: int = DEFAULT_STATE_BUDGET
) -> ExperimentReport:
    """Mass within distance k of a set, against the concentration bound.

    Both sides are computed exactly on the cube; the exponent uses base-2
    logs to match the bits convention used everywhere else.
    """
    if not outcome_set.members:
        raise UsageError("empty_set", "cannot verify on an empty set")
    if k < 0:
        raise UsageError("bad_radius", "negative radius")
    dist = cube_distances_to_set(outcome_set, budget=budget)
    n = dist.size
    p_set = len(outcome_set) / n
    measured = float((dist <= k).mean())
    exponent = -(k * k) / (2.0 * outcome_set.arity * math.log2(outcome_set.alphabet))
    bound = 1.0 - math.exp(exponent) / p_set
    return ExperimentReport(
        lemma_id="harper",
        bound=bound,
        measured=measured,
        passed=measured >= bound - TOL,
        details={"set_mass": p_set, "k": k, "arity": outcome_set.arity},
    )


def collision_ensemble_report(
    ensemble: IndependentEnsemble,
    mode: str = "auto",
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
    if mode == "auto":
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
        passed=True,
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
    """Collision-or-blank mass never exceeds the distance to uniform shuffles.

    The forest must have as many output cells as output symbols; the exact
    chance of a repeated or blank output is compared with the exact total
    variation distance to the uniform permutation law.
    """
    n = forest.output_space.cells
    lower = tv_lower_bound_via_collision(forest, n=n, budget=budget)
    measured = tv_distance(output_distribution(forest, budget=budget), uniform_perm_distribution(n))
    return ExperimentReport(
        lemma_id="collision-tv",
        bound=lower,
        measured=measured,
        passed=measured >= lower - TOL,
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
    tree_indices: tuple
    subforest: DecisionForest | None
    pruned: DecisionForest | None
    h_selected: float
    h_pruned: float
    expected_extra_queries: float
    expected_blank_outputs: float


def _expected_blanks(forest: DecisionForest) -> float:
    bot = forest.output_space.bot
    return 0.0 if bot is None else _leaf_mass(forest, bot)


def depth_reduction_step(
    forest: DecisionForest, alpha: float, seed: int
) -> DepthReductionReport:
    """Group trees by first probe, select groups, prune deeper re-probes."""
    if forest.depth < 2:
        raise UsageError("too_shallow", "depth reduction needs depth at least 2")
    if not 0.0 <= alpha <= 1.0:
        raise UsageError("bad_parameter", "alpha must sit in [0, 1]")
    groups: dict = {}
    for ti, tree in enumerate(forest.trees):
        if isinstance(tree.root, Internal):
            groups.setdefault(tree.root.query, []).append(ti)
    rng = random.Random(seed)
    selected = tuple(c for c in sorted(groups) if rng.random() < alpha)
    indices = tuple(ti for c in selected for ti in groups[c])
    if not indices:
        return DepthReductionReport(
            alpha=alpha,
            seed=seed,
            selected_cells=selected,
            tree_indices=(),
            subforest=None,
            pruned=None,
            h_selected=0.0,
            h_pruned=0.0,
            expected_extra_queries=0.0,
            expected_blank_outputs=0.0,
        )
    indices = tuple(sorted(indices))
    sub_out = OutputSpace(
        len(indices), forest.output_space.alphabet, forest.output_space.bot_allowed
    )
    subforest = DecisionForest(
        forest.input_space, sub_out, tuple(forest.trees[ti] for ti in indices)
    )
    pruned = prune_on_query_set(subforest, selected, exempt_first_query=True)
    extra = _deep_probe_mass(subforest, set(selected))
    return DepthReductionReport(
        alpha=alpha,
        seed=seed,
        selected_cells=selected,
        tree_indices=indices,
        subforest=subforest,
        pruned=pruned,
        h_selected=entropy(output_distribution(subforest)),
        h_pruned=entropy(output_distribution(pruned)),
        expected_extra_queries=extra,
        expected_blank_outputs=_expected_blanks(pruned) - _expected_blanks(subforest),
    )


def bucketed_dichotomy_experiment(
    forest: DecisionForest,
    buckets: BucketStructure,
    entropy_threshold: float,
    seed: int = 0,
    betas: int = 1,
) -> ExperimentReport:
    """Either contain a low-entropy output law or isolate one probe level.

    Below the threshold the containment construction is reported.  Above
    it, the level whose leave-it-free conditional entropy is largest is
    kept, every other level is fixed to sampled values, and the resulting
    depth-1 forests are summarized by entropy and collision chance.
    """
    if not is_bucketed(forest, buckets):
        raise UsageError("not_bucketed", "forest does not respect the bucket structure")
    dist = output_distribution(forest)
    h = entropy(dist)
    if h <= entropy_threshold + TOL:
        container, inner = containment_set(dist, entropy_threshold)
        details = dict(inner.details)
        details.update({"branch": "containment", "container_size": len(container)})
        return ExperimentReport(
            lemma_id="bucketed-dichotomy",
            bound=inner.bound,
            measured=inner.measured,
            passed=inner.passed,
            seed=seed,
            details=details,
        )
    s = forest.input_space.cells
    lam = forest.input_space.alphabet
    conditionals = []
    for block in buckets.buckets:
        detail = conditional_entropy_detail(forest, _complement_cells(s, block))
        conditionals.append(detail.value)
    best = 0
    for i in range(1, len(conditionals)):
        if conditionals[i] > conditionals[best]:
            best = i
    keep = set(buckets.buckets[best])
    others = [c for c in range(s) if c not in keep]
    samples = []
    for b in range(betas):
        rng = random.Random(derive_seed(seed, b))
        assignment = {c: rng.randrange(lam) for c in others}
        restricted = restrict(forest, assignment)
        samples.append(
            {
                "assignment": [[c, assignment[c]] for c in others],
                "entropy": entropy(output_distribution(restricted)),
                "collision_probability": collision_probability(restricted, mode="exact"),
            }
        )
    return ExperimentReport(
        lemma_id="bucketed-dichotomy",
        bound=entropy_threshold,
        measured=h,
        passed=True,
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


def verify_taylor_bound(
    xs: Sequence[float] | None = None, ns: Sequence[int] | None = None
) -> ExperimentReport:
    """(1-x)^n against its second-order expansion on a dense grid."""
    if xs is None:
        xs = np.linspace(0.005, 0.995, 199)
    if ns is None:
        ns = range(2, 65)
    xs = np.asarray(xs, dtype=np.float64)
    if ((xs <= 0) | (xs >= 1)).any():
        raise UsageError("bad_parameter", "grid points must sit strictly inside (0, 1)")
    worst = -math.inf
    for n in ns:
        lhs = (1.0 - xs) ** n
        rhs = 1.0 - n * xs + (n * xs) ** 2 / 2.0
        worst = max(worst, float((lhs - rhs).max()))
    return ExperimentReport(
        lemma_id="taylor-bound",
        bound=0.0,
        measured=worst,
        passed=worst <= 1e-12,
        tolerance=1e-12,
        details={"grid": len(xs), "max_n": max(ns)},
    )


def verify_sum_ratio_bound(a: Sequence[float], b: Sequence[float]) -> ExperimentReport:
    """Sum of ratios against the squared-sum lower bound."""
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.shape != b.shape or a.size == 0:
        raise UsageError("bad_parameter", "need equal-length nonempty vectors")
    if (a < 0).any() or (b <= 0).any():
        raise UsageError("bad_parameter", "need nonnegative a and positive b")
    measured = float((a / b).sum())
    weighted = float((a * b).sum())
    bound = float(a.sum()) ** 2 / weighted if weighted > 0 else 0.0
    return ExperimentReport(
        lemma_id="sum-ratio",
        bound=bound,
        measured=measured,
        passed=measured >= bound - TOL,
        details={"terms": int(a.size)},
    )
