"""Standard seeded instance families for the verification sweep.

Each family is a deterministic generator of (instance_id, ExperimentReport)
pairs; each family's default seed is fixed so that sweep ledgers reproduce
byte for byte.  Helpers that expose the raw instances (forests, parameter
choices) are provided where the test suite re-runs an operation many times
per instance.
"""
from __future__ import annotations

import inspect
import math
import random
from typing import Iterator

import numpy as np

from .analysis import (
    Distribution,
    IndependentEnsemble,
    OutcomeSet,
    derive_seed,
    entropy,
    hoeffding_halfwidth,
    uniform_ensemble,
)
from .forest import (
    BucketStructure,
    DecisionForest,
    DecisionTree,
    InputSpace,
    Internal,
    Leaf,
    OutputSpace,
    _leaf_mass,
    query_profile,
)
from .harness import (
    collision_ensemble_report,
    containment_set,
    couple_accepting,
    enforce_avg_lipschitz,
    verify_at_least_two,
    verify_avg_to_tail_lipschitz,
    verify_chain_bound,
    verify_collision_tv,
    verify_entropy_deviation,
    verify_harper,
    verify_light_mass,
    verify_lipschitz_after_conditioning,
    verify_mixture_bound,
    verify_second_moment_tail,
    verify_sum_ratio_bound,
    verify_taylor_bound,
)
from .report import ExperimentReport
from .samplers import ForestGenSpec, random_forest


# ---------------------------------------------------------------------------
# instance builders


def _weights(rng: random.Random, count: int, skew: float) -> list:
    w = [rng.random() ** skew + 1e-12 for _ in range(count)]
    total = sum(w)
    return [v / total for v in w]


def _random_distribution(
    rng: random.Random, arity: int, alphabet: int, bot: int | None = None, blank_bias: float = 0.0
) -> Distribution:
    symbols = list(range(alphabet))
    base = alphabet + (1 if bot is not None and blank_bias > 0.0 else 0)
    support = set()
    target = rng.randint(1, min(12, base ** arity))
    while len(support) < target:
        outcome = []
        for _ in range(arity):
            if bot is not None and rng.random() < blank_bias:
                outcome.append(bot)
            else:
                outcome.append(rng.choice(symbols))
        support.add(tuple(outcome))
    support = sorted(support)
    probs = dict(zip(support, _weights(rng, len(support), rng.uniform(0.5, 6.0))))
    return Distribution(probs, arity, bot=bot)


def _random_forest_instance(
    rng: random.Random,
    s_max: int = 5,
    m_max: int = 4,
    depth_max: int = 3,
    out_alphabet: int | None = None,
    out_cells: int | None = None,
    s_min: int = 2,
) -> DecisionForest:
    s = rng.randint(s_min, s_max)
    lam = rng.randint(2, 3)
    m = out_cells if out_cells is not None else rng.randint(1, m_max)
    sigma = out_alphabet if out_alphabet is not None else rng.randint(2, 3)
    depth = rng.randint(1, min(depth_max, s))
    spec = ForestGenSpec(
        cells=s,
        alphabet=lam,
        out_cells=m,
        out_alphabet=sigma,
        depth=depth,
        seed=rng.randrange(2**31),
        stop_prob=rng.choice([0.2, 0.35, 0.5]),
    )
    return random_forest(spec)


def _random_partition(rng: random.Random, cells: int) -> tuple:
    order = list(range(cells))
    rng.shuffle(order)
    blocks = rng.randint(1, min(3, cells))
    cuts = sorted(rng.sample(range(1, cells), blocks - 1)) if blocks > 1 else []
    bounds = [0] + cuts + [cells]
    return tuple(tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:]))


def _random_accepting_tree(rng: random.Random, cells: int, depth: int) -> DecisionTree:
    def build(level: int, used: frozenset):
        open_cells = [c for c in range(cells) if c not in used]
        if level >= depth or not open_cells or (level > 0 and rng.random() < 0.25):
            return Leaf(1 if rng.random() < 0.7 else 0)
        cell = rng.choice(open_cells)
        kids = tuple(build(level + 1, used | {cell}) for _ in range(2))
        return Internal(cell, kids)

    return DecisionTree(build(0, frozenset()))


# ---------------------------------------------------------------------------
# report families


def containment_family(count: int = 500, seed: int = 11) -> Iterator[tuple]:
    rng = random.Random(seed)
    for i in range(count):
        arity = rng.randint(1, 3)
        alphabet = rng.randint(2, 4)
        if i % 50 == 0:
            point = tuple(rng.randrange(alphabet) for _ in range(arity))
            dist = Distribution({point: 1.0}, arity)
        else:
            dist = _random_distribution(rng, arity, alphabet)
        k = entropy(dist)
        _, report = containment_set(dist, k)
        yield f"containment-{i:04d}", report


def mixture_family(count: int = 200, seed: int = 13) -> Iterator[tuple]:
    rng = random.Random(seed)
    for i in range(count):
        arity = rng.randint(1, 4)
        sigma = rng.randint(1, 3)
        dist = _random_distribution(rng, arity, sigma, bot=sigma, blank_bias=rng.uniform(0.4, 0.9))
        yield f"mixture-{i:04d}", verify_mixture_bound(dist, sigma)


def chain_family(count: int = 120, seed: int = 17) -> Iterator[tuple]:
    rng = random.Random(seed)
    for i in range(count):
        forest = _random_forest_instance(rng)
        partition = BucketStructure(_random_partition(rng, forest.input_space.cells))
        yield f"chain-{i:04d}", verify_chain_bound(forest, partition)


def entropy_deviation_family(count: int = 200, seed: int = 19) -> Iterator[tuple]:
    rng = random.Random(seed)
    for i in range(count):
        forest = _random_forest_instance(rng)
        cells = range(forest.input_space.cells)
        for cell, report in zip(cells, verify_entropy_deviation(forest, cells)):
            yield f"entropy-deviation-{i:04d}-c{cell}", report


def second_moment_family(count: int = 100, seed: int = 23) -> Iterator[tuple]:
    rng = random.Random(seed)
    for i in range(count):
        forest = _random_forest_instance(rng, m_max=5, out_alphabet=2)
        yield f"second-moment-{i:04d}", verify_second_moment_tail(forest)


def avg_to_tail_family(count: int = 100, seed: int = 29) -> Iterator[tuple]:
    rng = random.Random(seed)
    for i in range(count):
        forest = _random_forest_instance(rng, m_max=5)
        yield f"avg-tail-{i:04d}", verify_avg_to_tail_lipschitz(forest)


HARPER_RADII = (1, 2, 3, 4, 5, 6)


def harper_family(count: int = 100, seed: int = 31) -> Iterator[tuple]:
    rng = random.Random(seed)
    s, lam = 12, 2
    n = lam ** s
    for i in range(count):
        size = rng.randint(n // 8, (9 * n) // 10)
        # pick bit r is the symbol at rank r, so each pick is its own cube index
        picks = np.array(rng.sample(range(n), size))
        outcome_set = OutcomeSet._from_indices(picks, s, lam, description=f"draw {i}")
        for k, report in zip(HARPER_RADII, verify_harper(outcome_set, HARPER_RADII)):
            yield f"harper-{i:04d}-k{k}", report


def at_least_two_family(count: int = 200, seed: int = 37) -> Iterator[tuple]:
    rng = random.Random(seed)
    for i in range(count):
        if i % 20 == 19:
            q = [rng.uniform(0.3, 0.6) for _ in range(rng.randint(2, 4))]
            alpha = 0.05
        else:
            alpha = rng.choice([0.01, 0.02, 0.04, 0.05])
            ell = rng.randint(1, 12)
            q = [rng.uniform(0.0, alpha) for _ in range(ell)]
            total = sum(q)
            if total > 0.125:
                scale = 0.125 / total * rng.uniform(0.5, 1.0)
                q = [v * scale for v in q]
        yield f"at-least-two-{i:04d}", verify_at_least_two(q, alpha)


def light_mass_family(count: int = 500, seed: int = 41) -> Iterator[tuple]:
    rng = random.Random(seed)
    sizes = [16, 64, 256]
    for i in range(count):
        n = rng.choice(sizes)
        while True:
            p = _weights(rng, n, rng.uniform(0.2, 2.5))
            h = -sum(v * math.log2(v) for v in p if v > 0)
            c = h / math.log2(n)
            if c > 4.0 / n + 1e-9:
                break
        yield f"light-mass-{i:04d}", verify_light_mass(p, c)


def sum_ratio_family(count: int = 200, seed: int = 43) -> Iterator[tuple]:
    rng = random.Random(seed)
    for i in range(count):
        ell = rng.randint(1, 10)
        a = [rng.uniform(0.0, 10.0) for _ in range(ell)]
        b = [rng.uniform(0.1, 10.0) for _ in range(ell)]
        yield f"sum-ratio-{i:04d}", verify_sum_ratio_bound(a, b)


def taylor_family() -> Iterator[tuple]:
    yield "taylor-grid", verify_taylor_bound()


def collision_tv_family(count: int = 100, seed: int = 47) -> Iterator[tuple]:
    rng = random.Random(seed)
    constant = DecisionForest(
        InputSpace(2, 2),
        OutputSpace(3, 3),
        tuple(DecisionTree(Leaf(0)) for _ in range(3)),
    )
    yield "collision-tv-0000-const", verify_collision_tv(constant)
    for i in range(1, count):
        n = rng.choice([3, 4])
        forest = _random_forest_instance(rng, out_alphabet=n, out_cells=n)
        yield f"collision-tv-{i:04d}", verify_collision_tv(forest)


def coupling_instances(count: int = 100, seed: int = 53) -> Iterator[tuple]:
    rng = random.Random(seed)
    for i in range(count):
        s = rng.randint(2, 16)
        depth = rng.randint(1, min(6, s))
        space = InputSpace(s, 2)
        while True:
            forest = DecisionForest(space, OutputSpace(1, 2), (_random_accepting_tree(rng, s, depth),))
            if _leaf_mass(forest, 1) >= 1.0 / 16.0:
                break
        yield f"coupling-{i:04d}", forest


def coupling_family(count: int = 100, seed: int = 53) -> Iterator[tuple]:
    for instance_id, forest in coupling_instances(count, seed):
        yield instance_id, couple_accepting(forest)


def enforcement_instances(count: int = 50, seed: int = 59) -> Iterator[tuple]:
    rng = random.Random(seed)
    for i in range(count):
        m = rng.randint(1, 4)
        forest = _random_forest_instance(rng, s_max=6, s_min=max(2, m), m_max=4, out_cells=m)
        mu = rng.choice([0.25, 0.5, 1.0])
        eps = rng.choice([0.5, 0.25, 0.125])
        yield f"enforce-{i:04d}", forest, mu, eps


def enforcement_family(count: int = 50, seed: int = 59) -> Iterator[tuple]:
    runs = 100
    for instance_id, forest, mu, eps in enforcement_instances(count, seed):
        failures = 0
        for r in range(runs):
            trace = enforce_avg_lipschitz(forest, mu, eps, seed=derive_seed(seed, r))
            if not trace.success:
                failures += 1
        halfwidth = hoeffding_halfwidth(runs)
        measured = failures / runs
        bound = eps + 3.0 * halfwidth
        yield instance_id, ExperimentReport(
            lemma_id="enforce-lipschitz",
            bound=bound,
            measured=measured,
            direction="le",
            mode="monte_carlo",
            trials=runs,
            seed=seed,
            tolerance=1e-12,
            details={"mu": mu, "eps": eps, "failures": failures},
        )


def restriction_instances(seed: int = 61) -> Iterator[tuple]:
    """(instance_id, forest, mu, exactly measured delta) quadruples."""
    identity = DecisionForest(
        InputSpace(6, 2),
        OutputSpace(6, 2),
        tuple(DecisionTree(Internal(c, (Leaf(0), Leaf(1)))) for c in range(6)),
    )
    yield "restrict-identity", identity, 1.0, 0.0
    constant = DecisionForest(
        InputSpace(4, 2),
        OutputSpace(2, 2),
        (DecisionTree(Leaf(0)), DecisionTree(Leaf(1))),
    )
    yield "restrict-constant", constant, 0.5, 0.0
    rng = random.Random(seed)
    produced = 0
    while produced < 4:
        forest = _random_forest_instance(rng, s_max=6, m_max=6, depth_max=3)
        mu = rng.choice([1.0, 1.5])
        delta = float(max(query_profile(forest, mu).tail))
        if not 0.005 <= delta <= 0.7:
            continue
        produced += 1
        yield f"restrict-{produced:04d}", forest, mu, delta


def restriction_family(seed: int = 61) -> Iterator[tuple]:
    for instance_id, forest, mu, delta in restriction_instances(seed):
        yield instance_id, verify_lipschitz_after_conditioning(forest, mu, delta, trials=500, seed=seed)


def ensemble_family(count: int = 20, seed: int = 67) -> Iterator[tuple]:
    yield "ensemble-uniform4", collision_ensemble_report(uniform_ensemble(4, 4))
    disjoint = IndependentEnsemble(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    yield "ensemble-disjoint4", collision_ensemble_report(disjoint)
    yield "ensemble-uniform64", collision_ensemble_report(
        uniform_ensemble(64, 64), trials=20_000, seed=seed
    )
    rng = random.Random(seed)
    for i in range(count):
        m = rng.randint(2, 6)
        n = rng.randint(2, 8)
        rows = []
        for _ in range(m):
            blank = rng.uniform(0.0, 0.3)
            body = _weights(rng, n, rng.uniform(0.5, 3.0))
            rows.append([v * (1.0 - blank) for v in body] + [blank])
        yield f"ensemble-{i:04d}", collision_ensemble_report(IndependentEnsemble(rows))


FAMILIES: dict = {
    "containment": containment_family,
    "mixture-bound": mixture_family,
    "chain-bound": chain_family,
    "entropy-deviation": entropy_deviation_family,
    "second-moment-tail": second_moment_family,
    "avg-to-tail-lipschitz": avg_to_tail_family,
    "harper": harper_family,
    "at-least-two": at_least_two_family,
    "light-mass": light_mass_family,
    "sum-ratio": sum_ratio_family,
    "taylor-bound": taylor_family,
    "collision-tv": collision_tv_family,
    "coupling": coupling_family,
    "enforce-lipschitz": enforcement_family,
    "lipschitz-restriction": restriction_family,
    "ensemble-collision": ensemble_family,
}

# the default seed of each family that takes one
FAMILY_SEEDS = {
    name: seed.default
    for name, family in FAMILIES.items()
    if (seed := inspect.signature(family).parameters.get("seed")) is not None
}
