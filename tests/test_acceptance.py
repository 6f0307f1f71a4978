"""Acceptance suite: ten end-to-end checks with pinned tolerances.

Each test prints one summary line so a verbose run reads as a scorecard.
The helper corpora live in forestlab.corpus and are fully seeded; every
number here is reproducible from a clean checkout.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from forestlab import (
    DecisionForest,
    DecisionTree,
    InputSpace,
    Internal,
    Leaf,
    OutputSpace,
    ThorpSpec,
    collision_probability,
    derive_seed,
    enforce_avg_lipschitz,
    expected_query_counts,
    hoeffding_halfwidth,
    output_distribution,
    query_profile,
    restrict,
    sample_forest_outputs,
    thorp_forest,
    tv_distance,
    uniform_ensemble,
    uniform_perm_distribution,
)
from forestlab.corpus import (
    FAMILIES,
    enforcement_instances,
    restriction_instances,
)
from forestlab.report import ledger_row
from forestlab.harness import verify_lipschitz_after_conditioning

from pointwise_reference import collision_stat

CRITERION_6_FAMILIES = (
    "entropy-deviation",
    "mixture-bound",
    "chain-bound",
    "second-moment-tail",
    "avg-to-tail-lipschitz",
    "harper",
    "at-least-two",
    "light-mass",
    "taylor-bound",
    "sum-ratio",
)


def announce(line: str) -> None:
    print(f"[acceptance] {line}")


def test_criterion_01_thorp_outputs_permutations_and_mixes():
    started = time.monotonic()
    uniform = uniform_perm_distribution(8)
    tvs = []
    for rounds in range(1, 7):
        dist = output_distribution(thorp_forest(ThorpSpec(3, rounds)))
        for outcome in dist.probs:
            assert sorted(outcome) == list(range(8)), outcome
        tvs.append(tv_distance(dist, uniform))
    for earlier, later in zip(tvs, tvs[1:]):
        assert later <= earlier + 1e-12
    assert tvs[5] < tvs[0]
    elapsed = time.monotonic() - started
    assert elapsed <= 300.0
    announce(
        "criterion 1 pass: tv by round "
        + ", ".join(f"{v:.6f}" for v in tvs)
        + f" ({elapsed:.1f}s)"
    )


def test_criterion_02_birthday_oracle_exact_and_sampled():
    ens = uniform_ensemble(4, 4)
    exact = collision_probability(ens, mode="exact")
    want = 1 - math.factorial(4) / 4**4
    assert exact == pytest.approx(want, abs=1e-12)
    sampled = collision_probability(ens, mode="monte_carlo", trials=100_000, seed=0)
    assert abs(sampled - want) <= 0.01
    announce(f"criterion 2 pass: exact {exact:.6f}, sampled {sampled:.6f}")


def test_criterion_03_collision_lower_bounds_tv_on_the_corpus():
    reports = list(FAMILIES["collision-tv"]())
    assert len(reports) == 100
    for instance_id, report in reports:
        assert report.status == "ok"
        assert report.passed, instance_id
        assert report.bound <= report.measured + 1e-9, instance_id
    head_id, head = reports[0]
    assert head.bound == pytest.approx(1.0, abs=1e-9)
    assert head.measured == pytest.approx(1.0, abs=1e-9)
    announce(f"criterion 3 pass: 100 instances, constant case tight at {head.bound:.9f}")


def test_criterion_04_containment_family_has_zero_failures():
    failures = 0
    total = 0
    for instance_id, report in FAMILIES["containment"]():
        total += 1
        if not report.passed:
            failures += 1
        if report.details["mass_checked"]:
            assert report.measured >= 0.5 - 1e-9, instance_id
        assert report.details["size"] <= report.details["size_bound"] + 1e-9
    assert total == 500
    assert failures == 0
    announce("criterion 4 pass: 500 distributions, zero failures")


def test_criterion_05_coupling_family_is_exact_and_within_bound():
    started = time.monotonic()
    total = 0
    for instance_id, report in FAMILIES["coupling"]():
        total += 1
        assert report.details["marginal_tv"] <= 1e-9, instance_id
        k = report.details["depth"]
        acceptance = report.details["acceptance"]
        bound = 2.0 * math.sqrt(k * math.log(1.0 / acceptance)) if k else 0.0
        assert report.measured <= bound + 1e-9, instance_id
        assert report.passed, instance_id
    elapsed = time.monotonic() - started
    assert total == 100
    assert elapsed <= 120.0
    announce(f"criterion 5 pass: 100 trees, marginals exact ({elapsed:.1f}s)")


def test_criterion_06_lemma_families_run_clean():
    started = time.monotonic()
    guard_rates = {}
    for family in CRITERION_6_FAMILIES:
        failures = 0
        violations = 0
        total = 0
        for instance_id, report in FAMILIES[family]():
            total += 1
            if report.status != "ok":
                violations += 1
            elif not report.passed:
                failures += 1
        assert failures == 0, family
        guard_rates[family] = (total, violations)
    assert guard_rates["at-least-two"][1] >= 1
    for family, (total, _) in guard_rates.items():
        assert total >= 1, family
    elapsed = time.monotonic() - started
    assert elapsed <= 600.0
    summary = ", ".join(f"{fam} {n}" for fam, (n, _) in guard_rates.items())
    announce(f"criterion 6 pass: {summary} ({elapsed:.1f}s)")


def test_criterion_07_enforcement_succeeds_within_the_failure_budget():
    runs = 1000
    halfwidth = hoeffding_halfwidth(runs)
    instances = list(enforcement_instances())
    assert len(instances) == 50
    for instance_id, forest, mu, eps in instances:
        failures = 0
        for r in range(runs):
            trace = enforce_avg_lipschitz(forest, mu, eps, seed=derive_seed(59, r))
            if trace.success:
                assert float(expected_query_counts(trace.final_forest).max()) <= mu, instance_id
            else:
                failures += 1
        assert failures / runs <= eps + 3 * halfwidth, instance_id
    announce(f"criterion 7 pass: 50 instances x {runs} runs, all successful traces recheck")


def test_criterion_08_restrictions_keep_the_tail_bound():
    trials = 10_000
    count = 0
    for instance_id, forest, mu, delta in restriction_instances():
        report = verify_lipschitz_after_conditioning(
            forest, mu, delta, trials=trials, seed=61
        )
        count += 1
        allowed = report.details["sqrt_delta"] + 3 * report.details["halfwidth"]
        assert report.measured <= allowed, instance_id
    assert count >= 6
    announce(f"criterion 8 pass: {count} instances x {trials} restrictions")


def test_criterion_08_exact_failure_probabilities_are_pinned():
    # every (cells, values) draw of the default sampler is equally likely, so
    # enumerating them gives the exact failure probability of criterion 8
    pinned = (0, 0, Fraction(7, 60), Fraction(3, 40), Fraction(7, 40), Fraction(13, 60))
    for (instance_id, forest, mu, delta), want in zip(restriction_instances(), pinned, strict=True):
        s, lam = forest.input_space.cells, forest.input_space.alphabet
        k = max(1, s // 2)
        draws = [
            dict(zip(cells, values))
            for cells in itertools.combinations(range(s), k)
            for values in itertools.product(range(lam), repeat=k)
        ]
        failures = sum(max(query_profile(restrict(forest, a), mu).tail) > math.sqrt(delta) + 1e-12 for a in draws)
        assert Fraction(failures, len(draws)) == want, instance_id
        assert want <= math.sqrt(delta), instance_id
        sampled = verify_lipschitz_after_conditioning(forest, mu, delta, trials=1000, seed=61)
        assert abs(sampled.measured - float(want)) <= 3 * sampled.details["halfwidth"], instance_id
    announce("criterion 8 exact: failure probabilities 0, 0, 7/60, 3/40, 7/40, 13/60")


def test_criterion_09_high_entropy_identity_forest_always_collides():
    n = 64
    trees = tuple(
        DecisionTree(Internal(i, tuple(Leaf(v) for v in range(n)))) for i in range(n)
    )
    forest = DecisionForest(InputSpace(n, n), OutputSpace(n, n), trees)
    rows = sample_forest_outputs(forest, trials=100_000, seed=17)
    assert rows.shape == (100_000, n)
    collided = (np.sort(rows, axis=1)[:, 1:] == np.sort(rows, axis=1)[:, :-1]).any(axis=1)
    assert bool(collided.all())
    assert math.factorial(n) * 10**26 < n ** n
    spot = collision_stat(tuple(int(v) for v in rows[0]))
    assert spot > 0
    announce("criterion 9 pass: collisions in all 100000 trials, analytic miss < 1e-26")


def test_criterion_10_report_rows_reproduce_byte_for_byte():
    families = ("taylor-bound", "sum-ratio", "ensemble-collision", "lipschitz-restriction")

    def run_once():
        rows = []
        for family in families:
            for instance_id, report in FAMILIES[family]():
                rows.append(ledger_row(report, instance_id))
        return rows

    first = run_once()
    second = run_once()
    assert first == second
    assert len(first) >= 200
    announce(f"criterion 10 pass: {len(first)} rows identical across reruns")
