"""Verifier behavior on closed-form instances and guard paths."""
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from forestlab import (
    BucketStructure,
    DecisionForest,
    DecisionTree,
    Distribution,
    ExperimentReport,
    ForestGenSpec,
    IndependentEnsemble,
    InputSpace,
    Internal,
    Leaf,
    OutcomeSet,
    OutputSpace,
    ThorpSpec,
    UsageError,
    collision_ensemble_report,
    containment_set,
    couple_accepting,
    coupled_sample,
    cube_distances_to_set,
    derive_seed,
    dumps_forest,
    enforce_avg_lipschitz,
    entropy,
    eval_forest,
    expected_query_counts,
    collision_probability,
    forest_from_json,
    forest_to_json,
    output_distribution,
    random_forest,
    restrict,
    thorp_bucket_structure,
    thorp_forest,
    tv_lower_bound_via_collision,
    uniform_ensemble,
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
import forestlab
from forestlab.cli import _report_exit
from forestlab import harness
from forestlab import analysis
from forestlab.corpus import (
    _random_forest_instance,
    collision_tv_family,
    coupling_instances,
    enforcement_family,
    enforcement_instances,
    entropy_deviation_family,
    harper_family,
    restriction_instances,
)
from forestlab.forest import _cell_tails, _leaf_mass, _probe_histograms, query_profile
from forestlab.harness import (
    _optimal_symbol_coupling,
    bucketed_dichotomy_experiment,
    depth_reduction_step,
)

import numpy as np

from cube_reference import query_counts_on_cube, restricted_tails

import walk_reference
from cube_reference import eval_forest_on_cube
from pointwise_reference import exact_tv_to_uniform_perm


def identity_forest(s: int, lam: int = 2) -> DecisionForest:
    trees = tuple(
        DecisionTree(Internal(i, tuple(Leaf(v) for v in range(lam)))) for i in range(s)
    )
    return DecisionForest(InputSpace(s, lam), OutputSpace(s, lam), trees)


def passthrough_forest() -> DecisionForest:
    tree = DecisionTree(Internal(0, (Leaf(0), Leaf(1))))
    return DecisionForest(InputSpace(2, 2), OutputSpace(1, 2), (tree,))


def uniform1(n: int) -> Distribution:
    return Distribution({(i,): 1 / n for i in range(n)}, 1)


BIT_SPACE = InputSpace(1, 2)


# ---------------------------------------------------------------------------
# the verdict rule


def assert_verdict(report: ExperimentReport, want: str) -> None:
    assert report.csv_status == want
    assert report.passed is (want == "pass")
    assert _report_exit(report) == (1 if want == "fail" else 0)


@pytest.mark.parametrize("bound", [0.0, 0.25])
@pytest.mark.parametrize("tolerance", [1e-9, 1e-12])
@pytest.mark.parametrize("direction", ["le", "ge"])
def test_verdict_holds_at_the_tolerance_edge_and_fails_one_ulp_past(direction, tolerance, bound):
    if direction == "le":
        edge, outward = bound + tolerance, math.inf
    else:
        edge, outward = bound - tolerance, -math.inf
    at_edge = ExperimentReport("rule", bound, edge, direction, tolerance=tolerance)
    assert_verdict(at_edge, "pass")
    past = ExperimentReport("rule", bound, math.nextafter(edge, outward), direction, tolerance=tolerance)
    assert_verdict(past, "fail")


@pytest.mark.parametrize(
    "direction, status, bound, measured, want",
    [
        (None, "ok", None, 5.0, "pass"),
        (None, "ok", 1.0, -5.0, "pass"),
        ("le", "precondition_violation", 1.0, 5.0, "precondition_violation"),
        ("ge", "precondition_violation", 1.0, 5.0, "precondition_violation"),
        ("le", "fail", 1.0, 0.0, "fail"),
        ("ge", "fail", 1.0, 5.0, "fail"),
        (None, "fail", 1.0, 5.0, "fail"),
    ],
)
def test_status_overrides_the_inequality(direction, status, bound, measured, want):
    assert_verdict(ExperimentReport("rule", bound, measured, direction, status=status), want)


def test_reports_name_a_known_direction():
    with pytest.raises(ValueError):
        ExperimentReport("rule", 1.0, 0.0, "lt")


# ---------------------------------------------------------------------------
# containment sets


def test_containment_keeps_the_whole_point_mass():
    outcome_set, report = containment_set(Distribution({(3,): 1.0}, 1), 0.0)
    assert outcome_set.members == frozenset({(3,)})
    assert report.measured == 1.0
    assert report.bound == 0.5
    assert report.passed


def test_containment_keeps_all_of_a_matching_uniform_law():
    outcome_set, report = containment_set(uniform1(8), 3.0)
    assert len(outcome_set.members) == 8
    assert report.measured == pytest.approx(1.0)
    assert report.passed


def test_containment_keeps_the_dyadic_support():
    d = Distribution({(0,): 0.5, (1,): 0.25, (2,): 0.125, (3,): 0.125}, 1)
    outcome_set, report = containment_set(d, 1.75)
    assert len(outcome_set.members) == 4
    assert report.measured == pytest.approx(1.0)
    assert report.passed


def test_containment_size_cap_holds_even_for_high_entropy_laws():
    outcome_set, report = containment_set(uniform1(8), 1.0)
    assert len(outcome_set.members) <= 4
    assert report.passed
    assert not report.details["mass_checked"]


# ---------------------------------------------------------------------------
# entropy bounds


def test_mixture_bound_on_the_all_blank_point_mass():
    d = Distribution({(2, 2, 2): 1.0}, 3, bot=2)
    report = verify_mixture_bound(d, sigma=2)
    assert report.measured == 0.0
    assert report.bound == pytest.approx(math.log2(4))
    assert report.passed


def test_mixture_bound_on_a_blank_free_uniform_law():
    probs = {(a, b): 0.25 for a in range(2) for b in range(2)}
    report = verify_mixture_bound(Distribution(probs, 2), sigma=2)
    assert report.measured == pytest.approx(2.0)
    assert report.bound == pytest.approx(math.log2(3) + 2 * math.log2(4))
    assert report.passed


def test_chain_bound_on_the_parity_output():
    root = Internal(0, (Internal(1, (Leaf(0), Leaf(1))), Internal(1, (Leaf(1), Leaf(0)))))
    f = DecisionForest(InputSpace(2, 2), OutputSpace(1, 2), (DecisionTree(root),))
    report = verify_chain_bound(f, BucketStructure(((0,), (1,))))
    assert report.measured == pytest.approx(1.0, abs=1e-12)
    assert report.bound == pytest.approx(2.0, abs=1e-12)
    assert report.passed


def test_chain_bound_is_tight_on_a_passthrough_output():
    report = verify_chain_bound(passthrough_forest(), BucketStructure(((0,), (1,))))
    assert report.measured == pytest.approx(1.0, abs=1e-12)
    assert report.bound == pytest.approx(1.0, abs=1e-12)
    assert report.passed


def test_chain_bound_on_a_constant_output():
    f = DecisionForest(InputSpace(2, 2), OutputSpace(1, 2), (DecisionTree(Leaf(0)),))
    report = verify_chain_bound(f, BucketStructure(((0,), (1,))))
    assert report.measured == 0.0
    assert report.bound == 0.0
    assert report.passed


def test_chain_bound_rejects_partitions_of_the_wrong_width():
    with pytest.raises(UsageError) as err:
        verify_chain_bound(identity_forest(3), BucketStructure(((0,), (1,))))
    assert err.value.reason == "bad_buckets"


def test_entropy_deviation_of_an_unqueried_cell_is_zero():
    report = verify_entropy_deviation(passthrough_forest(), (1,))[0]
    assert report.measured == 0.0
    assert report.passed


def test_entropy_deviation_of_a_passthrough_cell():
    report = verify_entropy_deviation(identity_forest(2), (0,))[0]
    assert report.measured == pytest.approx(1.0, abs=1e-12)
    assert report.bound == pytest.approx(math.log2(3) + math.log2(4), abs=1e-12)
    assert report.passed


def _entropy_deviation_by_restriction(forest: DecisionForest, cell: int) -> ExperimentReport:
    """verify_entropy_deviation as one restricted law per value of the cell: the slow reference."""
    lam, m, sigma = forest.input_space.alphabet, forest.output_space.cells, forest.output_space.alphabet
    h = entropy(output_distribution(forest))
    deviation = 0.0
    per_value = []
    for v in range(lam):
        hv = entropy(output_distribution(restrict(forest, {cell: v})))
        per_value.append(hv)
        deviation = max(deviation, abs(hv - h))
    ec = float(expected_query_counts(forest)[cell])
    bound = math.log2(m + 1) + ec * math.log2(m * sigma)
    details = {"entropy": h, "per_value": per_value, "expected_probes": ec, "cell": cell}
    return ExperimentReport("entropy-deviation", bound, deviation, "le", details=details)


def test_entropy_deviation_matches_the_restricted_laws():
    rng = random.Random(19)  # the entropy-deviation family's forests
    forests = [_random_forest_instance(rng) for _ in range(200)]
    forests += [identity_forest(2), identity_forest(3, lam=3), passthrough_forest(), thorp_forest(ThorpSpec(2, 2))]
    for forest in forests:
        cells = range(forest.input_space.cells)
        batch = verify_entropy_deviation(forest, cells)
        assert [repr(got) for got in batch] == [repr(verify_entropy_deviation(forest, (cell,))[0]) for cell in cells]
        for cell, got in zip(cells, batch, strict=True):
            assert repr(got) == repr(_entropy_deviation_by_restriction(forest, cell)), (forest, cell)
            assert all(type(hv) is float for hv in got.details["per_value"])


def test_the_entropy_deviation_family_computes_one_unconditional_law_per_forest(monkeypatch):
    laws = []
    def counted(forest, budget):
        laws.append(forest)
        return output_distribution(forest, budget)

    monkeypatch.setattr(harness, "output_distribution", counted)
    rows = list(entropy_deviation_family(count=5))
    monkeypatch.undo()
    rng = random.Random(19)
    forests = [_random_forest_instance(rng) for _ in range(5)]
    assert laws == forests
    want = [
        (f"entropy-deviation-{i:04d}-c{cell}", verify_entropy_deviation(forest, (cell,))[0])
        for i, forest in enumerate(forests)
        for cell in range(forest.input_space.cells)
    ]
    assert [(name, repr(report)) for name, report in rows] == [(name, repr(report)) for name, report in want]


def test_entropy_deviation_rejects_cells_outside_the_space():
    with pytest.raises(UsageError) as err:
        verify_entropy_deviation(identity_forest(2), (0, 5))
    assert err.value.reason == "bad_cells"


# ---------------------------------------------------------------------------
# tail bounds


def test_second_moment_tail_on_independent_fair_bits():
    report = verify_second_moment_tail(identity_forest(3))
    assert report.details["kappa"] == pytest.approx(1.5)
    assert report.details["mu"] == pytest.approx(1.0)
    assert report.measured == pytest.approx(-0.125)
    assert report.bound == 0.0
    assert report.passed


def test_second_moment_tail_on_the_constant_zero_forest():
    f = DecisionForest(InputSpace(1, 2), OutputSpace(2, 2), (DecisionTree(Leaf(0)),) * 2)
    report = verify_second_moment_tail(f)
    assert report.measured == pytest.approx(-0.125)
    assert report.passed


def test_second_moment_tail_needs_binary_blank_free_outputs():
    wide = identity_forest(2, lam=3)
    with pytest.raises(UsageError) as err:
        verify_second_moment_tail(wide)
    assert err.value.reason == "bad_leaf"


def reference_second_moment_tail(forest: DecisionForest, epsilons) -> dict:
    """The tail report's details from the full output matrix, one row per cube point."""
    totals = eval_forest_on_cube(forest).sum(axis=1, dtype=np.int64)
    kappa = float(totals.mean())
    mu = float(expected_query_counts(forest).max())
    d = forest.depth
    cases = []
    for eps in epsilons:
        threshold = 2.0 * (kappa + math.log2(1.0 / eps) * d * mu)
        cases.append({"eps": eps, "threshold": threshold, "tail": float((totals > threshold).mean())})
    return {"kappa": kappa, "mu": mu, "depth": d, "cases": cases}


def test_second_moment_tail_matches_the_output_matrix(monkeypatch):
    rng = random.Random(23)
    forests = [_random_forest_instance(rng, m_max=5, out_alphabet=2) for _ in range(40)]
    # 3**40 packed keys overflow int64, so these two read the output matrix
    forests.append(random_forest(ForestGenSpec(cells=6, alphabet=2, out_cells=40, out_alphabet=2, depth=3, seed=1)))
    both = DecisionTree(Internal(0, (Leaf(0), Internal(1, (Leaf(0), Leaf(1))))))
    forests.append(DecisionForest(InputSpace(2, 2), OutputSpace(40, 2), (both,) * 40))  # sums 0 or 40
    epsilons = (0.999, 0.9, 0.5, 0.125, 0.01)  # eps near 1 puts the threshold near 2 kappa, where tails are nonzero
    monkeypatch.setattr(harness, "DEFAULT_EPSILONS", epsilons)
    for f in forests:
        report = verify_second_moment_tail(f)
        want = reference_second_moment_tail(f, epsilons)
        assert report.details == want
        assert report.measured == max(case["tail"] - case["eps"] for case in want["cases"])
    assert report.details["cases"][0]["tail"] == 0.25


def test_average_to_tail_promotion_on_fair_bits():
    report = verify_avg_to_tail_lipschitz(identity_forest(4))
    assert report.lemma_id == "avg-to-tail-lipschitz"
    assert report.measured <= report.bound
    assert report.passed


# ---------------------------------------------------------------------------
# enforcement


def test_enforcement_leaves_a_smooth_forest_untouched():
    trace = enforce_avg_lipschitz(identity_forest(3), mu=1.0, eps=0.5, seed=0)
    assert trace.success
    assert trace.steps == ()


def test_enforcement_fixes_the_shared_root_cell_first():
    trees = tuple(DecisionTree(Internal(0, (Leaf(0), Leaf(1)))) for _ in range(4))
    f = DecisionForest(InputSpace(2, 2), OutputSpace(4, 2), trees)
    trace = enforce_avg_lipschitz(f, mu=2.0, eps=0.5, seed=3)
    assert trace.success
    assert len(trace.steps) == 1
    cell, value, load = trace.steps[0]
    assert cell == 0
    assert value in (0, 1)
    assert load == 4.0
    assert expected_query_counts(trace.final_forest).max() <= 2.0


def test_enforcement_fails_fast_on_a_zero_step_budget():
    f = passthrough_forest()
    trace = enforce_avg_lipschitz(f, mu=0.9, eps=0.9, seed=0)
    assert trace.budget == 0
    assert not trace.success
    assert trace.steps == ()


def test_enforcement_replays_as_a_greedy_argmax_walk():
    f = thorp_forest(ThorpSpec(2, 2))
    trace = enforce_avg_lipschitz(f, mu=0.5, eps=0.25, seed=11)
    assert trace.success
    fixed = {}
    for cell, value, load in trace.steps:
        counts = expected_query_counts(restrict(f, fixed))
        assert counts[cell] == pytest.approx(load)
        assert counts.max() == pytest.approx(load)
        assert cell == int(np.argmax(counts))
        fixed[cell] = value
    assert expected_query_counts(restrict(f, fixed)).max() <= 0.5
    assert len(fixed) == len(trace.steps)


def test_enforcement_parameter_guards():
    with pytest.raises(UsageError):
        enforce_avg_lipschitz(identity_forest(2), mu=0.0, eps=0.5, seed=0)
    with pytest.raises(UsageError):
        enforce_avg_lipschitz(identity_forest(2), mu=1.0, eps=1.0, seed=0)


def test_enforcement_walk_tree_matches_the_uncached_walk_at_every_criterion_07_seed(monkeypatch):
    instances = list(enforcement_instances())
    seeds = [derive_seed(59, r) for r in range(100)]  # criterion 07's walks
    want = [walk_reference.enforce_avg_lipschitz(f, mu, eps, seed) for _, f, mu, eps in instances for seed in seeds]

    def compare():
        got = [enforce_avg_lipschitz(f, mu, eps, seed) for _, f, mu, eps in instances for seed in seeds]
        for trace, (success, steps, final, budget) in zip(got, want, strict=True):
            assert (trace.success, trace.steps, trace.budget) == (success, steps, budget)
            assert trace.final_forest._table == final._table

    compare()

    def no_recompute(*args):
        raise AssertionError("a repeated walk recomputed a node")

    # every step of a repeated walk is a node the first pass built
    monkeypatch.setattr(harness, "restrict", no_recompute)
    monkeypatch.setattr(harness, "expected_query_counts", no_recompute)
    compare()


def test_the_enforcement_family_passes_every_instance_within_three_half_widths():
    rows = list(enforcement_family())
    assert len(rows) == 50
    for (instance_id, report), (expected_id, _, mu, eps) in zip(rows, enforcement_instances(), strict=True):
        assert instance_id == expected_id
        assert report.bound == eps + 3.0 * analysis.hoeffding_halfwidth(100)
        assert report.measured == report.details["failures"] / 100
        assert (report.details["mu"], report.details["eps"]) == (mu, eps)
        assert report.csv_status == "pass"


def test_walking_a_forest_leaves_its_equality_json_and_pickle_unchanged():
    for _, forest, mu, eps in itertools.islice(enforcement_instances(), 10):
        twin = forest_from_json(forest_to_json(forest))
        text, data = dumps_forest(forest), pickle.dumps(forest)
        traces = [enforce_avg_lipschitz(forest, mu, eps, seed=r) for r in range(100)]
        profile = query_profile(forest, mu)
        assert "_heaviest_step" in vars(forest) and vars(forest)["depth"] == forest.depth
        assert "_probe_tables" in vars(forest) and query_profile(forest, mu) == profile
        assert forest == twin and hash(forest) == hash(twin)
        assert dumps_forest(forest) == text
        assert pickle.dumps(forest) == data
        assert pickle.loads(data) == forest
        assert not {"depth", "_heaviest_step", "_probe_tables"} & set(vars(pickle.loads(pickle.dumps(forest))))
        for trace in traces:  # restricted forests, built from node tables, round-trip too
            final = trace.final_forest
            copy = pickle.loads(pickle.dumps(final))
            assert copy._table == final._table and copy == final
            assert "_heaviest_step" not in vars(copy)
    # a 200-step walk: pickling its chain of restricted forests would nest past the recursion limit
    deep = identity_forest(200)
    assert len(enforce_avg_lipschitz(deep, mu=0.5, eps=0.5, seed=0).steps) == 200
    assert pickle.loads(pickle.dumps(deep)) == deep


# ---------------------------------------------------------------------------
# restrictions keep tails small


def test_conditioning_a_tail_free_forest_never_fails():
    report = verify_lipschitz_after_conditioning(
        identity_forest(4), mu=1.0, delta=0.0, trials=200, seed=5
    )
    assert report.measured == 0.0
    assert report.details["failures"] == 0
    assert report.passed


def test_conditioning_precondition_is_checked_exactly():
    trees = tuple(DecisionTree(Internal(0, (Leaf(0), Leaf(1)))) for _ in range(2))
    f = DecisionForest(InputSpace(2, 2), OutputSpace(2, 2), trees)
    report = verify_lipschitz_after_conditioning(f, mu=1.0, delta=0.1, trials=10, seed=0)
    assert (report.status, report.csv_status, report.details["base_tail"]) == ("precondition_violation",) * 2 + (1.0,)
    assert _report_exit(report) == 0
    # the draws still run: fixing the unprobed cell 1 keeps the base tail 1 > sqrt(0.1), fixing cell 0 leaves no probe
    fixed = [random.Random(derive_seed(0, t)).sample(range(2), 1) for t in range(10)]
    assert report.details["failures"] == fixed.count([1]) == 4
    assert verify_lipschitz_after_conditioning(f, mu=1.0, delta=1.0, trials=10, seed=0).status == "ok"


def test_sliced_conditioning_counts_every_draw_like_a_restrict_loop():
    cases = list(restriction_instances())
    for seed in (0, 7):  # 12 cells, 9 to 12 of them probed: most drawn subsets are drawn once
        forest = random_forest(ForestGenSpec(cells=12, alphabet=2, out_cells=8, out_alphabet=2, depth=3, seed=seed))
        cases.append((f"wide-{seed}", forest, 2.0, float(max(query_profile(forest, 2.0).tail))))
    for instance_id, forest, mu, delta in cases:
        report = verify_lipschitz_after_conditioning(forest, mu, delta, trials=300, seed=9)
        s, lam = forest.input_space.cells, forest.input_space.alphabet
        failures = 0
        for t in range(300):
            rng = random.Random(derive_seed(9, t))
            cells = rng.sample(range(s), max(1, s // 2))  # a uniform half of the cells, then a uniform value each
            assignment = {c: rng.randrange(lam) for c in sorted(cells)}
            counts, _ = query_counts_on_cube(restrict(forest, assignment))
            tail = float((counts > mu).mean(axis=0).max()) if counts.size else 0.0
            failures += tail > math.sqrt(delta) + 1e-12
        assert report.details["failures"] == failures, instance_id


def drawn_tails(forest: DecisionForest, assignment: dict, mu: float, cache: dict) -> np.ndarray:
    """The verifier's tails for one draw: row b of the histogram of the draw's probed cells."""
    probed = forest.mentioned_cells()
    named = sorted((c, v) for c, v in assignment.items() if c in probed)
    cells = tuple(c for c, _ in named)
    if cells not in cache:
        cache[cells] = _probe_histograms(forest, cells)
    b = sum(v * forest.input_space.alphabet**i for i, (_, v) in enumerate(named))
    return _cell_tails(*cache[cells], forest.input_space.cells, mu)[b]


@pytest.mark.parametrize("seed", [61, 62])
def test_conditioning_slices_each_distinct_draw_once_and_counts_every_draw(monkeypatch, seed):
    walked = []

    def counted(forest, cells=(), drawn=None, budget=1 << 26):
        walked.append((cells, None if drawn is None else sorted(drawn)))
        return _probe_histograms(forest, cells, drawn, budget)

    monkeypatch.setattr(harness, "_probe_histograms", counted)
    subsets = 0
    for instance_id, forest, mu, delta in restriction_instances():
        walked.clear()
        report = verify_lipschitz_after_conditioning(forest, mu, delta, trials=1000, seed=seed)
        s, lam = forest.input_space.cells, forest.input_space.alphabet
        probed = forest.mentioned_cells()
        failures, drawn, tails = 0, {}, {}
        for t in range(1000):  # the verifier's draws, each checked against its restricted forest
            rng = random.Random(derive_seed(seed, t))
            assignment = {c: rng.randrange(lam) for c in sorted(rng.sample(range(s), max(1, s // 2)))}
            drawn.setdefault(tuple(assignment), set()).add(tuple(v for c, v in assignment.items() if c in probed))
            key = tuple(assignment.items())
            if key not in tails:
                tails[key] = restricted_tails(forest, assignment, mu)
            failures += float(tails[key].max()) > math.sqrt(delta) + 1e-12
        assert report.details["failures"] == failures, instance_id
        assert len(drawn) == math.comb(s, max(1, s // 2)), instance_id  # every subset is drawn
        subsets += len(drawn)
        # the base histogram, then one per drawn subset that fixes a probed cell, over its distinct assignments
        want = [(tuple(c for c in subset if c in probed), sorted(values)) for subset, values in drawn.items()]
        assert walked[0] == ((), None) and sorted(walked[1:]) == sorted(w for w in want if w[0]), instance_id
    assert subsets == 86


def test_sliced_tails_equal_the_tails_of_the_restricted_forest():
    rng = random.Random(16)
    cases = [(forest, mu, True) for _, forest, mu, _ in restriction_instances()]
    cases += [(forest, mu, False) for _, forest, mu, _ in enforcement_instances() if forest.input_space.alphabet == 3]
    assert len(cases) > 20
    for forest, mu, every_draw in cases:
        s, lam = forest.input_space.cells, forest.input_space.alphabet
        unprobed = [c for c in range(s) if c not in forest.mentioned_cells()]
        draws = [{}, dict.fromkeys(range(s), lam - 1), dict.fromkeys(unprobed, 0)]
        if every_draw:  # every draw of the default sampler
            k = max(1, s // 2)
            draws += [
                dict(zip(cells, values))
                for cells in itertools.combinations(range(s), k)
                for values in itertools.product(range(lam), repeat=k)
            ]
        for size in range(s + 1):
            draws += [{c: rng.randrange(lam) for c in rng.sample(range(s), size)} for _ in range(4)]
        cache = {}
        for assignment in draws:
            got = drawn_tails(forest, assignment, mu, cache)
            assert np.array_equal(got, restricted_tails(forest, assignment, mu)), assignment
            assert float(got.max()) == max(query_profile(restrict(forest, assignment), mu).tail), assignment


@pytest.mark.parametrize("trials", [0, -3, (1 << 20) + 1])
def test_conditioning_rejects_a_trial_count_before_any_draw(monkeypatch, trials):
    def histograms(*args, **kwargs):
        raise AssertionError("walked the cube")

    monkeypatch.setattr(harness, "_probe_histograms", histograms)
    with pytest.raises(UsageError) as err:
        verify_lipschitz_after_conditioning(identity_forest(3), mu=1.0, delta=0.0, trials=trials)
    assert err.value.reason == "bad_trials"


# ---------------------------------------------------------------------------
# couplings


def one_tree(root, cells: int = 1, lam: int = 2) -> DecisionForest:
    return DecisionForest(InputSpace(cells, lam), OutputSpace(1, 2), (DecisionTree(root),))


GATE = one_tree(Internal(0, (Leaf(0), Leaf(1))))


def test_coupling_with_an_all_accepting_tree_is_the_identity():
    forest = one_tree(Leaf(1))
    report = couple_accepting(forest)
    assert report.measured == 0.0
    assert report.details["marginal_tv"] == 0.0
    sample = coupled_sample(forest, seed=9)
    assert sample.y == sample.x
    assert sample.dist == 0


def test_coupling_through_a_single_gate():
    report = couple_accepting(GATE)
    assert report.measured == pytest.approx(0.5, abs=1e-12)
    assert report.bound == pytest.approx(2 * math.sqrt(math.log(2)), abs=1e-12)
    assert report.details["marginal_tv"] <= 1e-9
    assert report.details["acceptance"] == pytest.approx(0.5)
    assert report.passed


def test_coupling_samples_always_land_in_the_accepting_region():
    for seed in range(64):
        sample = coupled_sample(GATE, seed=seed)
        assert sample.y == (1,)
        assert sample.dist == (0 if sample.x == (1,) else 1)


def test_coupling_marginal_is_uniform_on_a_two_cell_acceptor():
    forest = one_tree(Internal(0, (Leaf(0), Internal(1, (Leaf(1), Leaf(0))))), cells=2)
    report = couple_accepting(forest)
    assert report.details["acceptance"] == pytest.approx(0.25)
    assert report.details["marginal_tv"] <= 1e-9
    assert report.passed


def test_coupling_guards():
    with pytest.raises(UsageError) as err:
        couple_accepting(one_tree(Leaf(0)))
    assert err.value.reason == "zero_acceptance"
    three = DecisionForest(BIT_SPACE, OutputSpace(1, 3), (DecisionTree(Internal(0, (Leaf(1), Leaf(2)))),))
    with pytest.raises(UsageError) as err:
        couple_accepting(three)
    assert err.value.reason == "bad_leaf"


def test_coupling_rejects_a_two_tree_forest():
    two = DecisionForest(BIT_SPACE, OutputSpace(2, 2), GATE.trees * 2)
    for couple in (
        lambda: coupled_sample(two, seed=0),
        lambda: couple_accepting(two),
    ):
        with pytest.raises(UsageError) as err:
            couple()
        assert err.value.reason == "bad_forest"


def annotate_acceptance(node, depth: int, cells: int, lam: int) -> tuple:
    """(node, accepting completions below it, annotated children), built recursively."""
    if isinstance(node, Leaf):
        return (node, node.value * lam ** (cells - depth), ())
    kids = tuple(annotate_acceptance(c, depth + 1, cells, lam) for c in node.children)
    return (node, sum(k[1] for k in kids), kids)


def reference_sample(root: tuple, lam: int, cells: int, seed: int) -> tuple:
    """One coupled (x, y, dist), rebuilding the coupling table at every probe it walks through."""
    rng = random.Random(seed)
    x = tuple(rng.randrange(lam) for _ in range(cells))
    y = list(x)
    node, count, kids = root
    while not isinstance(node, Leaf):
        row = _optimal_symbol_coupling(lam, [k[1] for k in kids], count)[x[node.query]]
        support = [b for b in range(lam) if row[b] > 0]
        r = rng.random() / lam
        b = support[-1]
        acc = 0.0
        for cand in support:
            acc += float(row[cand])
            if r < acc:
                b = cand
                break
        y[node.query] = b
        node, count, kids = kids[b]
    return x, tuple(y), sum(1 for i in range(cells) if x[i] != y[i])


def reference_exact(root: tuple, lam: int, cells: int) -> tuple:
    """(expected changes, marginal TV, acceptance) by a recursive walk over the reached nodes."""
    total = root[1]
    changes = gap = Fraction(0)

    def walk(annotated, reach: Fraction):
        nonlocal changes, gap
        node, count, kids = annotated
        if isinstance(node, Leaf):
            gap += abs(reach - Fraction(count, total))
            return
        table = _optimal_symbol_coupling(lam, [k[1] for k in kids], count)
        changes += reach * (1 - sum(table[a][a] for a in range(lam)))
        for b in range(lam):
            mass = sum(table[a][b] for a in range(lam))
            if mass:
                walk(kids[b], reach * mass)

    walk(root, Fraction(1))
    return float(changes), 0.5 * float(gap), float(Fraction(total, lam ** cells))


def ternary_acceptors(count: int, seed: int):
    """Seeded 3-ary one-tree forests with 0/1 leaves that accept something."""
    rng = random.Random(seed)

    def build(level: int, used: frozenset, cells: int, depth: int):
        free = [c for c in range(cells) if c not in used]
        if level >= depth or not free or (level > 0 and rng.random() < 0.3):
            return Leaf(int(rng.random() < 0.6))
        cell = rng.choice(free)
        return Internal(cell, tuple(build(level + 1, used | {cell}, cells, depth) for _ in range(3)))

    while count:
        cells = rng.randint(2, 6)
        forest = one_tree(build(0, frozenset(), cells, rng.randint(1, min(4, cells))), cells, lam=3)
        if _leaf_mass(forest, 1) > 0:
            count -= 1
            yield forest


def test_table_coupling_matches_the_recursive_reference():
    forests = [forest for _, forest in coupling_instances()] + list(ternary_acceptors(40, seed=5))
    zero_children = 0
    for forest in forests:
        lam, cells = forest.input_space.alphabet, forest.input_space.cells
        root = annotate_acceptance(forest.trees[0].root, 0, cells, lam)
        report = couple_accepting(forest)
        measured, tv, acceptance = reference_exact(root, lam, cells)
        assert (report.measured, report.details["marginal_tv"], report.details["acceptance"]) == (measured, tv, acceptance)
        assert report.bound == 2.0 * math.sqrt(forest.depth * math.log(1.0 / acceptance))
        for seed in range(10):
            sample = coupled_sample(forest, seed=seed)
            assert (sample.x, sample.y, sample.dist) == reference_sample(root, lam, cells, seed)
        stack = [root]
        while stack:
            node, _, kids = stack.pop()
            zero_children += sum(1 for k in kids if k[1] == 0)
            stack.extend(kids)
    assert zero_children > 0


def test_coupling_calibration_rescales_the_bound(monkeypatch):
    monkeypatch.setattr(harness, "COUPLING_CALIBRATION", 0.01)
    report = couple_accepting(GATE)
    assert report.bound == pytest.approx(0.01 * math.sqrt(math.log(2)))
    assert not report.passed


# ---------------------------------------------------------------------------
# scalar probability claims


def test_at_least_two_matches_the_worked_example():
    report = verify_at_least_two((0.04, 0.04), 0.04)
    assert report.measured == pytest.approx(0.0016, abs=1e-15)
    assert report.bound == pytest.approx(-0.0048, abs=1e-15)
    assert report.passed
    assert report.status == "ok"


def test_at_least_two_never_fires_with_a_single_event():
    report = verify_at_least_two((0.05,), 0.05)
    assert report.measured == pytest.approx(0.0, abs=1e-12)
    assert report.bound == pytest.approx(0.05**2 / 4 - 2 * 0.05 * 0.05)
    assert report.passed


def test_at_least_two_flags_heavy_inputs_instead_of_crashing():
    report = verify_at_least_two((0.5, 0.5), 0.5)
    assert report.status == "precondition_violation"
    report = verify_at_least_two((0.06,), 0.04)
    assert report.status == "precondition_violation"
    with pytest.raises(UsageError):
        verify_at_least_two((1.5,), 0.5)


def test_at_least_two_agrees_with_brute_force_enumeration():
    q = (0.03, 0.02, 0.01, 0.02)
    report = verify_at_least_two(q, 0.03)
    brute = 0.0
    for picks in itertools.product((0, 1), repeat=len(q)):
        if sum(picks) >= 2:
            weight = 1.0
            for flag, p in zip(picks, q):
                weight *= p if flag else (1 - p)
            brute += weight
    assert report.measured == pytest.approx(brute, abs=1e-15)


def test_light_mass_on_the_uniform_law():
    report = verify_light_mass([1 / 16] * 16, 1.0)
    assert report.measured == pytest.approx(1.0)
    assert report.bound == pytest.approx(1 / 8)
    assert report.passed


def test_light_mass_guards():
    table = [0.0] * 16
    table[3] = 1.0
    assert verify_light_mass(table, 1.0).status == "precondition_violation"
    assert verify_light_mass([0.25] * 4, 1.0).status == "precondition_violation"
    with pytest.raises(UsageError):
        verify_light_mass([0.7, 0.7], 1.0)


def test_harper_on_the_full_cube():
    members = frozenset(itertools.product((0, 1), repeat=3))
    report = verify_harper(OutcomeSet(members, 3, 2), (2,))[0]
    assert report.measured == 1.0
    assert report.passed


def test_harper_with_a_zero_radius_is_a_sign_check():
    report = verify_harper(OutcomeSet(frozenset({(0, 0, 0)}), 3, 2), (0,))[0]
    assert report.measured == pytest.approx(0.125)
    assert report.bound == pytest.approx(-7.0)
    assert report.passed


def test_harper_measures_the_neighborhood_mass_exactly():
    report = verify_harper(OutcomeSet(frozenset({(0, 0, 0, 0)}), 4, 2), (2,))[0]
    assert report.measured == pytest.approx(11 / 16)
    assert report.bound == pytest.approx(-8.704490555402135, abs=1e-9)
    assert report.passed


def test_harper_guards():
    with pytest.raises(UsageError) as err:
        verify_harper(OutcomeSet(frozenset(), 3, 2), (1,))
    assert err.value.reason == "empty_set"
    with pytest.raises(UsageError) as err:
        verify_harper(OutcomeSet(frozenset({(0, 0, 0)}), 3, 2), (1, -1))
    assert err.value.reason == "bad_radius"
    with pytest.raises(UsageError) as err:
        verify_harper(OutcomeSet(frozenset({(0, 0, 0)}), 3, 2), (math.nan,))
    assert err.value.reason == "bad_radius"


def _harper_by_radius(outcome_set: OutcomeSet, k: int) -> ExperimentReport:
    """verify_harper as one pass over the distance array per radius: the slow reference."""
    dist = cube_distances_to_set(outcome_set)
    p_set = len(outcome_set) / dist.size
    exponent = -(k * k) / (2.0 * outcome_set.arity * math.log2(outcome_set.alphabet))
    details = {"set_mass": p_set, "k": k, "arity": outcome_set.arity}
    return ExperimentReport("harper", 1.0 - math.exp(exponent) / p_set, float((dist <= k).mean()), "ge", details=details)


def _harper_family_sets(count: int):
    """The harper family's first sets, built from tuples as the family once did."""
    rng = random.Random(31)
    for _ in range(count):
        picks = np.array(rng.sample(range(4096), rng.randint(512, 3686)))
        yield picks, OutcomeSet(frozenset(map(tuple, ((picks[:, None] >> np.arange(12)) & 1).tolist())), 12, 2)


def test_harper_reports_at_many_radii_match_one_radius_at_a_time():
    radii = (0, 1, 2, 2.5, 3, 6, 12, 13, 40, math.inf)
    sets = [OutcomeSet._from_indices(picks, 12, 2) for picks, _ in _harper_family_sets(3)]
    sets += [OutcomeSet(frozenset({(1, 0, 1)}), 3, 2), OutcomeSet(frozenset(itertools.product(range(3), repeat=3)), 3, 3)]
    for outcome_set in sets:
        reports = verify_harper(outcome_set, radii)
        assert [repr(r) for r in reports] == [repr(verify_harper(outcome_set, (k,))[0]) for k in radii]
        assert [repr(r) for r in reports] == [repr(_harper_by_radius(outcome_set, k)) for k in radii]
    assert verify_harper(sets[-1], (5,))[0].measured == 1.0


def test_the_harper_family_builds_no_tuples(monkeypatch):
    def no_members(self, name):
        assert name != "members", "the harper family built the member tuples"
        raise AttributeError(name)

    monkeypatch.setattr(OutcomeSet, "__getattr__", no_members)
    rows = list(harper_family(count=3))
    monkeypatch.undo()
    want = [
        (f"harper-{i:04d}-k{k}", _harper_by_radius(outcome_set, k))
        for i, (_, outcome_set) in enumerate(_harper_family_sets(3))
        for k in (1, 2, 3, 4, 5, 6)
    ]
    assert [(i, repr(r)) for i, r in rows] == [(i, repr(r)) for i, r in want]


# ---------------------------------------------------------------------------
# ensembles and collision distance


def test_ensemble_report_on_the_small_uniform_square():
    report = collision_ensemble_report(uniform_ensemble(4, 4))
    assert report.mode == "exact"
    assert report.measured == pytest.approx(0.90625, abs=1e-12)
    assert report.details["min_row_entropy"] == pytest.approx(2.0)
    assert report.details["joint_entropy"] == pytest.approx(8.0)
    assert report.details["delta"] == pytest.approx(0.25)
    assert report.passed


def test_ensemble_report_flags_the_disjoint_low_entropy_regime():
    rows = np.zeros((2, 5))
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0
    report = collision_ensemble_report(IndependentEnsemble(rows=rows))
    assert report.measured == 0.0
    assert report.details["min_row_entropy"] == 0.0


def test_ensemble_report_is_exact_up_to_the_limit_and_sampled_past_it():
    limit = analysis.ENSEMBLE_EXACT_LIMIT
    # one symbol: every variable takes it, so the chance is 1 on either path
    exact = collision_ensemble_report(uniform_ensemble(limit, 1), trials=50, seed=3)
    assert (exact.mode, exact.trials, exact.seed, exact.measured) == ("exact", None, None, 1.0)
    sampled = collision_ensemble_report(uniform_ensemble(limit + 1, 1), trials=50, seed=3)
    assert (sampled.mode, sampled.trials, sampled.seed, sampled.measured) == ("monte_carlo", 50, 3, 1.0)


def test_collision_tv_is_tight_on_a_constant_forest():
    f = DecisionForest(
        InputSpace(2, 2), OutputSpace(3, 3), (DecisionTree(Leaf(0)),) * 3
    )
    report = verify_collision_tv(f)
    assert report.measured == pytest.approx(1.0, abs=1e-9)
    assert report.bound == pytest.approx(1.0, abs=1e-9)
    assert report.passed


def test_collision_tv_lower_bounds_a_real_shuffle():
    report = verify_collision_tv(thorp_forest(ThorpSpec(2, 1)))
    assert report.bound <= report.measured + 1e-9
    assert report.passed


def test_the_collision_tv_family_computes_one_law_per_forest(monkeypatch):
    laws = []
    cube_law = analysis._cube_law

    def counted(forest, budget, cells=()):
        laws.append(forest)
        return cube_law(forest, budget, cells)

    monkeypatch.setattr(analysis, "_cube_law", counted)
    rows = list(collision_tv_family(count=12))
    monkeypatch.undo()
    rng = random.Random(47)
    forests = [DecisionForest(InputSpace(2, 2), OutputSpace(3, 3), (DecisionTree(Leaf(0)),) * 3)]
    for _ in range(1, 12):
        n = rng.choice([3, 4])
        forests.append(_random_forest_instance(rng, out_alphabet=n, out_cells=n))
    assert laws == forests
    for (_, report), forest in zip(rows, forests, strict=True):
        assert report.bound == tv_lower_bound_via_collision(output_distribution(forest))
        assert report.measured == float(exact_tv_to_uniform_perm(output_distribution(forest)))


def test_collision_tv_counts_a_blank_as_no_card():
    # the blank of output alphabet {0} is encoded as 1, the code of the card the alphabet lacks
    f = DecisionForest(InputSpace(1, 2), OutputSpace(2, 1, bot_allowed=True), (DecisionTree(Leaf(0)), DecisionTree(Leaf(1))))
    report = verify_collision_tv(f)
    assert (report.bound, report.measured) == (1.0, 1.0)
    assert report.passed


def test_collision_tv_refuses_an_output_alphabet_past_the_deck_before_any_law(monkeypatch):
    monkeypatch.setattr(analysis, "_cube_law", None)  # any law would fail with a TypeError
    f = DecisionForest(InputSpace(1, 2), OutputSpace(2, 3), (DecisionTree(Leaf(2)),) * 2)
    with pytest.raises(UsageError) as err:
        verify_collision_tv(f)
    assert err.value.reason == "mismatched_spaces"


# ---------------------------------------------------------------------------
# numeric facts


def test_taylor_style_bound_over_the_default_grid():
    report = verify_taylor_bound()
    assert report.passed


def test_sum_ratio_bound_examples():
    report = verify_sum_ratio_bound((1.0, 1.0), (1.0, 2.0))
    assert report.measured == pytest.approx(1.5)
    assert report.bound == pytest.approx(4 / 3)
    assert report.passed
    tight = verify_sum_ratio_bound((1.0, 1.0), (1.0, 1.0))
    assert tight.measured == pytest.approx(tight.bound)
    assert tight.passed
    with pytest.raises(UsageError):
        verify_sum_ratio_bound((1.0,), (1.0, 2.0))
    with pytest.raises(UsageError):
        verify_sum_ratio_bound((1.0,), (0.0,))
    for a, b in [((1.0, 2.0, math.nan), (1.0, 2.0, 3.0)), ((1.0, 2.0), (math.nan, 1.0))]:
        with pytest.raises(UsageError) as err:
            verify_sum_ratio_bound(a, b)
        assert err.value.reason == "bad_parameter"


def test_sum_ratio_bound_survives_an_underflowing_sum_of_products():
    report = verify_sum_ratio_bound([1e-200], [1e-200])
    assert (report.measured, report.bound) == (1.0, 1.0)
    report = verify_sum_ratio_bound([1e-200, 3e-200], [2e-200, 1e-200])
    assert report.bound == pytest.approx(16 / 5, rel=1e-12)
    assert report.measured >= report.bound
    with pytest.raises(UsageError) as err:  # a * b underflows even with a and b scaled to a largest term of 1
        verify_sum_ratio_bound([0.0, 1e-300], [1e10, 5e-324])
    assert err.value.reason == "bad_parameter"


# ---------------------------------------------------------------------------
# depth reduction and the dichotomy pipeline


def test_depth_reduction_rejects_shallow_forests():
    with pytest.raises(UsageError) as err:
        depth_reduction_step(identity_forest(2), 0.5, seed=0)
    assert err.value.reason == "too_shallow"
    deep = thorp_forest(ThorpSpec(2, 2))
    with pytest.raises(UsageError):
        depth_reduction_step(deep, 1.5, seed=0)


def test_depth_reduction_with_no_requeries_keeps_the_subforest():
    t0 = DecisionTree(Internal(0, (Internal(2, (Leaf(0), Leaf(1))), Leaf(1))))
    t1 = DecisionTree(Internal(1, (Internal(3, (Leaf(1), Leaf(0))), Leaf(0))))
    f = DecisionForest(InputSpace(4, 2), OutputSpace(2, 2), (t0, t1))
    report = depth_reduction_step(f, 1.0, seed=0)
    assert report.selected_cells == (0, 1)
    assert report.tree_indices == (0, 1)
    assert report.expected_blank_outputs == 0.0
    assert report.expected_extra_queries == 0.0
    assert report.h_selected == pytest.approx(report.h_pruned)
    for u in itertools.product((0, 1), repeat=4):
        assert eval_forest(report.pruned, u) == eval_forest(f, u)


def test_depth_reduction_counts_deeper_probes_of_selected_cells_pointwise():
    # tree 0 probes cell 1 again below its root; tree 1 probes cell 2, which is not selected, then cell 0
    t0 = Internal(0, (Internal(1, (Leaf(0), Leaf(1))), Leaf(1)))
    t1 = Internal(1, (Internal(2, (Leaf(1), Internal(0, (Leaf(0), Leaf(1))))), Leaf(0)))
    f = DecisionForest(InputSpace(3, 2), OutputSpace(2, 2), (DecisionTree(t0), DecisionTree(t1)))
    report = depth_reduction_step(f, 1.0, seed=0)
    assert report.selected_cells == (0, 1)
    deep = blanks = 0
    for u in itertools.product((0, 1), repeat=3):
        for tree in f.trees:
            node, depth = tree.root, 0
            while isinstance(node, Internal):
                deep += depth >= 1 and node.query in report.selected_cells
                node, depth = node.children[u[node.query]], depth + 1
        blanks += eval_forest(report.pruned, u).count(report.pruned.output_space.bot)
    assert deep == blanks == 6
    assert report.expected_extra_queries == report.expected_blank_outputs == deep / 8


def test_depth_reduction_on_the_three_round_shuffle_is_frozen():
    f = thorp_forest(ThorpSpec(3, 3))
    report = depth_reduction_step(f, 0.5, seed=2)
    assert report.selected_cells == (10, 11)
    assert report.tree_indices == (4, 5, 6, 7)
    selected = DecisionForest(f.input_space, OutputSpace(4, 8), tuple(f.trees[i] for i in report.tree_indices))
    assert report.subforest._table == selected._table
    assert report.h_selected == pytest.approx(8.0)
    assert report.h_pruned == pytest.approx(8.0)
    assert report.expected_extra_queries == 0.0
    assert report.expected_blank_outputs == 0.0
    assert report.pruned.depth <= f.depth


def test_depth_reduction_with_an_empty_draw_reports_zeroes():
    report = depth_reduction_step(thorp_forest(ThorpSpec(3, 3)), 0.0, seed=1)
    assert report.selected_cells == ()
    assert report.tree_indices == ()
    assert report.h_selected == 0.0
    assert report.subforest is None
    assert report.pruned is None


def test_dichotomy_takes_the_containment_branch_on_constants():
    f = DecisionForest(InputSpace(1, 2), OutputSpace(1, 2), (DecisionTree(Leaf(0)),))
    report = bucketed_dichotomy_experiment(f, BucketStructure(((0,),)), 0.5)
    assert report.details["branch"] == "containment"
    assert report.details["container_size"] == 1
    assert report.measured == 1.0
    assert report.passed


def test_dichotomy_with_one_bucket_restricts_nothing():
    f = identity_forest(3)
    report = bucketed_dichotomy_experiment(f, BucketStructure(((0, 1, 2),)), 1.0)
    assert report.details["branch"] == "collision"
    assert report.details["conditional_entropies"] == [pytest.approx(3.0)]
    sample = report.details["samples"][0]
    assert sample["assignment"] == []
    assert sample["entropy"] == pytest.approx(3.0)
    assert sample["collision_probability"] == pytest.approx(1.0)


def test_dichotomy_on_the_shuffle_reports_collision_free_slices():
    spec = ThorpSpec(3, 3)
    f = thorp_forest(spec)
    report = bucketed_dichotomy_experiment(
        f, thorp_bucket_structure(spec), 11.0, seed=0, betas=2
    )
    assert report.measured == pytest.approx(12.0)
    assert report.bound == pytest.approx(11.0)
    assert report.details["branch"] == "collision"
    assert report.details["bucket"] == 0
    assert report.details["conditional_entropies"] == [pytest.approx(4.0)] * 3
    for sample in report.details["samples"]:
        assert sample["entropy"] == pytest.approx(4.0)
        assert sample["collision_probability"] == 0.0


def dichotomy_corpus() -> list:
    """(forest, buckets): the 2- and 4-card shuffles plus random bucketed forests, some with blanks."""
    cases = [(thorp_forest(spec), thorp_bucket_structure(spec)) for spec in map(ThorpSpec, (1, 2, 2, 2, 3), (1, 1, 2, 3, 2))]
    rng = random.Random(4)
    for seed in range(40):
        s = rng.randint(3, 6)
        cells = rng.sample(range(s), s)
        cuts = sorted(rng.sample(range(1, s), rng.randint(0, 2)))
        buckets = BucketStructure(tuple(tuple(sorted(cells[a:b])) for a, b in zip([0] + cuts, cuts + [s])))
        spec = ForestGenSpec(
            cells=s, alphabet=rng.randint(2, 3), out_cells=rng.randint(1, 4), out_alphabet=rng.randint(2, 4),
            depth=len(buckets), seed=seed, buckets=buckets, bot_allowed=seed % 2 == 1,
        )
        cases.append((random_forest(spec), buckets))
    return cases


def test_dichotomy_samples_are_the_laws_of_restricted_forests(monkeypatch):
    def no_restrict(*args):
        raise AssertionError("the dichotomy restricted a forest")

    reports = []
    monkeypatch.setattr(harness, "restrict", no_restrict)
    for forest, buckets in dichotomy_corpus():
        for seed in (0, 3):
            reports.append((forest, bucketed_dichotomy_experiment(forest, buckets, 0.0, seed=seed, betas=4)))
    monkeypatch.undo()
    collisions = 0
    for forest, report in reports:
        for sample in report.details.get("samples", []):
            restricted = restrict(forest, dict(sample["assignment"]))
            assert sample["entropy"] == entropy(output_distribution(restricted))
            assert sample["collision_probability"] == collision_probability(restricted, mode="exact")
            collisions += 0 < sample["collision_probability"] < 1
    assert collisions > 10


def test_the_dichotomy_slices_its_samples_from_the_best_blocks_law(monkeypatch):
    laws = []
    cube_groups = analysis._cube_groups  # under every law, decoded or not

    def counted(forest, budget, cells=()):
        laws.append(cells)
        return cube_groups(forest, budget, cells)

    spec = ThorpSpec(3, 3)
    monkeypatch.setattr(analysis, "_cube_groups", counted)
    monkeypatch.setattr(harness, "_cube_groups", counted)
    report = bucketed_dichotomy_experiment(thorp_forest(spec), thorp_bucket_structure(spec), 11.0, betas=3)
    monkeypatch.undo()
    # the ungrouped law, then one law per block grouped by the cells outside it
    assert laws == [(), tuple(range(8)), tuple(range(4)) + tuple(range(8, 12)), tuple(range(4, 12))]
    assert len(report.details["samples"]) == 3


def test_the_dichotomy_decodes_only_the_rows_of_its_samples(monkeypatch):
    decoded = []
    key_rows = harness._key_rows
    monkeypatch.setattr(harness, "_key_rows", lambda forest, keys: decoded.append(len(keys)) or key_rows(forest, keys))
    spec = ThorpSpec(3, 3)
    f = thorp_forest(spec)
    report = bucketed_dichotomy_experiment(f, thorp_bucket_structure(spec), 11.0, betas=3)
    monkeypatch.undo()
    samples = [output_distribution(restrict(f, dict(s["assignment"]))) for s in report.details["samples"]]
    assert decoded == [len(law.rows) for law in samples]


def test_dichotomy_rejects_mismatched_bucket_structures():
    f = passthrough_forest()
    with pytest.raises(UsageError) as err:
        bucketed_dichotomy_experiment(f, BucketStructure(((1,), (0,))), 1.0)
    assert err.value.reason == "not_bucketed"


def _gate_forest(bot_allowed: bool = False) -> DecisionForest:
    return DecisionForest(InputSpace(1, 2), OutputSpace(1, 2, bot_allowed), (DecisionTree(Internal(0, (Leaf(0), Leaf(1)))),))


def _pair_law() -> Distribution:
    return Distribution({(0, 1): 0.5, (1, 0): 0.5}, 2)


# (call, reason) for each library guard, named by the guard it reaches
LIBRARY_GUARDS = [
    pytest.param(lambda: InputSpace(0, 2), "bad_space", id="input-cells"),
    pytest.param(lambda: InputSpace(2, 1), "bad_space", id="input-alphabet"),
    pytest.param(lambda: OutputSpace(0, 2), "bad_space", id="output-cells"),
    pytest.param(lambda: OutputSpace(1, 0), "bad_space", id="output-alphabet"),
    pytest.param(lambda: Internal(0, ()), "bad_tree", id="childless-internal"),
    pytest.param(lambda: DecisionForest(InputSpace(1, 2), OutputSpace(1, 2), (DecisionTree("leaf"),)), "bad_tree", id="unknown-node"),
    pytest.param(lambda: BucketStructure(((0, 1), (1,))), "bad_buckets", id="overlapping-buckets"),
    pytest.param(lambda: BucketStructure(((0,), (2,))), "bad_buckets", id="buckets-not-a-partition"),
    pytest.param(lambda: BucketStructure(()), "bad_buckets", id="no-buckets"),
    pytest.param(lambda: forestlab.query_profile(_gate_forest(), 1.0, mode="sample"), "bad_mode", id="profile-mode"),
    pytest.param(
        lambda: forest_from_json({**forest_to_json(_gate_forest()), "trees": [{"leaf": None}]}), "bad_leaf", id="blank-leaf-without-blanks"
    ),
    pytest.param(lambda: OutcomeSet(frozenset({(0,)}), 2, 2), "bad_outcome", id="member-arity"),
    pytest.param(lambda: OutcomeSet(frozenset({(0, 2)}), 2, 2), "bad_outcome", id="member-symbol"),
    pytest.param(lambda: IndependentEnsemble([0.5, 0.5]), "bad_ensemble", id="ensemble-one-row"),
    pytest.param(lambda: IndependentEnsemble([[1.0]]), "bad_ensemble", id="ensemble-no-blank-column"),
    pytest.param(lambda: collision_probability("law"), "bad_source", id="collision-source"),
    pytest.param(lambda: cube_distances_to_set(OutcomeSet(frozenset(), 2, 2)), "empty_set", id="distances-to-nothing"),
    pytest.param(lambda: analysis.parse_distribution("\n \n"), "empty_distribution", id="empty-dump"),
    pytest.param(lambda: containment_set(_pair_law(), -1.0), "bad_parameter", id="containment-negative-k"),
    pytest.param(lambda: verify_mixture_bound(_pair_law(), 0), "bad_parameter", id="mixture-sigma"),
    pytest.param(lambda: verify_second_moment_tail(_gate_forest(bot_allowed=True)), "bad_leaf", id="second-moment-blanks"),
    pytest.param(lambda: verify_lipschitz_after_conditioning(_gate_forest(), 1.0, 1.5, trials=10), "bad_parameter", id="conditioning-delta-above-1"),
    pytest.param(lambda: verify_lipschitz_after_conditioning(_gate_forest(), 1.0, -0.1, trials=10), "bad_parameter", id="conditioning-delta-below-0"),
    pytest.param(
        lambda: ForestGenSpec(cells=2, alphabet=2, out_cells=1, out_alphabet=2, depth=3, seed=0, buckets=BucketStructure(((0,), (1,)))),
        "unsatisfiable",
        id="spec-depth-past-buckets",
    ),
]


@pytest.mark.parametrize("call, reason", LIBRARY_GUARDS)
def test_each_library_guard_stops_with_its_reason(call, reason):
    with pytest.raises(UsageError) as err:
        call()
    assert err.value.reason == reason


def test_check_lipschitz_names_the_worst_tail_when_only_the_tail_fails():
    profile = forestlab.QueryProfile(expected=(1.0, 0.5, 1.0), tail=(0.1, 0.4, 0.2), mu=1.0, mode="exact")
    report = forestlab.check_lipschitz(profile, 0.25)
    assert (report.average_ok, report.tail_ok, report.worst_cell, report.delta) == (True, False, 1, 0.25)
