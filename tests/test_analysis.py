"""Entropy, distance, collision, and neighborhood calculations."""
import collections
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from forestlab import (
    BudgetError,
    DecisionForest,
    DecisionTree,
    Distribution,
    ForestGenSpec,
    IndependentEnsemble,
    InputSpace,
    Internal,
    Leaf,
    OutcomeSet,
    OutputSpace,
    UsageError,
    collision_ensemble_report,
    collision_probability,
    conditional_entropy_detail,
    cube_distances_to_set,
    derive_seed,
    ensemble_collision_probability,
    entropy,
    hoeffding_halfwidth,
    monte_carlo_conditional_entropy,
    neighborhood,
    output_distribution,
    parse_distribution,
    query_profile,
    random_forest,
    sample_ensemble,
    sample_forest_outputs,
    thorp_forest,
    ThorpSpec,
    tv_distance,
    tv_lower_bound_via_collision,
    uniform_ensemble,
    uniform_perm_distribution,
)
from forestlab import analysis
from forestlab.cli import _dump_outcome_set
from forestlab.samplers import thorp_network_permutation

from pointwise_reference import collision_stat, exact_tv_to_uniform_perm, hamming_dist_to_set


def identity_forest(s: int, lam: int = 2) -> DecisionForest:
    trees = tuple(
        DecisionTree(Internal(i, tuple(Leaf(v) for v in range(lam)))) for i in range(s)
    )
    return DecisionForest(InputSpace(s, lam), OutputSpace(s, lam), trees)


def xor_forest() -> DecisionForest:
    root = Internal(
        0,
        (
            Internal(1, (Leaf(0), Leaf(1))),
            Internal(1, (Leaf(1), Leaf(0))),
        ),
    )
    return DecisionForest(InputSpace(2, 2), OutputSpace(1, 2), (DecisionTree(root),))


def dist1(*ps) -> Distribution:
    return Distribution({(i,): p for i, p in enumerate(ps)}, 1)


def test_entropy_of_the_classic_dyadic_law():
    assert entropy(dist1(0.5, 0.25, 0.125, 0.125)) == pytest.approx(1.75, abs=1e-12)


def test_entropy_edge_cases():
    assert entropy(dist1(1.0)) == 0.0
    assert entropy(dist1(*([1 / 8] * 8))) == pytest.approx(3.0, abs=1e-12)


def test_distribution_validation():
    with pytest.raises(UsageError) as err:
        Distribution({(0,): 0.4, (1,): 0.4}, 1)
    assert err.value.reason == "bad_probability"
    with pytest.raises(UsageError):
        Distribution({(0,): -0.5, (1,): 1.5}, 1)
    with pytest.raises(UsageError) as err:
        Distribution({(0, 0): 1.0}, 1)
    assert err.value.reason == "bad_outcome"


def test_tv_distance_basics():
    a = dist1(1.0, 0.0)
    b = dist1(0.0, 1.0)
    assert tv_distance(a, b) == pytest.approx(1.0)
    assert tv_distance(a, a) == 0.0
    c = dist1(0.5, 0.5)
    assert tv_distance(a, c) == pytest.approx(0.5)
    assert tv_distance(a, c) == tv_distance(c, a)
    with pytest.raises(UsageError) as err:
        tv_distance(a, Distribution({(0, 0): 1.0}, 2))
    assert err.value.reason == "mismatched_spaces"


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
def test_tv_satisfies_the_triangle_inequality(weights):
    total = sum(weights)
    base = [w / total for w in weights]
    rolled = base[1:] + base[:1]
    flat = [1 / len(base)] * len(base)
    a, b, c = dist1(*base), dist1(*rolled), dist1(*flat)
    assert tv_distance(a, b) <= tv_distance(a, c) + tv_distance(c, b) + 1e-12


def test_single_round_shuffle_distance_to_uniform():
    dist = output_distribution(thorp_forest(ThorpSpec(2, 1)))
    assert entropy(dist) == pytest.approx(2.0, abs=1e-12)
    assert tv_distance(dist, uniform_perm_distribution(4)) == pytest.approx(
        5 / 6, abs=1e-12
    )


def test_conditional_entropy_on_the_parity_forest():
    f = xor_forest()
    assert conditional_entropy_detail(f, ()).value == pytest.approx(1.0, abs=1e-12)
    assert conditional_entropy_detail(f, (0,)).value == pytest.approx(1.0, abs=1e-12)
    assert conditional_entropy_detail(f, (0, 1)).value == 0.0


def test_conditional_entropy_on_a_passthrough_forest():
    f = identity_forest(3)
    assert conditional_entropy_detail(f, (1,)).value == pytest.approx(2.0, abs=1e-12)
    for cells in ((9,), (-1,)):
        with pytest.raises(UsageError) as err:
            conditional_entropy_detail(f, cells)
        assert err.value.reason == "bad_cells"
        with pytest.raises(UsageError) as err:
            monte_carlo_conditional_entropy(f, cells, trials=200)
        assert err.value.reason == "bad_cells"


@given(st.integers(0, 120))
def test_conditioning_never_raises_entropy(seed):
    spec = ForestGenSpec(
        cells=4, alphabet=2, out_cells=3, out_alphabet=2, depth=2, seed=seed
    )
    f = random_forest(spec)
    h = entropy(output_distribution(f))
    assert conditional_entropy_detail(f, (0,)).value <= h + 1e-9
    assert conditional_entropy_detail(f, (0, 2)).value <= conditional_entropy_detail(f, (0,)).value + 1e-9


def test_monte_carlo_conditional_entropy_is_flagged_and_close():
    f = xor_forest()
    detail = monte_carlo_conditional_entropy(f, (0,), trials=20000, seed=1)
    assert detail.mode == "monte_carlo"
    assert detail.biased == "low"
    assert abs(detail.value - 1.0) < 0.05


def test_monte_carlo_conditional_entropy_needs_two_samples_per_assignment():
    f = thorp_forest(ThorpSpec(2, 2))
    with pytest.raises(UsageError) as err:
        monte_carlo_conditional_entropy(f, (0,), trials=127, seed=0)
    assert err.value.reason == "bad_trials"
    detail = monte_carlo_conditional_entropy(f, (0,), trials=128, seed=0)
    assert (detail.trials, detail.value) == (128, 0.890625)
    # 64 assignments take 191 // 64 = 2 samples each: the same 128 draws, reported as such
    detail = monte_carlo_conditional_entropy(f, (0,), trials=191, seed=0)
    assert (detail.trials, detail.value) == (128, 0.890625)


@pytest.mark.parametrize("assignments", [0, -3])
def test_monte_carlo_conditional_entropy_needs_an_assignment(assignments):
    with pytest.raises(UsageError) as err:
        monte_carlo_conditional_entropy(xor_forest(), (0,), trials=100, assignments=assignments)
    assert err.value.reason == "bad_parameter"


def test_monte_carlo_conditional_entropy_refuses_more_assignments_than_seed_steps_before_any_batch(monkeypatch):
    def inputs(*args):
        raise AssertionError("drew a batch")

    monkeypatch.setattr(analysis, "_uniform_inputs", inputs)
    assignments = (1 << 20) + 1
    with pytest.raises(UsageError) as err:
        monte_carlo_conditional_entropy(xor_forest(), (0,), trials=2 * assignments, assignments=assignments)
    assert err.value.reason == "bad_parameter"


def test_collision_stat_counts_repeats_beyond_the_first():
    assert collision_stat((0, 1, 2)) == 0
    assert collision_stat((0, 1, 0)) == 1
    assert collision_stat((2, 2, 2)) == 2
    assert collision_stat((3, 3, 1), bot=3) == 0


def test_birthday_probability_for_the_small_uniform_ensemble():
    ens = uniform_ensemble(4, 4)
    exact = collision_probability(ens, mode="exact")
    assert exact == pytest.approx(1 - math.factorial(4) / 4**4, abs=1e-12)
    assert exact == pytest.approx(0.90625, abs=1e-12)
    sampled = collision_probability(ens, mode="monte_carlo", trials=100_000, seed=3)
    assert abs(sampled - exact) < 0.01


def test_ensemble_rows_validate():
    with pytest.raises(UsageError) as err:
        IndependentEnsemble(rows=np.array([[0.5, 0.4, 0.0]]))
    assert err.value.reason == "bad_probability"


def test_disjoint_supports_never_collide():
    rows = np.zeros((2, 5))
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0
    ens = IndependentEnsemble(rows=rows)
    assert ensemble_collision_probability(ens) == 0.0


def test_blank_heavy_rows_never_collide():
    rows = np.zeros((3, 3))
    rows[:, 2] = 1.0
    ens = IndependentEnsemble(rows=rows)
    assert ensemble_collision_probability(ens) == 0.0
    draws = sample_ensemble(ens, trials=50, seed=0)
    assert (draws == 2).all()


def test_sampled_ensembles_agree_with_the_exact_law():
    ens = uniform_ensemble(3, 4)
    exact = ensemble_collision_probability(ens)
    draws = sample_ensemble(ens, trials=100_000, seed=9)
    assert draws.shape == (100_000, 3)
    hits = sum(collision_stat(tuple(row), bot=4) > 0 for row in draws[:5000])
    assert abs(hits / 5000 - exact) < 0.03


def test_collision_probability_of_a_forest():
    f = identity_forest(2)
    assert collision_probability(f, mode="exact") == pytest.approx(0.5, abs=1e-12)
    sampled = collision_probability(f, mode="monte_carlo", trials=50_000, seed=2)
    assert abs(sampled - 0.5) < 0.01


def test_exact_tv_of_the_8_card_shuffle_is_the_correctly_rounded_fraction():
    uniform = uniform_perm_distribution(8)
    for rounds in (1, 2, 3, 4):
        spec = ThorpSpec(3, rounds)
        n = 2**spec.coins
        law = collections.Counter(
            thorp_network_permutation(spec, coins) for coins in itertools.product((0, 1), repeat=spec.coins)
        )
        gaps = sum(abs(Fraction(c, n) - Fraction(1, 40320)) for c in law.values())
        exact = (gaps + Fraction(40320 - len(law), 40320)) / 2
        assert tv_distance(output_distribution(thorp_forest(spec)), uniform) == float(exact)
    assert tv_distance(output_distribution(thorp_forest(ThorpSpec(3, 1))), uniform) == 2519 / 2520


def test_collision_lower_bound_stays_below_the_true_distance():
    for rounds in (1, 2, 3):
        f = thorp_forest(ThorpSpec(2, rounds))
        law = output_distribution(f)
        tv = tv_distance(law, uniform_perm_distribution(4))
        assert tv_lower_bound_via_collision(law) <= tv + 1e-9


def seeded_deck_forests(count: int = 400, seed: int = 27):
    """Random forests with 1-6 outputs, blanks in about half, output alphabets from n - 1 to n + 1."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 6)
        spec = ForestGenSpec(
            cells=rng.randint(2, 5), alphabet=rng.randint(2, 3), out_cells=m,
            out_alphabet=rng.randint(max(1, m - 1), m + 1), depth=rng.randint(1, 3),
            seed=rng.randrange(2**31), bot_allowed=rng.random() < 0.5, stop_prob=rng.choice([0.0, 0.2, 0.5]),
        )
        yield random_forest(spec)


def test_tv_to_uniform_decks_is_the_correctly_rounded_exact_tv_on_random_forests():
    seen = collections.Counter()
    for forest in seeded_deck_forests():
        law = output_distribution(forest)
        n, tv = law.arity, analysis._tv_to_uniform_perm(law)
        assert tv == float(exact_tv_to_uniform_perm(law))
        seen["blank"] += law.bot is not None
        seen["short alphabet"] += forest.output_space.alphabet < n
        seen["some deck"] += tv < 1.0
        if law.bot is None or law.bot >= n:  # else the materialized law reads the blank's code n - 1 as a card
            assert abs(tv - tv_distance(law, uniform_perm_distribution(n))) <= math.ulp(tv)
            seen["checked against tv_distance"] += 1
    assert min(seen.values()) >= 90, seen


def test_tv_to_uniform_decks_matches_the_materialized_law_at_every_shuffle_round():
    uniform = uniform_perm_distribution(8)
    for rounds in range(1, 7):
        law = output_distribution(thorp_forest(ThorpSpec(3, rounds)))
        assert analysis._tv_to_uniform_perm(law) == tv_distance(law, uniform)


def test_tv_to_uniform_decks_reaches_past_the_materialized_law():
    # nine cards: four coins each swap a pair of positions, a fifth blanks the last card or keeps it
    swap = lambda coin, a, b: Internal(coin, (Leaf(a), Leaf(b)))
    trees = [swap(c, 2 * c + d, 2 * c + 1 - d) for c in range(4) for d in (0, 1)] + [swap(4, 8, 9)]
    forest = DecisionForest(InputSpace(5, 2), OutputSpace(9, 9, bot_allowed=True), tuple(map(DecisionTree, trees)))
    law = output_distribution(forest)
    assert len(law.rows) == 32
    tv = analysis._tv_to_uniform_perm(law)
    assert tv == float(exact_tv_to_uniform_perm(law)) == float(1 - Fraction(16, math.factorial(9)))
    with pytest.raises(UsageError) as err:
        uniform_perm_distribution(9)
    assert err.value.reason == "bad_spec"


def test_neighborhood_stops_with_set_budget_once_the_grown_set_passes_it():
    point = OutcomeSet(frozenset({(0, 0, 0)}), 3, 2)
    assert len(neighborhood(point, 1, budget=4)) == 4
    with pytest.raises(BudgetError) as err:
        neighborhood(point, 2, budget=4)
    assert err.value.reason == "set_budget"


def test_exact_ensemble_collision_stops_with_enum_budget_past_20_variables():
    assert analysis.ENSEMBLE_EXACT_LIMIT == 20
    with pytest.raises(BudgetError) as err:
        ensemble_collision_probability(uniform_ensemble(21, 2))
    assert err.value.reason == "enum_budget"


def test_neighborhood_growth_around_a_single_point():
    s = OutcomeSet(frozenset({(0, 0, 0, 0)}), 4, 2)
    sizes = [len(neighborhood(s, k).members) for k in range(5)]
    assert sizes == [1, 5, 11, 15, 16]


def test_neighborhood_contains_the_set_and_grows_monotonically():
    members = frozenset({(0, 1, 0), (1, 1, 1)})
    s = OutcomeSet(members, 3, 2)
    prev = members
    for k in range(4):
        grown = neighborhood(s, k).members
        assert prev <= grown
        prev = grown


def test_neighborhood_guards():
    empty = OutcomeSet(frozenset(), 3, 2)
    with pytest.raises(UsageError) as err:
        neighborhood(empty, 1)
    assert err.value.reason == "empty_set"
    s = OutcomeSet(frozenset({(0, 0, 0)}), 3, 2)
    with pytest.raises(UsageError):
        neighborhood(s, -1)


def test_hamming_distances_to_a_set():
    s = OutcomeSet(frozenset({(0, 0, 0, 0), (1, 1, 1, 1)}), 4, 2)
    assert hamming_dist_to_set((0, 0, 0, 0), s) == 0
    assert hamming_dist_to_set((1, 1, 0, 0), s) == 2
    assert hamming_dist_to_set((1, 1, 1, 0), s) == 1


def test_cube_distances_shrink_by_exactly_the_radius():
    s = OutcomeSet(frozenset({(0, 0, 0, 0)}), 4, 2)
    base = cube_distances_to_set(s)
    for k in (1, 2, 3):
        grown = cube_distances_to_set(neighborhood(s, k))
        assert (grown == np.maximum(base - k, 0)).all()


def _distance_sets(rng, lam: int, arity: int):
    n = lam ** arity
    yield [int(rng.integers(n))]
    yield list(range(n))
    density = rng.random()
    picked = np.flatnonzero(rng.random(n) < density)
    yield list(picked) if picked.size else [int(rng.integers(n))]


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_cube_distances_match_the_pointwise_reference(lam):
    # hamming_dist_to_set scans the members for each point, so on the larger
    # cubes it is checked at a seeded sample of about 2**18 / |set| points
    rng = np.random.default_rng(lam)
    for arity in range(7):
        n = lam ** arity
        points = [tuple(int(i // lam**r % lam) for r in range(arity)) for i in range(n)]
        for picks in _distance_sets(rng, lam, arity):
            outcome_set = OutcomeSet(frozenset(points[i] for i in picks), arity, lam)
            dist = cube_distances_to_set(outcome_set)
            assert dist.dtype == np.int32 and dist.shape == (n,)
            checked = range(n)
            if n * len(picks) > 2**18:
                checked = rng.choice(n, size=2**18 // len(picks), replace=False)
            for i in checked:
                assert dist[i] == hamming_dist_to_set(points[i], outcome_set), (arity, i)


def test_sets_past_int64_indices_keep_the_member_paths():
    members = frozenset({(299,) * 10, tuple(range(10)), (0,) * 10})
    s = OutcomeSet(members, 10, 300)
    assert hamming_dist_to_set((299,) * 9 + (0,), s) == 1
    assert neighborhood(s, 0).members == members
    for budget in (2**26, 10**30):
        with pytest.raises(BudgetError) as err:
            cube_distances_to_set(s, budget=budget)
        assert err.value.reason == "enum_budget"


def _tuple_built(picks, arity: int, lam: int) -> OutcomeSet:
    """The set of cube indices `picks`, built from tuples in pick order."""
    return OutcomeSet(frozenset(tuple(int(i) // lam**r % lam for r in range(arity)) for i in picks), arity, lam, "d")


@pytest.mark.parametrize("lam, arity", [(2, 1), (2, 12), (3, 4), (5, 3)])
def test_index_built_sets_match_tuple_built_sets(lam, arity):
    rng = np.random.default_rng(lam * 100 + arity)
    n = lam**arity
    for picks in _distance_sets(rng, lam, arity):
        picks = rng.permutation(np.asarray(picks, dtype=np.int64))
        built = OutcomeSet._from_indices(picks, arity, lam, "d")
        reference = _tuple_built(picks, arity, lam)
        assert len(built) == len(reference)
        assert (cube_distances_to_set(built) == cube_distances_to_set(reference)).all()
        assert "members" not in vars(built)  # neither len nor the distances build them
        assert built.members == reference.members
        assert set(built.indices.tolist()) == set(reference.indices.tolist()) == set(picks.tolist())
        assert built == reference and hash(built) == hash(reference) and repr(built) == repr(reference)
        assert _dump_outcome_set(built) == _dump_outcome_set(reference)
        for i in rng.choice(n, size=min(n, 50), replace=False):
            point = tuple(int(i) // lam**r % lam for r in range(arity))
            assert hamming_dist_to_set(point, built) == hamming_dist_to_set(point, reference)


@pytest.mark.parametrize(
    "indices, arity",
    [
        (np.array([0, 1, 1]), 3),
        (np.array([-1, 2]), 3),
        (np.array([0, 8]), 3),
        (np.array([0.0, 1.0]), 3),
        (np.array([True]), 3),
        (np.zeros((1, 1), int), 3),
        (np.array([2**63], dtype=np.uint64), 64),
    ],
)
def test_index_built_sets_reject_bad_indices(indices, arity):
    with pytest.raises(UsageError) as err:
        OutcomeSet._from_indices(indices, arity, 2)
    assert err.value.reason == "bad_outcome"


def test_distribution_dump_parses_blanks_and_sums_repeated_outcomes():
    dist = parse_distribution("0,_\t0.5\n1,_\t0.125\n\n0,0\t0.25\n1,_\t0.125\n", bot=2)
    assert dist.arity == 2 and dist.bot == 2
    assert dist.probs == {(0, 2): 0.5, (1, 2): 0.25, (0, 0): 0.25}
    assert dist.rows.tolist() == [[0, 2], [1, 2], [0, 0]] and dist.weights.tolist() == [0.5, 0.25, 0.25]


@pytest.mark.parametrize(
    "text", ["9223372036854775808,0\t1.0\n", "0,1\t0.5\n-9223372036854775809,0\t0.5\n"]
)
def test_a_dump_symbol_past_int64_is_a_bad_outcome(text):
    with pytest.raises(UsageError) as err:
        parse_distribution(text)
    assert err.value.reason == "bad_outcome"


def test_a_law_keeps_int64_symbols_and_refuses_float_ones():
    edges = parse_distribution("-9223372036854775808,9223372036854775807\t0.5\n0,0\t0.5\n")
    assert edges.probs == {(-(2**63), 2**63 - 1): 0.5, (0, 0): 0.5}
    assert tv_distance(edges, parse_distribution("0,0\t1\n")) == 0.5
    with pytest.raises(UsageError) as err:
        Distribution({(0.5,): 1.0}, 1)
    assert err.value.reason == "bad_outcome"


def test_tv_numbers_rows_whose_packed_keys_would_pass_int64():
    # every column spans 0..15, so packed keys would need 16**16 > 2**63 values
    low, high, up, down = (0,) * 16, (15,) * 16, tuple(range(16)), tuple(range(15, -1, -1))
    a = Distribution({low: 0.5, high: 0.25, up: 0.25}, 16)
    b = Distribution({high: 0.75, low: 0.125, down: 0.125}, 16)
    assert tv_distance(a, b) == tv_distance(b, a) == 0.5 * math.fsum([0.375, 0.5, 0.25, 0.125])


def test_parsing_rejects_unexpected_blanks():
    with pytest.raises(UsageError) as err:
        parse_distribution("0,_\t1.0\n")
    assert err.value.reason == "bad_outcome"


def test_seed_derivation_spreads_steps_apart():
    assert derive_seed(5, 1) == (5 << 20) ^ 1
    stream = {derive_seed(7, t) for t in range(1000)}
    assert len(stream) == 1000
    assert derive_seed(1, (1 << 20) - 1) != derive_seed(2, 0)


@pytest.mark.parametrize("seed, step", [(0, 1 << 20), (3, -1), (-1, 0)])
def test_seed_derivation_rejects_colliding_arguments(seed, step):
    # derive_seed(0, 2**20) would equal derive_seed(1, 0)
    with pytest.raises(UsageError) as err:
        derive_seed(seed, step)
    assert err.value.reason == "bad_seed"


def test_hoeffding_halfwidth_formula():
    want = math.sqrt(math.log(2 / 0.01) / (2 * 100_000))
    assert hoeffding_halfwidth(100_000) == pytest.approx(want, rel=1e-12)
    assert hoeffding_halfwidth(1000) > hoeffding_halfwidth(4000)


@pytest.mark.parametrize("trials", [0, -3])
def test_hoeffding_halfwidth_needs_at_least_one_trial(trials):
    with pytest.raises(UsageError) as err:
        hoeffding_halfwidth(trials)
    assert err.value.reason == "bad_trials"


def test_output_distribution_sums_to_one():
    spec = ForestGenSpec(
        cells=4, alphabet=3, out_cells=2, out_alphabet=3, depth=2, seed=77
    )
    dist = output_distribution(random_forest(spec))
    assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_uniform_ensemble_layout():
    ens = uniform_ensemble(3, 5)
    assert ens.rows.shape == (3, 6)
    assert (ens.rows[:, -1] == 0.0).all()
    assert np.allclose(ens.rows.sum(axis=1), 1.0)


@pytest.mark.parametrize("source", [uniform_ensemble(2, 2), identity_forest(2)], ids=["ensemble", "forest"])
def test_sampled_collision_refuses_zero_trials_before_drawing(monkeypatch, source):
    def no_draws(*args):
        raise AssertionError("drew outputs")

    monkeypatch.setattr(analysis, "sample_ensemble", no_draws)
    monkeypatch.setattr(analysis, "sample_forest_outputs", no_draws)
    with pytest.raises(UsageError) as err:
        collision_probability(source, mode="monte_carlo", trials=0)
    assert err.value.reason == "bad_trials"


def test_sampled_conditional_entropy_refuses_a_negative_seed():
    with pytest.raises(UsageError) as err:
        monte_carlo_conditional_entropy(thorp_forest(ThorpSpec(2, 2)), (0,), trials=200, seed=-1)
    assert err.value.reason == "bad_seed"


SHUFFLE = thorp_forest(ThorpSpec(2, 2))
ENSEMBLE = uniform_ensemble(3, 4)


@pytest.mark.parametrize(
    "draw, reason",
    [
        pytest.param(lambda: collision_probability(SHUFFLE, mode="monte_carlo", seed=-1), "bad_seed", id="forest-collision"),
        pytest.param(lambda: collision_probability(ENSEMBLE, mode="monte_carlo", seed=-1), "bad_seed", id="ensemble-collision"),
        pytest.param(lambda: sample_forest_outputs(SHUFFLE, 10, -1), "bad_seed", id="forest-outputs-seed"),
        pytest.param(lambda: query_profile(SHUFFLE, 1.0, mode="monte_carlo", seed=-1), "bad_seed", id="query-profile"),
        pytest.param(lambda: sample_ensemble(ENSEMBLE, 10, -1), "bad_seed", id="ensemble-draws-seed"),
        pytest.param(lambda: collision_ensemble_report(uniform_ensemble(21, 4), seed=-1), "bad_seed", id="ensemble-report"),
        pytest.param(lambda: sample_forest_outputs(SHUFFLE, -1, 1), "bad_trials", id="forest-outputs-trials"),
        pytest.param(lambda: sample_ensemble(ENSEMBLE, -1, 1), "bad_trials", id="ensemble-draws-trials"),
    ],
)
def test_sampled_draws_refuse_a_negative_seed_or_trial_count(draw, reason):
    with pytest.raises(UsageError) as err:
        draw()
    assert err.value.reason == reason


def test_mode_guards_reject_unknown_modes():
    with pytest.raises(UsageError) as err:
        collision_probability(uniform_ensemble(2, 2), mode="psychic")
    assert err.value.reason == "bad_mode"
