"""Entropy, distance, collision, and neighborhood calculations."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from forestlab import (
    DecisionForest,
    DecisionTree,
    Distribution,
    ForestGenSpec,
    IndependentEnsemble,
    InputSpace,
    Internal,
    Leaf,
    Measurement,
    OutcomeSet,
    OutputSpace,
    UsageError,
    collision_probability,
    collision_stat,
    conditional_entropy,
    cube_distances_to_set,
    derive_seed,
    dump_distribution,
    ensemble_collision_probability,
    entropy,
    hamming_dist_to_set,
    hoeffding_halfwidth,
    monte_carlo_conditional_entropy,
    neighborhood,
    output_distribution,
    parse_distribution,
    random_forest,
    sample_ensemble,
    thorp_forest,
    ThorpSpec,
    tv_distance,
    tv_lower_bound_via_collision,
    uniform_ensemble,
    uniform_perm_distribution,
)


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
    assert conditional_entropy(f, ()) == pytest.approx(1.0, abs=1e-12)
    assert conditional_entropy(f, (0,)) == pytest.approx(1.0, abs=1e-12)
    assert conditional_entropy(f, (0, 1)) == 0.0


def test_conditional_entropy_on_a_passthrough_forest():
    f = identity_forest(3)
    assert conditional_entropy(f, (1,)) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(UsageError) as err:
        conditional_entropy(f, (9,))
    assert err.value.reason == "bad_cells"


@given(st.integers(0, 120))
def test_conditioning_never_raises_entropy(seed):
    spec = ForestGenSpec(
        cells=4, alphabet=2, out_cells=3, out_alphabet=2, depth=2, seed=seed
    )
    f = random_forest(spec)
    h = entropy(output_distribution(f))
    assert conditional_entropy(f, (0,)) <= h + 1e-9
    assert conditional_entropy(f, (0, 2)) <= conditional_entropy(f, (0,)) + 1e-9


def test_monte_carlo_conditional_entropy_is_flagged_and_close():
    f = xor_forest()
    detail = monte_carlo_conditional_entropy(f, (0,), trials=20000, seed=1)
    assert detail.mode == "monte_carlo"
    assert detail.biased == "low"
    assert abs(detail.value - 1.0) < 0.05


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


def test_collision_lower_bound_stays_below_the_true_distance():
    for rounds in (1, 2, 3):
        f = thorp_forest(ThorpSpec(2, rounds))
        tv = tv_distance(output_distribution(f), uniform_perm_distribution(4))
        assert tv_lower_bound_via_collision(f) <= tv + 1e-9


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


def test_distribution_dump_round_trips_with_blanks():
    probs = {(0, 2): 0.5, (1, 2): 0.25, (0, 0): 0.25}
    dist = Distribution(probs, 2, bot=2)
    text = dump_distribution(dist)
    assert "_" in text
    back = parse_distribution(text, bot=2)
    assert back.arity == 2
    for key, p in probs.items():
        assert back.probs[key] == pytest.approx(p, abs=1e-15)


def test_parsing_rejects_unexpected_blanks():
    with pytest.raises(UsageError) as err:
        parse_distribution("0,_\t1.0\n")
    assert err.value.reason == "bad_outcome"


def test_measurement_serialization_field_names():
    m = Measurement(quantity="entropy", mode="exact", value=1.5)
    assert m.to_json() == {
        "quantity": "entropy",
        "mode": "exact",
        "value": 1.5,
        "ci_halfwidth": None,
        "seed": None,
        "trials": None,
    }


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


def test_mode_guards_reject_unknown_modes():
    with pytest.raises(UsageError) as err:
        collision_probability(uniform_ensemble(2, 2), mode="psychic")
    assert err.value.reason == "bad_mode"
    with pytest.raises(UsageError) as err:
        conditional_entropy(xor_forest(), (0,), mode="psychic")
    assert err.value.reason == "bad_mode"
