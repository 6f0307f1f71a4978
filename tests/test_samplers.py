"""Shuffle network compilation, the uniform permutation law, and forest generation."""
import itertools
import math
import random

import pytest

from forestlab import (
    BucketStructure,
    ForestGenSpec,
    ThorpSpec,
    UsageError,
    coin_cell,
    dumps_forest,
    eval_forest,
    is_bucketed,
    random_forest,
    thorp_bucket_structure,
    thorp_forest,
    thorp_network_permutation,
    uniform_perm_distribution,
)

EXHAUSTIVE_SPECS = [
    ThorpSpec(1, 1),
    ThorpSpec(2, 1),
    ThorpSpec(2, 2),
    ThorpSpec(2, 3),
    ThorpSpec(3, 1),
    ThorpSpec(3, 2),
    ThorpSpec(3, 3),
]


@pytest.mark.parametrize("spec", EXHAUSTIVE_SPECS, ids=lambda s: f"n{s.n}r{s.rounds}")
def test_compiled_forest_matches_the_network_on_every_coin_pattern(spec):
    forest = thorp_forest(spec)
    for coins in itertools.product((0, 1), repeat=spec.coins):
        assert eval_forest(forest, coins) == thorp_network_permutation(spec, coins)


def test_compiled_forest_matches_the_network_on_sampled_deep_patterns():
    spec = ThorpSpec(3, 6)
    forest = thorp_forest(spec)
    rng = random.Random(20260817)
    for _ in range(300):
        coins = tuple(rng.randrange(2) for _ in range(spec.coins))
        assert eval_forest(forest, coins) == thorp_network_permutation(spec, coins)


def test_every_coin_pattern_yields_a_permutation():
    spec = ThorpSpec(3, 2)
    forest = thorp_forest(spec)
    for coins in itertools.product((0, 1), repeat=spec.coins):
        assert sorted(eval_forest(forest, coins)) == list(range(spec.n))


def test_zero_coins_with_an_odd_round_count_is_the_out_shuffle_power():
    spec = ThorpSpec(3, 3)
    forest = thorp_forest(spec)
    assert eval_forest(forest, (0,) * spec.coins) == (0, 1, 2, 3, 4, 5, 6, 7)


def test_coin_cells_are_laid_out_round_major():
    spec = ThorpSpec(3, 2)
    assert coin_cell(spec, 1, 0) == 0
    assert coin_cell(spec, 1, 3) == 3
    assert coin_cell(spec, 2, 0) == 4
    assert spec.coins == 8


def test_bucket_structure_lists_rounds_backwards():
    spec = ThorpSpec(3, 3)
    buckets = thorp_bucket_structure(spec)
    assert buckets.buckets == ((8, 9, 10, 11), (4, 5, 6, 7), (0, 1, 2, 3))
    assert is_bucketed(thorp_forest(spec), buckets)
    assert not is_bucketed(thorp_forest(spec), BucketStructure(buckets.buckets[::-1]))
    # the third level probes a round-1 coin, which two buckets cannot place
    assert not is_bucketed(thorp_forest(spec), BucketStructure(((8, 9, 10, 11), tuple(range(8)))))


def test_root_probe_is_a_last_round_coin():
    spec = ThorpSpec(3, 4)
    forest = thorp_forest(spec)
    for pos, tree in enumerate(forest.trees):
        assert tree.root.query == coin_cell(spec, spec.rounds, pos // 2)


def test_spec_validation():
    with pytest.raises(UsageError):
        ThorpSpec(0, 1)
    with pytest.raises(UsageError):
        ThorpSpec(2, 0)
    spec = ThorpSpec(2, 1)
    with pytest.raises(UsageError) as err:
        thorp_network_permutation(spec, (0,))
    assert err.value.reason == "bad_input"


def test_uniform_permutation_law():
    dist = uniform_perm_distribution(3)
    assert len(dist.probs) == 6
    assert all(p == pytest.approx(1 / 6) for p in dist.probs.values())
    assert (1, 2, 0) in dist.probs
    with pytest.raises(UsageError):
        uniform_perm_distribution(9)


def gen_spec(seed: int, **overrides) -> ForestGenSpec:
    base = dict(
        cells=5, alphabet=3, out_cells=3, out_alphabet=2, depth=3, seed=seed
    )
    base.update(overrides)
    return ForestGenSpec(**base)


def test_random_forest_is_deterministic_and_well_formed():
    f = random_forest(gen_spec(41))
    g = random_forest(gen_spec(41))
    assert dumps_forest(f) == dumps_forest(g)
    assert dumps_forest(f) != dumps_forest(random_forest(gen_spec(42)))
    assert f.depth <= 3
    assert f.input_space.cells == 5
    assert len(f.trees) == 3


def test_random_forest_can_target_a_bucket_structure():
    buckets = BucketStructure(((0, 1), (2, 3), (4,)))
    f = random_forest(gen_spec(3, buckets=buckets))
    assert is_bucketed(f, buckets)


def test_random_forest_blank_leaves_only_when_allowed():
    plain = random_forest(gen_spec(11))
    assert plain.output_space.bot is None
    padded = random_forest(gen_spec(11, bot_allowed=True))
    assert padded.output_space.bot == padded.output_space.alphabet


def test_generation_spec_guards():
    with pytest.raises(UsageError):
        random_forest(gen_spec(0, stop_prob=1.0))
    with pytest.raises(UsageError):
        random_forest(gen_spec(0, depth=-1))
    narrow = BucketStructure(((0, 1),))
    with pytest.raises(UsageError) as err:
        random_forest(gen_spec(0, buckets=narrow))
    assert err.value.reason == "unsatisfiable"


def test_deck_positions_shift_by_half_per_switch():
    spec = ThorpSpec(2, 1)
    assert thorp_network_permutation(spec, (0, 0)) == (0, 2, 1, 3)
    assert thorp_network_permutation(spec, (1, 0)) == (2, 0, 1, 3)
    assert thorp_network_permutation(spec, (1, 1)) == (2, 0, 3, 1)


def test_forest_output_count_equals_the_deck_size():
    for spec in (ThorpSpec(2, 2), ThorpSpec(3, 1)):
        f = thorp_forest(spec)
        assert len(f.trees) == spec.n
        assert f.output_space.alphabet == spec.n
        assert f.input_space.cells == spec.coins
        assert math.log2(f.output_space.alphabet) == spec.log2n
