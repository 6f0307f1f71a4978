"""Core engine checks: evaluation, restriction, pruning, profiles, IO."""
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from forestlab import (
    BudgetError,
    DecisionForest,
    DecisionTree,
    ForestGenSpec,
    InputSpace,
    Internal,
    Leaf,
    OutputSpace,
    UsageError,
    check_lipschitz,
    dumps_forest,
    eval_forest,
    eval_tree,
    expected_query_counts,
    loads_forest,
    locality,
    prune_on_query_set,
    query_profile,
    random_forest,
    restrict,
)
from forestlab.analysis import eval_forest_on_inputs, sample_forest_outputs
from forestlab.corpus import enforcement_instances, restriction_instances
from forestlab.forest import (
    eval_forest_on_cube,
    packed_outputs_on_cube,
    query_counts_on_cube,
)
from forestlab.harness import _expected_blanks
from forestlab.samplers import ThorpSpec, thorp_forest


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


def small_random_forest(seed: int) -> DecisionForest:
    spec = ForestGenSpec(
        cells=4, alphabet=3, out_cells=3, out_alphabet=2, depth=3, seed=seed
    )
    return random_forest(spec)


def all_inputs(forest: DecisionForest):
    space = forest.input_space
    return itertools.product(range(space.alphabet), repeat=space.cells)


def test_eval_tree_records_the_probe_transcript():
    tree = xor_forest().trees[0]
    t = eval_tree(tree, (1, 0))
    assert t.steps == ((0, 1), (1, 0))
    assert t.value == 1


def test_eval_identity_forest_echoes_the_input():
    f = identity_forest(3, lam=4)
    for u in ((0, 1, 2), (3, 3, 0)):
        assert eval_forest(f, u) == u


def test_xor_forest_truth_table():
    f = xor_forest()
    assert [eval_forest(f, u)[0] for u in all_inputs(f)] == [0, 1, 1, 0]


def test_eval_rejects_bad_inputs():
    f = identity_forest(2)
    with pytest.raises(UsageError) as err:
        eval_forest(f, (0,))
    assert err.value.reason == "bad_input"
    with pytest.raises(UsageError) as err:
        eval_forest(f, (0, 2))
    assert err.value.reason == "bad_input"


def test_validation_rejects_repeated_probes_on_a_path():
    root = Internal(0, (Internal(0, (Leaf(0), Leaf(1))), Leaf(1)))
    with pytest.raises(UsageError) as err:
        DecisionForest(InputSpace(2, 2), OutputSpace(1, 2), (DecisionTree(root),))
    assert err.value.reason == "repeat_query"


def test_validation_rejects_wrong_fanout():
    root = Internal(0, (Leaf(0), Leaf(1), Leaf(0)))
    with pytest.raises(UsageError) as err:
        DecisionForest(InputSpace(1, 2), OutputSpace(1, 2), (DecisionTree(root),))
    assert err.value.reason == "bad_fanout"


def test_validation_rejects_out_of_range_pieces():
    with pytest.raises(UsageError) as err:
        DecisionForest(InputSpace(1, 2), OutputSpace(1, 2), (DecisionTree(Leaf(7)),))
    assert err.value.reason == "bad_leaf"
    with pytest.raises(UsageError) as err:
        DecisionForest(
            InputSpace(1, 2),
            OutputSpace(1, 2),
            (DecisionTree(Internal(5, (Leaf(0), Leaf(1)))),),
        )
    assert err.value.reason == "bad_query"
    with pytest.raises(UsageError) as err:
        DecisionForest(InputSpace(1, 2), OutputSpace(2, 2), (DecisionTree(Leaf(0)),))
    assert err.value.reason == "bad_arity"


def test_blank_leaf_needs_a_blank_aware_output_space():
    out = OutputSpace(1, 2, bot_allowed=True)
    f = DecisionForest(InputSpace(1, 2), out, (DecisionTree(Leaf(out.bot)),))
    assert eval_forest(f, (0,)) == (out.bot,)
    with pytest.raises(UsageError) as err:
        DecisionForest(InputSpace(1, 2), OutputSpace(1, 2), (DecisionTree(Leaf(2)),))
    assert err.value.reason == "bad_leaf"


@given(st.integers(0, 200), st.integers(0, 3), st.integers(0, 2))
def test_restriction_agrees_with_overlaying_the_assignment(seed, cell, value):
    f = small_random_forest(seed)
    g = restrict(f, {cell: value})
    for u in all_inputs(f):
        overlaid = tuple(value if i == cell else sym for i, sym in enumerate(u))
        assert eval_forest(g, u) == eval_forest(f, overlaid)


def test_restriction_never_probes_fixed_cells():
    f = small_random_forest(7)
    g = restrict(f, {0: 1, 2: 2})
    counts = expected_query_counts(g)
    assert counts[0] == 0.0
    assert counts[2] == 0.0


def test_restriction_validates_the_assignment():
    f = identity_forest(2)
    with pytest.raises(UsageError) as err:
        restrict(f, {9: 0})
    assert err.value.reason == "bad_assignment"
    with pytest.raises(UsageError) as err:
        restrict(f, {0: 5})
    assert err.value.reason == "bad_assignment"


def path_hits(tree: DecisionTree, u, cut, exempt_root: bool) -> bool:
    node = tree.root
    first = True
    while isinstance(node, Internal):
        if node.query in cut and not (exempt_root and first):
            return True
        node = node.children[u[node.query]]
        first = False
    return False


@pytest.mark.parametrize("exempt", [False, True])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_pruning_blanks_exactly_the_paths_that_touch_the_cut(seed, exempt):
    f = small_random_forest(seed)
    cut = {1, 3}
    g = prune_on_query_set(f, cut, exempt_first_query=exempt)
    bot = g.output_space.bot
    for u in all_inputs(f):
        before = eval_forest(f, u)
        after = eval_forest(g, u)
        for tree, want, got in zip(f.trees, before, after):
            if path_hits(tree, u, cut, exempt):
                assert got == bot
            else:
                assert got == want


def test_pruned_forest_depth_never_grows():
    f = small_random_forest(19)
    g = prune_on_query_set(f, {0}, exempt_first_query=True)
    assert g.depth <= f.depth


def test_expected_query_counts_match_the_exhaustive_table():
    for f in differential_corpus():
        counts, order = query_counts_on_cube(f)
        exact = expected_query_counts(f)
        table_mean = counts.mean(axis=0)
        for rank, cell in enumerate(order):
            assert exact[cell] == pytest.approx(table_mean[rank], abs=1e-12)
        untouched = set(range(f.input_space.cells)) - set(order)
        for cell in untouched:
            assert exact[cell] == 0.0
        # blanks: leaf reach mass against the blank frequency over the cube
        rows = eval_forest_on_cube(f, order)
        bot = f.output_space.bot
        blanks = float((rows == bot).sum(axis=1).mean()) if bot is not None else 0.0
        assert _expected_blanks(f) == pytest.approx(blanks, abs=1e-12)


def test_identity_forest_profile_is_flat():
    f = identity_forest(4)
    assert expected_query_counts(f).tolist() == [1.0, 1.0, 1.0, 1.0]
    profile = query_profile(f, mu=1.0)
    assert profile.expected == (1.0, 1.0, 1.0, 1.0)
    assert profile.tail == (0.0, 0.0, 0.0, 0.0)
    report = check_lipschitz(profile, mu=1.0, delta=0.0)
    assert report.average_ok and report.tail_ok


def test_monte_carlo_profile_tracks_the_exact_one():
    f = small_random_forest(23)
    exact = query_profile(f, mu=1.0)
    sampled = query_profile(f, mu=1.0, mode="monte_carlo", trials=20000, seed=4)
    assert sampled.mode == "monte_carlo"
    assert sampled.trials == 20000 and sampled.seed == 4
    for a, b in zip(exact.expected, sampled.expected):
        assert abs(a - b) < 0.08
    for a, b in zip(exact.tail, sampled.tail):
        assert abs(a - b) < 0.03


def test_lipschitz_check_flags_the_worst_cell():
    f = DecisionForest(
        InputSpace(2, 2),
        OutputSpace(3, 2),
        (
            DecisionTree(Internal(1, (Leaf(0), Leaf(1)))),
            DecisionTree(Internal(1, (Leaf(1), Leaf(0)))),
            DecisionTree(Internal(0, (Leaf(0), Leaf(1)))),
        ),
    )
    report = check_lipschitz(query_profile(f, mu=1.0), mu=1.0, delta=0.0)
    assert not report.average_ok
    assert report.worst_cell == 1


def test_locality_counts_cells_and_influence():
    f = identity_forest(3)
    report = locality(f)
    assert report.max_tree_cells == 1
    assert report.influence == (1, 1, 1)
    g = xor_forest()
    assert locality(g).max_tree_cells == 2
    assert locality(g).influence == (1, 1)


@given(st.integers(0, 300))
def test_forest_json_round_trip(seed):
    f = small_random_forest(seed)
    text = dumps_forest(f)
    g = loads_forest(text)
    assert dumps_forest(g) == text
    probe = tuple(seed % f.input_space.alphabet for _ in range(f.input_space.cells))
    assert eval_forest(g, probe) == eval_forest(f, probe)


def test_serialized_blanks_round_trip():
    f = prune_on_query_set(small_random_forest(2), {0})
    g = loads_forest(dumps_forest(f))
    assert g.output_space.bot == f.output_space.bot
    for u in all_inputs(f):
        assert eval_forest(g, u) == eval_forest(f, u)


def test_enumeration_respects_the_state_budget():
    f = identity_forest(12)
    with pytest.raises(BudgetError) as err:
        eval_forest_on_cube(f, budget=100)
    assert err.value.reason == "enum_budget"


def differential_corpus() -> list:
    """Forests of every shape the cube and sampling kernels must agree on."""
    binary = ForestGenSpec(cells=5, alphabet=2, out_cells=3, out_alphabet=3, depth=4, seed=3)
    forests = [
        random_forest(binary),
        small_random_forest(0),
        small_random_forest(31),
        prune_on_query_set(small_random_forest(5), {1, 3}),
        prune_on_query_set(random_forest(binary), {0}, exempt_first_query=True),
        prune_on_query_set(thorp_forest(ThorpSpec(2, 4)), {0, 7}),  # blanks at depths 0 and 3
        DecisionForest(InputSpace(3, 3), OutputSpace(2, 2), (DecisionTree(Leaf(1)), DecisionTree(Leaf(0)))),
    ]
    forests += [thorp_forest(ThorpSpec(3, rounds)) for rounds in (1, 2, 3)]
    forests += [forest for _, forest, _, _ in restriction_instances()]
    forests += [forest for _, forest, _, _ in itertools.islice(enforcement_instances(), 8)]
    return forests


def cube_transcripts(forest: DecisionForest, order: list) -> list:
    """eval_tree transcripts of every tree at every cube point, in cube order."""
    lam = forest.input_space.alphabet
    points = []
    for idx in range(lam ** len(order)):
        u = [0] * forest.input_space.cells
        rem = idx
        for cell in order:
            u[cell] = rem % lam
            rem //= lam
        points.append([eval_tree(t, u) for t in forest.trees])
    return points


def transcript_counts(point: list, cells) -> list:
    """How often the transcripts of one input probe each of `cells`."""
    probed = [c for t in point for c, _ in t.steps]
    return [probed.count(c) for c in cells]


def test_cube_outputs_match_pointwise_evaluation():
    for f in differential_corpus():
        order = sorted(set(f.mentioned_cells()))
        points = cube_transcripts(f, order)
        values = [tuple(t.value for t in point) for point in points]
        assert [tuple(row) for row in eval_forest_on_cube(f, order).tolist()] == values
        base = f.output_space.alphabet + 1
        packed = [sum(v * base ** (len(row) - 1 - i) for i, v in enumerate(row)) for row in values]
        assert packed_outputs_on_cube(f, order).tolist() == packed
        counts, _ = query_counts_on_cube(f, order)
        assert counts.tolist() == [transcript_counts(point, order) for point in points]
        tree_cells = [set() for _ in f.trees]
        for point in points:
            for cells, t in zip(tree_cells, point):
                cells.update(c for c, _ in t.steps)
        assert f.mentioned_cells() == sorted(set().union(*tree_cells))
        report = locality(f)
        assert report.max_tree_cells == max(len(cells) for cells in tree_cells)
        assert report.influence == tuple(
            sum(c in cells for cells in tree_cells) for c in range(f.input_space.cells)
        )
        assert f.depth == max(len(t.steps) for point in points for t in point)


def test_sampled_outputs_and_profiles_match_transcripts_on_the_same_rows():
    trials, seed = 300, 11
    for f in differential_corpus():
        s, lam = f.input_space.cells, f.input_space.alphabet
        inputs = np.random.Generator(np.random.Philox(seed)).integers(
            0, lam, size=(trials, s), dtype=np.uint8
        )
        points = [[eval_tree(t, row) for t in f.trees] for row in inputs.tolist()]
        values = [[t.value for t in point] for point in points]
        assert sample_forest_outputs(f, trials, seed).tolist() == values
        assert eval_forest_on_inputs(f, inputs).tolist() == values
        counts = np.array([transcript_counts(point, range(s)) for point in points])
        profile = query_profile(f, mu=1.0, mode="monte_carlo", trials=trials, seed=seed)
        assert profile.expected == tuple(counts.mean(axis=0))
        assert profile.tail == tuple((counts > 1.0).mean(axis=0))


def test_depth_property_tracks_the_longest_path():
    assert identity_forest(2).depth == 1
    assert xor_forest().depth == 2
    assert (
        DecisionForest(InputSpace(1, 2), OutputSpace(1, 2), (DecisionTree(Leaf(0)),)).depth
        == 0
    )


def test_mentioned_cells_are_sorted_and_deduplicated():
    f = xor_forest()
    assert f.mentioned_cells() == [0, 1]


def test_expected_counts_sum_is_bounded_by_trees_times_depth():
    for seed in range(8):
        f = small_random_forest(seed)
        total = float(np.sum(expected_query_counts(f)))
        assert total <= len(f.trees) * max(f.depth, 1) + 1e-12
