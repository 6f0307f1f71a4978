"""Core engine checks: evaluation, restriction, pruning, profiles, IO."""
import collections
import itertools
import json
import math
import pickle
import random
import re
import tracemalloc

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
    forest_from_json,
    forest_to_json,
    prune_on_query_set,
    query_profile,
    random_forest,
    restrict,
)
from forestlab.analysis import (
    Distribution,
    collision_probability,
    conditional_entropy_detail,
    entropy,
    eval_forest_on_inputs,
    output_distribution,
    sample_forest_outputs,
    tv_distance,
    tv_lower_bound_via_collision,
)
from forestlab.corpus import enforcement_instances, restriction_instances
from forestlab.forest import _NodeTable, _cell_tails, _probe_histograms, _tree_on_cube, _uniform_inputs, cube_order
from forestlab import analysis, harness
from forestlab import forest as forest_module
from forestlab.harness import _expected_blanks, enforce_avg_lipschitz
from forestlab.samplers import ThorpSpec, thorp_forest, uniform_perm_distribution

from cube_reference import (
    eval_forest_on_cube,
    merge_parts,
    packed_outputs_on_cube,
    query_counts_on_cube,
    restricted_tails,
    whole_cube_law,
)
from pointwise_reference import collision_stat


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


@pytest.mark.parametrize("error", [UsageError("bad_seed", "seed must be non-negative"), BudgetError("enum_budget", "too big")])
def test_reasoned_errors_survive_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert (type(copy), copy.reason, copy.message, str(copy)) == (type(error), error.reason, error.message, error.message)


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


# Slow references: restriction and pruning by rebuilding Node objects and
# validating the result, as the engine did before it copied node tables.


def reference_restrict(forest: DecisionForest, assignment: dict) -> DecisionForest:
    def node(n):
        if isinstance(n, Leaf):
            return n
        if n.query in assignment:
            return node(n.children[assignment[n.query]])
        return Internal(n.query, tuple(node(c) for c in n.children))

    trees = tuple(DecisionTree(node(t.root)) for t in forest.trees)
    return DecisionForest(forest.input_space, forest.output_space, trees)


def reference_prune(forest: DecisionForest, cells, exempt_first_query: bool = False) -> DecisionForest:
    cut = set(cells)
    out = OutputSpace(forest.output_space.cells, forest.output_space.alphabet, bot_allowed=True)

    def prune(n, is_root: bool):
        if isinstance(n, Leaf):
            return n
        if n.query in cut and not (exempt_first_query and is_root):
            return Leaf(out.bot)
        return Internal(n.query, tuple(prune(c, False) for c in n.children))

    return DecisionForest(forest.input_space, out, tuple(DecisionTree(prune(t.root, True)) for t in forest.trees))


def restriction_corpus() -> list:
    forests = [forest for _, forest, _, _ in restriction_instances()]
    forests += [forest for _, forest, _, _ in enforcement_instances()]
    return forests + [thorp_forest(ThorpSpec(3, 6))]


def random_assignment(rng: random.Random, forest: DecisionForest) -> dict:
    cells = rng.sample(range(forest.input_space.cells), rng.randint(0, forest.input_space.cells))
    return {c: rng.randrange(forest.input_space.alphabet) for c in cells}


def assert_same_forest(got: DecisionForest, want: DecisionForest, rng: random.Random) -> None:
    """Table, spaces, outputs, JSON and equality agree; trees are built only when read."""
    assert got._table.rows == want._table.rows
    assert got._table.roots == want._table.roots
    assert got.output_space == want.output_space and got.input_space == want.input_space
    assert "trees" not in vars(got)
    lam, cells = got.input_space.alphabet, got.input_space.cells
    for _ in range(8):
        u = tuple(rng.randrange(lam) for _ in range(cells))
        assert eval_forest(got, u) == eval_forest(want, u)
    assert forest_to_json(got) == forest_to_json(want)
    assert forest_from_json(json.loads(dumps_forest(got)))._table == got._table
    assert got == want and hash(got) == hash(want)


def test_table_restriction_matches_the_node_rebuilding_reference():
    rng = random.Random(6)
    for forest in restriction_corpus():
        for _ in range(12):
            first, second = random_assignment(rng, forest), random_assignment(rng, forest)
            once = restrict(forest, first)
            assert_same_forest(once, reference_restrict(forest, first), rng)
            # a restriction of a table-built forest
            want = reference_restrict(reference_restrict(forest, first), second)
            assert_same_forest(restrict(restrict(forest, first), second), want, rng)


def test_table_pruning_matches_the_node_rebuilding_reference():
    rng = random.Random(7)
    for forest in restriction_corpus():
        for exempt in (False, True):
            cut = set(random_assignment(rng, forest)) | {-1}  # -1 marks leaves in the table, never a cell
            assert_same_forest(
                prune_on_query_set(forest, cut, exempt), reference_prune(forest, cut, exempt), rng
            )
            assignment = random_assignment(rng, forest)
            got = prune_on_query_set(restrict(forest, assignment), cut, exempt)
            want = reference_prune(reference_restrict(forest, assignment), cut, exempt)
            assert_same_forest(got, want, rng)


def test_enforcement_traces_match_the_reference_restriction_step_for_step(monkeypatch):
    fast = [enforce_avg_lipschitz(f, mu, eps, seed=r) for _, f, mu, eps in enforcement_instances() for r in range(4)]
    monkeypatch.setattr(harness, "restrict", reference_restrict)
    # fresh forests: the walks above left their restricted forests on the first ones
    slow = [enforce_avg_lipschitz(f, mu, eps, seed=r) for _, f, mu, eps in enforcement_instances() for r in range(4)]
    for a, b in zip(fast, slow, strict=True):
        assert (a.steps, a.success, a.budget) == (b.steps, b.success, b.budget)
        assert a.final_forest._table == b.final_forest._table
        assert a.final_forest == b.final_forest


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
    report = check_lipschitz(profile, delta=0.0)
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


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_probe_counts_hold_more_trees_than_uint16_counts(mode):
    m = (1 << 16) + 1  # one-probe trees, all on cell 0
    rows = [row for t in range(m) for row in [(0, -1, 0, (3 * t + 1, 3 * t + 2)), (-1, 0, 1, ()), (-1, 1, 1, ())]]
    f = DecisionForest._from_table(InputSpace(1, 2), OutputSpace(m, 2), _NodeTable(rows, list(range(0, 3 * m, 3))))
    profile = query_profile(f, mu=2.0, mode=mode, trials=4)
    assert profile.expected == (float(m),) and profile.tail == (1.0,)


@pytest.mark.parametrize("trials", [0, -1])
def test_monte_carlo_profile_needs_at_least_one_trial(trials):
    with pytest.raises(UsageError) as err:
        query_profile(identity_forest(2), mu=1.0, mode="monte_carlo", trials=trials)
    assert err.value.reason == "bad_trials"


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
    report = check_lipschitz(query_profile(f, mu=1.0), delta=0.0)
    assert not report.average_ok
    assert report.worst_cell == 1


@given(st.integers(0, 300))
def test_forest_json_round_trip(seed):
    f = small_random_forest(seed)
    text = dumps_forest(f)
    g = forest_from_json(json.loads(text))
    assert dumps_forest(g) == text
    probe = tuple(seed % f.input_space.alphabet for _ in range(f.input_space.cells))
    assert eval_forest(g, probe) == eval_forest(f, probe)


def test_serialized_blanks_round_trip():
    f = prune_on_query_set(small_random_forest(2), {0})
    text = dumps_forest(f)
    leaves = re.findall(r'"leaf": (\w+)', text)
    assert "null" in leaves and str(f.output_space.bot) not in leaves  # a blank is written as null
    g = forest_from_json(json.loads(text))
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
    # 9**10 packed keys do not fit int32
    forests.append(random_forest(ForestGenSpec(cells=4, alphabet=2, out_cells=10, out_alphabet=8, depth=2, seed=7)))
    forests += [forest for _, forest, _, _ in restriction_instances()]
    forests += [forest for _, forest, _, _ in itertools.islice(enforcement_instances(), 8)]
    return forests


def cube_inputs(forest: DecisionForest, order: list) -> list:
    """Every cube point as a full input, in cube order; unlisted cells hold 0."""
    lam = forest.input_space.alphabet
    inputs = []
    for idx in range(lam ** len(order)):
        u = [0] * forest.input_space.cells
        rem = idx
        for cell in order:
            u[cell] = rem % lam
            rem //= lam
        inputs.append(u)
    return inputs


def cube_transcripts(forest: DecisionForest, order: list) -> list:
    """eval_tree transcripts of every tree at every cube point, in cube order."""
    return [[eval_tree(t, u) for t in forest.trees] for u in cube_inputs(forest, order)]


def transcript_counts(point: list, cells) -> list:
    """How often the transcripts of one input probe each of `cells`."""
    probed = [c for t in point for c, _ in t.steps]
    return [probed.count(c) for c in cells]


def test_cube_outputs_match_pointwise_evaluation():
    rng = random.Random(5)
    for f in differential_corpus():
        base, m = f.output_space.alphabet + 1, len(f.trees)
        order = sorted(set(f.mentioned_cells()))
        shuffled = rng.sample(order, len(order))
        padded = list(range(f.input_space.cells))  # unprobed cells too
        for cells_order in (order, shuffled, padded):
            points = cube_transcripts(f, cells_order)
            values = [tuple(t.value for t in point) for point in points]
            assert [tuple(row) for row in eval_forest_on_cube(f, cells_order).tolist()] == values
            packed = packed_outputs_on_cube(f, cells_order)
            assert packed.dtype == (np.int32 if base**m < 2**31 else np.int64)
            assert packed.tolist() == [sum(v * base ** (m - 1 - i) for i, v in enumerate(row)) for row in values]
        counts, counted = query_counts_on_cube(f)
        assert counted == order
        assert counts.tolist() == [transcript_counts(point, order) for point in cube_transcripts(f, order)]
        inputs = cube_inputs(f, order)
        law = collections.Counter(eval_forest(f, u) for u in inputs)
        assert output_distribution(f).probs == {row: c / len(inputs) for row, c in law.items()}
        points = cube_transcripts(f, order)
        tree_cells = [set() for _ in f.trees]
        for point in points:
            for cells, t in zip(tree_cells, point):
                cells.update(c for c, _ in t.steps)
        assert f.mentioned_cells() == sorted(set().union(*tree_cells))
        assert [{row[0] for row in f._table.tree_rows(t)} - {-1} for t in range(len(f.trees))] == tree_cells
        assert f.depth == max(len(t.steps) for point in points for t in point)


def wide_output_forest() -> DecisionForest:
    """16 trees over 16 symbols plus blank: 17**16 packed keys overflow int64."""
    bot = 16
    trees = [
        Internal(0, (Leaf(0), Leaf(1))),
        Internal(1, (Leaf(1), Leaf(bot))),
        Internal(2, (Leaf(2), Internal(0, (Leaf(3), Leaf(2))))),
    ]
    trees += [Leaf(v) for v in range(3, 16)]
    out = OutputSpace(16, 16, bot_allowed=True)
    return DecisionForest(InputSpace(3, 2), out, tuple(map(DecisionTree, trees)))


def _same_law(got: tuple, want: tuple) -> bool:
    return all(a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))


def test_slab_walk_matches_the_whole_cube_law(monkeypatch):
    monkeypatch.setattr(forest_module, "CUBE_SLAB", 4)
    wide = wide_output_forest()
    for f in differential_corpus() + [wide]:
        probed = f.mentioned_cells()
        unprobed = sorted(set(range(f.input_space.cells)) - set(probed))
        for cells in [(), tuple(probed[:1]), tuple(unprobed[:1])]:
            assert _same_law(analysis._cube_law(f, 1 << 26, cells), whole_cube_law(f, 1 << 26, cells)), (f, cells)
    monkeypatch.setattr(forest_module, "CUBE_SLAB", 1 << 12)
    for rounds in range(1, 6):
        f = thorp_forest(ThorpSpec(3, rounds))
        for cells in [(), tuple(f.mentioned_cells()[-3:])]:
            assert _same_law(analysis._cube_law(f, 1 << 26, cells), whole_cube_law(f, 1 << 26, cells)), (rounds, cells)


def nested_cone_forest(sigma: int) -> DecisionForest:
    """Nine trees over 3 symbols: a duplicated pair on cells 0 and 2, then trees on cell 2 and on cell 0, which
    read subsets of the pair's cells, then trees on cell 4, on cells 4 and 5 and on no cell, then a duplicated
    pair on cells 1 and 3.  Cell 6 is never read; the leaves cycle through the sigma symbols and the blank."""
    values = itertools.cycle(range(sigma + 1))

    def full(cells):
        return Leaf(next(values)) if not cells else Internal(cells[0], tuple(full(cells[1:]) for _ in range(3)))

    pair, other = full([0, 2]), full([1, 3])
    trees = [pair, pair, full([2]), full([0]), full([4]), full([4, 5]), full([]), other, other]
    return DecisionForest(InputSpace(7, 3), OutputSpace(9, sigma, True), tuple(map(DecisionTree, trees)))


def test_fused_tree_tables_give_the_whole_cube_law(monkeypatch):
    monkeypatch.setattr(forest_module, "CUBE_SLAB", 9)  # 81 slabs of 3 x 3 points
    # 3**4 fused digits fit uint8; 17**2 need uint16, and the tree on cell 0 would make 17**4, so it starts a table
    fused = {
        2: ([np.uint8] * 3, [9, 9, 9], [5, 2, 0]),
        16: ([np.uint16, np.uint8, np.uint16, np.uint16], [9, 3, 9, 9], [6, 5, 2, 0]),
    }
    for sigma, (dtypes, sizes, trees_after) in fused.items():
        f = nested_cone_forest(sigma)
        rank_of = {c: r for r, c in enumerate(cube_order(f))}
        tables, weights = analysis._fused_tables([_tree_on_cube(f, t, rank_of, np.uint8) for t in range(9)], sigma + 1)
        # each fused table is as big as the larger of its trees' tables, and weighs base**(trees after it)
        assert ([t.dtype for t in tables], [t.size for t in tables]) == (dtypes, sizes), sigma
        assert weights == [(sigma + 1) ** n for n in trees_after], sigma
    wide = wide_output_forest()
    cases = [(nested_cone_forest(sigma), cells) for sigma in (2, 16) for cells in [(), (0,), (2, 4), (6,), (1, 6)]]
    cases += [(wide, cells) for cells in [(), (0,), (1, 2)]]
    for f, cells in cases:
        law = analysis._cube_law(f, 1 << 26, cells)
        assert _same_law(law, whole_cube_law(f, 1 << 26, cells)), (f.output_space, cells)
        keys, counts, group = map(np.concatenate, zip(*analysis._cube_groups(f, 1 << 26, cells)))
        assert _same_law((counts, group), law[1:]) and _same_law((analysis._key_rows(f, keys),), law[:1])


def test_cube_groups_yield_whole_groups_in_order(monkeypatch):
    forests = differential_corpus() + [wide_output_forest(), nested_cone_forest(2), nested_cone_forest(16)]
    seen = set()
    for slab in (4, 9):  # a slab of 2**2 or 2**3 points, or of 3 or 3**2
        monkeypatch.setattr(forest_module, "CUBE_SLAB", slab)
        for f in forests:
            lam, probed = f.input_space.alphabet, f.mentioned_cells()
            unprobed = sorted(set(range(f.input_space.cells)) - set(probed))
            named = [(), tuple(probed[:1]), tuple(unprobed[:1]), tuple(sorted(probed[:2] + unprobed[:1])), tuple(probed[1:])]
            for cells in named:
                batches = list(analysis._cube_groups(f, 1 << 26, cells))
                bounds = [(int(group[0]), int(group[-1])) for _, _, group in batches]
                # runs of whole groups in ascending b: each batch starts at the group after the last one's
                assert [lo for lo, _ in bounds] == [0] + [hi + 1 for _, hi in bounds[:-1]], (f, cells)
                assert bounds[-1][1] == lam ** len(cells) - 1, (f, cells)
                for keys, _, group in batches:
                    assert (np.diff(group) >= 0).all(), (f, cells)
                    for b in range(group[0], group[-1] + 1):  # sorted and distinct inside each group
                        assert np.array_equal(np.unique(keys[group == b]), keys[group == b]), (f, cells, b)
                keys, counts, group = map(np.concatenate, zip(*batches))
                want = whole_cube_law(f, 1 << 26, cells)
                assert _same_law((analysis._key_rows(f, keys), counts, group), want), (f, cells)
                k = len(cube_order(f, cells))
                if len(batches) < lam ** (k - forest_module._slab_axes(lam, k)):  # a group took several slabs
                    seen.add((lam, "spans"))
                if any(hi > lo for lo, hi in bounds):  # a slab held several groups
                    seen.add((lam, "shares"))
                if cells and keys.dtype.names:
                    seen.add("wide")
    # a group over 3**j slabs merges them in no power of two; the wide law's keys are structured
    assert {(2, "spans"), (2, "shares"), (3, "spans"), (3, "shares"), "wide"} <= seen


def test_every_law_keeps_its_rows_in_the_output_type():
    # 16 trees of 16 symbols pack past int64, so these laws come from the output matrix; 9 cells make 512 groups
    wide = DecisionForest(
        InputSpace(9, 2), OutputSpace(16, 16), tuple(DecisionTree(Internal(i % 9, (Leaf(0), Leaf(1)))) for i in range(16))
    )
    many = DecisionForest(InputSpace(2, 2), OutputSpace(2, 300), (DecisionTree(Internal(0, (Leaf(0), Leaf(299)))),) * 2)
    shuffle = thorp_forest(ThorpSpec(3, 2))
    for f, want in [(shuffle, np.uint8), (wide, np.uint8), (many, np.int32)]:
        for cells in [(), tuple(range(f.input_space.cells))]:
            assert analysis._cube_law(f, 1 << 26, cells)[0].dtype == want, (f.output_space, cells)
        assert output_distribution(f).rows.dtype == sample_forest_outputs(f, 4, 0).dtype == want
    assert uniform_perm_distribution(8).rows.dtype == np.uint8


def test_probe_histograms_match_the_whole_table_slab_by_slab(monkeypatch):
    chunks, extra = [], []
    bincount = np.bincount

    def counted(keys, minlength=0):
        chunks.append(len(keys))
        return bincount(keys, minlength=minlength)

    monkeypatch.setattr(forest_module, "CUBE_SLAB", 4)
    monkeypatch.setattr(np, "bincount", counted)
    forests = differential_corpus() + [f for _, f, _, _ in enforcement_instances() if f.input_space.alphabet == 3]
    for f in forests:
        s, lam = f.input_space.cells, f.input_space.alphabet
        probed = f.mentioned_cells()
        unprobed = sorted(set(range(s)) - set(probed))
        subset = tuple(sorted(random.Random(61).sample(range(s), max(1, s // 2))))  # a criterion-08 draw
        for cells in [(), tuple(probed[:1]), tuple(unprobed[:1]), subset]:
            chunks.clear()
            hist, free = _probe_histograms(f, cells)
            assert max(chunks, default=0) <= 4
            extra.append(len(chunks) - len(free))  # chunks past one per free cell
            counts, order = query_counts_on_cube(f, cells)
            assert free == [c for c in order if c not in cells]
            # point i holds (i // lam**r) % lam at the cell of rank r, and b weighs cells[j] by lam**j
            points = np.arange(len(counts))
            b = sum(((points // lam ** order.index(c)) % lam * lam**j for j, c in enumerate(cells)), 0 * points)
            want = np.zeros((lam ** len(cells), len(order), f.output_space.cells + 1), dtype=np.int64)
            np.add.at(want, (b[:, None], np.arange(len(order)), counts), 1)
            assert hist.dtype == np.int64 and np.array_equal(hist, want[:, [order.index(c) for c in free]]), (f, cells)
            # a few assignments, drawn in any order, give their own rows of the histogram
            some = np.arange(len(hist))[::-2]
            drawn = (some[:, None] // lam ** np.arange(len(cells)) % lam).tolist()
            assert np.array_equal(_probe_histograms(f, cells, drawn)[0], hist[some])
            for mu in (0.5, 1.0, 2.0):
                tails = _cell_tails(hist, free, s, mu)
                for group, tail in enumerate(tails):
                    assignment = {c: group // lam**j % lam for j, c in enumerate(cells)}
                    assert np.array_equal(tail, restricted_tails(f, assignment, mu)), (f, cells, assignment)
        profile = query_profile(f, mu=1.0)
        counts, order = query_counts_on_cube(f)
        assert np.array_equal(np.asarray(profile.expected)[order], counts.mean(axis=0))
        assert profile.tail == tuple(restricted_tails(f, {}, 1.0))
    assert max(extra) > 0  # some cell's draws were binned in more than one chunk


def test_every_shuffle_coin_is_probed_by_exactly_two_trees():
    for rounds in range(1, 6):
        f = thorp_forest(ThorpSpec(3, rounds))
        hist, order = _probe_histograms(f)
        assert order == list(range(4 * rounds))
        assert (hist[0, :, 2] == 1 << len(order)).all() and hist.sum() == len(order) << len(order)
        assert query_profile(f, 1.5).expected == (2.0,) * len(order)
        for mu, tail in [(0.0, 1.0), (1.5, 1.0), (1.999, 1.0), (2.0, 0.0), (3.0, 0.0)]:
            assert (_cell_tails(hist, order, len(order), mu) == tail).all(), (rounds, mu)


def test_probe_tables_past_the_budget_are_refused_before_any_is_built():
    # two trees read cells 0..5 in opposite orders on every path, so each cell has the other five above it in
    # one tree or the other: a 2**6-point cube, but 6 * 2**5 table entries
    chain = lambda order: Internal(order[0], (chain(order[1:]),) * 2) if order else Leaf(0)
    trees = (DecisionTree(chain(range(6))), DecisionTree(chain(range(5, -1, -1))))
    crossed = DecisionForest(InputSpace(6, 2), OutputSpace(2, 2), trees)
    for budget, refused in [(63, "2^6 states"), (64, "192 probe-table entries"), (191, "192 probe-table entries")]:
        with pytest.raises(BudgetError) as err:
            query_profile(crossed, 1.0, budget=budget)
        assert err.value.reason == "enum_budget"
        assert err.value.message == f"{refused} exceed the enumeration budget {budget}"
        assert "_probe_tables" not in vars(crossed)
    assert query_profile(crossed, 1.0, budget=192).tail == (1.0,) * 6
    shapes = [t.shape for t in vars(crossed)["_probe_tables"].values()]
    assert shapes == [tuple(1 if axis == 5 - c else 2 for axis in range(6)) for c in range(6)]  # cell c on axis 5 - c
    # tables built under a larger budget are refused all the same under a smaller one
    with pytest.raises(BudgetError) as err:
        _probe_histograms(crossed, (0,), [(1,)], budget=64)
    assert err.value.message == "192 probe-table entries exceed the enumeration budget 64"


def _sorted_part(rng, keys) -> tuple:
    keys = np.unique(np.asarray(keys, dtype=np.int32))
    return keys, rng.integers(1, 50, size=len(keys)).astype(np.int64)


def test_merge_matches_one_unique_over_all_parts():
    rng = np.random.default_rng(17)
    evens, odds = _sorted_part(rng, range(0, 40, 2)), _sorted_part(rng, range(1, 40, 2))
    cases = {
        "single": [evens],
        "disjoint": [_sorted_part(rng, range(0, 10)), _sorted_part(rng, range(10, 30)), _sorted_part(rng, [-5, 99])],
        "identical": [evens] * 4,
        "interleaved": [evens, odds, evens, _sorted_part(rng, [0, 1, 38, 39, 40])],
        "empty part": [evens, _sorted_part(rng, [])],
    }
    for n in (2, 3, 5, 8, 13):
        cases[f"random {n}"] = [_sorted_part(rng, rng.integers(-20, 60, size=rng.integers(0, 40))) for _ in range(n)]
    # rows of a law whose packed keys would overflow int64, as structured keys with a field per column
    fields = np.dtype([(f"t{column}", np.uint8) for column in range(4)])
    rows = [np.unique(rng.integers(0, 3, size=(20, 4)).astype(np.uint8), axis=0).view(fields).reshape(-1) for _ in range(3)]
    cases["rows"] = [(r, rng.integers(1, 50, size=len(r)).astype(np.int64)) for r in rows]
    for name, parts in cases.items():
        before = [(keys.copy(), counts.copy()) for keys, counts in parts]
        got, want = analysis._merge(parts), merge_parts(parts)
        assert _same_law(got, want), name
        assert all(_same_law(p, b) for p, b in zip(parts, before)), name


def test_an_all_distinct_law_over_many_slabs_merges_each_row_log_times(monkeypatch):
    monkeypatch.setattr(forest_module, "CUBE_SLAB", 1 << 6)
    merged, merge = [], analysis._merge
    monkeypatch.setattr(analysis, "_merge", lambda parts: merged.append(sum(len(p[0]) for p in parts)) or merge(parts))
    f = identity_forest(16)
    law = analysis._cube_law(f, 1 << 26)
    assert _same_law(law, whole_cube_law(f, 1 << 26)) and len(law[0]) == 1 << 16
    # 2**10 slabs of 2**6 distinct rows: a binary counter merges each row once per level, a left fold 2**9 times
    assert sum(merged) <= 11 << 16, sum(merged)


def test_the_round6_shuffle_law_stays_under_32_mib():
    f = thorp_forest(ThorpSpec(3, 6))
    tracemalloc.start()
    try:
        rows, counts, _ = analysis._cube_law(f, 1 << 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(counts.sum()) == 1 << 24 and rows.shape[1] == 8
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_the_round5_shuffle_law_grouped_by_three_cells_stays_under_16_mib():
    f = thorp_forest(ThorpSpec(3, 5))
    tracemalloc.start()
    try:
        detail = conditional_entropy_detail(f, (1, 12, 13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert detail.per_assignment.shape == (8,) and 0 < detail.value < entropy(output_distribution(f))
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_one_round6_chain_bound_term_stays_under_96_mib():
    f = thorp_forest(ThorpSpec(3, 6))
    outside = [c for c in range(f.input_space.cells) if not 8 <= c < 12]  # every coin but round 3's four
    tracemalloc.start()
    try:
        # 2**20 groups of 16 points each, walked 2**16 whole groups at a time
        detail = conditional_entropy_detail(f, outside)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(outside) == 20 and detail.value == 4.0 and (detail.per_assignment == 4.0).all()
    assert peak < 96 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_the_round6_shuffle_probe_histogram_stays_under_10_mib():
    f = thorp_forest(ThorpSpec(3, 6))
    tracemalloc.start()
    try:
        hist, order = _probe_histograms(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (hist[0, :, 2] == 1 << 24).all() and order == list(range(24))
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_exact_collision_shares_match_pointwise_counts():
    wide = wide_output_forest()
    assert packed_outputs_on_cube(wide) is None
    # one output cell, symbol 0 or blank: no repeat, and a blank half the time
    single = DecisionForest(InputSpace(2, 2), OutputSpace(1, 1, True), (DecisionTree(Internal(0, (Leaf(0), Leaf(1)))),))
    for f in differential_corpus() + [wide, single]:
        inputs = cube_inputs(f, sorted(set(f.mentioned_cells())))
        bot = f.output_space.bot
        outputs = [eval_forest(f, u) for u in inputs]
        repeats = [collision_stat(z, bot) > 0 for z in outputs]
        assert collision_probability(f, mode="exact") == sum(repeats) / len(inputs)
        if f.output_space.alphabet <= f.output_space.cells:
            events = [hit or bot in z for hit, z in zip(repeats, outputs)]
            assert tv_lower_bound_via_collision(output_distribution(f)) == sum(events) / len(inputs)
    law = collections.Counter(eval_forest(wide, u) for u in cube_inputs(wide, [0, 1, 2]))
    assert output_distribution(wide).probs == {row: c / 8 for row, c in law.items()}
    assert 0 < collision_probability(wide) < tv_lower_bound_via_collision(output_distribution(wide)) < 1
    for bot in (None, 0):  # empty rows hold no repeat and no blank
        assert tv_lower_bound_via_collision(Distribution({(): 1.0}, 0, bot=bot)) == 0.0
        assert Distribution({(): 1.0}, 0, bot=bot).probs == {(): 1.0}


def dict_entropy(probs: dict) -> float:
    """Entropy of a dict law, summed in the dict's order: the slow reference."""
    acc = 0.0
    for p in probs.values():
        if p > 0.0:
            acc -= p * math.log2(p)
    return acc


def dict_tv(a: dict, b: dict) -> float:
    """TV of two dict laws, half the fsum of the gaps over the joint support: the slow reference."""
    terms = [abs(p - b.get(outcome, 0.0)) for outcome, p in a.items()]
    terms += [abs(q) for outcome, q in b.items() if outcome not in a]
    return 0.5 * math.fsum(terms)


def dict_collision_share(counts: dict, bot, count_bot: bool) -> float:
    """Share of a dict of output counts with a repeated non-blank symbol (or, if asked, a blank)."""
    hits = sum(c for z, c in counts.items() if collision_stat(z, bot) > 0 or (count_bot and bot in z))
    return hits / sum(counts.values())


def test_array_laws_match_the_dict_references_bit_for_bit():
    for f in differential_corpus() + [wide_output_forest()]:
        bot, m = f.output_space.bot, f.output_space.cells
        counts = collections.Counter(eval_forest(f, u) for u in cube_inputs(f, f.mentioned_cells()))
        probs = {row: c / counts.total() for row, c in sorted(counts.items())}
        law = output_distribution(f)
        assert law.probs == probs and list(law.probs) == list(probs)
        assert entropy(law) == dict_entropy(probs)
        assert collision_probability(f) == dict_collision_share(counts, bot, False)
        assert tv_lower_bound_via_collision(law) == dict_collision_share(counts, bot, True)
        cut = prune_on_query_set(f, f.mentioned_cells()[:1])  # the same arity, blanks where cell 0 was read
        assert tv_distance(law, output_distribution(cut)) == dict_tv(probs, output_distribution(cut).probs)
        if m <= 8:
            uniform = uniform_perm_distribution(m)
            assert tv_distance(law, uniform) == tv_distance(uniform, law) == dict_tv(probs, uniform.probs)
        given = Distribution(probs, m, bot=bot)  # a law from a dict keeps its probabilities
        assert entropy(given) == entropy(law) and tv_distance(given, law) == 0.0
    uniform = uniform_perm_distribution(8)
    for rounds in range(1, 7):
        law = output_distribution(thorp_forest(ThorpSpec(3, rounds)))
        probs = law.probs
        assert entropy(law) == dict_entropy(probs)
        assert tv_distance(law, uniform) == dict_tv(probs, uniform.probs)
        assert tv_lower_bound_via_collision(law) == dict_collision_share(probs, None, True) == 0.0


def test_conditional_entropy_per_assignment_matches_the_restricted_laws():
    rng = random.Random(8)
    wide = wide_output_forest()
    assert packed_outputs_on_cube(wide) is None
    for f in differential_corpus() + [wide]:
        s, lam = f.input_space.cells, f.input_space.alphabet
        probed = f.mentioned_cells()
        unprobed = sorted(set(range(s)) - set(probed))
        cell_sets = [rng.sample(probed, min(3, len(probed))), unprobed[:2] + probed[:1], rng.sample(range(s), min(2, s))]
        for cells in cell_sets:
            detail = conditional_entropy_detail(f, cells)
            cells = sorted(set(cells))
            assert detail.cells == tuple(cells)
            want = [
                entropy(output_distribution(restrict(f, {c: b // lam**r % lam for r, c in enumerate(cells)})))
                for b in range(lam ** len(cells))
            ]
            assert np.abs(detail.per_assignment - want).max() <= 1e-12
            assert detail.value == pytest.approx(sum(want) / len(want), abs=1e-12)


def test_sampled_outputs_and_profiles_match_transcripts_on_the_same_rows():
    seed = 11
    # 300 output symbols and a blank leaf take the int32 output path
    wide = DecisionForest(InputSpace(2, 3), OutputSpace(2, 300, bot_allowed=True), (
        DecisionTree(Internal(0, (Leaf(299), Internal(1, (Leaf(0), Leaf(300), Leaf(257))), Leaf(7)))),
        DecisionTree(Leaf(298)),
    ))
    for f in differential_corpus() + [wide]:
        s, lam = f.input_space.cells, f.input_space.alphabet
        for trials in (0, 1, 300):
            inputs = np.random.Generator(np.random.Philox(seed)).integers(
                0, lam, size=(trials, s), dtype=np.uint8
            )
            points = [[eval_tree(t, row) for t in f.trees] for row in inputs.tolist()]
            values = [[t.value for t in point] for point in points]
            outputs = sample_forest_outputs(f, trials, seed)
            assert outputs.shape == (trials, len(f.trees))
            assert outputs.dtype == (np.int32 if f is wide else np.uint8)
            assert outputs.tolist() == values
            assert eval_forest_on_inputs(f, inputs).tolist() == values
            if trials:  # the mean of no rows is undefined
                counts = np.array([transcript_counts(point, range(s)) for point in points])
                profile = query_profile(f, mu=1.0, mode="monte_carlo", trials=trials, seed=seed)
                assert profile.expected == tuple(counts.mean(axis=0))
                assert profile.tail == tuple((counts > 1.0).mean(axis=0))


def test_wide_alphabets_sample_and_profile_on_the_drawn_rows():
    lam, seed = 300, 4
    for sigma in (7, 300):  # 300 output symbols come back as int32
        wide = Internal(2, tuple(Leaf(v % sigma) for v in range(lam)))
        trees = (
            DecisionTree(Internal(0, tuple(Leaf(v % sigma) for v in range(lam)))),
            DecisionTree(Internal(1, tuple(wide if v >= 256 else Leaf(v % 5) for v in range(lam)))),
        )
        f = DecisionForest(InputSpace(3, lam), OutputSpace(2, sigma), trees)
        for trials in (0, 1, 500):
            inputs = _uniform_inputs(f.input_space, trials, seed)
            assert trials < 500 or inputs.max() >= 256
            outputs = sample_forest_outputs(f, trials, seed)
            assert outputs.shape == (trials, 2)
            assert outputs.dtype == (np.uint8 if sigma == 7 else np.int32)
            assert [tuple(row) for row in outputs.tolist()] == [eval_forest(f, u) for u in inputs.tolist()]
            if trials:  # the mean of no rows is undefined
                points = [[eval_tree(t, u) for t in f.trees] for u in inputs.tolist()]
                counts = np.array([transcript_counts(point, range(3)) for point in points])
                profile = query_profile(f, mu=1.0, mode="monte_carlo", trials=trials, seed=seed)
                assert profile.expected == tuple(counts.mean(axis=0))


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
