"""Command-line behavior: exit codes, output formats, ledger plumbing."""
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from forestlab import (
    DecisionForest,
    DecisionTree,
    Distribution,
    InputSpace,
    Internal,
    Leaf,
    OutputSpace,
    ThorpSpec,
    dumps_forest,
    entropy,
    forest_from_json,
    prune_on_query_set,
    sample_forest_outputs,
    thorp_bucket_structure,
    thorp_forest,
    tv_distance,
    uniform_perm_distribution,
)
import forestlab
from forestlab import analysis, cli, corpus, harness, samplers
from forestlab.analysis import hoeffding_halfwidth
from forestlab.cli import _ANALYZERS, _COMMANDS, _MODES, _VERIFIERS, build_parser, main
from forestlab.forest import UsageError
from forestlab.report import LEDGER_HEADER


@pytest.fixture(autouse=True)
def isolated_ledger(tmp_path, monkeypatch):
    path = tmp_path / "ledger.csv"
    monkeypatch.setenv("FORESTLAB_LEDGER", str(path))
    return path


def ledger_lines(path):
    return path.read_text().splitlines()


def strip_timestamps(lines):
    return [line.split(",", 1)[1] for line in lines[1:]]


def write_gate_forest(tmp_path) -> str:
    tree = DecisionTree(Internal(0, (Leaf(0), Leaf(1))))
    f = DecisionForest(InputSpace(1, 2), OutputSpace(1, 2), (tree,))
    path = tmp_path / "gate.json"
    path.write_text(dumps_forest(f))
    return str(path)


def test_gen_thorp_then_eval_round_trip(tmp_path, capsys):
    forest_path = tmp_path / "f.json"
    assert main(["gen-thorp", "--log2n", "3", "--rounds", "3", "-o", str(forest_path)]) == 0
    capsys.readouterr()
    coins = ",".join(["0"] * 12)
    assert main(["eval", "--forest", str(forest_path), "--input", coins]) == 0
    assert capsys.readouterr().out.strip() == "0,1,2,3,4,5,6,7"


def test_analyze_tv_prints_a_measurement_and_logs_it(tmp_path, capsys, isolated_ledger):
    forest_path = tmp_path / "f.json"
    main(["gen-thorp", "--log2n", "2", "--rounds", "1", "-o", str(forest_path)])
    capsys.readouterr()
    rc = main(["analyze", "tv", "--forest", str(forest_path), "--target", "uniform-perm"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quantity"] == "tv"
    assert payload["mode"] == "exact"
    assert payload["value"] == pytest.approx(5 / 6, abs=1e-12)
    lines = ledger_lines(isolated_ledger)
    assert lines[0] == LEDGER_HEADER
    assert "analyze-tv" in lines[1]
    assert ",f," in lines[1]


def test_verify_at_least_two_example_line(capsys):
    rc = main(["verify", "at-least-two", "--q", "0.04,0.04", "--alpha", "0.04"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "pass at-least-two measured=0.0016 bound=-0.0048\n"


def test_verify_precondition_violation_still_exits_zero(capsys):
    rc = main(["verify", "at-least-two", "--q", "0.5,0.5", "--alpha", "0.5"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("precondition_violation at-least-two")


def test_verify_harper_on_the_empty_set_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"arity": 3, "alphabet": 2, "description": "empty set", "members": []}))
    rc = main(["verify", "harper", "--set", str(path), "--k", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: empty_set:")
    assert "empty set" in err


@pytest.mark.parametrize("doc", [{"arity": 2, "alphabet": 1, "members": [[0, 0]]}, {"arity": 0, "alphabet": 2, "members": [[]]}])
def test_the_neighborhood_of_a_set_harper_rejects_is_the_set(tmp_path, capsys, doc):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "neighborhood", "--set", str(path), "--k", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1.0


def test_verify_unknown_lemma_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "sorcery"])
    assert exit_info.value.code == 2
    assert "argument lemma-id: invalid choice: 'sorcery'" in capsys.readouterr().err


def test_couple_exact_reports_and_fails_under_a_tiny_calibration(tmp_path, capsys, monkeypatch):
    forest_path = write_gate_forest(tmp_path)
    rc = main(["couple", "--forest", forest_path, "--mode", "exact_report"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("pass coupling measured=0.5 bound=1.66510922232")
    monkeypatch.setattr(harness, "COUPLING_CALIBRATION", 0.01)
    rc = main(["couple", "--forest", forest_path, "--mode", "exact_report"])
    assert rc == 1
    assert capsys.readouterr().out.startswith("fail coupling")


def test_couple_sample_mode_emits_one_sample(tmp_path, capsys):
    forest_path = write_gate_forest(tmp_path)
    rc = main(["couple", "--forest", forest_path, "--mode", "sample", "--seed", "6"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["y"] == [1]
    assert payload["dist"] in (0, 1)
    assert payload["seed"] == 6


def test_enforce_writes_a_trace_and_signals_failure(tmp_path, capsys):
    forest_path = write_gate_forest(tmp_path)
    out_path = tmp_path / "fixed.json"
    rc = main(
        [
            "enforce-lipschitz",
            "--forest",
            forest_path,
            "--mu",
            "0.9",
            "--eps",
            "0.9",
            "--out",
            str(out_path),
        ]
    )
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["success"] is False
    assert doc["budget"] == 0
    assert doc["steps"] == []
    assert forest_from_json(json.loads(out_path.read_text())).input_space.cells == 1


def test_enforce_success_exits_zero(tmp_path, capsys):
    forest_path = write_gate_forest(tmp_path)
    rc = main(["enforce-lipschitz", "--forest", forest_path, "--mu", "1.0", "--eps", "0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["success"] is True
    assert doc["steps"] == []


SHUFFLE_RECORDS = [
    (
        ["enforce-lipschitz", "--mu", "1.0", "--eps", "0.25", "--seed", "3"], 0,
        '{"success": true, "steps": [[0, 0, 2.0], [1, 0, 2.0], [2, 1, 2.0], [3, 1, 2.0], [4, 0, 2.0], [5, 0, 2.0],'
        ' [6, 1, 2.0], [7, 1, 2.0], [8, 0, 2.0], [9, 0, 2.0], [10, 1, 2.0], [11, 1, 2.0]],'
        ' "budget": 144, "mu": 1.0, "eps": 0.25, "seed": 3}',
    ),
    (
        ["enforce-lipschitz", "--mu", "1.0", "--eps", "0.99", "--seed", "3"], 1,
        '{"success": false, "steps": [[0, 0, 2.0]], "budget": 1, "mu": 1.0, "eps": 0.99, "seed": 3}',
    ),
    (
        ["depth-reduce", "--alpha", "0", "--seed", "2"], 0,
        '{"alpha": 0.0, "seed": 2, "selected_cells": [], "tree_indices": [], "h_selected": 0.0, "h_pruned": 0.0,'
        ' "expected_extra_queries": 0.0, "expected_blank_outputs": 0.0}',
    ),
    (
        ["depth-reduce", "--alpha", "0.5", "--seed", "2"], 0,
        '{"alpha": 0.5, "seed": 2, "selected_cells": [10, 11], "tree_indices": [4, 5, 6, 7], "h_selected": 8.0,'
        ' "h_pruned": 8.0, "expected_extra_queries": 0.0, "expected_blank_outputs": 0.0}',
    ),
]


@pytest.mark.parametrize("args, code, record", SHUFFLE_RECORDS)
def test_structural_commands_print_their_records_on_the_three_round_shuffle(tmp_path, capsys, args, code, record):
    forest_path = tmp_path / "f.json"
    main(["gen-thorp", "--log2n", "3", "--rounds", "3", "-o", str(forest_path)])
    capsys.readouterr()
    assert main(args + ["--forest", str(forest_path)]) == code
    assert capsys.readouterr().out == record + "\n"


def test_ledger_rows_are_reproducible_and_fresh_resets(capsys, isolated_ledger):
    args = ["verify", "at-least-two", "--q", "0.04,0.04", "--alpha", "0.04"]
    assert main(args) == 0
    assert main(args) == 0
    lines = ledger_lines(isolated_ledger)
    assert len(lines) == 3
    first, second = strip_timestamps(lines)
    assert first == second
    assert first == "at-least-two,cli,-0.0048,0.0016,pass,,"
    assert main(args + ["--fresh"]) == 0
    assert len(ledger_lines(isolated_ledger)) == 2
    capsys.readouterr()


def test_gen_random_writes_a_manifest_and_deterministic_forests(tmp_path, capsys):
    manifest = tmp_path / "batch.jsonl"
    args = [
        "gen-random",
        "--count",
        "3",
        "--s",
        "4",
        "--lambda",
        "2",
        "--m",
        "2",
        "--sigma",
        "2",
        "--depth",
        "2",
        "--seed",
        "9",
        "-o",
        str(manifest),
    ]
    assert main(args) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert len(rows) == 3
    blobs = []
    for row in rows:
        assert row["spec"]["s"] == 4
        text = (tmp_path / row["path"]).read_text()
        blobs.append(text)
        forest = forest_from_json(json.loads(text))
        assert forest.input_space.cells == 4
        assert forest.depth <= 2
    assert main(args) == 0
    for row, old in zip(rows, blobs):
        assert (tmp_path / row["path"]).read_text() == old


def test_budget_violations_exit_two(tmp_path, capsys):
    forest_path = tmp_path / "deep.json"
    main(["gen-thorp", "--log2n", "3", "--rounds", "6", "-o", str(forest_path)])
    capsys.readouterr()
    rc = main(
        [
            "analyze",
            "tv",
            "--forest",
            str(forest_path),
            "--target",
            "uniform-perm",
            "--budget-states",
            "1000",
        ]
    )
    assert rc == 2
    assert "enum_budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "chain-bound", "--buckets", "BUCKETS"],
        ["verify", "entropy-deviation", "--cell", "0"],
        ["dichotomy", "--threshold", "0", "--log2n", "3", "--rounds", "3"],
        ["depth-reduce", "--alpha", "1"],
    ],
    ids=lambda command: command[1] if command[0] == "verify" else command[0],
)
def test_the_state_budget_reaches_every_law_a_command_computes(tmp_path, capsys, command):
    forest_path = tmp_path / "shuffle.json"
    main(["gen-thorp", "--log2n", "3", "--rounds", "3", "-o", str(forest_path)])  # 2^12 cube points
    buckets = tmp_path / "buckets.json"
    buckets.write_text(json.dumps([list(b) for b in thorp_bucket_structure(ThorpSpec(3, 3)).buckets]))
    capsys.readouterr()
    argv = [str(buckets) if a == "BUCKETS" else a for a in command] + ["--forest", str(forest_path)]
    assert main(argv + ["--budget-states", "16"]) == 2
    assert capsys.readouterr().err.startswith("error: enum_budget: ")
    assert main(argv + ["--budget-states", "4096"]) == 0


def test_huge_entropy_budgets_and_radii_give_reports(tmp_path, capsys):
    law = tmp_path / "law.txt"
    law.write_text("0,1\t0.5\n1,0\t0.5\n")
    assert main(["verify", "containment", "--k", "600", "--target", str(law)]) == 0
    assert capsys.readouterr().out == "pass containment measured=1 bound=0.5\n"
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"arity": 2, "alphabet": 2, "members": [[0, 1]]}))
    assert main(["verify", "harper", "--k", "1e300", "--set", str(points)]) == 0
    assert capsys.readouterr().out == "pass harper measured=1 bound=1\n"


def test_a_config_radius_past_the_float_range_covers_the_whole_cube(tmp_path, capsys):
    huge = "1" + "0" * 400  # parses to an infinite float
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"arity": 3, "alphabet": 2, "members": [[0, 1, 0], [1, 1, 1]]}))
    assert main(["verify", "harper", "--set", str(points), "--k", huge]) == 0
    assert capsys.readouterr().out == "pass harper measured=1 bound=1\n"
    members = []
    for name, k in (("huge", huge), ("arity", "3"), ("past", "7")):
        out = tmp_path / f"{name}.json"
        assert main(["analyze", "neighborhood", "--set", str(points), "--k", k, "-o", str(out)]) == 0
        members.append(json.loads(out.read_text())["members"])
    assert members[0] == members[1] == members[2]
    assert len(members[0]) == 8
    assert main(["verify", "harper", "--set", str(points), "--k", "-" + huge]) == 2
    assert capsys.readouterr().err.startswith("error: bad_radius: ")


def test_gen_random_refuses_more_forests_than_seed_steps_before_writing_any(tmp_path, capsys, monkeypatch):
    def generate(spec):
        raise AssertionError("generated a forest")

    monkeypatch.setattr(cli, "random_forest", generate)
    out = tmp_path / "batch.jsonl"
    argv = ["gen-random", "--s", "4", "--lambda", "2", "--m", "2", "--sigma", "2", "--depth", "2", "--count", "1048577"]
    assert main(argv + ["-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: bad_parameter: ")
    assert not list(tmp_path.glob("batch*"))


def test_exact_lipschitz_on_the_six_round_shuffle_is_bounded_by_the_state_budget_alone(tmp_path, capsys):
    shuffle = tmp_path / "shuffle.json"
    shuffle.write_text(dumps_forest(thorp_forest(ThorpSpec(3, 6))))  # 24 coins, each probed by 2 trees: 2**24 points
    argv = ["analyze", "lipschitz", "--forest", str(shuffle), "--mu", "1.5"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1.0
    assert main(argv + ["--budget-states", str(1 << 23)]) == 2
    assert capsys.readouterr().err == "error: enum_budget: 2^24 states exceed the enumeration budget 8388608\n"


def test_exact_lipschitz_refuses_probe_tables_past_the_budget_when_the_cube_fits(tmp_path, capsys):
    chain = lambda order: Internal(order[0], (chain(order[1:]),) * 2) if order else Leaf(0)
    crossed = tmp_path / "crossed.json"  # 6 cells, each with the other 5 above it in one of the two trees
    trees = (DecisionTree(chain(range(6))), DecisionTree(chain(range(5, -1, -1))))
    crossed.write_text(dumps_forest(DecisionForest(InputSpace(6, 2), OutputSpace(2, 2), trees)))
    argv = ["analyze", "lipschitz", "--forest", str(crossed), "--mu", "1.5"]
    assert main(argv + ["--budget-states", "64"]) == 2
    assert capsys.readouterr().err == "error: enum_budget: 192 probe-table entries exceed the enumeration budget 64\n"
    assert main(argv + ["--budget-states", "192"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1.0


def test_sweep_runs_selected_families_and_summarizes(tmp_path, capsys, isolated_ledger):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"families": ["taylor-bound", "sum-ratio"]}))
    rc = main(["sweep", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "taylor-bound: 1 instances, 0 failures, 0 precondition violations" in out
    assert "sum-ratio: 200 instances, 0 failures, 0 precondition violations" in out
    assert out.strip().endswith("sweep: 201 instances, 0 failures, 0 precondition violations")
    assert len(ledger_lines(isolated_ledger)) == 202


def test_a_failing_family_keeps_the_rows_of_the_families_before_it(tmp_path, capsys, isolated_ledger, monkeypatch):
    def harper():
        raise UsageError("bad_radius", "radius -1 is negative")

    monkeypatch.setitem(corpus.FAMILIES, "harper", harper)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"families": ["taylor-bound", "sum-ratio", "harper"]}))
    assert main(["sweep", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "taylor-bound: 1 instances, 0 failures, 0 precondition violations",
        "sum-ratio: 200 instances, 0 failures, 0 precondition violations",
    ]
    assert err.startswith("error: bad_radius: ")
    assert len(ledger_lines(isolated_ledger)) == 202


def test_sweep_counts_failures_and_violations_per_family(tmp_path, capsys, isolated_ledger, monkeypatch):
    monkeypatch.setattr(harness, "COUPLING_CALIBRATION", 0.01)
    cfg = tmp_path / "sweep.json"
    plan = {
        "families": ["at-least-two", "coupling"],
        "overrides": {"at-least-two": {"count": 40}, "coupling": {"count": 5}},
    }
    cfg.write_text(json.dumps(plan))
    assert main(["sweep", str(cfg)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "at-least-two: 40 instances, 0 failures, 2 precondition violations",
        "coupling: 5 instances, 4 failures, 0 precondition violations",
        "sweep: 45 instances, 4 failures, 2 precondition violations",
    ]
    statuses = [row.split(",")[5] for row in ledger_lines(isolated_ledger)[1:]]
    assert len(statuses) == 45
    assert statuses.count("fail") == 4
    assert statuses.count("precondition_violation") == 2


def test_sweep_overrides_reach_a_family_behind_a_kwargs_wrapper(tmp_path, capsys, isolated_ledger, monkeypatch):
    # a tracer wraps each family as f(*args, **kwargs): its overrides have no annotation to check
    family = corpus.FAMILIES["at-least-two"]
    monkeypatch.setitem(corpus.FAMILIES, "at-least-two", lambda *args, **kwargs: family(*args, **kwargs))
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"families": ["at-least-two"], "overrides": {"at-least-two": {"count": 3}}}))
    assert main(["sweep", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("at-least-two: 3 instances, ")


def test_family_seeds_are_the_default_seeds_of_the_families():
    seeded = [name for name, family in corpus.FAMILIES.items() if "seed" in inspect.signature(family).parameters]
    assert list(corpus.FAMILY_SEEDS) == seeded
    assert "taylor-bound" not in corpus.FAMILY_SEEDS
    for name in seeded:
        assert inspect.signature(corpus.FAMILIES[name]).parameters["seed"].default == corpus.FAMILY_SEEDS[name], name


def test_sweep_rejects_unknown_families(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"families": ["nonsense"]}))
    assert main(["sweep", str(cfg)]) == 2
    assert "unknown_family" in capsys.readouterr().err


def test_eval_renders_blank_outputs_with_an_underscore(tmp_path, capsys):
    tree = DecisionTree(Internal(0, (Internal(1, (Leaf(0), Leaf(1))), Leaf(1))))
    f = DecisionForest(InputSpace(2, 2), OutputSpace(1, 2), (DecisionTree(tree.root),))
    pruned = prune_on_query_set(f, {1})
    path = tmp_path / "pruned.json"
    path.write_text(dumps_forest(pruned))
    assert main(["eval", "--forest", str(path), "--input", "0,0"]) == 0
    assert capsys.readouterr().out.strip() == "_"


def test_analyze_entropy_and_lipschitz_smoke(tmp_path, capsys):
    forest_path = tmp_path / "f.json"
    main(["gen-thorp", "--log2n", "2", "--rounds", "1", "-o", str(forest_path)])
    capsys.readouterr()
    assert main(["analyze", "entropy", "--forest", str(forest_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(2.0, abs=1e-12)
    rows = sample_forest_outputs(forest_from_json(json.loads(forest_path.read_text())), 500, 9)
    probs: dict = {}
    for row in rows:
        key = tuple(int(v) for v in row)
        probs[key] = probs.get(key, 0.0) + 1 / 500
    plug_in = Distribution(probs, 4)
    for quantity, expected in (("entropy", entropy(plug_in)), ("tv", tv_distance(plug_in, uniform_perm_distribution(4)))):
        sampled = ["--mode", "monte_carlo", "--trials", "500", "--seed", "9"] + (["--target", "uniform-perm"] if quantity == "tv" else [])
        assert main(["analyze", quantity, "--forest", str(forest_path)] + sampled) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(expected, abs=1e-12)
    rc = main(
        ["analyze", "lipschitz", "--forest", str(forest_path), "--mu", "2.0", "--delta", "0.0"]
    )
    assert rc == 0
    assert "lipschitz" in capsys.readouterr().out


def test_analyze_prints_the_measurement_keys_in_order(tmp_path, capsys):
    forest_path = tmp_path / "f.json"
    main(["gen-thorp", "--log2n", "2", "--rounds", "1", "-o", str(forest_path)])
    capsys.readouterr()
    keys = ["quantity", "mode", "value", "ci_halfwidth", "seed", "trials"]
    assert main(["analyze", "entropy", "--forest", str(forest_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == keys
    assert [payload[key] for key in keys] == ["entropy", "exact", 2.0, None, None, None]
    sampled = ["--mode", "monte_carlo", "--trials", "500", "--seed", "9"]
    assert main(["analyze", "collision", "--forest", str(forest_path)] + sampled) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == keys
    assert payload["ci_halfwidth"] == hoeffding_halfwidth(500)
    assert (payload["seed"], payload["trials"]) == (9, 500)


def test_analyze_cond_entropy_reports_the_trials_it_drew(tmp_path, capsys):
    forest_path = tmp_path / "f.json"
    main(["gen-thorp", "--log2n", "2", "--rounds", "2", "-o", str(forest_path)])
    capsys.readouterr()
    for trials in ("128", "191"):
        sampled = ["--mode", "monte_carlo", "--trials", trials, "--seed", "0"]
        assert main(["analyze", "cond-entropy", "--forest", str(forest_path), "--cells", "0"] + sampled) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["value"], payload["trials"], payload["seed"]) == (0.890625, 128, 0)


def test_analyze_neighborhood_writes_the_grown_set(tmp_path, capsys):
    set_path = tmp_path / "seed-set.json"
    set_path.write_text(
        json.dumps({"arity": 4, "alphabet": 2, "members": [[0, 0, 0, 0]]})
    )
    out_path = tmp_path / "grown.json"
    rc = main(
        [
            "analyze",
            "neighborhood",
            "--set",
            str(set_path),
            "--k",
            "2",
            "--out",
            str(out_path),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 11.0
    grown = json.loads(out_path.read_text())
    assert len(grown["members"]) == 11


GATE_FOREST = {
    "input_arity": 1,
    "input_alphabet": 2,
    "output_alphabet": 2,
    "bot_allowed": False,
    "trees": [{"query": 0, "children": [{"leaf": 0}, {"leaf": 1}]}],
}


# two output cells that swap the two symbols: a permutation of a 2-card deck
SWAP_FOREST = {**GATE_FOREST, "trees": GATE_FOREST["trees"] + [{"query": 0, "children": [{"leaf": 1}, {"leaf": 0}]}]}


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _deep_forest_text(levels: int) -> str:
    """A one-tree forest probing cell i at level i, as text: json.dumps of it would recurse too deep."""
    tree = "".join(f'{{"query": {cell}, "children": [{{"leaf": 1}}, ' for cell in range(levels))
    tree += '{"leaf": 0}' + "]}" * levels
    return json.dumps({**GATE_FOREST, "input_arity": levels, "trees": ["TREE"]}).replace('"TREE"', tree)


def _case(number: int, args: list, text, reason: str):
    """A case whose id is the one pytest first gave it by its place in the list, now fixed to the case."""
    return pytest.param(args, text, reason, id=f"args{number}-{text}-{reason}")


# (arguments before the file path, file text or None for no file, expected
# reason); GATE stands for the path of a valid one-tree forest.  Rows with a
# valid file put the bad value in a flag, and rows that end in --ledger give no
# file.  No case prints a result or writes a ledger row.  Every case names its
# own id, so deleting one leaves the others' ids alone; new cases take a
# descriptive id.
MALFORMED_FILES = [
    _case(0, ["eval", "--input", "0", "--forest"], "{not json", "bad_file"),
    _case(1, ["eval", "--input", "0", "--forest"], json.dumps(_without(GATE_FOREST, "output_alphabet")), "bad_file"),
    _case(2, ["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "trees": [{"query": 0}]}), "bad_file"),
    _case(3, ["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "trees": 7}), "bad_file"),
    _case(4, ["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "trees": [{"leaf": 5}]}), "bad_leaf"),
    _case(5, ["sweep"], "[1, 2", "bad_config"),
    _case(6, ["sweep"], "[1, 2]", "bad_config"),
    _case(7, ["sweep"], "{", "bad_config"),
    _case(8, ["sweep"], json.dumps({"families": 3}), "bad_config"),
    _case(9, ["sweep"], json.dumps({"families": ["taylor-bound"], "overrides": [1]}), "bad_config"),
    _case(10, ["verify", "harper", "--k", "1", "--set"], json.dumps({"arity": 2, "members": []}), "bad_file"),
    _case(11, ["verify", "harper", "--k", "1", "--set"], "", "bad_file"),
    _case(12, ["verify", "ensemble-collision", "--target"], "{]", "bad_file"),
    _case(13, ["verify", "ensemble-collision", "--target"], json.dumps({"row": [[1.0]]}), "bad_file"),
    _case(14, ["verify", "chain-bound", "--forest", "GATE", "--buckets"], "oops", "bad_file"),
    _case(15, ["verify", "chain-bound", "--forest", "GATE", "--buckets"], json.dumps({"buckets": 3}), "bad_file"),
    _case(16, ["eval", "--input", "0", "--forest"], None, "missing_file"),
    _case(17, ["sweep"], json.dumps({"families": [["harper"]]}), "bad_config"),
    _case(18, ["sweep"], json.dumps({"families": "harper"}), "bad_config"),
    _case(19, ["sweep"], json.dumps({"families": {"harper": 1}}), "bad_config"),
    _case(20, ["sweep"], json.dumps({"families": ["taylor-bound", 3]}), "bad_config"),
    _case(21, ["sweep"], json.dumps({"families": ["taylor-bound"], "overrides": {"taylor-bound": {"nonsense": 1}}}), "bad_config"),
    _case(22, ["sweep"], json.dumps({"families": ["taylor-bound"], "overrides": {"harper": 3}}), "bad_config"),
    _case(23, ["sweep"], json.dumps({"families": ["taylor-bound"], "overrides": {"no-such-family": {}}}), "bad_config"),
    _case(24, ["analyze", "entropy", "--mode", "monte_carlo", "--trials", "100", "--seed", "-3", "--forest"], json.dumps(GATE_FOREST), "bad_seed"),
    _case(25, ["sweep"], json.dumps({"families": ["containment"], "overrides": {"containment": {"count": 0}}}), "bad_config"),
    _case(26, ["sweep"], json.dumps({"families": ["harper"], "overrides": {"harper": {"seed": -1}}}), "bad_config"),
    _case(27, ["analyze", "entropy", "--mode", "monte_carlo", "--trials", "0", "--forest"], json.dumps(GATE_FOREST), "bad_trials"),
    _case(28, ["analyze", "entropy", "--mode", "monte_carlo", "--trials", "-5", "--forest"], json.dumps(GATE_FOREST), "bad_trials"),
    _case(29, ["analyze", "tv", "--target", "uniform-perm", "--mode", "sample", "--forest"], json.dumps(GATE_FOREST), "bad_mode"),
    _case(30, ["analyze", "entropy", "--mode", "exact_report", "--forest"], json.dumps(GATE_FOREST), "bad_mode"),
    _case(31, ["analyze", "cond-entropy", "--cells", "0", "--mode", "auto", "--forest"], json.dumps(GATE_FOREST), "bad_mode"),
    _case(32, ["verify", "harper", "--k", "1", "--set"], json.dumps({"arity": 2, "alphabet": 2, "members": [[0.5, 1]]}), "bad_outcome"),
    _case(33, ["verify", "harper", "--k", "1", "--set"], json.dumps({"arity": 2, "alphabet": 2, "members": [[0, True]]}), "bad_outcome"),
    _case(34, ["verify", "harper", "--k", "1", "--set"], json.dumps({"arity": 2.0, "alphabet": 2, "members": [[0, 1]]}), "bad_file"),
    _case(35, ["verify", "harper", "--k", "1", "--set"], json.dumps({"arity": 2, "alphabet": 2.5, "members": [[0, 1]]}), "bad_file"),
    _case(36, ["analyze", "neighborhood", "--k", "1", "--set"], json.dumps({"arity": 1, "alphabet": "2", "members": [[0]]}), "bad_file"),
    _case(37, ["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "input_arity": 1.0}), "bad_file"),
    _case(38, ["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "input_alphabet": 2.5}), "bad_file"),
    _case(39, ["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "output_alphabet": True}), "bad_file"),
    _case(40, ["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "trees": [{"query": 0.5, "children": [{"leaf": 0}, {"leaf": 1}]}]}), "bad_file"),
    _case(41, ["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "trees": [{"query": 0, "children": [{"leaf": 0.9}, {"leaf": 1}]}]}), "bad_file"),
    _case(42, ["verify", "chain-bound", "--forest", "GATE", "--buckets"], json.dumps([[0.5]]), "bad_file"),
    _case(43, ["verify", "chain-bound", "--forest", "GATE", "--buckets"], json.dumps({"buckets": [[False]]}), "bad_file"),
    _case(44, ["verify", "entropy-deviation", "--forest"], json.dumps(GATE_FOREST), "missing_argument"),
    _case(45, ["sweep"], json.dumps({"families": ["harper"], "overrides": {"harper": {"seed": "1"}}}), "bad_config"),
    _case(46, ["verify", "harper", "--k", "1.5", "--set"], json.dumps({"arity": 2, "alphabet": 2, "members": [[0, 1]]}), "bad_parameter"),
    _case(47, ["analyze", "neighborhood", "--k", "0.5", "--set"], json.dumps({"arity": 1, "alphabet": 2, "members": [[0]]}), "bad_parameter"),
    _case(48, ["verify", "lipschitz-restriction", "--mu", "1", "--delta", "0.5", "--mode", "exact", "--forest"], json.dumps(GATE_FOREST), "bad_mode"),
    _case(49, ["sweep"], json.dumps({"families": ["harper"], "overrides": {"harper": {"count": True}}}), "bad_config"),
    _case(50, ["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "bot_allowed": "false"}), "bad_file"),
    _case(51, ["verify", "collision-tv", "--mode", "monte_carlo", "--forest"], json.dumps(SWAP_FOREST), "bad_mode"),
    _case(52, ["analyze", "neighborhood", "--k", "1", "--mode", "monte_carlo", "--set"], json.dumps({"arity": 1, "alphabet": 2, "members": [[0]]}), "bad_mode"),
    _case(53, ["couple", "--mode", "auto", "--forest"], json.dumps(GATE_FOREST), "bad_mode"),
    _case(54, ["gen-thorp", "--log2n", "1", "--rounds", "1", "--mode", "monte_carlo", "-o"], None, "bad_mode"),
    _case(55, ["verify", "taylor-bound", "--mode", "monte_carlo", "--ledger"], None, "bad_mode"),
    _case(56, ["verify", "ensemble-collision", "--mode", "exact", "--trials", "100", "--target"], json.dumps({"rows": [[0.5, 0.5]] * 30}), "bad_mode"),
    _case(57, ["verify", "harper", "--k", "1", "--set"], json.dumps({"arity": 2, "alphabet": 1, "members": [[0, 0]]}), "bad_parameter"),
    _case(58, ["verify", "harper", "--k", "1", "--set"], json.dumps({"arity": 0, "alphabet": 2, "members": [[]]}), "bad_parameter"),
    _case(59, ["analyze", "cond-entropy", "--cells", "0", "--mode", "monte_carlo", "--trials", "10", "--forest"], json.dumps(GATE_FOREST), "bad_trials"),
    _case(60, ["couple", "--forest"], json.dumps({**GATE_FOREST, "trees": GATE_FOREST["trees"] * 2}), "bad_forest"),
    _case(61, ["verify", "coupling", "--forest"], json.dumps({**GATE_FOREST, "trees": GATE_FOREST["trees"] * 2}), "bad_forest"),
    _case(62, ["couple", "--mode", "exact", "--forest"], json.dumps(GATE_FOREST), "bad_mode"),
    _case(63, ["analyze", "cond-entropy", "--mode", "monte_carlo", "--trials", "200", "--cells", "99", "--forest"], json.dumps(GATE_FOREST), "bad_cells"),
    _case(64, ["verify", "containment", "--k", "1", "--target"], "0,1\tnan\n1,0\t1.0\n", "bad_probability"),
    _case(65, ["verify", "ensemble-collision", "--target"], '{"rows": [[NaN, 0.5, 0.0], [0.5, 0.5, 0.0]]}', "bad_probability"),
    _case(66, ["verify", "containment", "--k", "1", "--target"], "0,1 0.5\n", "bad_file"),
    _case(67, ["verify", "containment", "--k", "1", "--target"], "0,x\t0.5\n", "bad_file"),
    _case(68, ["verify", "containment", "--k", "1", "--target"], "0,1\tabc\n", "bad_file"),
    _case(69, ["verify", "light-mass", "--c", "1", "--target"], "nan 0.5 0.5", "bad_probability"),
    _case(70, ["enforce-lipschitz", "--mu", "nan", "--eps", "0.5", "--forest"], json.dumps(GATE_FOREST), "bad_parameter"),
    _case(71, ["verify", "lipschitz-restriction", "--mu", "nan", "--delta", "0.5", "--trials", "50", "--forest"], json.dumps(GATE_FOREST), "bad_parameter"),
    _case(72, ["verify", "at-least-two", "--alpha", "nan", "--q", "0.1,0.1", "--ledger"], None, "bad_parameter"),
    _case(73, ["sweep"], json.dumps({"families": ["taylor-bound"], "overrides": {"taylor-bound": {"seed": 1}}}), "bad_config"),
    _case(74, ["verify", "sum-ratio", "--target"], "1 2 nan\n1 2 3\n", "bad_parameter"),
    # deep documents get short ids, not their text
    pytest.param(["eval", "--input", "0", "--forest"], _deep_forest_text(700), "bad_file", id="eval-deep-forest"),
    pytest.param(["analyze", "entropy", "--forest"], _deep_forest_text(700), "bad_file", id="entropy-deep-forest"),
    pytest.param(["sweep"], '{"families": ' + "[" * 3000 + "]" * 3000 + "}", "bad_config", id="deep-config"),
    _case(78, ["sweep"], json.dumps({"families": ["taylor-bound", "harper"], "overrides": {"harper": {"count": "3"}}}), "bad_config"),
    _case(79, ["sweep"], json.dumps({"families": ["sum-ratio"], "overrides": {"sum-ratio": {"count": 2.5}}}), "bad_config"),
    _case(80, ["sweep"], json.dumps({"families": ["harper"], "overrides": {"harper": {"radii": ["a"]}}}), "bad_config"),  # no such parameter
    _case(81, ["gen-random", "--s", "4", "--lambda", "2", "--m", "2", "--sigma", "2", "--depth", "2", "--count", "0", "-o"], None, "bad_parameter"),
    _case(82, ["gen-random", "--s", "4", "--lambda", "2", "--m", "2", "--sigma", "2", "--depth", "2", "--count", "-2", "-o"], None, "bad_parameter"),
    _case(83, ["sweep"], json.dumps({"families": ["containment"], "overrides": {"containment": {"count": -5}}}), "bad_config"),
    _case(84, ["sweep"], '{"families": ["coupling"], "overrides": {"coupling": {"calibration": NaN}}}', "bad_config"),  # no such parameter
    _case(85, ["sweep"], '{"families": ["taylor-bound", "harper"], "overrides": {"harper": {"radii": [1, NaN]}}}', "bad_config"),  # no such parameter
    _case(86, ["sweep"], json.dumps({"families": ["enforce-lipschitz"], "overrides": {"enforce-lipschitz": {"runs": 0}}}), "bad_config"),  # no such parameter
    _case(87, ["sweep"], json.dumps({"families": ["lipschitz-restriction"], "overrides": {"lipschitz-restriction": {"trials": 0}}}), "bad_config"),  # no such parameter
    _case(88, ["verify", "lipschitz-restriction", "--mu", "1", "--delta", "0.5", "--trials", "1048577", "--forest"], json.dumps(GATE_FOREST), "bad_trials"),
    _case(89, ["enforce-lipschitz", "--mu", "1e-320", "--eps", "0.5", "--forest"], json.dumps(GATE_FOREST), "bad_parameter"),
    _case(90, ["enforce-lipschitz", "--mu", "1", "--eps", "1e-320", "--forest"], json.dumps(GATE_FOREST), "bad_parameter"),
    _case(91, ["sweep"], json.dumps({"families": ["lipschitz-restriction"], "overrides": {"lipschitz-restriction": {"trials": 1048577}}}), "bad_config"),  # no such parameter
    _case(92, ["sweep"], json.dumps({"families": ["enforce-lipschitz"], "overrides": {"enforce-lipschitz": {"runs": 1048577}}}), "bad_config"),  # no such parameter
    _case(93, ["dichotomy", "--threshold", "0", "--betas", "-3", "--forest", "GATE", "--buckets"], json.dumps([[0]]), "bad_parameter"),
    _case(94, ["dichotomy", "--threshold", "0", "--betas", "1048577", "--forest", "GATE", "--buckets"], json.dumps([[0]]), "bad_trials"),
    pytest.param(["verify", "entropy-deviation", "--cell", "1" + "0" * 400, "--forest"], json.dumps(GATE_FOREST), "bad_cells", id="huge-k-cell"),
    pytest.param(["verify", "containment", "--k", "1", "--target"], "9223372036854775808,0\t1.0\n", "bad_outcome", id="dump-symbol-past-int64"),
    pytest.param(["verify", "mixture-bound", "--sigma", "2", "--target"], "_,1\t0.5\n0,-9223372036854775809\t0.5\n", "bad_outcome", id="dump-symbol-below-int64"),
    _case(98, ["couple", "--mode", "monte_carlo", "--forest"], json.dumps(GATE_FOREST), "bad_mode"),
    _case(99, ["verify", "harper", "--k", "1", "--set"], None, "missing_file"),
    _case(100, ["verify", "at-least-two", "--q", "0", "--alpha", "inf", "--ledger"], None, "bad_parameter"),
    _case(101, ["verify", "sum-ratio", "--target"], "1 inf\n1 1\n", "bad_parameter"),
    _case(102, ["verify", "sum-ratio", "--target"], "1e308 1e308\n1 1\n", "bad_parameter"),
    _case(103, ["verify", "harper", "--k", "-1", "--set"], json.dumps({"arity": 2, "alphabet": 2, "members": [[0, 1]]}), "bad_radius"),
    _case(104, ["sweep"], json.dumps({"families": ["taylor-bound", "enforce-lipschitz"], "overrides": {"enforce-lipschitz": {"seed": -1}}}), "bad_config"),
    _case(105, ["sweep"], json.dumps({"families": ["taylor-bound", "lipschitz-restriction"], "overrides": {"lipschitz-restriction": {"seed": -1}}}), "bad_config"),
    pytest.param(["sweep"], json.dumps({"familes": ["taylor-bound"]}), "bad_config", id="sweep-config-misspelt-key"),
]


@pytest.mark.parametrize("args, text, reason", MALFORMED_FILES)
def test_malformed_input_files_exit_two_with_a_reason(tmp_path, capsys, isolated_ledger, args, text, reason):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    gate = write_gate_forest(tmp_path)
    argv = [gate if a == "GATE" else a for a in args] + [str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {reason}: ")
    assert "Traceback" not in err
    assert out == ""
    assert not isolated_ledger.exists()


def test_missing_forest_argument_is_a_usage_error(capsys):
    assert main(["eval", "--input", "0"]) == 2
    assert "missing_argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "lipschitz-restriction", "--forest", "GATE"], "lipschitz-restriction needs --mu and --delta"),
        (["verify", "lipschitz-restriction"], "lipschitz-restriction needs --forest, --mu and --delta"),
        (["gen-random", "--s", "4", "-o", "batch.jsonl"], "gen-random needs --lambda, --m, --sigma and --depth"),
    ],
)
def test_a_missing_input_names_the_command_and_every_missing_flag(tmp_path, capsys, args, message):
    assert main([write_gate_forest(tmp_path) if a == "GATE" else a for a in args]) == 2
    assert capsys.readouterr().err == f"error: missing_argument: {message}\n"


def test_lipschitz_restriction_runs_monte_carlo_with_or_without_the_mode_flag(tmp_path, capsys):
    args = ["verify", "lipschitz-restriction", "--forest", write_gate_forest(tmp_path), "--mu", "1", "--delta", "0.5", "--trials", "50"]
    assert main(args) == 0
    assert main(args + ["--mode", "monte_carlo"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    assert first.startswith("pass lipschitz-restriction measured=0 ")


def write_verifier_inputs(tmp_path) -> dict:
    """One small input file per kind a verifier reads, by the placeholder that names it."""
    bit = lambda i: {"query": i, "children": [{"leaf": 0}, {"query": (i + 1) % 3, "children": [{"leaf": 0}, {"leaf": 1}]}]}
    docs = {
        "GATE": ("gate.json", json.dumps(GATE_FOREST)),
        "BITS": ("bits.json", json.dumps({**GATE_FOREST, "input_arity": 3, "trees": [bit(i) for i in range(3)]})),
        "BUCKETS": ("buckets.json", json.dumps({"buckets": [list(b) for b in thorp_bucket_structure(ThorpSpec(2, 2)).buckets]})),
        "SET": ("set.json", json.dumps({"arity": 3, "alphabet": 2, "members": [[0, 0, 0], [0, 0, 1]]})),
        "ENSEMBLE": ("ensemble.json", json.dumps({"rows": [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.5, 0.25, 0.25]]})),
        "PROBS": ("probs.txt", " ".join(["0.0625"] * 16) + "\n"),
        "SUMS": ("sums.txt", "1,2,3\n3,2,1\n"),
        "SHUFFLE": ("shuffle.json", dumps_forest(thorp_forest(ThorpSpec(2, 2)))),
    }
    for name, text in docs.values():
        (tmp_path / name).write_text(text)
    return {key: str(tmp_path / name) for key, (name, _) in docs.items()}


# (lemma id, flags, verdict line) for each verifier, on the inputs of write_verifier_inputs
VERIFIER_RUNS = [
    ("containment", ["--forest", "SHUFFLE", "--k", "1.5"], "pass containment measured=0 bound=0.5"),
    ("mixture-bound", ["--forest", "SHUFFLE", "--sigma", "4"], "pass mixture-bound measured=4 bound=18.3219280949"),
    ("chain-bound", ["--forest", "SHUFFLE", "--buckets", "BUCKETS"], "pass chain-bound measured=4 bound=4"),
    ("entropy-deviation", ["--forest", "SHUFFLE", "--cell", "0"], "pass entropy-deviation measured=1 bound=10.3219280949"),
    ("second-moment-tail", ["--forest", "BITS"], "pass second-moment-tail measured=-0.125 bound=0"),
    ("avg-to-tail-lipschitz", ["--forest", "BITS"], "pass avg-to-tail-lipschitz measured=-0.125 bound=0"),
    (
        "lipschitz-restriction", ["--forest", "BITS", "--mu", "1", "--delta", "0.5", "--trials", "50", "--seed", "4"],
        "pass lipschitz-restriction measured=0.58 bound=0.937287522487 trials=50 seed=4",
    ),
    ("coupling", ["--forest", "GATE"], "pass coupling measured=0.5 bound=1.66510922232"),
    ("at-least-two", ["--q", "0.04,0.04", "--alpha", "0.04"], "pass at-least-two measured=0.0016 bound=-0.0048"),
    ("light-mass", ["--target", "PROBS", "--c", "0.5"], "pass light-mass measured=1 bound=0.0625"),
    ("harper", ["--set", "SET", "--k", "1"], "pass harper measured=0.75 bound=-2.38592689956"),
    ("ensemble-collision", ["--target", "ENSEMBLE"], "pass ensemble-collision measured=0.75 bound=0.0799555853707"),
    ("collision-tv", ["--forest", "SHUFFLE"], "pass collision-tv measured=0.333333333333 bound=0"),
    ("taylor-bound", [], "pass taylor-bound measured=-2.49999999999e-05 bound=0"),
    ("sum-ratio", ["--target", "SUMS"], "pass sum-ratio measured=4.33333333333 bound=3.6"),
]


def test_every_verifier_has_a_run():
    assert [lemma for lemma, _, _ in VERIFIER_RUNS] == list(_VERIFIERS)


@pytest.mark.parametrize("lemma, flags, line", VERIFIER_RUNS, ids=[run[0] for run in VERIFIER_RUNS])
def test_every_verifier_runs_through_main_to_a_verdict_and_a_ledger_row(tmp_path, capsys, isolated_ledger, lemma, flags, line):
    paths = write_verifier_inputs(tmp_path)
    files = [flag for flag in flags if flag in paths]
    assert main(["verify", lemma] + [paths.get(flag, flag) for flag in flags]) == 0
    assert capsys.readouterr().out == line + "\n"
    # the row holds the line's numbers, named by the first input file's stem
    values = dict(field.split("=") for field in line.split()[2:])
    stem = os.path.splitext(os.path.basename(paths[files[0]]))[0] if files else "cli"
    row = f"{lemma},{stem},{values['bound']},{values['measured']},pass,{values.get('trials', '')},{values.get('seed', '')}"
    assert strip_timestamps(ledger_lines(isolated_ledger)) == [row]


def test_tv_to_uniform_decks_reaches_a_16_card_shuffle(tmp_path, capsys, isolated_ledger):
    forest_path = tmp_path / "t16.json"
    assert main(["gen-thorp", "--log2n", "4", "--rounds", "2", "-o", str(forest_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "collision-tv", "--forest", str(forest_path)]) == 0
    assert capsys.readouterr().out == "pass collision-tv measured=0.999999996868 bound=0\n"
    assert main(["analyze", "tv", "--forest", str(forest_path), "--target", "uniform-perm"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.9999999968677218
    assert strip_timestamps(ledger_lines(isolated_ledger)) == [
        "collision-tv,t16,0,0.999999996868,pass,,", "analyze-tv,t16,,0.999999996868,pass,,"
    ]


def test_no_command_materializes_the_uniform_deck_law(tmp_path, capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("the n!-row law was built")

    for module in (forestlab, samplers, cli, harness, analysis):
        monkeypatch.setattr(module, "uniform_perm_distribution", refuse, raising=False)
    forest_path = tmp_path / "f.json"
    main(["gen-thorp", "--log2n", "2", "--rounds", "2", "-o", str(forest_path)])
    assert main(["verify", "collision-tv", "--forest", str(forest_path)]) == 0
    tv = ["analyze", "tv", "--forest", str(forest_path), "--target", "uniform-perm"]
    assert main(tv) == 0
    assert main(tv + ["--mode", "monte_carlo", "--trials", "200", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "pass collision-tv measured=0.333333333333 bound=0"
    assert json.loads(out[2])["value"] == 1 / 3
    sampled = Distribution._from_counts(*np.unique(sample_forest_outputs(thorp_forest(ThorpSpec(2, 2)), 200, 1), axis=0, return_counts=True), None)
    assert json.loads(out[3])["value"] == pytest.approx(tv_distance(sampled, uniform_perm_distribution(4)), abs=1e-12)


def test_outside_analyze_tv_uniform_perm_names_a_dump_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["verify", "containment", "--target", "uniform-perm", "--k", "1"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: missing_file: ")
    (tmp_path / "uniform-perm").write_text("0,1\t0.5\n1,0\t0.5\n")
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("pass containment ")


# (argv, modes) for each entry of the three dispatch tables
MODE_ENTRIES = (
    [([name], modes) for name, (_, modes) in _COMMANDS.items() if isinstance(modes, tuple)]
    + [(["analyze", name], modes) for name, (_, modes) in _ANALYZERS.items()]
    + [(["verify", name], modes) for name, (_, modes) in _VERIFIERS.items()]
)


@pytest.mark.parametrize("argv, modes", [pytest.param(*entry, id=" ".join(entry[0])) for entry in MODE_ENTRIES])
def test_every_mode_a_command_does_not_read_is_bad_mode(capsys, isolated_ledger, argv, modes):
    assert set(_MODES) == {"exact", "monte_carlo", "sample", "exact_report", "auto"}
    outside = [mode for mode in _MODES if mode not in modes]
    assert outside
    for mode in outside:
        assert main(argv + ["--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad_mode: ")
    assert not isolated_ledger.exists()


def test_only_a_sampled_mean_of_bounded_events_carries_a_half_width(tmp_path, capsys):
    forest_path = tmp_path / "f.json"
    main(["gen-thorp", "--log2n", "2", "--rounds", "1", "-o", str(forest_path)])
    sampled = ["--forest", str(forest_path), "--mode", "monte_carlo", "--trials", "400", "--seed", "3"]
    capsys.readouterr()
    assert main(["analyze", "tv", "--target", "uniform-perm"] + sampled) == 0
    tv = json.loads(capsys.readouterr().out)
    assert (tv["ci_halfwidth"], tv["trials"], tv["seed"]) == (None, 400, 3)
    assert main(["analyze", "collision"] + sampled) == 0
    assert json.loads(capsys.readouterr().out)["ci_halfwidth"] == hoeffding_halfwidth(400)


# the commands that log a report, and take --ledger and --fresh for it
LOGGED = ("couple", "dichotomy", "analyze", "verify")


def flag_of(name: str) -> str:
    return "--" + {"lam": "lambda", "set_spec": "set"}.get(name, name).replace("_", "-")


def subcommand_parsers():
    return [action for action in build_parser()._actions if action.dest == "command"][0].choices


def handler_parsers():
    """(argv that selects the parser, parser, handler) for each command, analysis and lemma."""
    parsers, found = subcommand_parsers(), []
    for command, (handler, table) in _COMMANDS.items():
        if isinstance(table, tuple):
            found.append(([command], parsers[command], handler))
            continue
        entries = [action for action in parsers[command]._actions if action.dest == "entry"][0].choices
        found += [([command, name], entries[name], entry) for name, (entry, _) in table.items()]
    return found


def option_strings(parser) -> set:
    return {option for action in parser._actions for option in action.option_strings if option.startswith("--")}


@pytest.mark.parametrize("argv, parser, handler", [pytest.param(*entry, id=" ".join(entry[0])) for entry in handler_parsers()])
def test_each_parser_takes_exactly_its_handlers_parameters_as_flags(argv, parser, handler):
    params = inspect.signature(handler).parameters.values()
    expected = {flag_of(p.name) for p in params if p.kind is p.KEYWORD_ONLY} | {"--mode"}
    assert option_strings(parser) - {"--help"} == expected | ({"--ledger", "--fresh"} if argv[0] in LOGGED else set())


# the inputs every subcommand took before each took only its own flags
FORMER_SHARED_INPUTS = [
    "alpha", "betas", "buckets", "budget_set", "budget_states", "c", "cell", "cells", "count", "delta", "depth", "eps",
    "forest", "fresh", "input", "k", "lam", "ledger", "log2n", "m", "mode", "mu", "out", "q", "rounds", "s", "seed",
    "set_spec", "sigma", "target", "threshold", "trials",
]


@pytest.mark.parametrize("name", FORMER_SHARED_INPUTS)
def test_each_run_config_field_is_a_flag_and_a_config_key(name):
    """Each former input is still a flag of some parser, and on each such parser sets the handler keyword `name`."""
    flag = flag_of(name)
    takers = [(argv, parser) for argv, parser, _ in handler_parsers() if flag in option_strings(parser)]
    assert takers
    for argv, parser in takers:
        action = next(action for action in parser._actions if flag in action.option_strings)
        if action.nargs == 0:
            tail, value = [flag], True
        else:
            text = "sample" if name == "mode" else {int: "4", float: "0.25", None: "b"}[action.type]
            tail, value = [flag, text], (action.type or str)(text)
        assert getattr(build_parser().parse_args(argv + tail), name) == value, argv


def test_there_are_29_parsers_with_178_flags_in_all():
    parsers = handler_parsers()
    assert len(parsers) == 29
    assert sum(len(option_strings(parser) - {"--help"}) for _, parser, _ in parsers) == 178


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sweep", "--seed", "5", "--trials", "7"], "--seed"),  # named in full below, with the 5 a positional took
        (["eval", "--forest", "GATE", "--input", "0", "--mu", "3"], "--mu 3"),
        (["verify", "ensemble-collision", "--target", "GATE", "--budget-states", "4"], "--budget-states 4"),
        (["analyze", "entropy", "--forest", "GATE", "--target", "uniform-perm"], "--target uniform-perm"),
        (["verify", "at-least-two", "--q", "0.1", "--alpha", "0.1", "--mu", "3"], "--mu 3"),
    ],
)
def test_a_flag_the_command_does_not_read_is_unrecognized(tmp_path, capsys, isolated_ledger, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        main([write_gate_forest(tmp_path) if a == "GATE" else a for a in argv])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flag}" in err
    # the usage and the error come from the parser of the command, analysis or lemma
    leaf = " ".join(argv[:2] if argv[0] in ("analyze", "verify") else argv[:1])
    assert err.startswith(f"usage: forestlab {leaf} [-h]") and f"\nforestlab {leaf}: error: " in err
    assert not isolated_ledger.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(["sweep", "--seed", "5", "--trials", "7"], "--seed 5 --trials 7", id="value-a-positional-took"),
        pytest.param(["sweep", "cfg.json", "--seed", "5"], "--seed 5", id="after-the-positional"),
        pytest.param(["sweep", "--seed", "-5"], "--seed -5", id="negative-value"),
        pytest.param(["sweep", "--fresh", "--bogus", "--ledger", "x.csv"], "--bogus", id="next-flag-is-known"),
    ],
)
def test_an_unknown_flag_is_named_with_its_values(capsys, isolated_ledger, argv, named):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"forestlab sweep: error: unrecognized arguments: {named}\n")
    assert not isolated_ledger.exists()


def test_a_lemmas_help_lists_only_its_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "at-least-two", "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert listed == {"--help", "--mode", "--q", "--alpha", "--ledger", "--fresh"}


def test_config_is_not_a_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "taylor-bound", "--config", str(tmp_path / "config.json")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_the_readme_names_every_flag_and_no_other():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    flags = set().union(*(option_strings(parser) for _, parser, _ in handler_parsers()))
    assert named == flags - {"--help"}


def test_the_coupling_calibration_is_not_a_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "coupling", "--calib-coupling-c", "2.0"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --calib-coupling-c 2.0" in capsys.readouterr().err


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "forestlab", "verify", "taylor-bound"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("pass taylor-bound")


def test_exact_cond_entropy_is_the_library_value(tmp_path, capsys, isolated_ledger):
    forest_path = tmp_path / "f.json"
    main(["gen-thorp", "--log2n", "2", "--rounds", "2", "-o", str(forest_path)])
    capsys.readouterr()
    assert main(["analyze", "cond-entropy", "--forest", str(forest_path), "--cells", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = analysis.conditional_entropy_detail(thorp_forest(ThorpSpec(2, 2)), [0]).value
    assert (payload["quantity"], payload["mode"], payload["value"], payload["trials"]) == ("cond-entropy", "exact", expected, None)
    assert strip_timestamps(ledger_lines(isolated_ledger)) == [f"analyze-cond-entropy,f,,{expected:.12g},pass,,"]


def test_analyze_tv_against_a_dump_file(tmp_path, capsys):
    forest_path = tmp_path / "swap.json"
    forest_path.write_text(json.dumps(SWAP_FOREST))
    dump = tmp_path / "law.txt"
    dump.write_text("0,1\t1.0\n")
    assert main(["analyze", "tv", "--forest", str(forest_path), "--target", str(dump)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.5


def test_analyze_collision_of_an_ensemble_and_of_nothing(tmp_path, capsys, isolated_ledger):
    ensemble = tmp_path / "ensemble.json"
    ensemble.write_text(json.dumps({"rows": [[0.5, 0.5], [0.25, 0.75]]}))
    expected = analysis.collision_probability(analysis.IndependentEnsemble([[0.5, 0.5], [0.25, 0.75]]), mode="exact")
    assert main(["analyze", "collision", "--target", str(ensemble)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == expected
    assert main(["analyze", "collision"]) == 2
    assert capsys.readouterr().err == "error: missing_argument: collision needs --forest or --target\n"
    assert strip_timestamps(ledger_lines(isolated_ledger)) == [f"analyze-collision,ensemble,,{expected:.12g},pass,,"]


def test_depth_reduce_writes_the_pruned_forest(tmp_path, capsys):
    forest_path, pruned = tmp_path / "f.json", tmp_path / "pruned.json"
    main(["gen-thorp", "--log2n", "3", "--rounds", "3", "-o", str(forest_path)])
    capsys.readouterr()
    assert main(["depth-reduce", "--forest", str(forest_path), "--alpha", "0.5", "--seed", "2", "-o", str(pruned)]) == 0
    assert json.loads(capsys.readouterr().out)["selected_cells"] == [10, 11]
    step = harness.depth_reduction_step(thorp_forest(ThorpSpec(3, 3)), 0.5, 2)
    assert pruned.read_text() == dumps_forest(step.pruned)
    assert step.pruned.output_space.bot_allowed


def test_dichotomy_without_buckets_names_both_ways_to_give_them(tmp_path, capsys, isolated_ledger):
    argv = ["dichotomy", "--forest", write_gate_forest(tmp_path), "--threshold", "0"]
    for extra in ([], ["--log2n", "3"]):
        assert main(argv + extra) == 2
        assert capsys.readouterr() == ("", "error: missing_argument: dichotomy needs --buckets (or --log2n with --rounds)\n")
    assert not isolated_ledger.exists()


def test_mixture_bound_without_a_forest_or_a_target(capsys, isolated_ledger):
    assert main(["verify", "mixture-bound", "--sigma", "2"]) == 2
    assert capsys.readouterr() == ("", "error: missing_argument: mixture-bound needs --forest or --target\n")
    assert not isolated_ledger.exists()


@pytest.mark.parametrize("text", ["1 2 3\n", "1 2\n3 4\n5 6\n", "\n"])
def test_a_sum_ratio_target_must_hold_two_lines(tmp_path, capsys, text):
    target = tmp_path / "sums.txt"
    target.write_text(text)
    assert main(["verify", "sum-ratio", "--target", str(target)]) == 2
    assert capsys.readouterr().err == "error: bad_file: sum-ratio target must hold two lines of numbers\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--forest", "GATE", "--input", "0,x"], "cannot parse symbols from '0,x'"),
        (["verify", "at-least-two", "--q", "0.1,abc", "--alpha", "0.1"], "cannot parse numbers from '0.1,abc'"),
    ],
    ids=["eval-input", "at-least-two-q"],
)
def test_unparsable_inputs_are_bad_input(tmp_path, capsys, isolated_ledger, argv, message):
    assert main([write_gate_forest(tmp_path) if a == "GATE" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: bad_input: {message}\n")
    assert not isolated_ledger.exists()


def test_a_conditioning_precondition_that_fails_is_reported_and_exits_zero(tmp_path, capsys, isolated_ledger):
    twice = {**GATE_FOREST, "input_arity": 2, "trees": GATE_FOREST["trees"] * 2}  # both trees probe cell 0
    forest_path = tmp_path / "twice.json"
    forest_path.write_text(json.dumps(twice))
    argv = ["verify", "lipschitz-restriction", "--forest", str(forest_path), "--mu", "1", "--delta", "0.1", "--trials", "10"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("precondition_violation lipschitz-restriction measured=0.4 bound=0.830927550675 trials=10 seed=0\n", "")
    assert strip_timestamps(ledger_lines(isolated_ledger)) == [
        "lipschitz-restriction,twice,0.830927550675,0.4,precondition_violation,10,0"
    ]
