"""Command-line behavior: exit codes, output formats, ledger plumbing."""
import json
import subprocess
import sys

import pytest

from forestlab import (
    DecisionForest,
    DecisionTree,
    InputSpace,
    Internal,
    Leaf,
    OutputSpace,
    dumps_forest,
    loads_forest,
    prune_on_query_set,
)
from forestlab.cli import main
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


def test_verify_harper_on_the_empty_set_is_a_usage_error(capsys):
    rc = main(["verify", "harper", "--set", "empty", "--k", "1", "--s", "3", "--lambda", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: empty_set:")
    assert "empty set" in err


def test_verify_unknown_lemma_is_a_usage_error(capsys):
    assert main(["verify", "sorcery"]) == 2
    assert "unknown_lemma" in capsys.readouterr().err


def test_couple_exact_reports_and_fails_under_a_tiny_calibration(tmp_path, capsys):
    forest_path = write_gate_forest(tmp_path)
    rc = main(["couple", "--forest", forest_path, "--mode", "exact_report"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("pass coupling measured=0.5 bound=1.66510922232")
    rc = main(
        [
            "couple",
            "--forest",
            forest_path,
            "--mode",
            "exact_report",
            "--calib-coupling-c",
            "0.01",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().out.startswith("fail coupling")


def test_couple_sample_mode_emits_one_sample(tmp_path, capsys):
    forest_path = write_gate_forest(tmp_path)
    rc = main(["couple", "--forest", forest_path, "--mode", "sample", "--trials", "1", "--seed", "6"])
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
    assert loads_forest(out_path.read_text()).input_space.cells == 1


def test_enforce_success_exits_zero(tmp_path, capsys):
    forest_path = write_gate_forest(tmp_path)
    rc = main(["enforce-lipschitz", "--forest", forest_path, "--mu", "1.0", "--eps", "0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["success"] is True
    assert doc["steps"] == []


def test_config_file_merges_under_flags(tmp_path, capsys):
    cfg = tmp_path / "claim.json"
    cfg.write_text(json.dumps({"q": "0.04,0.04", "alpha": 0.04}))
    assert main(["verify", "at-least-two", "--config", str(cfg)]) == 0
    assert "bound=-0.0048" in capsys.readouterr().out
    assert main(["verify", "at-least-two", "--config", str(cfg), "--alpha", "0.5"]) == 0
    assert "bound=-0.0784" in capsys.readouterr().out


def test_config_file_rejects_unknown_fields(tmp_path, capsys):
    cfg = tmp_path / "claim.json"
    cfg.write_text(json.dumps({"qq": 1}))
    assert main(["verify", "at-least-two", "--config", str(cfg)]) == 2
    assert "bad_config" in capsys.readouterr().err


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
        forest = loads_forest(text)
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
    rc = main(
        ["analyze", "lipschitz", "--forest", str(forest_path), "--mu", "2.0", "--delta", "0.0"]
    )
    assert rc == 0
    assert "lipschitz" in capsys.readouterr().out


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


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


# (arguments before the file path, file text or None for no file, expected
# reason); GATE stands for the path of a valid one-tree forest
MALFORMED_FILES = [
    (["eval", "--input", "0", "--forest"], "{not json", "bad_file"),
    (["eval", "--input", "0", "--forest"], json.dumps(_without(GATE_FOREST, "output_alphabet")), "bad_file"),
    (["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "trees": [{"query": 0}]}), "bad_file"),
    (["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "trees": 7}), "bad_file"),
    (["eval", "--input", "0", "--forest"], json.dumps({**GATE_FOREST, "trees": [{"leaf": 5}]}), "bad_leaf"),
    (["verify", "at-least-two", "--config"], "[1, 2", "bad_config"),
    (["verify", "at-least-two", "--config"], "[1, 2]", "bad_config"),
    (["sweep"], "{", "bad_config"),
    (["sweep"], json.dumps({"families": 3}), "bad_config"),
    (["sweep"], json.dumps({"families": ["taylor-bound"], "overrides": [1]}), "bad_config"),
    (["verify", "harper", "--k", "1", "--set"], json.dumps({"arity": 2, "members": []}), "bad_file"),
    (["verify", "harper", "--k", "1", "--set"], "", "bad_file"),
    (["verify", "ensemble-collision", "--target"], "{]", "bad_file"),
    (["verify", "ensemble-collision", "--target"], json.dumps({"row": [[1.0]]}), "bad_file"),
    (["verify", "chain-bound", "--forest", "GATE", "--buckets"], "oops", "bad_file"),
    (["verify", "chain-bound", "--forest", "GATE", "--buckets"], json.dumps({"buckets": 3}), "bad_file"),
    (["eval", "--input", "0", "--forest"], None, "missing_file"),
]


@pytest.mark.parametrize("args, text, reason", MALFORMED_FILES)
def test_malformed_input_files_exit_two_with_a_reason(tmp_path, capsys, args, text, reason):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    gate = write_gate_forest(tmp_path)
    argv = [gate if a == "GATE" else a for a in args] + [str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {reason}: ")
    assert "Traceback" not in err


def test_missing_forest_argument_is_a_usage_error(capsys):
    assert main(["eval", "--input", "0"]) == 2
    assert "missing_argument" in capsys.readouterr().err


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "forestlab", "verify", "taylor-bound"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("pass taylor-bound")
