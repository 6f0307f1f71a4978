"""Command-line front end.

One subcommand per process.  Flags always win over the optional JSON config
file given with --config.  Verification results append to the CSV ledger;
the FORESTLAB_LEDGER environment variable supplies the default path.  Exit
status is 0 for pass or success, 1 for a failed verification, 2 for usage
and budget errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass

from . import corpus as corpus_mod
from .analysis import (
    Distribution,
    IndependentEnsemble,
    Measurement,
    OutcomeSet,
    collision_probability,
    conditional_entropy,
    derive_seed,
    entropy,
    hoeffding_halfwidth,
    monte_carlo_conditional_entropy,
    neighborhood,
    output_distribution,
    parse_distribution,
    sample_forest_outputs,
    tv_distance,
)
from .forest import (
    DEFAULT_SET_BUDGET,
    DEFAULT_STATE_BUDGET,
    BucketStructure,
    BudgetError,
    UsageError,
    check_lipschitz,
    dumps_forest,
    eval_forest,
    forest_from_json,
    query_profile,
)
from .harness import (
    bucketed_dichotomy_experiment,
    collision_ensemble_report,
    containment_set,
    couple_accepting,
    depth_reduction_step,
    enforce_avg_lipschitz,
    sample_coupling_distance,
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
from .report import append_ledger, default_ledger_path, ledger_row
from .samplers import (
    ForestGenSpec,
    ThorpSpec,
    random_forest,
    thorp_bucket_structure,
    thorp_forest,
    uniform_perm_distribution,
)


@dataclass
class RunConfig:
    """Merged view of flags and the optional config file; flags win."""

    command: str
    analysis: str | None = None
    lemma: str | None = None
    corpus_config: str | None = None
    n: int | None = None
    log2n: int | None = None
    s: int | None = None
    lam: int | None = None
    sigma: int | None = None
    m: int | None = None
    depth: int | None = None
    rounds: int | None = None
    mu: float | None = None
    eps: float | None = None
    delta: float | None = None
    alpha: float | None = None
    k: float | None = None
    c: float | None = None
    cell: int | None = None
    cells: str | None = None
    threshold: float | None = None
    betas: int = 1
    count: int | None = None
    q: str | None = None
    set_spec: str | None = None
    input: str | None = None
    mode: str = "exact"
    trials: int = 100_000
    seed: int = 0
    forest: str | None = None
    target: str | None = None
    buckets: str | None = None
    out: str | None = None
    ledger: str | None = None
    fresh: bool = False
    budget_states: int = DEFAULT_STATE_BUDGET
    budget_set: int = DEFAULT_SET_BUDGET
    calib_coupling_c: float = 2.0
    time_limit: float = 600.0


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _build_config(args: argparse.Namespace) -> RunConfig:
    raw = vars(args).copy()
    config_path = raw.pop("config", None)
    merged: dict = {}
    if config_path:
        file_values = _read_json(config_path, "bad_config", _json_object)
        for key, value in file_values.items():
            name = key.replace("-", "_")
            if name == "lambda":
                name = "lam"
            if name == "set":
                name = "set_spec"
            if name not in _CONFIG_FIELDS:
                raise UsageError("bad_config", f"unknown config field {key!r}")
            merged[name] = value
    for key, value in raw.items():
        if value is not None:
            merged[key] = value
    return RunConfig(**merged)


# ---------------------------------------------------------------------------
# small IO helpers


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise UsageError("missing_file", f"file {path} not found")


def _read_json(path: str, reason: str, build=lambda doc: doc):
    """Parse a JSON file and build an object from the document.

    Text that does not parse, and a KeyError, TypeError or ValueError
    raised while building, become UsageError(reason); a UsageError raised
    while building keeps its own reason.
    """
    try:
        return build(json.loads(_read_text(path)))
    except UsageError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(reason, f"cannot read {path}: {exc!r}")


def _json_object(doc) -> dict:
    if not isinstance(doc, dict):
        raise TypeError("the document must hold an object")
    return doc


def _load_forest(cfg: RunConfig):
    if not cfg.forest:
        raise UsageError("missing_argument", "this command needs --forest")
    return _read_json(cfg.forest, "bad_file", forest_from_json)


def _parse_symbols(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise UsageError("bad_input", f"cannot parse symbols from {text!r}")


def _parse_floats(text: str) -> list:
    try:
        return [float(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError("bad_input", f"cannot parse numbers from {text!r}")


def _load_outcome_set(cfg: RunConfig) -> OutcomeSet:
    spec = cfg.set_spec
    if not spec:
        raise UsageError("missing_argument", "this command needs --set")
    if spec == "empty":
        return OutcomeSet(frozenset(), cfg.s or 12, cfg.lam or 2, description="empty set")

    def build(doc) -> OutcomeSet:
        members = frozenset(tuple(int(v) for v in row) for row in doc["members"])
        return OutcomeSet(
            members, int(doc["arity"]), int(doc["alphabet"]), description=doc.get("description", "")
        )

    return _read_json(spec, "bad_file", build)


def _dump_outcome_set(outcome_set: OutcomeSet) -> str:
    doc = {
        "arity": outcome_set.arity,
        "alphabet": outcome_set.alphabet,
        "description": outcome_set.description,
        "members": [list(member) for member in sorted(outcome_set.members)],
    }
    return json.dumps(doc, indent=1) + "\n"


def _load_ensemble(path: str) -> IndependentEnsemble:
    return _read_json(
        path, "bad_file", lambda doc: IndependentEnsemble(doc["rows"] if isinstance(doc, dict) else doc)
    )


def _load_buckets(cfg: RunConfig) -> BucketStructure:
    if not cfg.buckets:
        raise UsageError("missing_argument", "this command needs --buckets")

    def build(doc) -> BucketStructure:
        blocks = doc["buckets"] if isinstance(doc, dict) else doc
        return BucketStructure(tuple(tuple(int(c) for c in block) for block in blocks))

    return _read_json(cfg.buckets, "bad_file", build)


def _target_distribution(cfg: RunConfig, forest=None) -> Distribution:
    if not cfg.target:
        raise UsageError("missing_argument", "this command needs --target")
    if cfg.target == "uniform-perm":
        if forest is None:
            raise UsageError("missing_argument", "uniform-perm target needs --forest")
        return uniform_perm_distribution(forest.output_space.cells)
    bot = forest.output_space.bot if forest is not None else cfg.sigma
    return parse_distribution(_read_text(cfg.target), bot=bot)


def _ledger_path(cfg: RunConfig) -> str:
    return cfg.ledger or default_ledger_path() or "forestlab-ledger.csv"


def _instance_id(cfg: RunConfig) -> str:
    source = cfg.forest or cfg.target or cfg.set_spec or "cli"
    stem = os.path.splitext(os.path.basename(source))[0]
    return stem or "cli"


def _emit_measurement(measurement: Measurement) -> None:
    print(json.dumps(measurement.to_json()))


def _log_report(cfg: RunConfig, report, instance_id: str) -> None:
    append_ledger(_ledger_path(cfg), [ledger_row(report, instance_id)], fresh=cfg.fresh)


def _report_exit(report) -> int:
    if report.status != "ok":
        return 0
    return 0 if report.passed else 1


def _print_report(report) -> None:
    line = (
        f"{report.csv_status} {report.lemma_id}"
        f" measured={report.measured:.12g}"
    )
    if report.bound is not None:
        line += f" bound={report.bound:.12g}"
    if report.trials is not None:
        line += f" trials={report.trials} seed={report.seed}"
    print(line)


# ---------------------------------------------------------------------------
# commands


def _cmd_gen_thorp(cfg: RunConfig) -> int:
    if cfg.log2n is None or cfg.rounds is None:
        raise UsageError("missing_argument", "gen-thorp needs --log2n and --rounds")
    if not cfg.out:
        raise UsageError("missing_argument", "gen-thorp needs --out")
    forest = thorp_forest(ThorpSpec(cfg.log2n, cfg.rounds))
    _atomic_write(cfg.out, dumps_forest(forest))
    print(f"wrote {cfg.out}")
    return 0


def _cmd_gen_random(cfg: RunConfig) -> int:
    if not cfg.out:
        raise UsageError("missing_argument", "gen-random needs --out (manifest path)")
    missing = [name for name in ("s", "lam", "m", "sigma", "depth") if getattr(cfg, name) is None]
    if missing:
        raise UsageError("missing_argument", f"gen-random needs --{', --'.join(missing)}")
    count = cfg.count or 1
    base, _ = os.path.splitext(cfg.out)
    lines = []
    for i in range(count):
        seed = derive_seed(cfg.seed, i)
        gen = ForestGenSpec(
            cells=cfg.s,
            alphabet=cfg.lam,
            out_cells=cfg.m,
            out_alphabet=cfg.sigma,
            depth=cfg.depth,
            seed=seed,
        )
        forest = random_forest(gen)
        path = f"{base}-{i:04d}.json"
        _atomic_write(path, dumps_forest(forest))
        record = {
            "spec": {
                "s": cfg.s,
                "lambda": cfg.lam,
                "m": cfg.m,
                "sigma": cfg.sigma,
                "depth": cfg.depth,
            },
            "seed": seed,
            "path": path,
        }
        lines.append(json.dumps(record))
    _atomic_write(cfg.out, "\n".join(lines) + "\n")
    print(f"wrote {count} forests and manifest {cfg.out}")
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    forest = _load_forest(cfg)
    if cfg.input is None:
        raise UsageError("missing_argument", "eval needs --input")
    value = eval_forest(forest, _parse_symbols(cfg.input))
    bot = forest.output_space.bot
    print(",".join("_" if sym == bot else str(sym) for sym in value))
    return 0


def _analyze_tv(cfg: RunConfig) -> Measurement:
    forest = _load_forest(cfg)
    target = _target_distribution(cfg, forest)
    if cfg.mode == "exact":
        dist = output_distribution(forest, budget=cfg.budget_states)
        return Measurement("tv", "exact", tv_distance(dist, target))
    rows = sample_forest_outputs(forest, cfg.trials, cfg.seed)
    probs: dict = {}
    for row in rows:
        key = tuple(int(v) for v in row)
        probs[key] = probs.get(key, 0.0) + 1.0 / len(rows)
    empirical = Distribution(probs, forest.output_space.cells, bot=forest.output_space.bot)
    return Measurement(
        "tv",
        "monte_carlo",
        tv_distance(empirical, target),
        ci_halfwidth=hoeffding_halfwidth(cfg.trials),
        seed=cfg.seed,
        trials=cfg.trials,
    )


def _analyze_entropy(cfg: RunConfig) -> Measurement:
    forest = _load_forest(cfg)
    if cfg.mode == "exact":
        return Measurement(
            "entropy", "exact", entropy(output_distribution(forest, budget=cfg.budget_states))
        )
    rows = sample_forest_outputs(forest, cfg.trials, cfg.seed)
    probs: dict = {}
    for row in rows:
        key = tuple(int(v) for v in row)
        probs[key] = probs.get(key, 0.0) + 1.0 / len(rows)
    value = entropy(Distribution(probs, forest.output_space.cells, bot=forest.output_space.bot))
    return Measurement(
        "entropy",
        "monte_carlo",
        value,
        ci_halfwidth=hoeffding_halfwidth(cfg.trials),
        seed=cfg.seed,
        trials=cfg.trials,
    )


def _analyze_cond_entropy(cfg: RunConfig) -> Measurement:
    forest = _load_forest(cfg)
    if cfg.cells is None:
        raise UsageError("missing_argument", "cond-entropy needs --cells")
    cells = [int(v) for v in _parse_symbols(cfg.cells)]
    if cfg.mode == "exact":
        value = conditional_entropy(forest, cells, budget=cfg.budget_states)
        return Measurement("cond-entropy", "exact", value)
    value = monte_carlo_conditional_entropy(forest, cells, trials=cfg.trials, seed=cfg.seed).value
    return Measurement(
        "cond-entropy",
        "monte_carlo",
        value,
        ci_halfwidth=hoeffding_halfwidth(cfg.trials),
        seed=cfg.seed,
        trials=cfg.trials,
    )


def _analyze_collision(cfg: RunConfig) -> Measurement:
    if cfg.forest:
        source = _load_forest(cfg)
    elif cfg.target:
        source = _load_ensemble(cfg.target)
    else:
        raise UsageError("missing_argument", "collision needs --forest or --target")
    value = collision_probability(
        source, mode=cfg.mode, trials=cfg.trials, seed=cfg.seed, budget=cfg.budget_states
    )
    if cfg.mode == "exact":
        return Measurement("collision", "exact", value)
    return Measurement(
        "collision",
        "monte_carlo",
        value,
        ci_halfwidth=hoeffding_halfwidth(cfg.trials),
        seed=cfg.seed,
        trials=cfg.trials,
    )


def _analyze_lipschitz(cfg: RunConfig) -> Measurement:
    forest = _load_forest(cfg)
    if cfg.mu is None:
        raise UsageError("missing_argument", "lipschitz needs --mu")
    profile = query_profile(
        forest,
        cfg.mu,
        mode=cfg.mode,
        trials=cfg.trials,
        seed=cfg.seed,
        budget=cfg.budget_states,
    )
    worst_tail = max(profile.tail) if profile.tail else 0.0
    if cfg.delta is not None:
        report = check_lipschitz(profile, cfg.mu, cfg.delta)
        print(
            f"average_ok={report.average_ok} tail_ok={report.tail_ok}"
            f" worst_cell={report.worst_cell}"
        )
    if cfg.mode == "exact":
        return Measurement("lipschitz-worst-tail", "exact", worst_tail)
    return Measurement(
        "lipschitz-worst-tail",
        "monte_carlo",
        worst_tail,
        ci_halfwidth=hoeffding_halfwidth(cfg.trials),
        seed=cfg.seed,
        trials=cfg.trials,
    )


def _analyze_neighborhood(cfg: RunConfig) -> Measurement:
    outcome_set = _load_outcome_set(cfg)
    if cfg.k is None:
        raise UsageError("missing_argument", "neighborhood needs --k")
    grown = neighborhood(outcome_set, int(cfg.k), budget=cfg.budget_set)
    if cfg.out:
        _atomic_write(cfg.out, _dump_outcome_set(grown))
    return Measurement("neighborhood-size", "exact", float(len(grown)))


_ANALYZERS = {
    "tv": _analyze_tv,
    "entropy": _analyze_entropy,
    "cond-entropy": _analyze_cond_entropy,
    "collision": _analyze_collision,
    "lipschitz": _analyze_lipschitz,
    "neighborhood": _analyze_neighborhood,
}


def _cmd_analyze(cfg: RunConfig) -> int:
    if cfg.analysis not in _ANALYZERS:
        raise UsageError("unknown_analysis", f"no analysis named {cfg.analysis!r}")
    measurement = _ANALYZERS[cfg.analysis](cfg)
    _emit_measurement(measurement)
    from .report import ExperimentReport

    report = ExperimentReport(
        lemma_id=f"analyze-{cfg.analysis}",
        bound=None,
        measured=measurement.value,
        passed=True,
        mode=measurement.mode,
        trials=measurement.trials,
        seed=measurement.seed,
    )
    _log_report(cfg, report, _instance_id(cfg))
    return 0


def _cmd_enforce(cfg: RunConfig) -> int:
    forest = _load_forest(cfg)
    if cfg.mu is None or cfg.eps is None:
        raise UsageError("missing_argument", "enforce-lipschitz needs --mu and --eps")
    trace = enforce_avg_lipschitz(forest, cfg.mu, cfg.eps, cfg.seed)
    doc = {
        "success": trace.success,
        "steps": [[cell, value, expected] for cell, value, expected in trace.steps],
        "budget": trace.budget,
        "mu": trace.mu,
        "eps": trace.eps,
        "seed": trace.seed,
    }
    print(json.dumps(doc))
    if cfg.out:
        _atomic_write(cfg.out, dumps_forest(trace.final_forest))
    return 0 if trace.success else 1


def _cmd_couple(cfg: RunConfig) -> int:
    forest = _load_forest(cfg)
    if len(forest.trees) != 1:
        raise UsageError("bad_forest", "couple needs a single-tree forest")
    tree = forest.trees[0]
    space = forest.input_space
    if cfg.mode in ("exact", "exact_report"):
        report = couple_accepting(
            tree, space, mode="exact_report", calibration=cfg.calib_coupling_c
        )
        _print_report(report)
        _log_report(cfg, report, _instance_id(cfg))
        return _report_exit(report)
    if cfg.trials > 1:
        mean, _ = sample_coupling_distance(tree, space, cfg.trials, cfg.seed)
        _emit_measurement(
            Measurement(
                "coupling-mean-dist",
                "monte_carlo",
                mean,
                ci_halfwidth=hoeffding_halfwidth(cfg.trials),
                seed=cfg.seed,
                trials=cfg.trials,
            )
        )
        return 0
    sample = couple_accepting(tree, space, mode="sample", seed=cfg.seed)
    print(json.dumps({"x": list(sample.x), "y": list(sample.y), "dist": sample.dist, "seed": cfg.seed}))
    return 0


def _cmd_depth_reduce(cfg: RunConfig) -> int:
    forest = _load_forest(cfg)
    if cfg.alpha is None:
        raise UsageError("missing_argument", "depth-reduce needs --alpha")
    step = depth_reduction_step(forest, cfg.alpha, cfg.seed)
    doc = {
        "alpha": step.alpha,
        "seed": step.seed,
        "selected_cells": list(step.selected_cells),
        "tree_indices": list(step.tree_indices),
        "h_selected": step.h_selected,
        "h_pruned": step.h_pruned,
        "expected_extra_queries": step.expected_extra_queries,
        "expected_blank_outputs": step.expected_blank_outputs,
    }
    print(json.dumps(doc))
    if cfg.out and step.pruned is not None:
        _atomic_write(cfg.out, dumps_forest(step.pruned))
    return 0


def _cmd_dichotomy(cfg: RunConfig) -> int:
    forest = _load_forest(cfg)
    if cfg.threshold is None:
        raise UsageError("missing_argument", "dichotomy needs --threshold")
    if cfg.buckets:
        buckets = _load_buckets(cfg)
    elif cfg.log2n is not None and cfg.rounds is not None:
        buckets = thorp_bucket_structure(ThorpSpec(cfg.log2n, cfg.rounds))
    else:
        raise UsageError("missing_argument", "dichotomy needs --buckets (or --log2n with --rounds)")
    report = bucketed_dichotomy_experiment(
        forest, buckets, cfg.threshold, seed=cfg.seed, betas=cfg.betas
    )
    _print_report(report)
    _log_report(cfg, report, _instance_id(cfg))
    return _report_exit(report)


def _verify_containment(cfg: RunConfig):
    if cfg.k is None:
        raise UsageError("missing_argument", "containment needs --k")
    forest = _load_forest(cfg) if cfg.forest else None
    if forest is not None:
        dist = output_distribution(forest, budget=cfg.budget_states)
    else:
        dist = _target_distribution(cfg)
    _, report = containment_set(dist, cfg.k)
    return report


def _verify_mixture(cfg: RunConfig):
    if cfg.sigma is None:
        raise UsageError("missing_argument", "mixture-bound needs --sigma")
    if cfg.forest:
        forest = _load_forest(cfg)
        dist = output_distribution(forest, budget=cfg.budget_states)
        return verify_mixture_bound(dist, cfg.sigma, bot=forest.output_space.bot)
    dist = parse_distribution(_read_text(cfg.target), bot=cfg.sigma) if cfg.target else None
    if dist is None:
        raise UsageError("missing_argument", "mixture-bound needs --forest or --target")
    return verify_mixture_bound(dist, cfg.sigma, bot=cfg.sigma)


def _verify_chain(cfg: RunConfig):
    return verify_chain_bound(_load_forest(cfg), _load_buckets(cfg))


def _verify_entropy_deviation(cfg: RunConfig):
    cell = cfg.cell if cfg.cell is not None else (int(cfg.k) if cfg.k is not None else None)
    if cell is None:
        raise UsageError("missing_argument", "entropy-deviation needs --cell")
    return verify_entropy_deviation(_load_forest(cfg), cell)


def _verify_second_moment(cfg: RunConfig):
    return verify_second_moment_tail(_load_forest(cfg), budget=cfg.budget_states)


def _verify_avg_tail(cfg: RunConfig):
    return verify_avg_to_tail_lipschitz(_load_forest(cfg), budget=cfg.budget_states)


def _verify_restriction(cfg: RunConfig):
    if cfg.mu is None or cfg.delta is None:
        raise UsageError("missing_argument", "lipschitz-restriction needs --mu and --delta")
    return verify_lipschitz_after_conditioning(
        _load_forest(cfg),
        cfg.mu,
        cfg.delta,
        trials=cfg.trials,
        seed=cfg.seed,
        budget=cfg.budget_states,
    )


def _verify_coupling(cfg: RunConfig):
    forest = _load_forest(cfg)
    if len(forest.trees) != 1:
        raise UsageError("bad_forest", "coupling needs a single-tree forest")
    return couple_accepting(
        forest.trees[0],
        forest.input_space,
        mode="exact_report",
        calibration=cfg.calib_coupling_c,
    )


def _verify_at_least_two(cfg: RunConfig):
    if cfg.q is None or cfg.alpha is None:
        raise UsageError("missing_argument", "at-least-two needs --q and --alpha")
    return verify_at_least_two(_parse_floats(cfg.q), cfg.alpha)


def _verify_light_mass(cfg: RunConfig):
    if cfg.c is None:
        raise UsageError("missing_argument", "light-mass needs --c")
    if not cfg.target:
        raise UsageError("missing_argument", "light-mass needs --target (probability file)")
    return verify_light_mass(_parse_floats(_read_text(cfg.target)), cfg.c)


def _verify_harper(cfg: RunConfig):
    if cfg.k is None:
        raise UsageError("missing_argument", "harper needs --k")
    return verify_harper(_load_outcome_set(cfg), int(cfg.k), budget=cfg.budget_states)


def _verify_ensemble(cfg: RunConfig):
    if not cfg.target:
        raise UsageError("missing_argument", "ensemble-collision needs --target")
    return collision_ensemble_report(
        _load_ensemble(cfg.target), mode=cfg.mode if cfg.mode != "exact" else "auto",
        trials=cfg.trials, seed=cfg.seed,
    )


def _verify_collision_tv(cfg: RunConfig):
    return verify_collision_tv(_load_forest(cfg), budget=cfg.budget_states)


def _verify_taylor(cfg: RunConfig):
    return verify_taylor_bound()


def _verify_sum_ratio(cfg: RunConfig):
    if not cfg.target:
        raise UsageError("missing_argument", "sum-ratio needs --target (two-line number file)")
    lines = [line for line in _read_text(cfg.target).splitlines() if line.strip()]
    if len(lines) != 2:
        raise UsageError("bad_file", "sum-ratio target must hold two lines of numbers")
    return verify_sum_ratio_bound(_parse_floats(lines[0]), _parse_floats(lines[1]))


_VERIFIERS = {
    "containment": _verify_containment,
    "mixture-bound": _verify_mixture,
    "chain-bound": _verify_chain,
    "entropy-deviation": _verify_entropy_deviation,
    "second-moment-tail": _verify_second_moment,
    "avg-to-tail-lipschitz": _verify_avg_tail,
    "lipschitz-restriction": _verify_restriction,
    "coupling": _verify_coupling,
    "at-least-two": _verify_at_least_two,
    "light-mass": _verify_light_mass,
    "harper": _verify_harper,
    "ensemble-collision": _verify_ensemble,
    "collision-tv": _verify_collision_tv,
    "taylor-bound": _verify_taylor,
    "sum-ratio": _verify_sum_ratio,
}


def _cmd_verify(cfg: RunConfig) -> int:
    if cfg.lemma not in _VERIFIERS:
        raise UsageError("unknown_lemma", f"no verifier named {cfg.lemma!r}")
    report = _VERIFIERS[cfg.lemma](cfg)
    _print_report(report)
    _log_report(cfg, report, _instance_id(cfg))
    return _report_exit(report)


def _cmd_sweep(cfg: RunConfig) -> int:
    names = None
    overrides: dict = {}
    if cfg.corpus_config:

        def plan(doc) -> tuple:
            doc = _json_object(doc)
            overrides = _json_object(doc.get("overrides", {}))
            return tuple(doc.get("families", corpus_mod.FAMILIES)), overrides

        names, overrides = _read_json(cfg.corpus_config, "bad_config", plan)
        for name in names:
            if name not in corpus_mod.FAMILIES:
                raise UsageError("unknown_family", f"no corpus family named {name!r}")
    ledger_path = _ledger_path(cfg)
    started = time.monotonic()
    fresh = cfg.fresh
    failures = 0
    violations = 0
    total = 0
    current = None
    family_rows: list = []

    def flush():
        nonlocal fresh
        if family_rows:
            append_ledger(ledger_path, family_rows, fresh=fresh)
            fresh = False
            family_rows.clear()

    counts: dict = {}
    for family, instance_id, report in corpus_mod.standard_sweep(names, overrides):
        if family != current:
            flush()
            if current is not None:
                _summarize_family(current, counts)
            current = family
            counts = {"total": 0, "failures": 0, "violations": 0}
            if time.monotonic() - started > cfg.time_limit:
                print(
                    f"warning: time_budget: sweep passed {cfg.time_limit:.0f}s before {family}",
                    file=sys.stderr,
                )
        total += 1
        counts["total"] += 1
        if report.status != "ok":
            violations += 1
            counts["violations"] += 1
        elif not report.passed:
            failures += 1
            counts["failures"] += 1
        family_rows.append(ledger_row(report, instance_id))
    flush()
    if current is not None:
        _summarize_family(current, counts)
    print(f"sweep: {total} instances, {failures} failures, {violations} precondition violations")
    return 1 if failures else 0


def _summarize_family(name: str, counts: dict) -> None:
    print(
        f"{name}: {counts['total']} instances,"
        f" {counts['failures']} failures,"
        f" {counts['violations']} precondition violations"
    )


_COMMANDS = {
    "gen-thorp": _cmd_gen_thorp,
    "gen-random": _cmd_gen_random,
    "eval": _cmd_eval,
    "analyze": _cmd_analyze,
    "enforce-lipschitz": _cmd_enforce,
    "couple": _cmd_couple,
    "depth-reduce": _cmd_depth_reduce,
    "dichotomy": _cmd_dichotomy,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file merged under explicit flags")
    parser.add_argument("--n", type=int)
    parser.add_argument("--log2n", type=int)
    parser.add_argument("--s", type=int)
    parser.add_argument("--lambda", dest="lam", type=int)
    parser.add_argument("--sigma", type=int)
    parser.add_argument("--m", type=int)
    parser.add_argument("--depth", type=int)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--k", type=float)
    parser.add_argument("--c", type=float)
    parser.add_argument("--cell", type=int)
    parser.add_argument("--cells")
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--betas", type=int)
    parser.add_argument("--count", type=int)
    parser.add_argument("--q")
    parser.add_argument("--set", dest="set_spec")
    parser.add_argument("--input")
    parser.add_argument("--mode", choices=["exact", "monte_carlo", "sample", "exact_report", "auto"])
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--forest")
    parser.add_argument("--target")
    parser.add_argument("--buckets")
    parser.add_argument("-o", "--out")
    parser.add_argument("--ledger")
    parser.add_argument("--fresh", action="store_const", const=True)
    parser.add_argument("--budget-states", dest="budget_states", type=int)
    parser.add_argument("--budget-set", dest="budget_set", type=int)
    parser.add_argument("--calib-coupling-c", dest="calib_coupling_c", type=float)
    parser.add_argument("--time-limit", dest="time_limit", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestlab",
        description="Decision forest generation, analysis, and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-thorp", "gen-random", "eval", "enforce-lipschitz", "couple", "depth-reduce", "dichotomy"):
        p = sub.add_parser(name)
        _add_shared_flags(p)
    p = sub.add_parser("analyze")
    p.add_argument("analysis", choices=sorted(_ANALYZERS))
    _add_shared_flags(p)
    p = sub.add_parser("verify")
    p.add_argument("lemma", metavar="lemma-id")
    _add_shared_flags(p)
    p = sub.add_parser("sweep")
    p.add_argument("corpus_config", nargs="?", default=None)
    _add_shared_flags(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc.reason}: {exc.message}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc.reason}: {exc.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
