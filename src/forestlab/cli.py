"""Command-line front end.

One subcommand per process, whose inputs are its flags.  Verification
results append to the CSV ledger; the FORESTLAB_LEDGER environment variable
supplies the default path.  Exit status is 0 for pass or success, 1 for a
failed verification, 2 for usage and budget errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import corpus as corpus_mod
from .analysis import (
    Distribution,
    IndependentEnsemble,
    OutcomeSet,
    _check_seed_steps,
    _tv_to_uniform_perm,
    collision_probability,
    conditional_entropy_detail,
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
    _json_int,
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
    coupled_sample,
    depth_reduction_step,
    enforce_avg_lipschitz,
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
from .report import ExperimentReport, append_ledger, default_ledger_path, ledger_row
from .samplers import (
    ForestGenSpec,
    ThorpSpec,
    random_forest,
    thorp_bucket_structure,
    thorp_forest,
)


@dataclass
class RunConfig:
    """The CLI's inputs: each field past the positionals is a flag."""

    command: str
    analysis: str | None = None
    lemma: str | None = None
    corpus_config: str | None = None
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
    mode: str | None = None
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


_CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_POSITIONAL = ("command", "analysis", "lemma", "corpus_config")
# flag names that differ from the field name
_SPELLINGS = {"lam": "lambda", "set_spec": "set"}


def _flag(name: str) -> str:
    return "--" + _SPELLINGS.get(name, name).replace("_", "-")


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**{key: value for key, value in vars(args).items() if value is not None})
    for name, kind in _CONFIG_TYPES.items():
        if "float" in kind and getattr(cfg, name) != getattr(cfg, name):  # only NaN is unequal to itself
            raise UsageError("bad_parameter", f"{_flag(name)} must be a number, got nan")
    if cfg.seed < 0:
        raise UsageError("bad_seed", f"seed must be non-negative, got {cfg.seed}")
    if cfg.trials < 1:
        raise UsageError("bad_trials", f"trials must be at least 1, got {cfg.trials}")
    return cfg


# inputs that name a file, where an empty value is no value
_PATHS = ("forest", "target", "buckets", "set_spec", "out")


def _command_name(cfg: RunConfig) -> str:
    return {"analyze": cfg.analysis, "verify": cfg.lemma}.get(cfg.command, cfg.command)


def _need(cfg: RunConfig, *names: str) -> None:
    """Stop with missing_argument, naming the command and every input of `names` left unset."""
    missing = [
        _flag(name) for name in names
        if getattr(cfg, name) is None or (name in _PATHS and not getattr(cfg, name))
    ]
    if missing:
        flags = ", ".join(missing[:-1]) + " and " + missing[-1] if len(missing) > 1 else missing[0]
        raise UsageError("missing_argument", f"{_command_name(cfg)} needs {flags}")


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

    Text that does not parse or nests past Python's recursion limit, and a
    KeyError, TypeError or ValueError raised while building, become
    UsageError(reason); a UsageError raised while building keeps its own
    reason.
    """
    try:
        return build(json.loads(_read_text(path)))
    except UsageError:
        raise
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(reason, f"cannot read {path}: {exc!r}")


def _json_object(doc) -> dict:
    if not isinstance(doc, dict):
        raise TypeError("the document must hold an object")
    return doc


def _integer_k(cfg: RunConfig) -> int | float:
    """--k where it names a radius: an integer, never truncated; a radius past the float range stays infinite."""
    if math.isinf(cfg.k):
        return cfg.k
    if not cfg.k.is_integer():
        raise UsageError("bad_parameter", f"--k must be an integer here, got {cfg.k!r}")
    return int(cfg.k)


def _load_forest(cfg: RunConfig):
    _need(cfg, "forest")
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
    _need(cfg, "set_spec")

    def build(doc) -> OutcomeSet:
        members = frozenset(
            tuple(_json_int(v, "bad_outcome", "member symbol") for v in row) for row in doc["members"]
        )
        return OutcomeSet(
            members,
            _json_int(doc["arity"], "bad_file", "arity"),
            _json_int(doc["alphabet"], "bad_file", "alphabet"),
            description=doc.get("description", ""),
        )

    return _read_json(cfg.set_spec, "bad_file", build)


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
    _need(cfg, "buckets")

    def build(doc) -> BucketStructure:
        blocks = doc["buckets"] if isinstance(doc, dict) else doc
        return BucketStructure(
            tuple(tuple(_json_int(c, "bad_file", "bucket cell") for c in block) for block in blocks)
        )

    return _read_json(cfg.buckets, "bad_file", build)


def _target_distribution(cfg: RunConfig, forest=None) -> Distribution:
    _need(cfg, "target")
    bot = forest.output_space.bot if forest is not None else cfg.sigma
    return parse_distribution(_read_text(cfg.target), bot=bot)


def _ledger_path(cfg: RunConfig) -> str:
    return cfg.ledger or default_ledger_path() or "forestlab-ledger.csv"


def _instance_id(cfg: RunConfig) -> str:
    source = cfg.forest or cfg.target or cfg.set_spec or "cli"
    stem = os.path.splitext(os.path.basename(source))[0]
    return stem or "cli"


def _log_report(cfg: RunConfig, report) -> None:
    append_ledger(_ledger_path(cfg), [ledger_row(report, _instance_id(cfg))], fresh=cfg.fresh)


def _report_exit(report) -> int:
    return 1 if report.csv_status == "fail" else 0


def _publish(cfg: RunConfig, report) -> int:
    """Print a verdict line, log the report and return its exit status."""
    line = (
        f"{report.csv_status} {report.lemma_id}"
        f" measured={report.measured:.12g}"
    )
    if report.bound is not None:
        line += f" bound={report.bound:.12g}"
    if report.trials is not None:
        line += f" trials={report.trials} seed={report.seed}"
    print(line)
    _log_report(cfg, report)
    return _report_exit(report)


# ---------------------------------------------------------------------------
# commands


def _cmd_gen_thorp(cfg: RunConfig) -> int:
    _need(cfg, "log2n", "rounds", "out")
    forest = thorp_forest(ThorpSpec(cfg.log2n, cfg.rounds))
    _atomic_write(cfg.out, dumps_forest(forest))
    print(f"wrote {cfg.out}")
    return 0


def _cmd_gen_random(cfg: RunConfig) -> int:
    # the shape flags, in manifest order, and the ForestGenSpec field each one sets
    fields = {"s": "cells", "lam": "alphabet", "m": "out_cells", "sigma": "out_alphabet", "depth": "depth"}
    _need(cfg, "out", *fields)
    count = 1 if cfg.count is None else cfg.count
    if count < 1:
        raise UsageError("bad_parameter", f"--count must be at least 1, got {count}")
    _check_seed_steps(count, "--count", "bad_parameter")
    shape = {field: getattr(cfg, name) for name, field in fields.items()}
    # the manifest names each shape value by its flag
    spec = {_SPELLINGS.get(name, name): getattr(cfg, name) for name in fields}
    base, _ = os.path.splitext(cfg.out)
    lines = []
    for i in range(count):
        seed = derive_seed(cfg.seed, i)
        forest = random_forest(ForestGenSpec(**shape, seed=seed))
        path = f"{base}-{i:04d}.json"
        _atomic_write(path, dumps_forest(forest))
        lines.append(json.dumps({"spec": spec, "seed": seed, "path": path}))
    _atomic_write(cfg.out, "\n".join(lines) + "\n")
    print(f"wrote {count} forests and manifest {cfg.out}")
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    _need(cfg, "forest", "input")
    forest = _load_forest(cfg)
    value = eval_forest(forest, _parse_symbols(cfg.input))
    bot = forest.output_space.bot
    print(",".join("_" if sym == bot else str(sym) for sym in value))
    return 0


def _output_law(cfg: RunConfig, forest) -> Distribution:
    """The exact output law, or the plug-in law of `cfg.trials` sampled outputs."""
    if cfg.mode == "exact":
        return output_distribution(forest, budget=cfg.budget_states)
    rows = sample_forest_outputs(forest, cfg.trials, cfg.seed)
    return Distribution._from_counts(*np.unique(rows, axis=0, return_counts=True), forest.output_space.bot)


def _analyze_tv(cfg: RunConfig) -> tuple:
    _need(cfg, "forest", "target")
    forest = _load_forest(cfg)
    if cfg.target == "uniform-perm":
        return _tv_to_uniform_perm(_output_law(cfg, forest)), cfg.trials
    target = _target_distribution(cfg, forest)
    return tv_distance(_output_law(cfg, forest), target), cfg.trials


def _analyze_entropy(cfg: RunConfig) -> tuple:
    return entropy(_output_law(cfg, _load_forest(cfg))), cfg.trials


def _analyze_cond_entropy(cfg: RunConfig) -> tuple:
    _need(cfg, "forest", "cells")
    forest = _load_forest(cfg)
    cells = [int(v) for v in _parse_symbols(cfg.cells)]
    if cfg.mode == "exact":
        return conditional_entropy_detail(forest, cells, cfg.budget_states).value, None
    detail = monte_carlo_conditional_entropy(forest, cells, cfg.trials, cfg.seed)
    return detail.value, detail.trials


def _analyze_collision(cfg: RunConfig) -> tuple:
    if cfg.forest:
        source = _load_forest(cfg)
    elif cfg.target:
        source = _load_ensemble(cfg.target)
    else:
        raise UsageError("missing_argument", "collision needs --forest or --target")
    return collision_probability(
        source, mode=cfg.mode, trials=cfg.trials, seed=cfg.seed, budget=cfg.budget_states
    ), cfg.trials


def _analyze_lipschitz(cfg: RunConfig) -> tuple:
    _need(cfg, "forest", "mu")
    forest = _load_forest(cfg)
    profile = query_profile(
        forest,
        cfg.mu,
        mode=cfg.mode,
        trials=cfg.trials,
        seed=cfg.seed,
        budget=cfg.budget_states,
    )
    if cfg.delta is not None:
        report = check_lipschitz(profile, cfg.delta)
        print(
            f"average_ok={report.average_ok} tail_ok={report.tail_ok}"
            f" worst_cell={report.worst_cell}"
        )
    return (max(profile.tail) if profile.tail else 0.0), cfg.trials


def _analyze_neighborhood(cfg: RunConfig) -> tuple:
    _need(cfg, "set_spec", "k")
    outcome_set = _load_outcome_set(cfg)
    grown = neighborhood(outcome_set, _integer_k(cfg), budget=cfg.budget_set)
    if cfg.out:
        _atomic_write(cfg.out, _dump_outcome_set(grown))
    return float(len(grown)), None


# Each analysis, verifier and command with the modes its code reads, default first.
# An analysis returns its value and the number of samples drawn for it.
_EXACT = ("exact",)
_EXACT_OR_SAMPLED = ("exact", "monte_carlo")
_ANALYZERS = {
    "tv": (_analyze_tv, _EXACT_OR_SAMPLED),
    "entropy": (_analyze_entropy, _EXACT_OR_SAMPLED),
    "cond-entropy": (_analyze_cond_entropy, _EXACT_OR_SAMPLED),
    "collision": (_analyze_collision, _EXACT_OR_SAMPLED),
    "lipschitz": (_analyze_lipschitz, _EXACT_OR_SAMPLED),
    "neighborhood": (_analyze_neighborhood, _EXACT),
}
# the quantity an analysis reports, where it is not the analysis name
_QUANTITIES = {"lipschitz": "lipschitz-worst-tail", "neighborhood": "neighborhood-size"}


def _cmd_analyze(cfg: RunConfig) -> int:
    value, drawn = _ANALYZERS[cfg.analysis][0](cfg)
    sampled = cfg.mode == "monte_carlo"
    report = ExperimentReport(
        lemma_id=f"analyze-{cfg.analysis}", bound=None, measured=value, direction=None, mode=cfg.mode,
        trials=drawn if sampled else None, seed=cfg.seed if sampled else None,
    )
    # Hoeffding's interval holds for a mean of 0/1 events, which collision is; plug-in
    # tv and entropies are biased, and lipschitz is a max over cells with no union bound.
    halfwidth = hoeffding_halfwidth(drawn) if sampled and cfg.analysis == "collision" else None
    print(json.dumps({
        "quantity": _QUANTITIES.get(cfg.analysis, cfg.analysis), "mode": report.mode, "value": report.measured,
        "ci_halfwidth": halfwidth, "seed": report.seed, "trials": report.trials,
    }))
    _log_report(cfg, report)
    return 0


def _record_json(record) -> dict:
    """A result record's fields, in declaration order, less those that hold a forest."""
    return {
        field.name: getattr(record, field.name)
        for field in dataclasses.fields(record) if not field.type.startswith("DecisionForest")
    }


def _cmd_enforce(cfg: RunConfig) -> int:
    _need(cfg, "forest", "mu", "eps")
    forest = _load_forest(cfg)
    trace = enforce_avg_lipschitz(forest, cfg.mu, cfg.eps, cfg.seed)
    print(json.dumps(_record_json(trace)))
    if cfg.out:
        _atomic_write(cfg.out, dumps_forest(trace.final_forest))
    return 0 if trace.success else 1


def _cmd_couple(cfg: RunConfig) -> int:
    if cfg.mode == "exact_report":
        return _publish(cfg, _verify_coupling(cfg))
    sample = coupled_sample(_load_forest(cfg), cfg.seed)
    print(json.dumps({"x": list(sample.x), "y": list(sample.y), "dist": sample.dist, "seed": cfg.seed}))
    return 0


def _cmd_depth_reduce(cfg: RunConfig) -> int:
    _need(cfg, "forest", "alpha")
    forest = _load_forest(cfg)
    step = depth_reduction_step(forest, cfg.alpha, cfg.seed, budget=cfg.budget_states)
    print(json.dumps(_record_json(step)))
    if cfg.out and step.pruned is not None:
        _atomic_write(cfg.out, dumps_forest(step.pruned))
    return 0


def _cmd_dichotomy(cfg: RunConfig) -> int:
    _need(cfg, "forest", "threshold")
    forest = _load_forest(cfg)
    if cfg.buckets:
        buckets = _load_buckets(cfg)
    elif cfg.log2n is not None and cfg.rounds is not None:
        buckets = thorp_bucket_structure(ThorpSpec(cfg.log2n, cfg.rounds))
    else:
        raise UsageError("missing_argument", "dichotomy needs --buckets (or --log2n with --rounds)")
    report = bucketed_dichotomy_experiment(
        forest, buckets, cfg.threshold, seed=cfg.seed, betas=cfg.betas, budget=cfg.budget_states
    )
    return _publish(cfg, report)


def _forest_or_target_law(cfg: RunConfig) -> Distribution:
    """The exact output law of --forest, else the law dumped in --target."""
    if cfg.forest:
        return output_distribution(_load_forest(cfg), budget=cfg.budget_states)
    return _target_distribution(cfg)


def _verify_containment(cfg: RunConfig):
    _need(cfg, "k")
    _, report = containment_set(_forest_or_target_law(cfg), cfg.k)
    return report


def _verify_mixture(cfg: RunConfig):
    _need(cfg, "sigma")
    if not cfg.forest and not cfg.target:
        raise UsageError("missing_argument", "mixture-bound needs --forest or --target")
    return verify_mixture_bound(_forest_or_target_law(cfg), cfg.sigma)


def _verify_chain(cfg: RunConfig):
    _need(cfg, "forest", "buckets")
    return verify_chain_bound(_load_forest(cfg), _load_buckets(cfg), budget=cfg.budget_states)


def _verify_entropy_deviation(cfg: RunConfig):
    _need(cfg, "cell")
    return verify_entropy_deviation(_load_forest(cfg), (cfg.cell,), budget=cfg.budget_states)[0]


def _verify_second_moment(cfg: RunConfig):
    return verify_second_moment_tail(_load_forest(cfg), budget=cfg.budget_states)


def _verify_avg_tail(cfg: RunConfig):
    return verify_avg_to_tail_lipschitz(_load_forest(cfg), budget=cfg.budget_states)


def _verify_restriction(cfg: RunConfig):
    _need(cfg, "forest", "mu", "delta")
    return verify_lipschitz_after_conditioning(
        _load_forest(cfg),
        cfg.mu,
        cfg.delta,
        trials=cfg.trials,
        seed=cfg.seed,
        budget=cfg.budget_states,
    )


def _verify_coupling(cfg: RunConfig):
    return couple_accepting(_load_forest(cfg))


def _verify_at_least_two(cfg: RunConfig):
    _need(cfg, "q", "alpha")
    return verify_at_least_two(_parse_floats(cfg.q), cfg.alpha)


def _verify_light_mass(cfg: RunConfig):
    _need(cfg, "c", "target")
    return verify_light_mass(_parse_floats(_read_text(cfg.target)), cfg.c)


def _verify_harper(cfg: RunConfig):
    _need(cfg, "set_spec", "k")
    return verify_harper(_load_outcome_set(cfg), (_integer_k(cfg),), budget=cfg.budget_states)[0]


def _verify_ensemble(cfg: RunConfig):
    _need(cfg, "target")
    return collision_ensemble_report(
        _load_ensemble(cfg.target), trials=cfg.trials, seed=cfg.seed
    )


def _verify_collision_tv(cfg: RunConfig):
    return verify_collision_tv(_load_forest(cfg), budget=cfg.budget_states)


def _verify_taylor(cfg: RunConfig):
    return verify_taylor_bound()


def _verify_sum_ratio(cfg: RunConfig):
    _need(cfg, "target")
    lines = [line for line in _read_text(cfg.target).splitlines() if line.strip()]
    if len(lines) != 2:
        raise UsageError("bad_file", "sum-ratio target must hold two lines of numbers")
    return verify_sum_ratio_bound(_parse_floats(lines[0]), _parse_floats(lines[1]))


_VERIFIERS = {
    "containment": (_verify_containment, _EXACT),
    "mixture-bound": (_verify_mixture, _EXACT),
    "chain-bound": (_verify_chain, _EXACT),
    "entropy-deviation": (_verify_entropy_deviation, _EXACT),
    "second-moment-tail": (_verify_second_moment, _EXACT),
    "avg-to-tail-lipschitz": (_verify_avg_tail, _EXACT),
    "lipschitz-restriction": (_verify_restriction, ("monte_carlo",)),
    "coupling": (_verify_coupling, _EXACT),
    "at-least-two": (_verify_at_least_two, _EXACT),
    "light-mass": (_verify_light_mass, _EXACT),
    "harper": (_verify_harper, _EXACT),
    "ensemble-collision": (_verify_ensemble, ("auto",)),
    "collision-tv": (_verify_collision_tv, _EXACT),
    "taylor-bound": (_verify_taylor, _EXACT),
    "sum-ratio": (_verify_sum_ratio, _EXACT),
}


def _cmd_verify(cfg: RunConfig) -> int:
    return _publish(cfg, _VERIFIERS[cfg.lemma][0](cfg))


def _cmd_sweep(cfg: RunConfig) -> int:
    names = tuple(corpus_mod.FAMILIES)
    overrides: dict = {}
    if cfg.corpus_config:

        def plan(doc) -> tuple:
            doc = _json_object(doc)
            unknown = sorted(set(doc) - {"families", "overrides"})
            if unknown:
                raise UsageError("bad_config", f"corpus config keys must be families and overrides, got {unknown!r}")
            names = doc.get("families", list(corpus_mod.FAMILIES))
            if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
                raise UsageError("bad_config", f"families must be a list of family names, got {names!r}")
            overrides = _json_object(doc.get("overrides", {}))
            for family, values in overrides.items():
                # an unknown family is a KeyError, which _read_json reports
                try:
                    inspect.signature(corpus_mod.FAMILIES[family]).bind_partial(**_json_object(values))
                except TypeError as exc:
                    raise UsageError("bad_config", f"overrides for family {family!r}: {exc}")
                for name, value in values.items():
                    what = f"override {name!r} of family {family!r}"
                    least = 1 if name == "count" else 0  # a seed may be 0
                    if _json_int(value, "bad_config", what) < least:
                        raise UsageError("bad_config", f"{what} must be at least {least}, got {value}")
            return names, overrides

        names, overrides = _read_json(cfg.corpus_config, "bad_config", plan)
        for name in names:
            if name not in corpus_mod.FAMILIES:
                raise UsageError("unknown_family", f"no corpus family named {name!r}")
    ledger_path = _ledger_path(cfg)
    fresh = cfg.fresh
    totals: Counter = Counter()
    for family in names:
        rows = []
        counts: Counter = Counter()
        for instance_id, report in corpus_mod.FAMILIES[family](**overrides.get(family, {})):
            counts[report.csv_status] += 1
            rows.append(ledger_row(report, instance_id))
        append_ledger(ledger_path, rows, fresh=fresh)
        fresh = False
        print(_summary(family, counts))
        totals += counts
    print(_summary("sweep", totals))
    return 1 if totals["fail"] else 0


def _summary(name: str, counts: Counter) -> str:
    return (
        f"{name}: {sum(counts.values())} instances, {counts['fail']} failures,"
        f" {counts['precondition_violation']} precondition violations"
    )


# analyze and verify name the table whose entries declare their modes
_COMMANDS = {
    "gen-thorp": (_cmd_gen_thorp, _EXACT),
    "gen-random": (_cmd_gen_random, _EXACT),
    "eval": (_cmd_eval, _EXACT),
    "enforce-lipschitz": (_cmd_enforce, _EXACT),
    "couple": (_cmd_couple, ("exact_report", "sample")),
    "depth-reduce": (_cmd_depth_reduce, _EXACT),
    "dichotomy": (_cmd_dichotomy, _EXACT),
    "analyze": (_cmd_analyze, _ANALYZERS),
    "verify": (_cmd_verify, _VERIFIERS),
    "sweep": (_cmd_sweep, _EXACT),
}
# every mode some command reads: the choices of --mode
_MODES = tuple(sorted({
    mode for table in (_COMMANDS, _ANALYZERS, _VERIFIERS)
    for _, modes in table.values() if isinstance(modes, tuple) for mode in modes
}))


def _modes(cfg: RunConfig) -> tuple:
    """The modes the command of `cfg` reads, default first."""
    modes = _COMMANDS[cfg.command][1]
    if isinstance(modes, dict):
        name = _command_name(cfg)
        if name not in modes:  # argparse checks the analysis, not the lemma
            raise UsageError("unknown_lemma", f"no verifier named {name!r}")
        modes = modes[name][1]
    return modes


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    for name, annotation in _CONFIG_TYPES.items():
        if name in _POSITIONAL:
            continue
        kind = annotation.split(" | ")[0]
        if kind == "bool":
            parser.add_argument(_flag(name), dest=name, action="store_const", const=True)
            continue
        flags = ("-o", _flag(name)) if name == "out" else (_flag(name),)
        parser.add_argument(
            *flags, dest=name, type={"int": int, "float": float}.get(kind),
            choices=_MODES if name == "mode" else None,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestlab",
        description="Decision forest generation, analysis, and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "analyze":
            p.add_argument("analysis", choices=sorted(_ANALYZERS))
        elif name == "verify":
            p.add_argument("lemma", metavar="lemma-id")
        elif name == "sweep":
            p.add_argument("corpus_config", nargs="?", default=None)
        _add_shared_flags(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        modes = _modes(cfg)
        cfg.mode = cfg.mode or modes[0]
        if cfg.mode not in modes:
            raise UsageError("bad_mode", f"{_command_name(cfg)} takes mode {'/'.join(modes)}, not {cfg.mode!r}")
        return _COMMANDS[cfg.command][0](cfg)
    except (UsageError, BudgetError) as exc:
        print(f"error: {exc.reason}: {exc.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
