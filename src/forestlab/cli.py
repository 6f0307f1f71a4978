"""Command-line front end.

One subcommand per process.  Each command, analysis and lemma has a
handler whose keyword parameters are its flags, and a parser built from
that signature: a parameter without a default is a flag the run needs,
and a flag the handler does not take is refused.  Verification results
append to the CSV ledger; the FORESTLAB_LEDGER environment variable
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


# flag names that differ from the parameter name
_SPELLINGS = {"lam": "lambda", "set_spec": "set"}
# inputs that name a file, where an empty value is no value
_PATHS = ("forest", "target", "buckets", "set_spec", "out")
# the --trials of a sampled run that gives none
_TRIALS = 100_000


def _flag(name: str) -> str:
    return "--" + _SPELLINGS.get(name, name).replace("_", "-")


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


def _integer_k(k: float) -> int | float:
    """--k where it names a radius: an integer, never truncated; a radius past the float range stays infinite."""
    if math.isinf(k):
        return k
    if not k.is_integer():
        raise UsageError("bad_parameter", f"--k must be an integer here, got {k!r}")
    return int(k)


def _load_forest(path: str):
    return _read_json(path, "bad_file", forest_from_json)


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


def _load_outcome_set(path: str) -> OutcomeSet:
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

    return _read_json(path, "bad_file", build)


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


def _load_buckets(path: str) -> BucketStructure:
    def build(doc) -> BucketStructure:
        blocks = doc["buckets"] if isinstance(doc, dict) else doc
        return BucketStructure(
            tuple(tuple(_json_int(c, "bad_file", "bucket cell") for c in block) for block in blocks)
        )

    return _read_json(path, "bad_file", build)


def _target_distribution(path: str, bot: int | None) -> Distribution:
    return parse_distribution(_read_text(path), bot=bot)


def _ledger_path(ledger: str | None) -> str:
    return ledger or default_ledger_path() or "forestlab-ledger.csv"


def _log_report(report, source: str | None, ledger: str | None, fresh: bool) -> None:
    """Append the report's row to the ledger, named by the stem of the run's input file."""
    instance_id = os.path.splitext(os.path.basename(source or ""))[0] or "cli"
    append_ledger(_ledger_path(ledger), [ledger_row(report, instance_id)], fresh=fresh)


def _report_exit(report) -> int:
    return 1 if report.csv_status == "fail" else 0


def _publish(report, source: str | None, ledger: str | None, fresh: bool) -> int:
    """Print a verdict line, log the report and return its exit status."""
    line = f"{report.csv_status} {report.lemma_id} measured={report.measured:.12g}"
    if report.bound is not None:
        line += f" bound={report.bound:.12g}"
    if report.trials is not None:
        line += f" trials={report.trials} seed={report.seed}"
    print(line)
    _log_report(report, source, ledger, fresh)
    return _report_exit(report)


# ---------------------------------------------------------------------------
# commands: the keyword parameters of each handler are its flags, and one
# without a default is a flag the run needs


def _cmd_gen_thorp(*, log2n: int, rounds: int, out: str) -> int:
    forest = thorp_forest(ThorpSpec(log2n, rounds))
    _atomic_write(out, dumps_forest(forest))
    print(f"wrote {out}")
    return 0


def _cmd_gen_random(
    *, out: str, s: int, lam: int, m: int, sigma: int, depth: int, count: int = 1, seed: int = 0
) -> int:
    if count < 1:
        raise UsageError("bad_parameter", f"--count must be at least 1, got {count}")
    _check_seed_steps(count, "--count", "bad_parameter")
    # the manifest names each shape value by its flag
    spec = {"s": s, "lambda": lam, "m": m, "sigma": sigma, "depth": depth}
    base, _ = os.path.splitext(out)
    lines = []
    for i in range(count):
        forest_seed = derive_seed(seed, i)
        forest = random_forest(
            ForestGenSpec(cells=s, alphabet=lam, out_cells=m, out_alphabet=sigma, depth=depth, seed=forest_seed)
        )
        path = f"{base}-{i:04d}.json"
        _atomic_write(path, dumps_forest(forest))
        lines.append(json.dumps({"spec": spec, "seed": forest_seed, "path": path}))
    _atomic_write(out, "\n".join(lines) + "\n")
    print(f"wrote {count} forests and manifest {out}")
    return 0


def _cmd_eval(*, forest: str, input: str) -> int:
    loaded = _load_forest(forest)
    value = eval_forest(loaded, _parse_symbols(input))
    bot = loaded.output_space.bot
    print(",".join("_" if sym == bot else str(sym) for sym in value))
    return 0


def _output_law(forest, mode: str, trials: int, seed: int, budget: int) -> Distribution:
    """The exact output law, or the plug-in law of `trials` sampled outputs."""
    if mode == "exact":
        return output_distribution(forest, budget=budget)
    rows = sample_forest_outputs(forest, trials, seed)
    return Distribution._from_counts(*np.unique(rows, axis=0, return_counts=True), forest.output_space.bot)


def _analyze_tv(
    *, forest: str, target: str, mode: str, trials: int = _TRIALS, seed: int = 0,
    budget_states: int = DEFAULT_STATE_BUDGET,
) -> tuple:
    loaded = _load_forest(forest)
    if target == "uniform-perm":
        return _tv_to_uniform_perm(_output_law(loaded, mode, trials, seed, budget_states)), trials
    law = _target_distribution(target, loaded.output_space.bot)
    return tv_distance(_output_law(loaded, mode, trials, seed, budget_states), law), trials


def _analyze_entropy(
    *, forest: str, mode: str, trials: int = _TRIALS, seed: int = 0, budget_states: int = DEFAULT_STATE_BUDGET
) -> tuple:
    return entropy(_output_law(_load_forest(forest), mode, trials, seed, budget_states)), trials


def _analyze_cond_entropy(
    *, forest: str, cells: str, mode: str, trials: int = _TRIALS, seed: int = 0,
    budget_states: int = DEFAULT_STATE_BUDGET,
) -> tuple:
    loaded = _load_forest(forest)
    fixed = [int(v) for v in _parse_symbols(cells)]
    if mode == "exact":
        return conditional_entropy_detail(loaded, fixed, budget_states).value, None
    detail = monte_carlo_conditional_entropy(loaded, fixed, trials, seed)
    return detail.value, detail.trials


def _analyze_collision(
    *, mode: str, forest: str | None = None, target: str | None = None, trials: int = _TRIALS, seed: int = 0,
    budget_states: int = DEFAULT_STATE_BUDGET,
) -> tuple:
    if forest:
        source = _load_forest(forest)
    elif target:
        source = _load_ensemble(target)
    else:
        raise UsageError("missing_argument", "collision needs --forest or --target")
    return collision_probability(source, mode=mode, trials=trials, seed=seed, budget=budget_states), trials


def _analyze_lipschitz(
    *, forest: str, mu: float, mode: str, delta: float | None = None, trials: int = _TRIALS, seed: int = 0,
    budget_states: int = DEFAULT_STATE_BUDGET,
) -> tuple:
    profile = query_profile(_load_forest(forest), mu, mode=mode, trials=trials, seed=seed, budget=budget_states)
    if delta is not None:
        report = check_lipschitz(profile, delta)
        print(
            f"average_ok={report.average_ok} tail_ok={report.tail_ok}"
            f" worst_cell={report.worst_cell}"
        )
    return (max(profile.tail) if profile.tail else 0.0), trials


def _analyze_neighborhood(
    *, set_spec: str, k: float, out: str | None = None, budget_set: int = DEFAULT_SET_BUDGET
) -> tuple:
    grown = neighborhood(_load_outcome_set(set_spec), _integer_k(k), budget=budget_set)
    if out:
        _atomic_write(out, _dump_outcome_set(grown))
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


def _source(flags: dict) -> str | None:
    """The input file that names a run's ledger row."""
    return flags.get("forest") or flags.get("target") or flags.get("set_spec")


def _cmd_analyze(analysis: str, measured: tuple, flags: dict) -> int:
    """Print and log the value and draw count an analysis returned."""
    value, drawn = measured
    mode = flags["mode"]
    sampled = mode == "monte_carlo"
    report = ExperimentReport(
        lemma_id=f"analyze-{analysis}", bound=None, measured=value, direction=None, mode=mode,
        trials=drawn if sampled else None, seed=flags["seed"] if sampled else None,
    )
    # Hoeffding's interval holds for a mean of 0/1 events, which collision is; plug-in
    # tv and entropies are biased, and lipschitz is a max over cells with no union bound.
    halfwidth = hoeffding_halfwidth(drawn) if sampled and analysis == "collision" else None
    print(json.dumps({
        "quantity": _QUANTITIES.get(analysis, analysis), "mode": report.mode, "value": report.measured,
        "ci_halfwidth": halfwidth, "seed": report.seed, "trials": report.trials,
    }))
    _log_report(report, _source(flags), flags.get("ledger"), flags["fresh"])
    return 0


def _record_json(record) -> dict:
    """A result record's fields, in declaration order, less those that hold a forest."""
    return {
        field.name: getattr(record, field.name)
        for field in dataclasses.fields(record) if not field.type.startswith("DecisionForest")
    }


def _cmd_enforce(*, forest: str, mu: float, eps: float, seed: int = 0, out: str | None = None) -> int:
    trace = enforce_avg_lipschitz(_load_forest(forest), mu, eps, seed)
    print(json.dumps(_record_json(trace)))
    if out:
        _atomic_write(out, dumps_forest(trace.final_forest))
    return 0 if trace.success else 1


def _cmd_couple(
    *, forest: str, mode: str, seed: int = 0, ledger: str | None = None, fresh: bool = False
) -> int:
    if mode == "exact_report":
        return _publish(_verify_coupling(forest=forest), forest, ledger, fresh)
    sample = coupled_sample(_load_forest(forest), seed)
    print(json.dumps({"x": list(sample.x), "y": list(sample.y), "dist": sample.dist, "seed": seed}))
    return 0


def _cmd_depth_reduce(
    *, forest: str, alpha: float, seed: int = 0, budget_states: int = DEFAULT_STATE_BUDGET,
    out: str | None = None,
) -> int:
    step = depth_reduction_step(_load_forest(forest), alpha, seed, budget=budget_states)
    print(json.dumps(_record_json(step)))
    if out and step.pruned is not None:
        _atomic_write(out, dumps_forest(step.pruned))
    return 0


def _cmd_dichotomy(
    *, forest: str, threshold: float, buckets: str | None = None, log2n: int | None = None,
    rounds: int | None = None, seed: int = 0, betas: int = 1, budget_states: int = DEFAULT_STATE_BUDGET,
    ledger: str | None = None, fresh: bool = False,
) -> int:
    loaded = _load_forest(forest)
    if buckets:
        structure = _load_buckets(buckets)
    elif log2n is not None and rounds is not None:
        structure = thorp_bucket_structure(ThorpSpec(log2n, rounds))
    else:
        raise UsageError("missing_argument", "dichotomy needs --buckets (or --log2n with --rounds)")
    report = bucketed_dichotomy_experiment(
        loaded, structure, threshold, seed=seed, betas=betas, budget=budget_states
    )
    return _publish(report, forest, ledger, fresh)


def _forest_or_target_law(forest: str | None, target: str | None, sigma: int | None, budget: int) -> Distribution:
    """The exact output law of --forest, else the law dumped in --target, whose blank is --sigma."""
    if forest:
        return output_distribution(_load_forest(forest), budget=budget)
    return _target_distribution(target, sigma)


def _verify_containment(
    *, k: float, forest: str | None = None, target: str | None = None, sigma: int | None = None,
    budget_states: int = DEFAULT_STATE_BUDGET,
):
    if not forest and not target:
        raise UsageError("missing_argument", "containment needs --target")
    _, report = containment_set(_forest_or_target_law(forest, target, sigma, budget_states), k)
    return report


def _verify_mixture(
    *, sigma: int, forest: str | None = None, target: str | None = None, budget_states: int = DEFAULT_STATE_BUDGET
):
    if not forest and not target:
        raise UsageError("missing_argument", "mixture-bound needs --forest or --target")
    return verify_mixture_bound(_forest_or_target_law(forest, target, sigma, budget_states), sigma)


def _verify_chain(*, forest: str, buckets: str, budget_states: int = DEFAULT_STATE_BUDGET):
    return verify_chain_bound(_load_forest(forest), _load_buckets(buckets), budget=budget_states)


def _verify_entropy_deviation(*, cell: int, forest: str, budget_states: int = DEFAULT_STATE_BUDGET):
    return verify_entropy_deviation(_load_forest(forest), (cell,), budget=budget_states)[0]


def _verify_second_moment(*, forest: str, budget_states: int = DEFAULT_STATE_BUDGET):
    return verify_second_moment_tail(_load_forest(forest), budget=budget_states)


def _verify_avg_tail(*, forest: str, budget_states: int = DEFAULT_STATE_BUDGET):
    return verify_avg_to_tail_lipschitz(_load_forest(forest), budget=budget_states)


def _verify_restriction(
    *, forest: str, mu: float, delta: float, trials: int = _TRIALS, seed: int = 0,
    budget_states: int = DEFAULT_STATE_BUDGET,
):
    return verify_lipschitz_after_conditioning(
        _load_forest(forest), mu, delta, trials=trials, seed=seed, budget=budget_states
    )


def _verify_coupling(*, forest: str):
    return couple_accepting(_load_forest(forest))


def _verify_at_least_two(*, q: str, alpha: float):
    return verify_at_least_two(_parse_floats(q), alpha)


def _verify_light_mass(*, c: float, target: str):
    return verify_light_mass(_parse_floats(_read_text(target)), c)


def _verify_harper(*, set_spec: str, k: float, budget_states: int = DEFAULT_STATE_BUDGET):
    return verify_harper(_load_outcome_set(set_spec), (_integer_k(k),), budget=budget_states)[0]


def _verify_ensemble(*, target: str, trials: int = _TRIALS, seed: int = 0):
    return collision_ensemble_report(_load_ensemble(target), trials=trials, seed=seed)


def _verify_collision_tv(*, forest: str, budget_states: int = DEFAULT_STATE_BUDGET):
    return verify_collision_tv(_load_forest(forest), budget=budget_states)


def _verify_taylor():
    return verify_taylor_bound()


def _verify_sum_ratio(*, target: str):
    lines = [line for line in _read_text(target).splitlines() if line.strip()]
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


def _cmd_verify(lemma: str, report, flags: dict) -> int:
    """Print and log the report a verifier returned."""
    return _publish(report, _source(flags), flags.get("ledger"), flags["fresh"])


def _cmd_sweep(corpus_config: str | None = None, *, ledger: str | None = None, fresh: bool = False) -> int:
    names = tuple(corpus_mod.FAMILIES)
    overrides: dict = {}
    if corpus_config:

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

        names, overrides = _read_json(corpus_config, "bad_config", plan)
        for name in names:
            if name not in corpus_mod.FAMILIES:
                raise UsageError("unknown_family", f"no corpus family named {name!r}")
    ledger_path = _ledger_path(ledger)
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


# analyze and verify name the table of their entries, each of which declares its modes
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


def _add_flags(parser: argparse.ArgumentParser, handler) -> None:
    """--mode, then an argument per parameter of `handler`: a keyword parameter is a flag, any other a positional."""
    parser.add_argument("--mode", choices=_MODES)
    for name, param in inspect.signature(handler).parameters.items():
        kind = param.annotation.split(" | ")[0]
        if param.kind is not param.KEYWORD_ONLY:
            parser.add_argument(name, nargs="?")
        elif kind == "bool":
            parser.add_argument(_flag(name), dest=name, action="store_true")
        elif name != "mode":
            flags = ("-o", _flag(name)) if name == "out" else (_flag(name),)
            parser.add_argument(*flags, dest=name, type={"int": int, "float": float}.get(kind))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestlab",
        description="Decision forest generation, analysis, and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, modes) in _COMMANDS.items():
        p = sub.add_parser(command)
        if isinstance(modes, tuple):
            _add_flags(p, handler)
            p.set_defaults(parser=p)
            continue
        # one parser per analysis or lemma, whose report is logged
        metavar = "lemma-id" if command == "verify" else "analysis"
        entries = p.add_subparsers(dest="entry", required=True, metavar=metavar)
        for name, (entry, _) in modes.items():
            q = entries.add_parser(name)
            _add_flags(q, entry)
            q.add_argument("--ledger")
            q.add_argument("--fresh", action="store_true")
            q.set_defaults(parser=q)
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    args = vars(args)
    if extra:  # from the parser of the command, analysis or lemma, so its usage line is the one shown
        args["parser"].error(f"unrecognized arguments: {' '.join(extra)}")
    command, name, _ = args.pop("command"), args.pop("entry", None), args.pop("parser")
    run, modes = _COMMANDS[command]
    handler, modes = (run, modes) if name is None else modes[name]
    name = name or command
    # an unset flag, or a file flag set to "", is absent
    flags = {key: value for key, value in args.items() if value is not None and not (key in _PATHS and value == "")}
    try:
        for key, value in flags.items():
            if value != value:  # only NaN is unequal to itself
                raise UsageError("bad_parameter", f"{_flag(key)} must be a number, got nan")
        if flags.get("seed", 0) < 0:
            raise UsageError("bad_seed", f"seed must be non-negative, got {flags['seed']}")
        if flags.get("trials", 1) < 1:
            raise UsageError("bad_trials", f"trials must be at least 1, got {flags['trials']}")
        mode = flags.setdefault("mode", modes[0])
        if mode not in modes:
            raise UsageError("bad_mode", f"{name} takes mode {'/'.join(modes)}, not {mode!r}")
        params = inspect.signature(handler).parameters
        flags.update({key: param.default for key, param in params.items() if key not in flags})
        missing = [_flag(key) for key in params if flags[key] is inspect.Parameter.empty]
        if missing:
            listed = ", ".join(missing[:-1]) + " and " + missing[-1] if len(missing) > 1 else missing[0]
            raise UsageError("missing_argument", f"{name} needs {listed}")
        outcome = handler(**{key: flags[key] for key in params})
        return outcome if handler is run else run(name, outcome, flags)
    except (UsageError, BudgetError) as exc:
        print(f"error: {exc.reason}: {exc.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
