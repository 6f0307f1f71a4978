"""The benchmark's three workloads: inputs, timed bodies and correctness gates.

Each workload object builds its inputs from the workload seed in its
constructor (set-up), runs one pass of traffic in `body()` (the timed part)
and checks that pass in `check()`, which returns what every pass of a run
must agree on.  `run_passes` is the closed loop: one caller issues the next
pass only after the previous one returned.

Workload seed 0 reproduces the corpora and seeds the acceptance suite uses;
results at seed 0 are compared with the pinned values in `PINS`.  Other seeds
shift only the seeds of the generated inputs (`input_seed`) and are checked
by invariants plus agreement between the passes of one run.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

SEED_STRIDE = 1000

# Reference values at workload seed 0 and full scale.  The total variation
# distances, the round-6 entropy and the round-5 collision probability do not
# depend on the seed and are checked on every run.
PINS = {
    "tv_by_round": [
        0.9996031746038991,
        0.993650793651511,
        0.8984126984132237,
        0.5365079365079362,
        0.20329861111120276,
        0.12466517857142813,
    ],
    "entropy_round6": 15.232315705253535,
    "cond_entropy_round5": 14.496784659634368,  # cells 1, 12, 13
    "c08_failures": [0, 0, 111, 72, 189, 207],
    "c07_failures": [0] * 50,
    "mc_cond_entropy_round6": 7.279592923990453,
    "sweep_rows": 3500,
    "sweep_violations": 10,
    # SHA-256 of the `forestlab sweep` ledger rows without their timestamps
    "sweep_digest": "8d6006a639f40e5b693ddfb62f4f4388cfb0b3f3f3772d3b7396c67b4eac6a6f",
}

TV_TOL = 1e-12


def input_seed(base: int, seed: int) -> int:
    """Seed of one generated input: `base` itself at workload seed 0."""
    return base + SEED_STRIDE * seed


class Gate:
    """Counts checked operations and records the ones that failed."""

    def __init__(self):
        self.ops = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failures.append(what)

    def near(self, got: float, want: float, tol: float, what: str) -> None:
        self.check(abs(got - want) <= tol, f"{what}: got {got!r}, pinned {want!r}")


# ---------------------------------------------------------------------------
# shuffle-exact: exact laws of the 8-card shuffle


class ShuffleExact:
    """Criterion-01 traffic: exact output laws of the 8-card shuffle.

    One huge cube dominates: the round-6 law enumerates 2^24 coin patterns.
    """

    name = "shuffle-exact"

    def __init__(self, seed: int, scale: str = "full"):
        import forestlab as fl

        self.fl = fl
        self.seed = seed
        self.full = scale == "full"
        self.rounds = 6 if self.full else 3
        self.probe_round = self.rounds - 1
        self.forests = [fl.thorp_forest(fl.ThorpSpec(3, r)) for r in range(1, self.rounds + 1)]
        self.uniform = fl.uniform_perm_distribution(8)
        probe = self.forests[self.probe_round - 1]
        probe_cells = probe.mentioned_cells()
        self.cells = sorted(random.Random(seed).sample(probe_cells, 3))
        # cube states lambda^|cells| summed over the exact calls of one pass
        self.items = sum(2 ** len(f.mentioned_cells()) for f in self.forests)
        self.items += 2 ** len(probe_cells)  # collision probability
        self.items += 2 ** len(set(probe_cells) | set(self.cells))  # conditional entropy

    def body(self) -> dict:
        fl = self.fl
        tvs, permutations, entropies = [], [], []
        for forest in self.forests:
            dist = fl.output_distribution(forest)
            permutations.append(all(sorted(o) == list(range(8)) for o in dist.probs))
            tvs.append(fl.tv_distance(dist, self.uniform))
            entropies.append(fl.entropy(dist))
        probe = self.forests[self.probe_round - 1]
        return {
            "tv": tvs,
            "permutations": permutations,
            "entropy": entropies,
            "collision": fl.collision_probability(probe, mode="exact"),
            "cond_entropy": fl.conditional_entropy_detail(probe, self.cells).value,
        }

    def check(self, raw: dict, gate: Gate) -> dict:
        for r, ok in enumerate(raw["permutations"], 1):
            gate.check(ok, f"round {r}: an outcome is not a permutation")
        tvs = raw["tv"]
        for r in range(1, len(tvs)):
            gate.check(tvs[r] <= tvs[r - 1] + TV_TOL, f"tv rises from round {r} to {r + 1}")
        for r, (got, want) in enumerate(zip(tvs, PINS["tv_by_round"]), 1):
            gate.near(got, want, TV_TOL, f"tv at round {r}")
        if self.full:
            gate.near(raw["entropy"][-1], PINS["entropy_round6"], TV_TOL, "entropy at round 6")
        gate.check(raw["collision"] == 0.0, f"collision probability {raw['collision']!r} != 0")
        h = raw["entropy"][self.probe_round - 1]
        cond = raw["cond_entropy"]
        gate.check(
            -TV_TOL <= cond <= h + TV_TOL and h - cond <= len(self.cells) + TV_TOL,
            f"conditional entropy {cond!r} outside [H - {len(self.cells)}, H] for H = {h!r}",
        )
        if self.full and self.seed == 0:
            gate.near(cond, PINS["cond_entropy_round5"], TV_TOL, "conditional entropy at round 5")
        return raw


# ---------------------------------------------------------------------------
# restrict-mc: many tiny forests, many sampled inputs


def _identity_forest(n: int):
    from forestlab import DecisionForest, DecisionTree, InputSpace, Internal, Leaf, OutputSpace

    trees = tuple(
        DecisionTree(Internal(i, tuple(Leaf(v) for v in range(n)))) for i in range(n)
    )
    return DecisionForest(InputSpace(n, n), OutputSpace(n, n), trees)


class RestrictMC:
    """Criteria 07, 08 and 09 plus Monte-Carlo conditional entropy.

    Per-call overhead on tiny forests and cubes dominates, not cube size.
    One pass is a tenth of the acceptance suite's load (1000 restrictions
    per criterion-08 instance, 100 walks per criterion-07 instance, 10000
    sampled inputs each for criterion 09 and the entropy), so that a run
    holds many passes and their median shrugs off bursts of a busy host.
    """

    name = "restrict-mc"

    def __init__(self, seed: int, scale: str = "full"):
        import forestlab as fl
        from forestlab import corpus

        self.fl = fl
        self.seed = seed
        self.full = scale == "full"
        self.c08_trials = 1000 if self.full else 100
        self.c07_runs = 100 if self.full else 20
        self.c09_trials = 10_000 if self.full else 2000
        self.mc_trials = 10_000 if self.full else 640
        self.mc_assignments = 64
        self.restriction = list(corpus.restriction_instances())
        enforcement = list(corpus.enforcement_instances())
        self.enforcement = enforcement if self.full else enforcement[:5]
        self.identity = _identity_forest(64)
        spec = fl.ThorpSpec(3, 6)
        self.shuffle = fl.thorp_forest(spec)
        self.mc_cells = fl.thorp_bucket_structure(spec).buckets[0]
        inner = max(1, self.mc_trials // self.mc_assignments)
        # Monte-Carlo trials attempted in one pass
        self.items = (
            len(self.restriction) * self.c08_trials
            + len(self.enforcement) * self.c07_runs
            + self.c09_trials
            + self.mc_assignments * inner
        )

    def body(self) -> dict:
        fl = self.fl
        c08 = []
        for _, forest, mu, delta in self.restriction:
            report = fl.verify_lipschitz_after_conditioning(
                forest, mu, delta, trials=self.c08_trials, seed=input_seed(61, self.seed)
            )
            d = report.details
            c08.append((d["failures"], report.measured, d["sqrt_delta"] + 3 * d["halfwidth"]))
        c07 = []
        base = input_seed(59, self.seed)
        for _, forest, mu, eps in self.enforcement:
            failures = 0
            rechecked = True
            for r in range(self.c07_runs):
                trace = fl.enforce_avg_lipschitz(forest, mu, eps, seed=fl.derive_seed(base, r))
                if trace.success:
                    rechecked &= float(fl.expected_query_counts(trace.final_forest).max()) <= mu
                else:
                    failures += 1
            c07.append((failures, rechecked, eps + 3 * fl.hoeffding_halfwidth(self.c07_runs)))
        rows = fl.sample_forest_outputs(
            self.identity, trials=self.c09_trials, seed=input_seed(17, self.seed)
        )
        ordered = rows.copy()
        ordered.sort(axis=1)
        collided = int((ordered[:, 1:] == ordered[:, :-1]).any(axis=1).sum())
        mc = fl.monte_carlo_conditional_entropy(
            self.shuffle,
            self.mc_cells,
            trials=self.mc_trials,
            seed=input_seed(5, self.seed),
            assignments=self.mc_assignments,
        )
        return {
            "c08": c08,
            "c07": c07,
            "c09_shape": list(rows.shape),
            "c09_collided": collided,
            "mc": mc.value,
        }

    def check(self, raw: dict, gate: Gate) -> dict:
        pinned = self.full and self.seed == 0
        for i, (failures, measured, allowed) in enumerate(raw["c08"]):
            gate.check(measured <= allowed, f"criterion 08 instance {i}: {measured} > {allowed}")
            if pinned:
                want = PINS["c08_failures"][i]
                gate.check(failures == want, f"criterion 08 instance {i}: {failures} failures, pinned {want}")
        for i, (failures, rechecked, allowed) in enumerate(raw["c07"]):
            gate.check(rechecked, f"criterion 07 instance {i}: a successful trace rechecks above mu")
            rate = failures / self.c07_runs
            gate.check(rate <= allowed, f"criterion 07 instance {i}: failure rate {rate} > {allowed}")
            if pinned:
                want = PINS["c07_failures"][i]
                gate.check(failures == want, f"criterion 07 instance {i}: {failures} failures, pinned {want}")
        gate.check(
            raw["c09_shape"] == [self.c09_trials, 64] and raw["c09_collided"] == self.c09_trials,
            f"criterion 09: {raw['c09_collided']} of {self.c09_trials} trials collided",
        )
        mc = raw["mc"]
        gate.check(0.0 <= mc <= math.log2(math.factorial(8)), f"Monte-Carlo entropy {mc!r} out of range")
        if pinned:
            gate.near(mc, PINS["mc_cond_entropy_round6"], TV_TOL, "Monte-Carlo conditional entropy")
        return raw


# ---------------------------------------------------------------------------
# sweep-cli: `forestlab sweep` as a subprocess


def _family_overrides(seed: int) -> dict:
    """Shift the seed of every seeded family; seed 0 keeps the default corpora."""
    from forestlab import corpus

    overrides = {}
    for name, fn in corpus.FAMILIES.items():
        if "seed" in inspect.signature(fn).parameters:
            overrides[name] = {"seed": input_seed(corpus.FAMILY_SEEDS[name], seed)}
    return overrides


SWEEP_SUMMARY = re.compile(
    r"^sweep: (\d+) instances, (\d+) failures, (\d+) precondition violations$", re.M
)

# every 20th at-least-two instance breaks the precondition by construction
AT_LEAST_TWO = re.compile(r"^at-least-two: \d+ instances, \d+ failures, (\d+) precondition violations$", re.M)

REDUCED_SWEEP = {
    "families": ["at-least-two", "harper", "entropy-deviation"],
    "overrides": {"at-least-two": {"count": 40}, "harper": {"count": 3}, "entropy-deviation": {"count": 10}},
}


class SweepCLI:
    """`forestlab sweep` over all 16 families, one fresh process per pass.

    The process is plain `python -m forestlab`, or the tracing shim in this
    directory when `launcher` names it.
    """

    name = "sweep-cli"

    def __init__(self, seed: int, scale: str, out_dir: str, env: dict, launcher=None):
        self.seed = seed
        self.full = scale == "full"
        self.env = env
        self.ledger = os.path.join(out_dir, "sweep-ledger.csv")
        config = {"overrides": _family_overrides(seed)}
        if not self.full:
            for name, extra in REDUCED_SWEEP["overrides"].items():
                config["overrides"].setdefault(name, {}).update(extra)
            config["families"] = REDUCED_SWEEP["families"]
        self.config = os.path.join(out_dir, "sweep-config.json")
        with open(self.config, "w") as fh:
            json.dump(config, fh, sort_keys=True)
        self.launcher = launcher or [sys.executable, "-m", "forestlab"]
        self.items = None  # ledger rows of the first pass; the rows depend on the seed

    def body(self) -> dict:
        argv = self.launcher + ["sweep", self.config, "--ledger", self.ledger, "--fresh"]
        if os.path.exists(self.ledger):  # a crashed pass must not leave the last ledger behind
            os.remove(self.ledger)
        child = run_child(argv, self.env)
        return {
            "exit": child.exit_code,
            "stdout": child.stdout,
            "maxrss_kib": child.maxrss_kib,
            "spawned_at": child.spawned_at,
        }

    def check(self, raw: dict, gate: Gate) -> tuple:
        from forestlab.report import LEDGER_HEADER

        try:
            with open(self.ledger) as fh:
                ledger = fh.read().splitlines()
        except FileNotFoundError:
            ledger = []
        summary = SWEEP_SUMMARY.search(raw["stdout"])
        gate.check(raw["exit"] == 0, f"sweep exited {raw['exit']}")
        gate.check(summary is not None, "sweep printed no summary line")
        gate.check(ledger[:1] == [LEDGER_HEADER], "ledger header changed")
        instances, failures, violations = (int(g) for g in summary.groups()) if summary else (0, 0, 0)
        rows = [line.split(",", 1)[1] for line in ledger[1:]]  # timestamp dropped
        statuses = [row.split(",")[4] for row in rows]
        gate.check(len(rows) == instances, f"{len(rows)} ledger rows for {instances} instances")
        gate.check(failures == 0, f"sweep reports {failures} failures")
        gate.check(
            statuses.count("precondition_violation") == violations,
            "ledger violations disagree with the summary",
        )
        for row, status in zip(rows, statuses):
            gate.check(status != "fail", f"ledger row failed: {row}")
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        if self.full:
            at_least_two = AT_LEAST_TWO.search(raw["stdout"])
            got = int(at_least_two.group(1)) if at_least_two else None
            gate.check(got == 10, f"at-least-two reports {got} precondition violations, expected 10")
        if self.full and self.seed == 0:
            gate.check(len(rows) == PINS["sweep_rows"], f"{len(rows)} rows, pinned {PINS['sweep_rows']}")
            gate.check(
                violations == PINS["sweep_violations"],
                f"{violations} precondition violations, pinned {PINS['sweep_violations']}",
            )
            gate.check(digest == PINS["sweep_digest"], f"ledger digest {digest} differs from the pin")
        if self.items is None:
            self.items = len(rows)
        return raw["exit"], digest


WORKLOADS = {"shuffle-exact": ShuffleExact, "sweep-cli": SweepCLI, "restrict-mc": RestrictMC}


# ---------------------------------------------------------------------------
# processes and the closed loop


@dataclass
class Child:
    exit_code: int
    stdout: str
    maxrss_kib: int
    wall_s: float
    ready_s: float | None
    spawned_at: float  # wall-clock time of the spawn


def run_child(argv, env, ready: bool = False) -> Child:
    """Run one process to its end; time it and read its own peak RSS.

    With `ready`, the child prints a line `ready` once set up, and the time
    from spawn to that line is returned as `ready_s`.
    """
    spawned_at = time.time()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    try:
        ready_s = None
        if ready:
            first = proc.stdout.readline()
            if first.strip() == "ready":
                ready_s = time.perf_counter() - t0
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, usage.ru_maxrss, wall, ready_s, spawned_at)


def run_passes(
    workload, seconds: float, min_passes: int, max_passes: int | None = None, before_pass=None
) -> dict:
    """Closed loop of timed passes, each checked after its clock stops.

    A new pass starts only while the run is expected to end within
    `seconds`, once `min_passes` have run.  Every pass must agree with the
    first one.  A pass that runs in a child process reports its own time as
    `wall_s`; `before_pass` runs ahead of each pass, outside its clock.
    """
    gate = Gate()
    walls, rss = [], []
    first = last = None
    started = time.perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        t0 = time.perf_counter()
        raw = workload.body()
        walls.append(raw.get("wall_s", time.perf_counter() - t0))
        mark = workload.check(raw, gate)
        if "maxrss_kib" in raw:
            rss.append(raw["maxrss_kib"])
        last = raw
        if first is None:
            first = mark
        else:
            gate.check(mark == first, f"pass {len(walls)} differs from pass 1")
        done = len(walls) >= min_passes and (
            time.perf_counter() - started + statistics.median(walls) > seconds
        )
        if done or (max_passes is not None and len(walls) >= max_passes):
            break
    return {
        "walls": walls,
        "ops": gate.ops,
        "failures": gate.failures,
        "items": workload.items,
        "maxrss_kib": rss,
        "mark": first,
        "last": last,
    }
