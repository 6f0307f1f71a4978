"""Self-test of the benchmark on a reduced load (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
untraced and traced runs of each workload; that a deliberately wrong pinned
value is counted as a failed operation; and that a directory holding only
BENCHMARK.json and the benchmark's files makes the command exit non-zero
without printing a result.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import run

problems: list = []


def expect(ok: bool, what: str) -> None:
    print(("ok      " if ok else "FAILED  ") + what, flush=True)
    if not ok:
        problems.append(what)


def emitted(result: dict, wanted: list, label: str) -> None:
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in wanted}, f"{label}: exactly the named metrics")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        expect(
            got.get("unit") == m["unit"] and isinstance(value, (int, float)) and math.isfinite(value),
            f"{label}: {m['name']} has unit {m['unit']} and a finite value",
        )
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: no failures")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in [w["name"] for w in spec["workloads"]]:
        plain = run.run_benchmark(workload, 0, 0.5, False, scale="reduced")
        emitted(plain, spec["end_to_end"], f"{workload} untraced")
        expect(all(m["value"] > 0 for m in plain["metrics"].values()), f"{workload}: end-to-end metrics are never 0")
        emitted(run.run_benchmark(workload, 1, 0.5, True, scale="reduced"), spec["per_layer"], f"{workload} traced")

    import workloads

    good = workloads.run_passes(workloads.ShuffleExact(0, "reduced"), 0, 1, 1)
    pinned = workloads.PINS["tv_by_round"]
    saved = pinned[0]
    pinned[0] = saved + 1e-9
    try:
        bad = workloads.run_passes(workloads.ShuffleExact(0, "reduced"), 0, 1, 1)
    finally:
        pinned[0] = saved
    expect(not good["failures"], "shuffle-exact passes its pins")
    expect(
        len(bad["failures"]) == 1 and bad["ops"] == good["ops"],
        "a wrong pinned tv value counts one failed operation",
    )

    bare = os.path.join(run.ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        spec["command"] + ["--workload", "shuffle-exact", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "without the source the command fails and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
