"""forestlab's benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  forestlab is imported from the checkout's
`src` directory; without it the command exits 2.  Workloads:

  shuffle-exact  exact laws of the 8-card shuffle, rounds 1-6 (one huge cube)
  sweep-cli      `forestlab sweep` over all 16 corpus families, as a subprocess
  restrict-mc    criteria 07, 08, 09 and Monte-Carlo conditional entropy

With `--trace 0` each workload runs timed passes for about S seconds: every
sweep in a fresh process, the passes of the other workloads in one fresh
worker process; processes that only set up (for `setup_s`) run around them.
It prints the end-to-end metrics of BENCHMARK.json.  With `--trace 1` it runs
one untraced pass, one pass with every forestlab function wrapped in a span,
and one pass with tracemalloc around the cube kernel, and prints the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9
SETUP_PER_PASS = 2
RUN_DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class Unavailable(RuntimeError):
    """The checkout cannot run the benchmark."""


def child_env() -> dict:
    """Environment of every process the benchmark starts: one thread each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def machine() -> dict:
    """nproc, CPU model, cache sizes, RAM, Python and numpy versions."""
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo") as fh:
            info["ram_kib"] = int(fh.readline().split()[1])
        cache_dir = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache_dir)):
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "type")) as fh:
                kind = fh.read().strip()
            if kind != "Instruction":
                with open(os.path.join(cache_dir, index, "size")) as fh:
                    info[f"L{level}"] = fh.read().strip()
    except OSError:
        pass
    return info


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics


def _worker(workloads, name, seed, mode, scale, out_dir, env, seconds=0.0):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), mode, scale, out_dir, repr(seconds)]
    child = workloads.run_child(argv, env, ready=True)
    lines = child.stdout.strip().splitlines()
    if child.exit_code != 0 or child.ready_s is None or not lines:
        raise RuntimeError(f"{name} worker ({mode}) exited {child.exit_code}")
    return child, json.loads(lines[-1])


def _sweep_passes(workloads, seed, seconds, scale, out_dir, env) -> tuple:
    """`forestlab sweep` passes, each a fresh process, with set-ups between them.

    Set-up is the start of `forestlab sweep --help`; it is timed between the
    passes, so that the median spans the run rather than one moment of a
    machine whose speed drifts.
    """
    help_argv = [sys.executable, "-m", "forestlab", "sweep", "--help"]
    setups: list = []

    def before_pass():
        setups.extend(workloads.run_child(help_argv, env).wall_s for _ in range(SETUP_PER_PASS))

    workload = workloads.SweepCLI(seed, scale, out_dir, env)
    result = workloads.run_passes(workload, seconds, min_passes=2, before_pass=before_pass)
    setups += [workloads.run_child(help_argv, env).wall_s for _ in range(SETUP_SAMPLES - len(setups))]
    return result, setups


def _worker_passes(workloads, name, seed, seconds, scale, out_dir, env) -> tuple:
    """Timed passes of an in-process workload, all in one fresh worker process.

    Set-up is a fresh worker's time from spawn to `ready` (imports and
    inputs).  Half of the set-ups are timed before the passes and the rest
    after them, so that their median spans the run; the passes get the time
    that is left.
    """
    started = time.perf_counter()

    def setup():
        return _worker(workloads, name, seed, "setup", scale, out_dir, env)[0].ready_s

    setups = [setup() for _ in range(SETUP_SAMPLES // 2)]
    after = SETUP_SAMPLES - len(setups) - 1  # the passes' own worker is one more sample
    budget = seconds - (time.perf_counter() - started) - (after + 1) * statistics.median(setups)
    child, result = _worker(workloads, name, seed, "run", scale, out_dir, env, budget)
    setups.append(child.ready_s)
    setups += [setup() for _ in range(after)]
    result["maxrss_kib"] = [child.maxrss_kib]
    return result, setups


def measure(workloads, name, seed, seconds, scale, out_dir, env) -> dict:
    """Closed-loop passes for about `seconds`, and set-up timed SETUP_SAMPLES times."""
    if name == "sweep-cli":
        result, setups = _sweep_passes(workloads, seed, seconds, scale, out_dir, env)
    else:
        result, setups = _worker_passes(workloads, name, seed, seconds, scale, out_dir, env)
    walls = result["walls"]
    wall = statistics.median(walls)
    q1, q3 = _quartiles(walls)
    return {
        "metrics": {
            "wall_s": wall,
            "items_per_s": result["items"] / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(result["maxrss_kib"]) / 1024.0,
        },
        "notes": {
            "wall_s": f"median of {len(walls)} passes, quartiles {q1:.4f} .. {q3:.4f}; passes "
            + " ".join(f"{w:.3f}" for w in walls),
            "items_per_s": f"{result['items']} items per pass",
            "setup_s": f"median of {len(setups)} set-ups, quartiles "
            + " .. ".join(f"{v:.4f}" for v in _quartiles(setups)),
            "peak_rss_mib": "median ru_maxrss of the processes that ran the passes",
        },
        "ops": result["ops"],
        "failures": result["failures"],
    }


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics


def _stat(layers: dict, metric: str, extras: dict) -> float:
    """Value of one per-layer metric `<layer>.<function>.<stat>`."""
    if metric in extras:
        return extras[metric]
    span, stat = metric.rsplit(".", 1)
    row = layers.get(span, {})
    if stat == "wall_s":  # generator families: time inside next()
        return row.get("total_s", 0.0)
    if stat == "distinct_frac":
        return row.get("distinct", 0) / row["calls"] if row.get("calls") else 0.0
    return float(row.get(stat, 0.0))


def trace(workloads, name, seed, seconds, scale, out_dir, env) -> dict:
    """One untraced, one traced and (if the cube kernel ran) one tracemalloc pass."""
    ops, failures = 0, []

    def tally(result):
        nonlocal ops
        ops += result["ops"]
        failures.extend(result["failures"])

    extras = {}
    if name == "sweep-cli":
        def sweep(launcher):
            result = workloads.run_passes(
                workloads.SweepCLI(seed, scale, out_dir, env, launcher), seconds, 1, 1
            )
            tally(result)
            return result

        shim = [sys.executable, os.path.join(HERE, "cli_shim.py")]
        plain = sweep(None)
        out_file = os.path.join(out_dir, "sweep-trace.json")
        traced = sweep(shim + ["trace", out_file])
        with open(out_file) as fh:
            shim_out = json.load(fh)
        layers = shim_out["layers"]
        extras["cli.startup_s"] = shim_out["imported_at"] - traced["last"]["spawned_at"]
        if layers.get("forest.packed_outputs_on_cube", {}).get("calls"):
            mem_file = os.path.join(out_dir, "sweep-mem.json")
            sweep(shim + ["mem", mem_file])
            with open(mem_file) as fh:
                extras["forest.packed_outputs_on_cube.peak_mib"] = json.load(fh)["peak_bytes"] / 2**20
    else:
        def worker(mode):
            _, result = _worker(workloads, name, seed, mode, scale, out_dir, env)
            tally(result)
            return result

        plain = worker("once")
        traced = worker("trace")
        layers = traced["layers"]
        if layers.get("forest.packed_outputs_on_cube", {}).get("calls"):
            extras["forest.packed_outputs_on_cube.peak_mib"] = worker("mem")["peak_bytes"] / 2**20
    extras["trace.overhead_frac"] = traced["walls"][0] / plain["walls"][0] - 1.0
    return {
        "layers": layers,
        "extras": extras,
        "traced_wall_s": traced["walls"][0],
        "ops": ops,
        "failures": failures,
    }


# ---------------------------------------------------------------------------


def _timeout(signum, frame):
    raise TimeoutError(f"run passed {RUN_DEADLINE_S} s")


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool, scale: str = "full") -> dict:
    """Run one workload; the result holds the keys the command prints.

    Untraced results also hold `notes` on each metric; traced ones hold
    `layers` (per-span calls, seconds and counters) and `traced_wall_s`.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "forestlab", "__init__.py")):
        raise Unavailable("no forestlab source under src/ in this checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import forestlab
    import workloads

    if not os.path.abspath(forestlab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise Unavailable(f"forestlab imported from {forestlab.__file__}, not from src/")
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env()
    args = (workloads, workload, seed, seconds, scale, out_dir, env)
    if traced:
        res = trace(*args)
        wanted = spec["per_layer"]
        metrics = {m["name"]: _stat(res["layers"], m["name"], res["extras"]) for m in wanted}
    else:
        res = measure(*args)
        wanted = spec["end_to_end"]
        metrics = res["metrics"]
    res.update(
        correct=not res["failures"],
        attempted=res["ops"],
        failed=len(res["failures"]),
        metrics={m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    )
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["shuffle-exact", "sweep-cli", "restrict-mc"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
                args.seconds = float(json.load(fh)["run_seconds"])
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read run_seconds from BENCHMARK.json: {exc}", file=sys.stderr)
            return 2
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_DEADLINE_S)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
        info = machine()
    except (RuntimeError, OSError) as exc:  # includes Unavailable and TimeoutError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    for line in result["failures"][:20]:
        print(f"FAILED: {line}")
    for name, m in result["metrics"].items():
        note = result.get("notes", {}).get(name)
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    frac = result["failed"] / result["attempted"]
    print(f"{args.workload} failed_frac = {frac:.6g} ({result['failed']} of {result['attempted']} operations)")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
