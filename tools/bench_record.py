"""Record one bench-ledger entry from the repository's benchmark.

    python3 tools/bench_record.py LABEL [--checkout DIR]

Runs `python3 perfbench/run.py --workload W --seed 0 --seconds 40 --trace 0`
unchanged, three times for each of the three workloads, in the checkout DIR
(default: this repository), and writes BENCH_<LABEL>.json at the root of this
repository.  The entry holds the machine line the benchmark prints, the
median and the three values of each end-to-end metric, and beside each
median the median of the latest other BENCH_*.json entry (null when there
is none).  A run whose gates fail aborts the recording: nothing is written
and the command exits 1.
"""
from __future__ import annotations

import argparse
import datetime
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("shuffle-exact", "sweep-cli", "restrict-mc")
RUNS = 3
SECONDS = 40


def run_once(checkout: str, workload: str) -> tuple:
    """(machine line as a dict, last JSON line) of one benchmark run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: perfbench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        failed = [line for line in lines if line.startswith("FAILED")]
        raise RuntimeError(f"{workload}: the benchmark's gates failed: {failed}")
    machine_line = next(line for line in lines if line.startswith("machine: "))
    machine = dict(item.split("=", 1) for item in machine_line[len("machine: "):].split(", "))
    return machine, result


def previous_entry(label: str) -> tuple:
    """(file name, entry) of the latest recorded BENCH_*.json other than `label`."""
    entries = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        with open(path) as fh:
            entry = json.load(fh)
        if entry["label"] != label:
            entries.append((entry["recorded"], os.path.basename(path), entry))
    if not entries:
        return None, None
    _, name, entry = max(entries)
    return name, entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the entry: BENCH_<label>.json")
    parser.add_argument("--checkout", default=ROOT, help="tree whose perfbench/run.py and src/ are measured")
    args = parser.parse_args(argv)
    prev_name, prev = previous_entry(args.label)
    entry = {
        "label": args.label,
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": f"python3 perfbench/run.py --workload W --seed 0 --seconds {SECONDS} --trace 0",
        "runs": RUNS,
        "previous": prev_name,
        "machine": None,
        "workloads": {},
    }
    try:
        for workload in WORKLOADS:
            results = []
            for _ in range(RUNS):
                machine, result = run_once(args.checkout, workload)
                entry["machine"] = entry["machine"] or machine
                results.append(result)
                print(f"{workload}: {json.dumps(result['metrics'])}", flush=True)
            metrics = {}
            for name, first in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                before = prev["workloads"].get(workload, {}).get(name) if prev else None
                metrics[name] = {
                    "unit": first["unit"],
                    "median": statistics.median(values),
                    "values": values,
                    "previous": before["median"] if before else None,
                }
            entry["workloads"][workload] = metrics
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(entry, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
