"""Measure each span's share of wall_s and store it in layers.json.

    python3 perfbench/shares.py [--seed N]

Runs the traced form of every workload once (as `run.py --trace 1` does)
and writes, per workload, the traced wall_s, the self time of every span as
a share of it, the summed share of each layer and the share no span covers
(process start-up, the benchmark's own code), into the `shares` entry of
perfbench/layers.json.  Later performance changes cite these shares.
"""
from __future__ import annotations

import argparse
import json
import os

import run


def shares(result: dict) -> dict:
    wall = result["traced_wall_s"]
    spans = {
        name: round(row["self_s"] / wall, 4)
        for name, row in result["layers"].items()
        if "self_s" in row and row["self_s"] / wall >= 0.0005
    }
    layers: dict = {}
    for name, row in result["layers"].items():
        if "self_s" in row:
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"] / wall
    return {
        "traced_wall_s": round(wall, 3),
        "outside_spans": round(1.0 - sum(layers.values()), 4),
        "layer_share": {k: round(v, 4) for k, v in sorted(layers.items(), key=lambda kv: -kv[1])},
        "span_share": dict(sorted(spans.items(), key=lambda kv: -kv[1])),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    path = os.path.join(run.HERE, "layers.json")
    with open(path) as fh:
        doc = json.load(fh)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    measured = {"seed": args.seed, "machine": run.machine(), "workloads": {}}
    for name in names:
        result = run.run_benchmark(name, args.seed, 0, True)
        if not result["correct"]:
            raise SystemExit(f"{name}: {result['failures'][:5]}")
        measured["workloads"][name] = shares(result)
        print(name, json.dumps(measured["workloads"][name]["layer_share"]), flush=True)
    doc["shares"] = measured
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
