"""One fresh process running one in-process workload.

    python3 perfbench/worker.py WORKLOAD SEED MODE SCALE OUT_DIR [SECONDS]

MODE is `setup` (build the inputs and exit), `once` (one timed pass), `run`
(timed passes, at least two, until SECONDS have passed), `trace` (one pass
with every forestlab function wrapped in a span) or `mem` (one pass with
tracemalloc around the cube kernel).  The process prints
`ready` once its inputs are built, then one JSON line with its results.
forestlab must be importable from the checkout's `src` directory, which the
caller puts on PYTHONPATH.
"""
from __future__ import annotations

import json
import os
import sys
import traceback

import workloads


def main(argv) -> int:
    name, seed, mode, scale, out_dir = argv[:5]
    seed = int(seed)
    seconds = float(argv[5]) if len(argv) > 5 else 0.0
    import forestlab  # noqa: F401  (import time belongs to set-up)

    tracer = memory = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode == "mem":
        from tracing import PeakMemory

        memory = PeakMemory()
        memory.install()
    workload = workloads.WORKLOADS[name](seed, scale)
    print("ready", flush=True)
    if mode == "setup":
        print(json.dumps({}))
        return 0
    try:
        if mode == "run":
            result = workloads.run_passes(workload, seconds, min_passes=2)
        else:
            result = workloads.run_passes(workload, 0, min_passes=1, max_passes=1)
    except Exception:
        traceback.print_exc()
        result = {"walls": [0.0], "ops": 1, "failures": ["a pass raised"], "items": workload.items, "mark": None}
    result.pop("last", None)  # the pass output; the parent needs only its mark
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        tracer.write(os.path.join(out_dir, f"spans-{name}.npz"))
    if memory is not None:
        result["peak_bytes"] = memory.peak_bytes
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
