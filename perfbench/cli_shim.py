"""Run `forestlab.cli.main` with the benchmark's wrappers installed.

    python3 perfbench/cli_shim.py MODE OUT_FILE forestlab-args...

MODE `trace` wraps every forestlab function in a span; MODE `mem` measures
the cube kernel's peak allocation with tracemalloc.  The CLI runs exactly as
`python -m forestlab forestlab-args...` would; the results go to OUT_FILE as
JSON, with the wall-clock time at which `forestlab.cli` finished importing.
"""
from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    mode, out_file, cli_args = argv[0], argv[1], argv[2:]
    import forestlab.cli

    imported_at = time.time()
    if mode == "trace":
        from tracing import Tracer

        probe = Tracer()
    else:
        from tracing import PeakMemory

        probe = PeakMemory()
    probe.install()
    code = forestlab.cli.main(cli_args)
    out = {"imported_at": imported_at, "exit": code}
    if mode == "trace":
        out["layers"] = probe.aggregate()
        probe.write(out_file[: -len(".json")] + ".npz")
    else:
        out["peak_bytes"] = probe.peak_bytes
    with open(out_file, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
