"""Set-up probe: a fresh interpreter imports the package and builds one workload.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Prints one JSON line, ``{"import_ms": ...}``, as soon as the first timed op
could start, then exits.  ``run.py`` times it from spawn to that line.
"""

import importlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    importlib.import_module("entangle_lab.cli" if workload == "cli_reports" else "entangle_lab")
    import_ms = (time.perf_counter() - started) * 1e3

    import workloads

    workloads.WORKLOADS[workload](seed, workdir)
    print(json.dumps({"import_ms": import_ms}), flush=True)


if __name__ == "__main__":
    main()
