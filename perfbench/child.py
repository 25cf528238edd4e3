"""A fresh process that sets a workload up, then (in-process workloads)
makes one small checked pass.

Usage: python3 perfbench/child.py <workload> <seed>

Prints `ready <monotonic seconds>` as soon as set-up is done, and as its
last line a JSON object {"attempted": int, "failed": [messages]}.  The
parent compares the ready and exit times with the time it started the
process: CLOCK_MONOTONIC is shared by all processes on Linux.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    w = workloads.WORKLOADS[name]
    ops = w.build(seed, w.n_child) if w.in_process else workloads.setup_cli()
    print(f"ready {time.monotonic()!r}", flush=True)
    failed = []
    for op in ops:
        try:
            op.check(op.run())
        except Exception as exc:  # every failure is reported, none aborts the pass
            failed.append(f"{op.name}: {type(exc).__name__}: {exc}")
    print(json.dumps({"attempted": len(ops), "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
