"""The cauchys3 benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli,s3-exact,s3-fd,cylinder-s2}
                             --seed N --seconds S --trace {0,1}

The workloads and their checks are in workloads.py, the tracer in
spans.py, the layer probe in layers.py; README.md says what each metric
means and which layer should move it.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run's provenance, and the full record (with per-op medians and, when
traced, the spans) is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import clitrace  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 9  # fresh set-up processes per untraced run
MIN_PASSES = 2  # a `cli` pass (seven processes) alone takes most of a run
HELD_OUT_SEED = 7919  # reserved for re-checking a claim; never used while tuning


class Tally:
    """Attempted operations and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer: "Tracer | None" = None  # paused while results are checked

    @property
    def correct(self) -> bool:
        """A run with nothing attempted is an error, not a pass."""
        return self.attempted > 0 and not self.failures

    def fail(self, name: str, exc: BaseException):
        message = f"{name}: {type(exc).__name__}: {exc}"
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def run(self, op) -> tuple:
        """Time one op and check its result; returns (seconds, result)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a crash is one failed operation, not an aborted run
            self.fail(op.name, exc)
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        try:
            if self.tracer is not None:
                with self.tracer.paused():
                    op.check(result)
            else:
                op.check(result)
        except Exception as exc:
            self.fail(op.name, exc)
        return elapsed, result


def run_pass(ops, tally: Tally, times: dict) -> float:
    """One pass over the ops; returns its time and appends each op's."""
    total = 0.0
    for op in ops:
        elapsed, _ = tally.run(op)
        times[op.name].append(elapsed)
        total += elapsed
    return total


def setup_process(workload: str, seed: int, tally: Tally, ready: list, done: list):
    """One fresh set-up process: appends its seconds to ready and to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "child.py"), workload, str(seed)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=workloads.ROOT, env=workloads.child_env(), capture_output=True, text=True, timeout=150)
    end = time.monotonic()
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready "):
        tally.attempted += 1
        tally.fail("set-up process", RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"))
        return
    ready.append(float(lines[0].split()[1]) - start)
    done.append(end - start)
    report = json.loads(lines[-1])
    tally.attempted += report["attempted"]
    for message in report["failed"]:
        tally.fail("set-up process", RuntimeError(message))


def timed_run(w, seed: int, seconds: float, record: dict) -> tuple:
    """The untraced run: end-to-end metrics.

    One set-up process follows each pass, so that set-up and pass times
    sample the same stretch of the machine's load; their time does not
    count against `seconds`."""
    tally = Tally()
    ops = w.build(seed, w.n)
    times = defaultdict(list)
    ready, done = [], []
    peak_rss_mb = None
    deadline = time.monotonic() + seconds
    passes = spawned = 0
    while passes < MIN_PASSES or time.monotonic() < deadline:
        run_pass(ops, tally, times)
        passes += 1
        if peak_rss_mb is None and not w.in_process:
            # the largest CLI process, read before any set-up process is reaped
            peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if spawned < SETUP_REPEATS:
            start = time.monotonic()
            setup_process(w.name, seed, tally, ready, done)
            spawned += 1
            deadline += time.monotonic() - start
    for _ in range(spawned, SETUP_REPEATS):
        setup_process(w.name, seed, tally, ready, done)
    if w.in_process:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    medians = {name: statistics.median(t) for name, t in times.items()}
    wall = sum(medians.values())
    per_process = [t for ts in times.values() for t in ts] if not w.in_process else done
    metrics = {
        "setup_s": (statistics.median(ready) if ready else 0.0, "s"),
        "wall_s": (wall, "s"),
        "process_s_p50": (statistics.median(per_process) if per_process else 0.0, "s"),
        "points_per_s": (sum(op.points for op in ops) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record.update(
        passes=passes,
        points_per_pass=sum(op.points for op in ops),
        op_median_s=medians,
        setup_samples_s=ready,
        process_samples_s=per_process,
    )
    return metrics, tally


def traced_run(w, seed: int, c, record: dict) -> tuple:
    """The traced run: per-layer metrics and the tracing overhead."""
    tally = Tally()
    times = defaultdict(list)
    ops = w.build(seed, w.n)
    if w.in_process:
        run_pass(ops, tally, times)  # fills derivative memos and compiled polynomials
    untraced = run_pass(ops, tally, times)

    tracer = Tracer()
    tally.tracer = tracer
    with tracer:
        if w.in_process:
            traced_ops = ops
            merge = None
        else:
            runner = [sys.executable, str(Path(__file__).resolve().parent / "clitrace.py")]
            traced_ops = workloads.build_cli(seed, 0, runner=runner)

            def merge(proc):
                lines = proc.stderr.splitlines()
                if lines and lines[-1].startswith(clitrace.MARK):
                    child = json.loads(lines[-1][len(clitrace.MARK):])
                    tracer.merge(child["self_s"], child["counts"])

        traced = 0.0
        for op in traced_ops:
            with tracer.span(f"op:{op.name}"):
                elapsed, result = tally.run(op)
            traced += elapsed
            if merge is not None and result is not None:
                merge(result)
        counts = layers.canonical_counts(c, tracer, seed)
        self_s, calls = tracer.snapshot()
        table = layers.layer_table(c, tracer, seed)

    m = {name: (self_s[span], "s") for name, span in layers.LAYER_SPANS.items()}
    m["polynomial.eval_calls"] = (calls["Poly.__call__"], "count")
    m["polynomial.monomial_evals"] = (calls["Poly.monomial_evals"], "count")
    m["frame.flow_calls"] = (calls["frame.flow"], "count")
    m["cli.import_s"] = (layers.import_seconds("cauchys3"), "s")
    m["cli.numpy_import_s"] = (layers.import_seconds("numpy"), "s")
    m["trace.overhead_ratio"] = (traced / untraced, "ratio")
    for name, value in counts.items():
        m[name] = (value, "ratio" if name.endswith("_yield") else "bytes" if name.endswith("_bytes") else "count")
    for name, value in table.items():
        m[name] = (value, "s")
    record.update(
        untraced_wall_s=untraced,
        traced_wall_s=traced,
        self_s=dict(self_s),
        counts=dict(calls),
        spans=[list(s) for s in tracer.spans],
    )
    return m, tally


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _blas() -> tuple:
    """(BLAS library name, its thread count) for the loaded OpenBLAS, if any."""
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = None
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, None


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        top = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != workloads.ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "cauchys3").rglob("*.py")):
        digest.update(path.relative_to(workloads.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(c, args) -> dict:
    import numpy
    import scipy

    blas, threads = _blas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_role": "held-out" if args.seed == HELD_OUT_SEED else "tuning",
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cauchys3": c.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        c = workloads.import_package()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load the package from this checkout: {exc}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    record = {"provenance": provenance(c, args)}
    if args.trace:
        metrics, tally = traced_run(w, args.seed, c, record)
    else:
        metrics, tally = timed_run(w, args.seed, args.seconds, record)
    record["failures"] = tally.failures
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
