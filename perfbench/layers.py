"""The layer probe of the traced run: canonical calls into every layer.

It gives three kinds of figures, all under an installed Tracer:

* exact counts per canonical call (Poly evaluations per flatness call,
  flows per finite-difference flatness call, accepted steps and RHS
  evaluations of the run to the singularity, gradient builds per S^2
  point).  These repeat exactly from run to run.
* self seconds of every layer over a fixed set of calls, which the
  traced run adds to the self seconds of the workload's own pass, so
  that every layer reads a measured, non-zero time on every workload.
* the layer table: self seconds of the point-batch layers at n = 10^3,
  10^4 and 10^5, suffixed `.n1000`, `.n10000` and `.n100000`.

Fresh-interpreter import times (`cli.import_s`, `cli.numpy_import_s`)
are medians over IMPORT_REPEATS processes.
"""

from __future__ import annotations

import io
import statistics
import subprocess
import sys
from contextlib import redirect_stdout

import workloads

TABLE_N = (1_000, 10_000, 100_000)
IMPORT_REPEATS = 3
PROBE_POINTS = 1_000
S2_POINTS = 20
ENTRY_VALUES_NEEDED = 24  # 6 entries and their 3 frame derivatives each

# per-layer time metric -> the span whose self time it sums
LAYER_SPANS = {
    "polynomial.eval_s": "polynomial.eval",
    "frame.derive_s": "frame.derive",
    "frame.flow_s": "frame.flow",
    "tensor.d_nabla_s": "tensor.d_nabla",
    "cauchy.flatness_s": "cauchy.flatness",
    "cauchy.gauss_codazzi_s": "cauchy.gauss_codazzi",
    "cauchy.linearized_s": "cauchy.linearized",
    "deformation.report_s": "deformation.report",
    "classify.hopf_residual_s": "classify.hopf_residual",
    "classify.bruteforce_s": "classify.bruteforce",
    "classify.s2_rigidity_s": "classify.s2_rigidity",
    "classify.codazzi_equiv_s": "classify.codazzi_equiv",
    "cylinder.integrate_s": "cylinder.integrate",
    "cylinder.export_s": "cylinder.export",
    "cylinder.probe_s": "cylinder.probe",
    "cli.serialize_s": "cli.serialize",
}
# the point-batch layers of the table
TABLE_LAYERS = (
    "polynomial.eval_s",
    "cauchy.flatness_s",
    "cauchy.gauss_codazzi_s",
    "cauchy.linearized_s",
    "deformation.report_s",
    "classify.hopf_residual_s",
    "cylinder.probe_s",
)


def _count(tracer, key, fn, *args):
    """Calls of `key` made by fn(*args), and fn's result."""
    snap = tracer.snapshot()
    result = fn(*args)
    return tracer.since(snap)[1][key], result


def import_seconds(module: str) -> float:
    """Median in-interpreter time of `import module` in fresh processes."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=workloads.ROOT, env=workloads.child_env(),
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def canonical_counts(c, tracer, seed: int) -> dict:
    """Fixed calls into every layer; returns the exact per-call counts."""
    import numpy as np

    from cauchys3 import classify as cls
    from cauchys3 import cli
    from cauchys3 import cylinder as cyl
    from cauchys3 import deformation as dfm

    pts = c.random_points(PROBE_POINTS, seed=seed)
    quartic = c.right_family_left_frame()
    fd = workloads._fd_field(c, quartic)
    m = {}

    flat_calls, _ = _count(tracer, "Poly.__call__", c.flatness_residual_norms, quartic, pts)
    m["cauchy.poly_evals_per_flatness"] = flat_calls
    m["cauchy.entry_eval_yield"] = ENTRY_VALUES_NEEDED / max(flat_calls, 1)
    m["cauchy.poly_evals_per_gauss_codazzi"], _ = _count(tracer, "Poly.__call__", c.gauss_codazzi_residual, quartic, pts)
    snap = tracer.snapshot()
    c.flatness_residual_norms(fd, pts)
    counts = tracer.since(snap)[1]
    m["cauchy.poly_evals_per_flatness_fd"] = counts["Poly.__call__"]
    m["frame.flows_per_flatness_fd"] = counts["frame.flow"]
    c.linearized_residual(c.known_example("left-133"), quartic, pts, pair=(1, 2))
    for a, b in c.FRAME_PAIRS:
        c.d_nabla_A(quartic, pts, np.eye(3)[a - 1], np.eye(3)[b - 1])
    c.divergence_A(quartic, pts)
    dfm.deformation_report(pts)
    c.hopf_reduction_residual(c.hopf_reduce(quartic), pts)

    steps_rhs, profile = _count(tracer, "cylinder.reduced_rhs", lambda: cyl.integrate(t_end=-10.0))
    m["cylinder.rhs_evals"] = steps_rhs
    m["cylinder.accepted_steps"] = profile.steps
    cyl.trajectory_rows(profile)
    cyl.curvature_blowup_probe(np.linspace(0.9, 0.51, PROBE_POINTS))
    cls.constant_frame_solutions_bruteforce()

    rng = np.random.default_rng(seed)
    s2 = cls.random_s2_points(S2_POINTS, seed=seed)
    mats = workloads.s2_perturbation(c, rng)
    S = cls.S2EndField.from_polynomial_matrix(mats)
    S_fd = cls.S2EndField(func=S.raw, fd_step=1e-5)
    m["classify.s2_gradient_builds_per_point"], _ = _count(tracer, "Poly.gradient", cls.s2_rigidity_residual, S, s2[0])
    m["classify.s2_gradient_builds_per_codazzi"], _ = _count(tracer, "Poly.gradient", cls.codazzi_divfree_equiv, S, s2[0])
    for p in s2:
        cls.s2_rigidity_residual(S, p)
        cls.codazzi_divfree_equiv(S_fd, p)

    # the seven README invocations in-process: serialization and output size
    stdout_bytes = 0
    for argv, _, _ in workloads._cli_invocations():
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(["--seed", str(seed)] + argv)
        stdout_bytes += len(buf.getvalue().encode())
    m["cli.stdout_bytes"] = stdout_bytes
    return m


def layer_table(c, tracer, seed: int) -> dict:
    """Self seconds of the point-batch layers at each n in TABLE_N."""
    import numpy as np

    from cauchys3 import cylinder as cyl
    from cauchys3 import deformation as dfm

    quartic = c.right_family_left_frame()
    reduced = c.hopf_reduce(quartic)
    A0 = c.known_example("left-133")
    m = {}
    for n in TABLE_N:
        pts = c.random_points(n, seed=seed)
        s_grid = np.linspace(0.9, 0.51, n)
        snap = tracer.snapshot()
        c.flatness_residual_norms(quartic, pts)
        c.gauss_codazzi_residual(quartic, pts)
        c.linearized_residual(A0, quartic, pts, pair=(1, 2))
        dfm.deformation_report(pts)
        c.hopf_reduction_residual(reduced, pts)
        cyl.curvature_blowup_probe(s_grid)
        self_s = tracer.since(snap)[0]
        del pts
        for metric in TABLE_LAYERS:
            m[f"{metric}.n{n}"] = self_s[LAYER_SPANS[metric]]
    return m
