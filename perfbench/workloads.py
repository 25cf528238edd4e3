"""The benchmark's four workloads, their inputs and their correctness checks.

Each workload is built from a seed into a list of :class:`Op`.  An op
is one call (or, for ``cli``, one process) whose result is checked at
the acceptance suite's pinned tolerances.  Inputs come only from the
seed; the package receives only the generated inputs.

The package is reached through module attributes at call time
(``c.flatness_residual_norms``), so the tracer's wrappers see every
call.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the README's non-solution example; `verify` must exit 1 on it
SPEC = "sym(a1*a2 - a3^2, a4, a1*a3, 1 + a2^3, a4*a1, -a1)"

# tolerances pinned by tests/test_acceptance.py and tests/test_cauchy.py
FLAT_TOL = 1e-10
GC_TOL = 1e-12
HOPF_TOL = 1e-10
DRIFT_TOL = 1e-9
LIN_TOL = 1e-6
FD_TOL = 1e-6  # finite-difference mode default tolerance
CODAZZI_TOL = 1e-6
ID_TOL = 1e-12
SUBSAMPLE = 64  # points re-derived independently by the checks


class CheckFailed(Exception):
    """An operation returned a result outside its pinned tolerance."""


def expect(ok, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed call.  `points` counts sample points x (field, operator)
    evaluations it completes; `check` raises CheckFailed on a wrong result."""

    name: str
    points: int
    run: Callable[[], object]
    check: Callable[[object], None]


def import_package():
    """Import cauchys3 from this checkout's src/, never from elsewhere."""
    if not (SRC / "cauchys3" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source at {SRC / 'cauchys3'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cauchys3

    if Path(cauchys3.__file__).resolve().parent != (SRC / "cauchys3").resolve():
        raise ImportError(f"cauchys3 imported from {cauchys3.__file__}, not {SRC}")
    return cauchys3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# s3-exact and s3-fd
# ---------------------------------------------------------------------------


def _fd_field(c, exact):
    """`exact` with every entry behind flow central differences (h = 1e-5)."""
    return c.SymEnd3Field(
        [[c.ScalarField.from_callable(exact.entries[i][j], fd_step=1e-5) for j in range(3)] for i in range(3)]
    )


def _check_zero(tol, what):
    import numpy as np

    def check(r):
        parts = r if isinstance(r, tuple) else (r,)
        worst = max(float(np.max(np.abs(p))) for p in parts)
        expect(worst < tol, f"{what}: {worst:.3e} >= {tol:g}")

    return check


def _linearized_ops(c, A, Adot, pts, tol):
    """linearized_residual over the frame pairs, checked against the
    central difference of the flatness residual along A + t Adot.  The
    residual is quadratic in A, so the difference at t = 1 is exact."""
    import numpy as np

    sub = pts[:SUBSAMPLE]
    plus, minus = A + Adot, A + (-1.0) * Adot
    ops = []
    for pair in c.FRAME_PAIRS:

        def check(r, pair=pair):
            fd = 0.5 * (
                c.flatness_residual(plus, sub, pair=pair) - c.flatness_residual(minus, sub, pair=pair)
            )
            err = float(np.max(np.abs(c.hodge_star(r[:SUBSAMPLE]) - fd)))
            expect(err < tol, f"linearized {pair}: |lin - central difference| = {err:.3e}")

        ops.append(
            Op(f"linearized{pair}", len(pts), lambda pair=pair: c.linearized_residual(A, Adot, pts, pair=pair), check)
        )
    return ops


def _d_nabla_ops(c, A, pts, tol):
    """d_nabla_A over the frame pairs and divergence_A on a solution.

    For a solution the flatness equation gives d^nabla A(X, Y) = X x Y -
    AX x AY, and since tr A is constant on the quartic family,
    Gauss-Codazzi gives delta^nabla A = 0."""
    import numpy as np

    sub = pts[:SUBSAMPLE]
    ops = []
    for a, b in c.FRAME_PAIRS:
        x, y = np.eye(3)[a - 1], np.eye(3)[b - 1]

        def check(r, x=x, y=y):
            M = A.matrix(sub)
            expected = np.cross(x, y) - np.cross(M @ x, M @ y)
            err = float(np.max(np.abs(r[:SUBSAMPLE] - expected)))
            expect(err < tol, f"d_nabla_A: |dA(X,Y) - (XxY - AXxAY)| = {err:.3e}")

        ops.append(Op(f"d_nabla_A({a},{b})", len(pts), lambda x=x, y=y: c.d_nabla_A(A, pts, x, y), check))
    ops.append(Op("divergence_A", len(pts), lambda: c.divergence_A(A, pts), _check_zero(tol, "divergence_A")))
    return ops


def build_s3_exact(seed: int, n: int) -> list:
    import numpy as np

    c = import_package()
    from cauchys3 import deformation as dfm
    from cauchys3 import exprspec

    pts = c.random_points(n, seed=seed)
    quartic = c.right_family_left_frame()
    solutions = {kind: c.known_example(kind) for kind in c.KNOWN_KINDS}
    solutions["quartic"] = quartic
    control = c.SymEnd3Field.from_constant_matrix(np.diag([2.0, 2.0, 2.0]))
    spec = exprspec.parse_field_spec(SPEC)
    reductions = {
        name: c.hopf_reduce(A)
        for name, A in (
            ("plus-id", solutions["plus-id"]),
            ("minus-id", solutions["minus-id"]),
            ("left-133", solutions["left-133"]),
            ("quartic", quartic),
        )
    }

    ops = []
    for name, A in solutions.items():
        ops.append(
            Op(f"flatness:{name}", n, lambda A=A: c.flatness_residual_norms(A, pts), _check_zero(FLAT_TOL, f"flatness {name}"))
        )
        ops.append(
            Op(f"gauss_codazzi:{name}", n, lambda A=A: c.gauss_codazzi_residual(A, pts), _check_zero(GC_TOL, f"gauss-codazzi {name}"))
        )

    def check_control_flat(r):
        err = float(np.max(np.abs(r / (3.0 * math.sqrt(2.0)) - 1.0)))
        expect(err <= 1e-12, f"diag(2,2,2) residual differs from 3*sqrt(2) by {err:.3e} relative")

    def check_control_gc(r):
        scalar, vec = r
        err = max(float(np.max(np.abs(scalar + 18.0))), float(np.max(np.abs(vec))))
        expect(err < GC_TOL, f"diag(2,2,2) Gauss-Codazzi differs from (-18, 0) by {err:.3e}")

    def check_spec_flat(r):
        expect(np.all(np.isfinite(r)), "spec flatness residual not finite")
        expect(float(np.max(r)) > FLAT_TOL, "non-solution spec reported flat")

    def check_spec_gc(r):
        expect(all(np.all(np.isfinite(p)) for p in r), "spec Gauss-Codazzi residual not finite")

    ops += [
        Op("flatness:diag222", n, lambda: c.flatness_residual_norms(control, pts), check_control_flat),
        Op("gauss_codazzi:diag222", n, lambda: c.gauss_codazzi_residual(control, pts), check_control_gc),
        Op("flatness:spec", n, lambda: c.flatness_residual_norms(spec, pts), check_spec_flat),
        Op("gauss_codazzi:spec", n, lambda: c.gauss_codazzi_residual(spec, pts), check_spec_gc),
    ]
    ops += _linearized_ops(c, solutions["left-133"], quartic, pts, LIN_TOL)
    ops += _d_nabla_ops(c, quartic, pts, FLAT_TOL)

    def check_deformation(r):
        expect(r["solution_space_dim"] == 5, f"solution space dimension {r['solution_space_dim']} != 5")
        expect(r["image_span_dim"] == 2, f"image span dimension {r['image_span_dim']} != 2")
        expect(r["span_membership_error"] < FLAT_TOL, f"span membership error {r['span_membership_error']:.3e}")
        expect(r["pairing_error"] < FLAT_TOL, f"pairing error {r['pairing_error']:.3e}")

    ops.append(Op("deformation_report", n, lambda: dfm.deformation_report(pts), check_deformation))
    for name, h in reductions.items():
        ops.append(
            Op(f"hopf:{name}", n, lambda h=h: c.hopf_reduction_residual(h, pts), _check_zero(HOPF_TOL, f"hopf {name}"))
        )
    return ops


def build_s3_fd(seed: int, n: int) -> list:
    c = import_package()
    pts = c.random_points(n, seed=seed)
    fd = _fd_field(c, c.right_family_left_frame())
    reduced = c.hopf_reduce(fd)
    ops = [
        Op("flatness:quartic-fd", n, lambda: c.flatness_residual_norms(fd, pts), _check_zero(FD_TOL, "FD flatness")),
        Op("gauss_codazzi:quartic-fd", n, lambda: c.gauss_codazzi_residual(fd, pts), _check_zero(FD_TOL, "FD gauss-codazzi")),
    ]
    ops += _linearized_ops(c, c.known_example("left-133"), fd, pts, LIN_TOL)
    ops += _d_nabla_ops(c, fd, pts, FD_TOL)
    ops.append(Op("hopf:quartic-fd", n, lambda: c.hopf_reduction_residual(reduced, pts), _check_zero(FD_TOL, "FD hopf")))
    return ops


# ---------------------------------------------------------------------------
# cylinder-s2
# ---------------------------------------------------------------------------

PROBE_PER_S2_POINT = 100  # s-grid values per S^2 point


def s2_perturbation(c, rng):
    """A seeded symmetric matrix of linear polynomials on R^3 (as in `rigidity`)."""
    coeffs = rng.normal(size=(3, 3, 4))

    def entry(i, j):
        cc = 0.5 * (coeffs[i, j] + coeffs[j, i])
        p = c.Poly.constant(cc[0], 3)
        for m in range(3):
            p = p + cc[m + 1] * c.Poly.coordinate(m, 3)
        return p

    return [[entry(i, j) for j in range(3)] for i in range(3)]


def build_cylinder_s2(seed: int, n: int) -> list:
    import numpy as np

    c = import_package()
    from cauchys3 import classify as cls
    from cauchys3 import cylinder as cyl

    rng = np.random.default_rng(seed)
    s2 = cls.random_s2_points(n, seed=seed)
    s_grid = np.sort(rng.uniform(0.51, 0.9, size=PROBE_PER_S2_POINT * n))[::-1]
    mats = s2_perturbation(c, rng)
    identities = [cls.S2EndField.from_constant(sign * np.eye(3)) for sign in (1.0, -1.0)]
    one, zero = c.Poly.constant(1.0, 3), c.Poly.constant(0.0, 3)
    perturbed = [
        cls.S2EndField.from_polynomial_matrix(
            [[(one if i == j else zero) + eps * mats[i][j] for j in range(3)] for i in range(3)]
        )
        for eps in (1e-2, 1e-3)
    ]
    S_fd = cls.S2EndField(func=cls.S2EndField.from_polynomial_matrix(mats).raw, fd_step=1e-5)
    exported = cyl.integrate(t_end=-10.0)

    def check_integrate(prof):
        expect(prof.singularity, "backward run did not report the singularity")
        expect(prof.max_drift < DRIFT_TOL, f"conserved drift {prof.max_drift:.3e}")
        gap = abs(abs(prof.t[-1]) - cyl.boundary_distance_exact())
        expect(gap < 1e-4, f"boundary distance off by {gap:.3e}")

    def check_rows(rows):
        expect(len(rows) >= 2, "trajectory export has fewer than 2 rows")
        drift = max(abs(r["conserved"] - 2.0) for r in rows)
        expect(drift < DRIFT_TOL, f"exported conserved drift {drift:.3e}")
        expect(max(r["slice_residual_rel"] for r in rows) < 1e-9, "slice residual above 1e-9")
        expect(max(r["ricci_norm_rel"] for r in rows) < 1e-8, "Ricci norm above 1e-8")

    def check_probe(k):
        expect(len(k) >= 2 and bool(np.all(np.diff(k) > 0)), "curvature probe not strictly increasing over >= 2 points")

    def rigidity(fields):
        worst = []
        for U in fields:
            dmax = vmax = 0.0
            for p in s2:
                det_res, div_res = cls.s2_rigidity_residual(U, p)
                dmax = max(dmax, abs(det_res))
                vmax = max(vmax, float(np.max(np.abs(div_res))))
            worst.append((dmax, vmax))
        return worst

    def check_identity(worst):
        bad = max(max(w) for w in worst)
        expect(bad < ID_TOL, f"+-Id rigidity residual {bad:.3e}")

    def check_scaling(worst):
        (d1, v1), (d2, v2) = worst
        for ratio in (d1 / max(d2, 1e-300), v1 / max(v2, 1e-300)):
            expect(5.0 < ratio < 20.0, f"rigidity ratio {ratio:.3f} outside (5, 20)")

    def codazzi():
        return max(float(np.max(np.abs(np.subtract(*cls.codazzi_divfree_equiv(S_fd, p))))) for p in s2)

    def check_codazzi(worst):
        expect(worst < CODAZZI_TOL, f"Codazzi equivalence {worst:.3e}")

    return [
        Op("integrate", len(exported.t), lambda: cyl.integrate(t_end=-10.0), check_integrate),
        Op("trajectory_rows", len(exported.t), lambda: cyl.trajectory_rows(exported), check_rows),
        Op("curvature_blowup_probe", len(s_grid), lambda: cyl.curvature_blowup_probe(s_grid), check_probe),
        Op("s2_rigidity:identity", 2 * n, lambda: rigidity(identities), check_identity),
        Op("s2_rigidity:perturbed", 2 * n, lambda: rigidity(perturbed), check_scaling),
        Op("codazzi_divfree_equiv:fd", n, codazzi, check_codazzi),
    ]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_SAMPLES = 1000


def _cli_invocations():
    """(argv after the global options, expected exit code, check of the document)"""

    def verify_ok(d):
        expect(d["flatness_max"] < FLAT_TOL, f"verify flatness {d['flatness_max']:.3e}")
        expect(d["gauss_codazzi_scalar_max"] < GC_TOL and d["gauss_codazzi_vector_max"] < GC_TOL, "verify Gauss-Codazzi")

    def verify_fails(d):
        expect(d["flatness_max"] > FLAT_TOL, "non-solution spec reported flat")

    def classify(d):
        expect(d.get("grid_oracle_matches") is True, "grid oracle disagrees with the case split")

    def deform(d):
        expect(d["solution_space_dim"] == 5 and d["image_span_dim"] == 2, "deformation dimensions not 5 and 2")

    def singular(d):
        s = d["summary"]
        expect(s["singularity"] is True, "singularity not reached")
        expect(s["max_conserved_drift"] < DRIFT_TOL, f"conserved drift {s['max_conserved_drift']:.3e}")

    def probe(d):
        k = d["probe_curvature_norm"]
        expect(len(k) >= 2 and d["strictly_increasing"] is True, "probe not strictly increasing over >= 2 points")
        expect(all(a < b for a, b in zip(k, k[1:])), "probe values not increasing")

    def rigidity(d):
        for key in ("scaling_ratio_det", "scaling_ratio_div"):
            expect(5.0 < d[key] < 20.0, f"{key} {d[key]:.3f} outside (5, 20)")
        expect(d["codazzi_equivalence_max"] < CODAZZI_TOL, "Codazzi equivalence above 1e-6")

    return [
        (["verify", "--builtin", "left-133"], 0, verify_ok),
        (["verify", "--expr", SPEC], 1, verify_fails),
        (["classify", "--grid-oracle"], 0, classify),
        (["deform"], 0, deform),
        (["cylinder", "--to-singularity"], 0, singular),
        (["cylinder", "--s", "0.51..0.9", "--probe-curvature"], 0, probe),
        (["rigidity"], 0, rigidity),
    ]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_cli_output(code: int, stdout: str, expected: int, extra, previous: "str | None"):
    """Exit code, strict JSON, schema 1, pass flag, content, and byte
    identity with an earlier run of the same invocation."""
    expect(code == expected, f"exit code {code}, expected {expected}")
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not strict JSON: {exc}") from None
    expect(doc.get("schema") == 1, "missing \"schema\": 1")
    expect(doc.get("pass") is (expected == 0), f"pass flag {doc.get('pass')} disagrees with exit code")
    extra(doc)
    expect(previous is None or previous == stdout, "stdout differs from an earlier run of the same invocation")


def build_cli(seed: int, n: int, runner: "list | None" = None) -> list:
    """One op per README invocation, each a fresh process.  `runner`
    replaces the interpreter command (the traced run uses a wrapper)."""
    ops = []
    for argv, expected, extra in _cli_invocations():
        cmd = (runner or [sys.executable, "-m", "cauchys3.cli"]) + ["--seed", str(seed), "--samples", str(CLI_SAMPLES)] + argv
        seen = {}

        def run(cmd=cmd):
            return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)

        def check(proc, expected=expected, extra=extra, seen=seen):
            check_cli_output(proc.returncode, proc.stdout, expected, extra, seen.get("stdout"))
            seen.setdefault("stdout", proc.stdout)

        ops.append(Op(" ".join(argv[:2]), CLI_SAMPLES, run, check))
    return ops


def setup_cli() -> list:
    """What a CLI process does before any work: import and build the parser."""
    import_package()
    from cauchys3 import cli

    cli.build_parser()
    return []


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int], list]
    n: int  # size of the timed run
    n_child: int  # size of the one pass a fresh set-up process makes
    in_process: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli", build_cli, 0, 0, in_process=False),
        Workload("s3-exact", build_s3_exact, 2_000, 200),
        Workload("s3-fd", build_s3_fd, 1_000, 200),
        Workload("cylinder-s2", build_cylinder_s2, 50, 5),
    )
}
