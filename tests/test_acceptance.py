"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one line 'criterion NN pass/FAIL (X.XXs): detail', echoed
in the pytest terminal summary.  Tolerances and time budgets are pinned
here and nowhere else.
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np
from conftest import ACCEPTANCE_LINES
from test_cylinder import boundary_distance_quadrature

from cauchys3 import cylinder as cyl
from cauchys3.cauchy import (
    FRAME_PAIRS,
    SymEnd3Field,
    flatness_residual,
    flatness_residual_norms,
    gauss_codazzi_residual,
    known_example,
    linearized_residual,
    right_family_left_frame,
)
from cauchys3.classify import (
    HopfReducedData,
    S2EndField,
    codazzi_divfree_equiv,
    constant_frame_residual,
    constant_frame_solutions,
    constant_frame_solutions_bruteforce,
    hopf_reduce,
    hopf_reduction_residual,
    random_s2_points,
    s2_rigidity_residual,
    special_case_residual,
)
from cauchys3.cli import main as cli_main
from cauchys3.deformation import (
    A0,
    berger_laplacian,
    deformation_report,
    lemma_derivative_checks,
)
from cauchys3.frame import harmonic_quadratic, random_points
from cauchys3.polynomial import Poly
from cauchys3.tensor import hodge_star


class Criterion:
    """Timing + reporting wrapper; failures raise after the line is logged."""

    def __init__(self, number: int, budget_s: float):
        self.number = number
        self.budget = budget_s
        self.checks = []

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def check(self, ok: bool, detail: str):
        self.checks.append((bool(ok), detail))

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        in_budget = elapsed < self.budget
        ok = in_budget and exc_type is None and all(c[0] for c in self.checks)
        failed = [d for good, d in self.checks if not good]
        if not in_budget:
            failed.append(f"over budget ({elapsed:.2f}s >= {self.budget}s)")
        detail = "; ".join(d for _, d in self.checks) if ok else "; ".join(failed)
        line = f"criterion {self.number:02d} {'pass' if ok else 'FAIL'} ({elapsed:.2f}s): {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        if exc_type is None:
            assert ok, line
        return False


def test_criterion_01_known_families():
    with Criterion(1, 5.0) as c:
        pts = random_points(1000, seed=101)
        worst = {}
        for kind in ("plus-id", "minus-id", "left-133", "right-133"):
            A = known_example(kind)
            worst[kind] = float(np.max(flatness_residual_norms(A, pts)))
        allmax = max(worst.values())
        c.check(allmax < 1e-10, f"max flatness residual {allmax:.2e} over 1000 pts x 3 pairs")


def test_criterion_02_gauss_codazzi():
    with Criterion(2, 1.0) as c:
        pts = random_points(500, seed=102)
        worst = 0.0
        for A in (known_example("plus-id"), known_example("minus-id"), A0):
            scalar, vector = gauss_codazzi_residual(A, pts)
            worst = max(worst, float(np.max(np.abs(scalar))), float(np.max(np.abs(vector))))
        c.check(worst < 1e-12, f"scalar+vector constraint residual {worst:.2e}")


def test_criterion_03_classification():
    with Criterion(3, 1.0) as c:
        expected = {
            (1.0, 1.0, 1.0),
            (-1.0, -1.0, -1.0),
            (1.0, -3.0, -3.0),
            (-3.0, 1.0, -3.0),
            (-3.0, -3.0, 1.0),
        }
        algebraic = constant_frame_solutions()
        brute = constant_frame_solutions_bruteforce(grid=9, span=5.0)
        c.check(algebraic == expected, "case split matches the stated set")
        c.check(brute == expected, "grid+Newton enumeration matches")
        residuals = max(
            float(np.max(np.abs(constant_frame_residual(s)))) for s in expected
        )
        c.check(residuals < 1e-14, f"cyclic residuals {residuals:.1e}")


def test_criterion_04_deformation():
    with Criterion(4, 10.0) as c:
        pts = random_points(200, seed=104)
        eig = max(
            float(np.max(np.abs(berger_laplacian(harmonic_quadratic(k), pts) - 8.0 * harmonic_quadratic(k)(pts))))
            for k in (1, 2, 3)
        )
        c.check(eig < 1e-10, f"Berger eigenvalue-8 residual {eig:.1e}")
        rep = deformation_report(pts)
        c.check(rep["solution_space_dim"] == 5, "solution space dimension 5")
        c.check(rep["image_span_dim"] == 2, "image span dimension 2")
        c.check(
            rep["span_membership_error"] < 1e-10,
            f"image lies in Lie-derivative span ({rep['span_membership_error']:.1e})",
        )
        lemma = max(
            float(np.max(np.abs(lemma_derivative_checks(k, pts)))) for k in (1, 2, 3)
        )
        c.check(lemma < 1e-10, f"second-derivative identities {lemma:.1e}")


def test_criterion_05_linearization():
    with Criterion(5, 5.0) as c:
        rng = np.random.default_rng(105)
        pts = random_points(100, seed=105)
        h = 1e-6
        worst = 0.0
        for trial in range(100):
            m = rng.normal(size=(3, 3))
            Adot = SymEnd3Field.from_constant_matrix(0.5 * (m + m.T))
            pair = FRAME_PAIRS[trial % 3]
            sample = pts[trial % 50 : trial % 50 + 2]
            lin = hodge_star(linearized_residual(A0, Adot, sample, pair=pair))
            fd = (
                flatness_residual(A0 + h * Adot, sample, pair=pair)
                - flatness_residual(A0 + (-h) * Adot, sample, pair=pair)
            ) / (2 * h)
            worst = max(worst, float(np.max(np.abs(lin - fd))))
        c.check(worst < 1e-6, f"max |linearized - FD(step 1e-6)| = {worst:.2e} over 100 inputs")


def test_criterion_06_cylinder_exactness():
    with Criterion(6, 5.0) as c:
        prof = cyl.integrate(t_end=3.0)
        alpha, beta = cyl.closed_form(prof.a * prof.b)
        node_err = max(
            float(np.max(np.abs(prof.a - alpha))), float(np.max(np.abs(prof.b - beta)))
        )
        tq = np.linspace(0.0, 3.0, 100)
        aq, bq = prof(tq)
        al, be = cyl.closed_form(aq * bq)
        dense_err = max(float(np.max(np.abs(aq - al))), float(np.max(np.abs(bq - be))))
        c.check(
            max(node_err, dense_err) < 1e-8,
            f"closed-form match {max(node_err, dense_err):.1e} over t in [0,3]",
        )
        c.check(prof.max_drift < 1e-9, f"conserved-quantity drift {prof.max_drift:.1e}")
        sys_res = max(
            float(np.max(np.abs(cyl.full_system_residual(a, b, ad, bd))))
            for a, b, ad, bd in zip(prof.a, prof.b, prof.adot, prof.bdot)
        )
        c.check(sys_res < 1e-10, f"full-system residual at accepted steps {sys_res:.1e}")


def test_criterion_07_boundary_distance():
    with Criterion(7, 2.0) as c:
        exact = cyl.boundary_distance_exact()
        prof = cyl.integrate(t_end=-1.0)
        reached = abs(prof.t[-1])
        c.check(prof.singularity, "backward run reports the singularity")
        c.check(
            abs(reached - exact) < 1e-4,
            f"ODE boundary distance {reached:.7f} vs exact {exact:.7f}",
        )
        quadrature = boundary_distance_quadrature()
        c.check(
            abs(quadrature - exact) < 1e-8,
            f"quadrature reproduces the closed form to {abs(quadrature - exact):.1e}",
        )


def test_criterion_08_ricci_flatness():
    with Criterion(8, 10.0) as c:
        prof = cyl.integrate(t_end=3.0)
        worst = 0.0
        for tq in np.linspace(0.0, 3.0, 20):
            a, b = prof(tq)
            worst = max(worst, float(np.linalg.norm(cyl.ricci_4d_state(a, b))))
        c.check(worst < 1e-8, f"|Ricci| along the orbit {worst:.1e} at 20 times")
        cone = max(
            float(np.max(np.abs(cyl.ricci_4d(1 - t, 1 - t, -1.0, -1.0, 0.0, 0.0))))
            for t in (0.0, 0.25, 0.5)
        )
        c.check(cone < 1e-12, f"flat-cone oracle {cone:.1e}")
        control = np.linalg.norm(cyl.ricci_4d(1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        c.check(control > 1.0, f"round-cylinder control nonzero ({control:.2f})")


def test_criterion_09_weingarten_closure():
    with Criterion(9, 5.0) as c:
        W0 = cyl.weingarten(1.0, 1.0, -1.0, 3.0)
        c.check(
            np.array_equal(W0, np.diag([1.0, -3.0, -3.0])),
            "Weingarten at t=0 equals diag(1,-3,-3) exactly",
        )
        prof = cyl.integrate(t_end=3.0)
        worst = max(
            float(np.max(np.abs(cyl.slice_residual(a, b, ad, bd))))
            for a, b, ad, bd in zip(prof.a, prof.b, prof.adot, prof.bdot)
        )
        c.check(worst < 1e-9, f"slice residual along the orbit {worst:.1e}")


def test_criterion_10_s2_rigidity():
    with Criterion(10, 5.0) as c:
        pts = random_s2_points(100, seed=110)
        rng = np.random.default_rng(110)
        worst_id = 0.0
        for sign in (1.0, -1.0):
            U = S2EndField.from_constant(sign * np.eye(3))
            for p in pts[:40]:
                det_res, div_res = s2_rigidity_residual(U, p)
                worst_id = max(worst_id, abs(det_res), float(np.max(np.abs(div_res))))
        c.check(worst_id < 1e-12, f"+-Id residuals {worst_id:.1e}")

        co = rng.normal(size=(3, 3, 4))

        def entry(i, j):
            cc = 0.5 * (co[i, j] + co[j, i])
            p = Poly.constant(cc[0], 3)
            for m in range(3):
                p = p + cc[m + 1] * Poly.coordinate(m, 3)
            return p

        mats = [[entry(i, j) for j in range(3)] for i in range(3)]
        S_exact = S2EndField.from_polynomial_matrix(mats)
        S_fd = S2EndField(func=S_exact.raw, fd_step=1e-5)
        equiv = 0.0
        for p in pts:
            lhs, rhs = codazzi_divfree_equiv(S_fd, p)
            equiv = max(equiv, float(np.max(np.abs(lhs - rhs))))
        c.check(equiv < 1e-6, f"Codazzi/divergence equivalence (FD) {equiv:.1e} at 100 pts")

        scale = {}
        for eps in (1e-2, 1e-3):
            pert = [
                [
                    (Poly.constant(1.0, 3) if i == j else Poly.constant(0.0, 3))
                    + eps * mats[i][j]
                    for j in range(3)
                ]
                for i in range(3)
            ]
            U = S2EndField.from_polynomial_matrix(pert)
            dmax = vmax = 0.0
            for p in pts[:30]:
                det_res, div_res = s2_rigidity_residual(U, p)
                dmax = max(dmax, abs(det_res))
                vmax = max(vmax, float(np.max(np.abs(div_res))))
            scale[eps] = (dmax, vmax)
        rdet = scale[1e-2][0] / scale[1e-3][0]
        rdiv = scale[1e-2][1] / scale[1e-3][1]
        c.check(
            8.0 < rdet < 12.0 and 8.0 < rdiv < 12.0,
            f"perturbation residuals scale linearly (ratios {rdet:.2f}, {rdiv:.2f})",
        )


def test_criterion_11_hopf_reduced_systems():
    with Criterion(11, 2.0) as c:
        pts = random_points(300, seed=111)
        families = [
            ("plus-id", known_example("plus-id")),
            ("minus-id", known_example("minus-id")),
            ("left-133", known_example("left-133")),
            ("right-133", right_family_left_frame()),
        ]
        worst = 0.0
        for _, A in families:
            res = hopf_reduction_residual(hopf_reduce(A), pts)
            worst = max(worst, float(np.max(res)))
        c.check(worst < 1e-10, f"(sd) residuals of the four reductions {worst:.1e}")

        sysend_worst = max(
            float(np.max(special_case_residual(f, B, pts[:50])))
            for f, B in ((1.0, np.eye(2)), (1.0, -3.0 * np.eye(2)), (-1.0, -np.eye(2)))
        )
        c.check(sysend_worst < 1e-12, f"(sysend) residuals of the v=0 reductions {sysend_worst:.1e}")

        from cauchys3.frame import ScalarField

        zero = ScalarField.constant(0.0)
        h0 = HopfReducedData(f=zero, v=(zero, zero), B=((zero, zero), (zero, zero)))
        floor_sd = float(np.min(np.max(hopf_reduction_residual(h0, pts[:50]), axis=-1)))
        floor_se = float(np.min(np.max(special_case_residual(0.0, np.zeros((2, 2)), pts[:50]), axis=-1)))
        c.check(
            floor_sd > 0.5 and floor_se > 0.5,
            f"zero field bounded away from 0 (sd {floor_sd:.2f}, sysend {floor_se:.2f})",
        )


def test_criterion_12_determinism():
    with Criterion(12, 1.0) as c:
        def run():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(
                    ["--seed", "12", "--samples", "100", "verify", "--builtin", "left-133"]
                )
            return code, buf.getvalue()

        code1, out1 = run()
        code2, out2 = run()
        c.check(code1 == 0 and code2 == 0, "both runs pass")
        c.check(out1 == out2, "byte-identical JSON for identical config+seed")
        doc = json.loads(out1)
        c.check(doc["schema"] == 1, "schema version stamped")
