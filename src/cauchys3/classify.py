"""Classification systems: constant frames, Hopf reduction, S^2 rigidity.

Three groups of checkable systems live here.

* The cyclic polynomial system satisfied by a solution that is constant
  and diagonal in an invariant frame, with its exhaustive solution set.
* The reduction of an e_1-invariant solution to the Hopf base: the
  four-equation first-order system in (f, v, B) and its v = 0 special
  case.  Base quantities are computed upstairs on S^3 through the
  Riemannian-submersion identities (projected round-connection
  derivatives of invariant fields), which pins every scaling; no
  calibration constants enter.
* Tangential calculus on the unit 2-sphere for the det/divergence
  rigidity residuals and the Codazzi / divergence-free equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .cauchy import SymEnd3Field, VectorField3, _coerce_entry, _same_entry
from .deformation import lie_derivative_endo
from .frame import Chirality, ScalarField, _fd_step, random_points
from .polynomial import Poly, evaluate
from .tensor import cross_components, dot_components, hat_components, matmul_components, matvec_components

__all__ = [
    "constant_frame_residual",
    "constant_frame_solutions",
    "constant_frame_solutions_bruteforce",
    "HopfReducedData",
    "hopf_reduce",
    "hopf_reduction_residual",
    "special_case_residual",
    "random_s2_points",
    "tangent_basis",
    "S2EndField",
    "s2_rigidity_residual",
    "codazzi_divfree_equiv",
]


# ---------------------------------------------------------------------------
# constant-frame diagonal system
# ---------------------------------------------------------------------------


def constant_frame_residual(triple) -> np.ndarray:
    """Cyclic residuals (a+1)(b+1) - 2(c+1), (b+1)(c+1) - 2(a+1), (a+1)(c+1) - 2(b+1).

    Taken along the last axis, so ``triple`` may be a (..., 3) array.
    """
    a, b, c = np.moveaxis(np.asarray(triple, dtype=float), -1, 0)
    return np.stack(
        [
            (a + 1) * (b + 1) - 2 * (c + 1),
            (b + 1) * (c + 1) - 2 * (a + 1),
            (a + 1) * (c + 1) - 2 * (b + 1),
        ],
        axis=-1,
    )


def constant_frame_solutions() -> set:
    """Exhaustive real solution set of the cyclic system, by case split.

    Either all of a+1, b+1, c+1 vanish, or their product is 8 and each
    square is 4, with an even number of negative factors.  Yields
    (1,1,1), (-1,-1,-1) and the permutations of (1,-3,-3).
    """
    sols = {(-1.0, -1.0, -1.0)}
    for signs in product((2.0, -2.0), repeat=3):
        if np.prod(signs) == 8.0:  # even number of negatives
            sols.add(tuple(s - 1.0 for s in signs))
    return sols


def constant_frame_solutions_bruteforce(grid: int = 13, span: float = 6.0) -> set:
    """Grid seeding plus Newton refinement; cross-checks the case split.

    Scans a grid of ``grid``^3 seeds in [-span, span]^3, runs Newton's
    method on the cyclic system from each seed, and collects the
    distinct converged roots (rounded to 1e-9).  Raises ValueError for
    ``grid < 2`` or a span that is not a positive finite number.
    """
    v, ok = _constant_frame_newton(grid, span)
    return {tuple(root) for root in np.round(v[ok], 9) + 0.0}


def _constant_frame_newton(grid: int, span: float):
    """Final Newton iterate (grid^3, 3) and converged flag of every seed.

    The live seeds step together.  Each step solves J x = f by Cramer's
    rule, x = (c12 f0 + c20 f1 + c01 f2) / det with c_ij = r_i x r_j for
    the Jacobian rows r_i and det = r0 . c12.  As in a loop over seeds, a
    seed converges at max|f| < 1e-12 and is dropped when det == 0, when
    its step is non-finite or above 1e3, or after 60 steps.
    """
    if grid < 2 or not 0.0 < span < np.inf:
        raise ValueError(f"need grid >= 2 and a positive finite span, got grid={grid}, span={span}")
    axis = np.linspace(-span, span, grid)
    v = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    ok = np.zeros(len(v), dtype=bool)
    live = np.arange(len(v))
    for _ in range(60):
        f = constant_frame_residual(v[live])
        done = np.max(np.abs(f), axis=1) < 1e-12
        ok[live[done]] = True
        live, f = live[~done], f[~done]
        a, b, c = (v[live] + 1).T
        r0, r1, r2 = (b, a, -2.0), (-2.0, c, b), (c, -2.0, a)
        c12, c20, c01 = cross_components(r1, r2), cross_components(r2, r0), cross_components(r0, r1)
        det = dot_components(r0, c12)
        f0, f1, f2 = f.T
        with np.errstate(divide="ignore", invalid="ignore"):  # det == 0 gives a NaN or inf step
            step = np.stack([(c12[k] * f0 + c20[k] * f1 + c01[k] * f2) / det for k in range(3)], axis=-1)
        keep = np.max(np.abs(step), axis=1) <= 1e3  # False for a NaN or inf step
        live, step = live[keep], step[keep]
        v[live] -= step
    return v, ok


# ---------------------------------------------------------------------------
# Hopf reduction of e_1-invariant endomorphism fields
# ---------------------------------------------------------------------------

@dataclass
class HopfReducedData:
    """An e_1-invariant symmetric field split as f xi@xi + v@xi + xi@v + B.

    The components are kept upstairs as invariant fields on S^3: f the
    (1,1) coefficient, v the (e_2, e_3) part of the first column, B the
    lower 2x2 block.  They descend to the Hopf base S^2(1/2).
    """

    f: ScalarField
    v: tuple  # two ScalarFields (coefficients along e_2, e_3)
    B: tuple  # 2x2 nested tuple of ScalarFields, symmetric

    def __post_init__(self):
        if not _same_entry(_coerce_entry(self.B[1][0]), _coerce_entry(self.B[0][1])):
            raise ValueError("B[1][0] differs from B[0][1]: B must be symmetric")


def hopf_reduce(A: SymEnd3Field) -> HopfReducedData:
    """Split an e_1-invariant field into its Hopf-base data (f, v, B).

    Raises if the tensor Lie derivative L_{e_1} A visibly fails to
    vanish on 24 points of seed 321 (the reduction is only meaningful for
    e_1-invariant fields).  Note the left-frame *coefficients* of an
    invariant field need not be e_1-constant: the frame itself rotates
    under the flow, only f = <A e_1, e_1> is.
    """
    if A.chirality is not Chirality.LEFT:
        raise ValueError("hopf reduction is taken with respect to the left field e_1")
    worst = float(np.max(np.abs(lie_derivative_endo(A, VectorField3.frame_vector(1), random_points(24, seed=321)))))
    if worst > 1e-8:
        raise ValueError(f"field is not e_1-invariant (max |L_e1 A| = {worst:.3e})")
    f = A.entries[0][0]
    v = (A.entries[0][1], A.entries[0][2])
    B = ((A.entries[1][1], A.entries[1][2]), (A.entries[1][2], A.entries[2][2]))
    return HopfReducedData(f=f, v=v, B=B)


def hopf_reduction_residual(h: HopfReducedData, points) -> np.ndarray:
    """Magnitudes of the four reduced equations at each point: shape (...,4).

    Equations (entrywise max magnitude per equation):
      1. (B+1) J v - df
      2. (f-1) J (B+1) - nabla-bar v - v (x) Jv     [v (x) w : X -> g(v,X) w]
      3. 2(1+f) - det(B+1) - d*(Jv)
      4. delta-bar(B J) - J (B+3) J v

    J e_2 = e_3, J e_3 = -e_2 (J X = -nabla_X xi), so Jv = (-v_3, v_2).  f, v,
    B and their e_2, e_3 derivatives come from one jet of the left-frame
    field they assemble (B is read from its upper triangle).  Base
    covariant derivatives of basic fields are horizontal projections of
    round S^3 ones (Riemannian submersion), taken of v, Jv and B J extended
    by zero on xi, where Gamma_2 and Gamma_3 have no horizontal part: they
    are the frame derivatives of the components.  Each sum is written out
    and runs left to right, as the component helpers of `tensor` do.
    """
    A = SymEnd3Field(
        [[h.f, h.v[0], h.v[1]], [h.v[0], h.B[0][0], h.B[0][1]], [h.v[1], h.B[0][1], h.B[1][1]]],
        Chirality.LEFT,
    )
    m, _, d2, d3 = A.jet_components(points)
    f, v2, v3, b22, b23, b33 = m[0], m[1], m[2], m[4], m[5], m[8]
    p22, p33 = b22 + 1.0, b33 + 1.0  # B + 1
    fm1 = f - 1.0
    # the components of equations 1-4 (v2, v3 and b22, b23, b33 along e_2, e_3), some
    # negated: only their magnitudes are returned
    r1 = ((b23 * v2 - p22 * v3) - d2[0], (p33 * v2 - b23 * v3) - d3[0])
    r2 = (
        (fm1 * b23 + d2[1]) - v3 * v2,
        (fm1 * p33 + d3[1]) - v3 * v3,
        (fm1 * p22 - d2[2]) - v2 * v2,
        (fm1 * b23 - d3[2]) - v2 * v3,
    )
    r3 = (2.0 * (1.0 + f) - (p22 * p33 - b23 * b23)) + (d3[1] - d2[2])  # d*(Jv) = -div(Jv)
    jb3 = ((b33 + 3.0) * v2 - b23 * v3, (b22 + 3.0) * v3 - b23 * v2)  # -J (B+3) J v
    r4 = ((d3[4] - d2[5]) + jb3[0], (d3[5] - d2[8]) + jb3[1])  # delta-bar(BJ) = (e_3 b22 - e_2 b23, e_3 b23 - e_2 b33)
    a = [np.abs(r) for r in (*r1, *r2, r3, *r4)]
    r2max = np.maximum(np.maximum(a[2], a[3]), np.maximum(a[4], a[5]))
    return np.stack([np.maximum(a[0], a[1]), r2max, a[6], np.maximum(a[7], a[8])], axis=-1)


def special_case_residual(f: ScalarField, B, points) -> np.ndarray:
    """The v = 0 system: returns magnitudes of its three equations.

      1. (f-1) J (B+1)        (as an endomorphism; entrywise max)
      2. 2(1+f) - det(B+1)
      3. delta-bar(B J)
    """
    if not isinstance(f, ScalarField):
        f = ScalarField.constant(float(f))
    if isinstance(B, np.ndarray) or (
        isinstance(B, (list, tuple)) and np.isscalar(B[0][0])
    ):
        Bm = np.asarray(B, dtype=float)
        if not np.array_equal(Bm, Bm.T):
            raise ValueError("B must be symmetric")
        B_fields = tuple(
            tuple(ScalarField.constant(float(Bm[i, j])) for j in range(2)) for i in range(2)
        )
    else:
        B_fields = tuple(tuple(B[i][j] for j in range(2)) for i in range(2))
    zero = ScalarField.constant(0.0)
    h = HopfReducedData(f=f, v=(zero, zero), B=B_fields)
    res = hopf_reduction_residual(h, points)
    # with v = 0 equations 1 and 4 of the full system reduce to 0 = 0 and
    # delta-bar(BJ) = 0; the three meaningful residuals are (2), (3), (4)
    return res[..., (1, 2, 3)]


# ---------------------------------------------------------------------------
# unit 2-sphere calculus
# ---------------------------------------------------------------------------


def random_s2_points(n: int, seed: int = 0) -> np.ndarray:
    """Seeded uniform points on the unit S^2 in R^3, shape (n,3)."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# The kernels below hold a vector as a 3-tuple and a matrix as a row-major
# 9-tuple of components (Python floats for one point, arrays of the batch
# shape otherwise, told apart only by `_split` and `_join`).  They use the
# component helpers of `tensor` and sqrt, which round the same on floats and
# on arrays: a point has the same bits alone, in any batch and under any
# SIMD or BLAS kernel.


def _split(a, k: int = 1) -> list:
    """The components on the last k axes of a, nested k deep."""
    if a.ndim == k:
        return a.tolist()
    m = a.ndim - k  # the first of the last k axes, moved to the front
    return [_split(b, k - 1) if k > 1 else b for b in a.transpose(m, *range(m), *range(m + 1, a.ndim))]


def _join(components, k: int = 1) -> np.ndarray:
    """Components nested k deep back into an array, on its last k axes."""
    a = np.array(components)
    return a if a.ndim == k else a.transpose(*range(k, a.ndim), *range(k))


def _matrices(a, k: int = 1) -> list:
    """The 9-tuples of the (..., 3, 3) matrices in a, nested k deep."""
    return _split(a.reshape(a.shape[:-2] + (9,)), k)


def _add3(a, b, c):
    return tuple(x + y + z for x, y, z in zip(a, b, c))


def _normalize(p):
    d = dot_components(p, p)
    one = isinstance(d, float)
    if not (d if one else d.all()):  # a zero point has no direction; NaN passes and propagates
        raise ValueError("S² point must be nonzero")
    n = math.sqrt(d) if one else np.sqrt(d)  # both round correctly
    return (p[0] / n, p[1] / n, p[2] / n)


def _projector(q):
    """P = I - q q^T; an off-diagonal entry is 0.0 - q_i q_j, so a zero product gives +0.0, not -0.0."""
    q0, q1, q2 = q
    return (
        1.0 - q0 * q0, 0.0 - q0 * q1, 0.0 - q0 * q2,
        0.0 - q1 * q0, 1.0 - q1 * q1, 0.0 - q1 * q2,
        0.0 - q2 * q0, 0.0 - q2 * q1, 1.0 - q2 * q2,
    )  # fmt: skip


def _dprojector(x, p):
    """D_x P = -x p^T - p x^T, entry ij as -x_i p_j - p_i x_j."""
    x0, x1, x2 = x
    p0, p1, p2 = p
    return (
        -x0 * p0 - p0 * x0, -x0 * p1 - p0 * x1, -x0 * p2 - p0 * x2,
        -x1 * p0 - p1 * x0, -x1 * p1 - p1 * x1, -x1 * p2 - p1 * x2,
        -x2 * p0 - p2 * x0, -x2 * p1 - p2 * x1, -x2 * p2 - p2 * x2,
    )  # fmt: skip


def _project(q, m):
    """P M P at q."""
    proj = _projector(q)
    return matmul_components(proj, m, proj)


def _frame(p) -> tuple:
    """(X, JX), P = I - p p^T and D_x P = -x p^T - p x^T along X and JX: X is
    p x e_k normalized, for the first k of least |p_k| (as np.argmin finds it)."""
    a0, a1, a2 = abs(p[0]), abs(p[1]), abs(p[2])
    e_k = ((a0 <= a1) & (a0 <= a2), (a1 < a0) & (a1 <= a2), (a2 < a0) & (a2 < a1))
    x = _normalize(cross_components(p, e_k))
    frame = (x, cross_components(p, x))
    proj = _projector(p)
    dprojs = [_dprojector(f, p) for f in frame]
    return frame, proj, dprojs


def tangent_basis(p) -> tuple:
    """A deterministic orthonormal tangent pair (X, JX) at p, JX = p x X."""
    return tuple(_join(v) for v in _frame(_split(np.asarray(p, dtype=float)))[0])


def _exact_local(proj, dprojs, n, M, Mn, dMs) -> tuple:
    """Tangential value at p and its derivatives along the frame, from P(p)
    and D_x P, M at p and at n = normalize(p), and D_x M.

    d/dt [P M P](c(t)) = (D_x P) M P + P (D_x M) P + P M (D_x P); the
    curve t -> normalize(p + t x) has velocity x at t = 0 for tangent x.
    """
    pm = matmul_components(proj, M)
    derivs = [
        _add3(matmul_components(d, M, proj), matmul_components(proj, dM, proj), matmul_components(pm, d))
        for d, dM in zip(dprojs, dMs)
    ]
    return _project(n, Mn), derivs


def _fd_points(p, dirs, h) -> list:
    """normalize(p +- h x) for each x in dirs, then p, each normalized once more."""
    shifted = [_normalize([a + s * h * b for a, b in zip(p, x)]) for x in dirs for s in (1.0, -1.0)]
    return [_normalize(q) for q in shifted + [p]]


def _fd_local(values, h) -> tuple:
    """Value at p and central differences, from the values at `_fd_points`."""
    *shifted, at_p = values
    return at_p, [tuple((a - b) / (2.0 * h) for a, b in zip(u, v)) for u, v in zip(shifted[::2], shifted[1::2])]


class S2EndField:
    """Endomorphism field on the unit S^2, stored ambiently.

    The value at p is P(p) M(p) P(p) with P = I - p p^T, so it
    annihilates the normal and maps into the tangent plane.  M is a 3x3
    array of polynomials (exact mode) or a callable p -> (...,3,3)
    (finite-difference mode, projected ambient central differences of
    step fd_step along normalized curves).  Exact mode evaluates its 9
    entries and 27 gradient entries with one `polynomial.evaluate` call
    per point batch.
    """

    def __init__(self, mats: "list | None" = None, func=None, fd_step: float = 1e-5):
        if (mats is None) == (func is None):
            raise ValueError("provide exactly one of mats / func")
        self.mats = mats
        self.func = func
        self.fd_step = _fd_step(fd_step)
        self._entries = None if mats is None else [e for row in mats for e in row]
        self._grads = None  # gradients of the polynomial entries, built on first use

    @classmethod
    def from_constant(cls, m) -> "S2EndField":
        m = np.asarray(m, dtype=float)
        return cls(mats=[[Poly.constant(m[i, j], 3) for j in range(3)] for i in range(3)])

    @classmethod
    def from_polynomial_matrix(cls, mats) -> "S2EndField":
        return cls(mats=[[mats[i][j] for j in range(3)] for i in range(3)])

    def raw(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.mats is None:
            return np.asarray(self.func(p), dtype=float)
        return _join(evaluate(self._entries, p)).reshape(p.shape[:-1] + (3, 3))

    def value(self, p) -> np.ndarray:
        """Tangential value P M P at p (p need not be exactly unit)."""
        n = _normalize(_split(np.asarray(p, dtype=float)))
        out = _join(_project(n, _matrices(self.raw(_join(n)))))
        return out.reshape(out.shape[:-1] + (3, 3))

    def _jet(self, p, n, dirs) -> tuple:
        """M at p, M at n = normalize(p) and D_x M at p for x in dirs (exact mode)."""
        if self._grads is None:
            self._grads = [g for e in self._entries for g in e.gradient()]
        vals = np.array(evaluate(self._entries + self._grads, _join([p, n], 2)))
        at_p, at_n = _split(vals.transpose(*range(1, vals.ndim), 0), 2)
        dMs = [tuple(dot_components(at_p[9 + 3 * e : 12 + 3 * e], x) for e in range(9)) for x in dirs]
        return at_p[:9], at_n[:9], dMs

    def _local(self, p, frame, proj, dprojs) -> tuple:
        """Tangential value at p and its ambient derivatives along the frame."""
        if self.mats is not None:
            n = _normalize(p)
            return _exact_local(proj, dprojs, n, *self._jet(p, n, frame))
        q = _fd_points(p, frame, self.fd_step)
        return _fd_local([_project(a, m) for a, m in zip(q, _matrices(self.raw(_join(q, 2)), 2))], self.fd_step)


def _covariant_endo(proj, dproj, y, dU, Uv):
    """(nabla-bar_x U)(y) at p, for tangent vectors x, y, with dproj = D_x P.

    dU is the ambient derivative of U's tangential value along x and Uv
    that value.  y is extended by projecting the constant ambient
    vector: for that extension U(y-tilde)(c) = value(c) y (the
    tangential value already absorbs the projector), while
    nabla-bar_x y-tilde = P (D_x P) y.
    """
    a = matvec_components(proj, matvec_components(dU, y))
    b = matvec_components(Uv, matvec_components(proj, matvec_components(dproj, y)))
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _delta_endo_s2(proj, dprojs, frame, Uv, derivs):
    """delta-bar U = -sum_i (nabla-bar_{f_i} U)(f_i), ambient tangent vector."""
    a, b = (_covariant_endo(proj, dproj, f, dU, Uv) for dproj, f, dU in zip(dprojs, frame, derivs))
    return (-(a[0] + b[0]), -(a[1] + b[1]), -(a[2] + b[2]))


def s2_rigidity_residual(U: S2EndField, p) -> tuple:
    """(det U - 1, delta-bar U) at p; both vanish for U = +-Id.

    The divergence is returned as components in the (X, JX) basis of
    `tangent_basis(p)`.  For p of shape (..., 3) the residuals have
    shapes (...) and (..., 2); a single point gives (float, (2,) array).
    """
    p = _split(np.asarray(p, dtype=float))
    frame, proj, dprojs = _frame(p)
    Uv, derivs = U._local(p, frame, proj, dprojs)
    delta = _delta_endo_s2(proj, dprojs, frame, Uv, derivs)
    (x, jx), (ux, ujx) = frame, [matvec_components(Uv, v) for v in frame]
    det = dot_components(x, ux) * dot_components(jx, ujx) - dot_components(x, ujx) * dot_components(jx, ux)
    return det - 1.0, _join([dot_components(delta, v) for v in frame])


def codazzi_divfree_equiv(S: S2EndField, p) -> tuple:
    """Both sides of the surface identity  J d^bar S(X, JX) = -delta-bar(J S J).

    Returns (lhs, rhs) as ambient tangent vectors, shape (..., 3); they
    agree for every endomorphism field S, which is the pointwise content
    of the Codazzi <-> divergence-free equivalence.
    """
    p = _split(np.asarray(p, dtype=float))
    frame, proj, dprojs = _frame(p)
    J = hat_components(p)  # the complex structure v -> p x v
    if S.mats is not None:
        # J S J = hat(p) M hat(p), differentiated by the product rule
        n = _normalize(p)
        M, Mn, dMs = S._jet(p, n, frame)
        jm, jn = matmul_components(J, M), hat_components(n)
        dJSJ = [
            _add3(matmul_components(h, M, J), matmul_components(J, dM, J), matmul_components(jm, h))
            for h, dM in zip(map(hat_components, frame), dMs)
        ]
        Sv, (dx, djx) = _exact_local(proj, dprojs, n, M, Mn, dMs)
        JSJ = _exact_local(proj, dprojs, n, matmul_components(jm, J), matmul_components(jn, Mn, jn), dJSJ)
    else:
        # S at the FD points q and at their renormalisations, for J S J, in one call of S.func
        q = _fd_points(p, frame, S.fd_step)
        nq = [_normalize(x) for x in q]
        raw_q, raw_nq = _matrices(S.raw(_join([q, nq], 3)), 3)
        Sv, (dx, djx) = _fd_local([_project(a, m) for a, m in zip(q, raw_q)], S.fd_step)
        hq = [hat_components(a) for a in q]  # J at each FD point
        jsj = [_project(a, matmul_components(h, _project(b, m), h)) for a, b, m, h in zip(q, nq, raw_nq, hq)]
        JSJ = _fd_local(jsj, S.fd_step)
    (x, jx), (dpx, dpjx) = frame, dprojs
    a, b = _covariant_endo(proj, dpx, jx, dx, Sv), _covariant_endo(proj, dpjx, x, djx, Sv)
    rhs = _delta_endo_s2(proj, dprojs, frame, *JSJ)
    return _join(matvec_components(J, (a[0] - b[0], a[1] - b[1], a[2] - b[2]))), _join([-c for c in rhs])
