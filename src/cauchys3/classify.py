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

from dataclasses import dataclass
from itertools import product

import numpy as np

from .cauchy import SymEnd3Field, VectorField3, _coerce_entry, _same_entry
from .frame import Chirality, ScalarField, _as_array
from .polynomial import Poly, evaluate
from .tensor import cov_matrix, cov_vector, hat

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
    "s2_identity_field",
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

    The live seeds step together, one batched solve per iteration.  As in
    a loop over seeds, a seed converges at max|f| < 1e-12 and is dropped
    when its own solve raises LinAlgError, when its step is non-finite or
    above 1e3, or after 60 steps.
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
        m2 = np.full(len(live), -2.0)
        jac = np.stack([b, a, m2, m2, c, b, c, m2, a], axis=-1).reshape(-1, 3, 3)
        step = _solve_rows(jac, f)
        keep = np.max(np.abs(step), axis=1) <= 1e3  # False for a NaN or inf step
        live, step = live[keep], step[keep]
        v[live] -= step
    return v, ok


def _solve_rows(jac, f):
    """Solve jac[i] x = f[i] for every row; NaN where that row's own solve raises.

    A batched solve raises LinAlgError when any of its matrices is exactly
    singular, so a failing batch is halved until each such row stands alone.
    """
    try:
        return np.linalg.solve(jac, f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(f) == 1:
            return np.full_like(f, np.nan)
        h = len(f) // 2
        return np.concatenate([_solve_rows(jac[:h], f[:h]), _solve_rows(jac[h:], f[h:])])


# ---------------------------------------------------------------------------
# Hopf reduction of e_1-invariant endomorphism fields
# ---------------------------------------------------------------------------

# J on xi-perp for xi = e_1:  J e_2 = e_3, J e_3 = -e_2 (J X = -nabla_X xi)
_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
_I2 = np.eye(2)


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


def hopf_reduce(A: SymEnd3Field, check_invariance: bool = True, seed: int = 321) -> HopfReducedData:
    """Split an e_1-invariant field into its Hopf-base data (f, v, B).

    Raises if the tensor Lie derivative L_{e_1} A visibly fails to
    vanish on a seeded sample (the reduction is only meaningful for
    e_1-invariant fields).  Note the left-frame *coefficients* of an
    invariant field need not be e_1-constant: the frame itself rotates
    under the flow, only f = <A e_1, e_1> is.
    """
    if A.chirality is not Chirality.LEFT:
        raise ValueError("hopf reduction is taken with respect to the left field e_1")
    if check_invariance:
        from .deformation import lie_derivative_endo
        from .frame import random_points

        pts = random_points(24, seed=seed)
        worst = float(np.max(np.abs(lie_derivative_endo(A, VectorField3.frame_vector(1), pts))))
        if worst > 1e-8:
            raise ValueError(f"field is not e_1-invariant (max |L_e1 A| = {worst:.3e})")
    f = A.entries[0][0]
    v = (A.entries[0][1], A.entries[0][2])
    B = ((A.entries[1][1], A.entries[1][2]), (A.entries[1][2], A.entries[2][2]))
    return HopfReducedData(f=f, v=v, B=B)


def _twist(m) -> np.ndarray:
    """m J on the last axis, for J e_2 = e_3, J e_3 = -e_2: columns (m_1, -m_0)."""
    return np.stack([m[..., 1], -m[..., 0]], axis=-1)


def _lift(x, rank: int) -> np.ndarray:
    """A vector (rank 1) or endomorphism (rank 2) of xi-perp, extended by zero on xi."""
    return np.pad(x, [(0, 0)] * (x.ndim - rank) + [(1, 0)] * rank)


def hopf_reduction_residual(h: HopfReducedData, points) -> np.ndarray:
    """Magnitudes of the four reduced equations at each point: shape (...,4).

    Equations (entrywise max magnitude per equation):
      1. (B+1) J v - df
      2. (f-1) J (B+1) - nabla-bar v - v (x) Jv     [v (x) w : X -> g(v,X) w]
      3. 2(1+f) - det(B+1) - d*(Jv)
      4. delta-bar(B J) - J (B+3) J v

    f, v, B and their e_2, e_3 derivatives come from one jet of the
    left-frame field they assemble (B is read from its upper triangle).
    Base covariant derivatives of the basic fields are the horizontal
    projections of round S^3 derivatives (Riemannian submersion), with
    v and B J extended by zero on xi.
    """
    pts = _as_array(points)
    shape = pts.shape[:-1]
    A = SymEnd3Field(
        [[h.f, h.v[0], h.v[1]], [h.v[0], h.B[0][0], h.B[0][1]], [h.v[1], h.B[0][1], h.B[1][1]]],
        Chirality.LEFT,
    )
    M, (_, d2, d3) = A.jet(pts)
    f = M[..., 0, 0]
    v = M[..., 0, 1:]
    B = M[..., 1:, 1:]
    Bp1 = B + _I2
    jv = np.einsum("ij,...j->...i", _J2, v)

    # v, Jv = -v3 e2 + v2 e3 and B J extended by zero on xi, differentiated along e_2, e_3
    vh, jvh, bjh = _lift(v, 1), _lift(-_twist(v), 1), _lift(_twist(B), 2)
    Dv = np.zeros(shape + (2, 2))  # Dv[..., j, i] = <nabla-bar_{e_{i+2}} v, e_{j+2}>
    div_jv = np.zeros(shape)
    delta_bj = np.zeros(shape + (2,))  # -sum_i (nabla-bar_{e_i} BJ)(e_i)
    for i, dM in enumerate((d2, d3)):
        dv = dM[..., 0, 1:]
        Dv[..., :, i] = cov_vector(vh, _lift(dv, 1), i + 2)[..., 1:]
        div_jv = div_jv + cov_vector(jvh, _lift(-_twist(dv), 1), i + 2)[..., i + 1]
        delta_bj = delta_bj - cov_matrix(bjh, _lift(_twist(dM[..., 1:, 1:]), 2), i + 2)[..., 1:, i + 1]

    df = np.stack([d2[..., 0, 0], d3[..., 0, 0]], axis=-1)
    r1 = np.einsum("...ij,...j->...i", Bp1, jv) - df
    outer = np.einsum("...i,...j->...ij", jv, v)  # (v ox Jv)(X) = g(v,X) Jv
    r2 = (f - 1.0)[..., None, None] * np.einsum("ij,...jk->...ik", _J2, Bp1) - Dv - outer
    det = Bp1[..., 0, 0] * Bp1[..., 1, 1] - Bp1[..., 0, 1] * Bp1[..., 1, 0]
    r3 = 2.0 * (1.0 + f) - det + div_jv  # d*(Jv) = -div(Jv)
    rhs4 = np.einsum("ij,...j->...i", _J2, np.einsum("...ij,...j->...i", B + 3.0 * _I2, jv))
    r4 = delta_bj - rhs4

    return np.stack(
        [
            np.max(np.abs(r1), axis=-1),
            np.max(np.abs(r2), axis=(-2, -1)),
            np.abs(r3),
            np.max(np.abs(r4), axis=-1),
        ],
        axis=-1,
    )


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


# Every function below takes points of shape (..., 3) and gives each
# point, at any batch shape, the bits it gives alone.  Each product keeps
# the operand shapes of its one-point form, so a stacked matmul reaches
# the same BLAS kernel: (3,3)@(3,1) is gemv, (1,3)@(3,3) gemv, (1,3)@(3,1)
# dot and (3,3)@(3,3) gemm.


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _mv(A, v):
    return (A @ v[..., None])[..., 0]


def _dot(a, b):
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cross(a, b):
    """a x b by np.cross's products and differences, so the same bits;
    np.cross's own overhead is 3x this on one point (38 against 13 us)."""
    i, j = [1, 2, 0], [2, 0, 1]
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


def tangent_basis(p) -> tuple:
    """A deterministic orthonormal tangent pair (X, JX) at p, JX = p x X."""
    p = np.asarray(p, dtype=float)
    x = _cross(p, np.eye(3)[np.argmin(np.abs(p), axis=-1)])
    x = x / np.sqrt(_dot(x, x))[..., None]
    return x, _cross(p, x)


def _normalize(p):
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


def _project(p, M):
    """P M P with P = I - p p^T."""
    proj = np.eye(3) - _outer(p, p)
    return proj @ M @ proj


def _directional(p, x, M, dM) -> np.ndarray:
    """Ambient derivative of P M P along x, given M and D_x M at p.

    d/dt [P M P](c(t)) = (D_x P) M P + P (D_x M) P + P M (D_x P); the
    curve t -> normalize(p + t x) has velocity x at t = 0 for tangent x.
    """
    proj = np.eye(3) - _outer(p, p)
    dproj = -_outer(x, p) - _outer(p, x)
    return dproj @ M @ proj + proj @ dM @ proj + proj @ M @ dproj


def _exact_local(p, dirs, M, Mn, dMs) -> tuple:
    """Tangential value at p and its derivatives along dirs, from M at p,
    M at normalize(p) and the derivatives D_x M along dirs."""
    return _project(_normalize(p), Mn), [_directional(p, x, M, dM) for x, dM in zip(dirs, dMs)]


def _fd_points(p, dirs, h) -> np.ndarray:
    """normalize(p +- h x) for each x in dirs, then p: (..., 2 len(dirs) + 1, 3)."""
    shifted = [_normalize(q) for x in dirs for q in (p + h * x, p - h * x)]
    return np.stack(shifted + [p], axis=-2)


def _fd_local(values, h) -> tuple:
    """Value at p and central differences, from the values at `_fd_points`."""
    steps = range(0, values.shape[-3] - 1, 2)
    diffs = [(values[..., k, :, :] - values[..., k + 1, :, :]) / (2.0 * h) for k in steps]
    return values[..., -1, :, :], diffs


def _evaluate(polys, p) -> np.ndarray:
    """polys at p (..., 3) as (..., len(polys)).  Each point is a batch of
    one, so it reduces its terms as a lone point does (see `polynomial`)."""
    return np.stack(evaluate(polys, p[..., None, :]), axis=-1)[..., 0, :]


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
        self.fd_step = float(fd_step)
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
        return _evaluate(self._entries, p).reshape(p.shape[:-1] + (3, 3))

    def value(self, p) -> np.ndarray:
        """Tangential value P M P at p (p need not be exactly unit)."""
        p = _normalize(np.asarray(p, dtype=float))
        return _project(p, self.raw(p))

    def _jet(self, p, dirs) -> tuple:
        """M at p, M at normalize(p) and D_x M at p for x in dirs (exact mode)."""
        if self._grads is None:
            self._grads = [g for e in self._entries for g in e.gradient()]
        vals = _evaluate(self._entries + self._grads, np.stack([p, _normalize(p)], axis=-2))
        M = vals[..., :9].reshape(p.shape[:-1] + (2, 3, 3))
        G = vals[..., 0, 9:].reshape(p.shape[:-1] + (3, 3, 3))
        # ((0 + G_0 x_0) + G_1 x_1) + G_2 x_2, the order of the one-point sum
        dMs = [sum(G[..., m] * x[..., m, None, None] for m in range(3)) for x in dirs]
        return M[..., 0, :, :], M[..., 1, :, :], dMs

    def _local(self, p, dirs) -> tuple:
        """Tangential value at p and its ambient derivatives along each of dirs."""
        if self.mats is not None:
            return _exact_local(p, dirs, *self._jet(p, dirs))
        return _fd_local(self.value(_fd_points(p, dirs, self.fd_step)), self.fd_step)


def _covariant_endo(p, x, y, dU, Uv) -> np.ndarray:
    """(nabla-bar_x U)(y) at p, for tangent vectors x, y.

    dU is the ambient derivative of U's tangential value along x and Uv
    that value.  y is extended by projecting the constant ambient
    vector: for that extension U(y-tilde)(c) = value(c) y (the
    tangential value already absorbs the projector), while
    nabla-bar_x y-tilde = P (D_x P) y.
    """
    proj = np.eye(3) - _outer(p, p)
    dproj = -_outer(x, p) - _outer(p, x)
    return _mv(proj, _mv(dU, y)) - _mv(Uv, _mv(proj, _mv(dproj, y)))


def _delta_endo_s2(p, frame, Uv, derivs) -> np.ndarray:
    """delta-bar U = -sum_i (nabla-bar_{f_i} U)(f_i), ambient tangent vector."""
    (x, jx), (dx, djx) = frame, derivs
    return -(_covariant_endo(p, x, x, dx, Uv) + _covariant_endo(p, jx, jx, djx, Uv))


def _det_tangent(Uv, x, jx) -> np.ndarray:
    m = np.stack([(u[..., None, :] @ Uv) @ v[..., :, None] for u in (x, jx) for v in (x, jx)], axis=-1)
    return np.linalg.det(m.reshape(m.shape[:-3] + (2, 2)))


def s2_identity_field() -> S2EndField:
    return S2EndField.from_constant(np.eye(3))


def s2_rigidity_residual(U: S2EndField, p) -> tuple:
    """(det U - 1, delta-bar U) at p; both vanish for U = +-Id.

    The divergence is returned as components in the (X, JX) basis of
    `tangent_basis(p)`.  For p of shape (..., 3) the residuals have
    shapes (...) and (..., 2); a single point gives (float, (2,) array).
    """
    p = np.asarray(p, dtype=float)
    frame = tangent_basis(p)
    Uv, derivs = U._local(p, frame)
    delta = _delta_endo_s2(p, frame, Uv, derivs)
    det = _det_tangent(Uv, *frame) - 1.0
    return (float(det) if p.ndim == 1 else det), np.stack([_dot(delta, v) for v in frame], axis=-1)


def codazzi_divfree_equiv(S: S2EndField, p) -> tuple:
    """Both sides of the surface identity  J d^bar S(X, JX) = -delta-bar(J S J).

    Returns (lhs, rhs) as ambient tangent vectors, shape (..., 3); they
    agree for every endomorphism field S, which is the pointwise content
    of the Codazzi <-> divergence-free equivalence.
    """
    p = np.asarray(p, dtype=float)
    frame = tangent_basis(p)
    x, jx = frame
    J = hat(p)  # the complex structure v -> p x v
    if S.mats is not None:
        # J S J = hat(p) M hat(p), differentiated by the product rule
        M, Mn, dMs = S._jet(p, frame)
        Jn = hat(_normalize(p))
        dJSJ = [hat(v) @ M @ J + J @ dM @ J + J @ M @ hat(v) for v, dM in zip(frame, dMs)]
        Sv, (dx, djx) = _exact_local(p, frame, M, Mn, dMs)
        JSJ = _exact_local(p, frame, J @ M @ J, Jn @ Mn @ Jn, dJSJ)
    else:
        # S at the shifted points and at their renormalisations, where
        # J S J is sampled, in one call of S.func
        pts = _fd_points(p, frame, S.fd_step)
        q = _normalize(pts)
        vals = S.value(np.stack([pts, q], axis=-3))
        Sv, (dx, djx) = _fd_local(vals[..., 0, :, :, :], S.fd_step)
        JSJv = _project(q, np.einsum("...ij,...jk,...kl->...il", hat(q), vals[..., 1, :, :, :], hat(q)))
        JSJ = _fd_local(JSJv, S.fd_step)
    d_codazzi = _covariant_endo(p, x, jx, dx, Sv) - _covariant_endo(p, jx, x, djx, Sv)
    return _mv(J, d_codazzi), -_delta_endo_s2(p, frame, *JSJ)
