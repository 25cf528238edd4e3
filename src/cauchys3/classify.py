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

from .cauchy import SymEnd3Field, _coerce_entry, _same_entry
from .frame import Chirality, ScalarField, _as_array
from .polynomial import Poly
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
    """Cyclic residuals (a+1)(b+1) - 2(c+1), (b+1)(c+1) - 2(a+1), (a+1)(c+1) - 2(b+1)."""
    a, b, c = (float(x) for x in triple)
    return np.array(
        [
            (a + 1) * (b + 1) - 2 * (c + 1),
            (b + 1) * (c + 1) - 2 * (a + 1),
            (a + 1) * (c + 1) - 2 * (b + 1),
        ]
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

    Scans a coarse grid in [-span, span]^3, runs Newton's method on the
    cyclic system from each seed, and collects the distinct converged
    roots (rounded to 1e-9).
    """

    def F(v):
        return constant_frame_residual(v)

    def J(v):
        a, b, c = v
        return np.array(
            [
                [b + 1, a + 1, -2.0],
                [-2.0, c + 1, b + 1],
                [c + 1, -2.0, a + 1],
            ]
        )

    roots = set()
    axis = np.linspace(-span, span, grid)
    for seed in product(axis, repeat=3):
        v = np.array(seed, dtype=float)
        ok = False
        for _ in range(60):
            f = F(v)
            if np.max(np.abs(f)) < 1e-12:
                ok = True
                break
            try:
                step = np.linalg.solve(J(v), f)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)) or np.max(np.abs(step)) > 1e3:
                break
            v = v - step
        if ok:
            roots.add(tuple(np.round(v, 9) + 0.0))
    return roots


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

    def v_values(self, pts):
        return np.stack([c(pts) for c in self.v], axis=-1)


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
        xi = _e1_field()
        worst = float(np.max(np.abs(lie_derivative_endo(A, xi, pts))))
        if worst > 1e-8:
            raise ValueError(f"field is not e_1-invariant (max |L_e1 A| = {worst:.3e})")
    f = A.entries[0][0]
    v = (A.entries[0][1], A.entries[0][2])
    B = ((A.entries[1][1], A.entries[1][2]), (A.entries[1][2], A.entries[2][2]))
    return HopfReducedData(f=f, v=v, B=B)


def _e1_field():
    from .cauchy import VectorField3

    return VectorField3([1.0, 0.0, 0.0], Chirality.LEFT)


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


def tangent_basis(p) -> tuple:
    """A deterministic orthonormal tangent pair (X, JX) at p, JX = p x X."""
    p = np.asarray(p, dtype=float)
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(p)))] = 1.0
    x = np.cross(p, helper)
    x = x / np.linalg.norm(x)
    return x, np.cross(p, x)


def _normalize(p):
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


class S2EndField:
    """Endomorphism field on the unit S^2, stored ambiently.

    The value at p is P(p) M(p) P(p) with P = I - p p^T, so it
    annihilates the normal and maps into the tangent plane.  M is a 3x3
    array of polynomials (exact mode) or a callable p -> (...,3,3)
    (finite-difference mode, projected ambient central differences of
    step fd_step along normalized curves).
    """

    def __init__(self, mats: "list | None" = None, func=None, fd_step: float = 1e-5):
        if (mats is None) == (func is None):
            raise ValueError("provide exactly one of mats / func")
        self.mats = mats
        self.func = func
        self.fd_step = float(fd_step)
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
        if self.mats is not None:
            out = np.zeros(p.shape[:-1] + (3, 3))
            for i in range(3):
                for j in range(3):
                    out[..., i, j] = self.mats[i][j](p)
            return out
        return np.asarray(self.func(p), dtype=float)

    def value(self, p) -> np.ndarray:
        """Tangential value P M P at p (p need not be exactly unit)."""
        p = _normalize(np.asarray(p, dtype=float))
        proj = np.eye(3) - np.einsum("...i,...j->...ij", p, p)
        return proj @ self.raw(p) @ proj

    def _directional(self, p, x) -> np.ndarray:
        """Ambient directional derivative of the tangential value along x.

        Exact mode: gradient of the polynomial entries of P M P along
        the great-circle direction (the curve t -> normalize(p + t x)
        has velocity x at t = 0 for tangent x).  FD mode: central
        differences along that curve.
        """
        p = np.asarray(p, dtype=float)
        x = np.asarray(x, dtype=float)
        if self.mats is not None:
            # d/dt [P M P](c(t)) = (D_x P) M P + P (D_x M) P + P M (D_x P)
            proj = np.eye(3) - np.outer(p, p)
            dproj = -np.outer(x, p) - np.outer(p, x)
            M = self.raw(p)
            if self._grads is None:
                self._grads = [[entry.gradient() for entry in row] for row in self.mats]
            dM = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    g = self._grads[i][j]
                    dM[i, j] = sum(g[m](p) * x[m] for m in range(3))
            return dproj @ M @ proj + proj @ dM @ proj + proj @ M @ dproj
        h = self.fd_step
        plus = self.value(_normalize(p + h * x))
        minus = self.value(_normalize(p - h * x))
        return (plus - minus) / (2.0 * h)


def _covariant_endo(U: S2EndField, p, x, y) -> np.ndarray:
    """(nabla-bar_x U)(y) at p, for tangent vectors x, y.

    y is extended by projecting the constant ambient vector: for that
    extension U(y-tilde)(c) = value(c) y (the tangential value already
    absorbs the projector), while nabla-bar_x y-tilde = P (D_x P) y.
    """
    p = np.asarray(p, dtype=float)
    proj = np.eye(3) - np.outer(p, p)
    dproj = -np.outer(x, p) - np.outer(p, x)
    dU = U._directional(p, x)
    return proj @ (dU @ y) - U.value(p) @ (proj @ (dproj @ y))


def _delta_endo_s2(U: S2EndField, p) -> np.ndarray:
    """delta-bar U = -sum_i (nabla-bar_{f_i} U)(f_i), ambient tangent vector."""
    x, jx = tangent_basis(p)
    return -(_covariant_endo(U, p, x, x) + _covariant_endo(U, p, jx, jx))


def _det_tangent(U: S2EndField, p) -> float:
    x, jx = tangent_basis(p)
    Uv = U.value(p)
    m = np.array([[x @ Uv @ x, x @ Uv @ jx], [jx @ Uv @ x, jx @ Uv @ jx]])
    return float(np.linalg.det(m))


def s2_identity_field() -> S2EndField:
    return S2EndField.from_constant(np.eye(3))


def s2_rigidity_residual(U: S2EndField, p) -> tuple:
    """(det U - 1, delta-bar U) at p; both vanish for U = +-Id.

    The divergence is returned as components in the (X, JX) basis of
    `tangent_basis(p)`.
    """
    x, jx = tangent_basis(p)
    delta = _delta_endo_s2(U, p)
    return _det_tangent(U, p) - 1.0, np.array([delta @ x, delta @ jx])


def codazzi_divfree_equiv(S: S2EndField, p) -> tuple:
    """Both sides of the surface identity  J d^bar S(X, JX) = -delta-bar(J S J).

    Returns (lhs, rhs) as ambient tangent vectors; they agree for every
    endomorphism field S, which is the pointwise content of the
    Codazzi <-> divergence-free equivalence.
    """
    p = np.asarray(p, dtype=float)
    x, jx = tangent_basis(p)
    d_codazzi = _covariant_endo(S, p, x, jx) - _covariant_endo(S, p, jx, x)
    J = hat(p)  # the complex structure v -> p x v
    lhs = J @ d_codazzi

    if S.mats is not None:
        # JSJ entries are polynomials: hat(p) has linear entries
        px = Poly.coordinate(0, 3)
        py = Poly.coordinate(1, 3)
        pz = Poly.coordinate(2, 3)
        zero = Poly.constant(0.0, 3)
        Jp = [[zero, -pz, py], [pz, zero, -px], [-py, px, zero]]

        def matmul(A, B):
            return [
                [sum((A[i][k] * B[k][j] for k in range(3)), Poly.constant(0.0, 3)) for j in range(3)]
                for i in range(3)
            ]

        JSJ = S2EndField.from_polynomial_matrix(matmul(matmul(Jp, S.mats), Jp))
    else:
        JSJ = S2EndField(
            func=lambda q, S=S: np.einsum(
                "...ij,...jk,...kl->...il", hat(q), S.value(q), hat(q)
            ),
            fd_step=S.fd_step,
        )
    rhs = -_delta_endo_s2(JSJ, p)
    return lhs, rhs

