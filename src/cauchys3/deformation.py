"""The deformation space of the (1,-3,-3) solution on S^3.

The infinitesimal deformations of the constant left-invariant solution
A0 = diag(1,-3,-3) are driven by vector fields X = x^1 e_1 + x^2 e_2 +
x^3 e_3 whose first component lies in the eigenvalue-8 space V_8 of the
Berger Laplacian and whose other components are determined up to two
constants.  This module builds those fields, evaluates the relevant
Laplacians, computes Lie derivatives of endomorphism fields along
invariant directions, and forms nabla^{A0} X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy import SymEnd3Field, VectorField3
from .frame import Chirality, ScalarField, frame_jet, harmonic_quadratic
from .tensor import cov_components, cross_components, dot_components, stack_components, structure_constant

__all__ = [
    "A0",
    "A0_MATRIX",
    "LIE_E2_A0",
    "LIE_E3_A0",
    "DeformVector",
    "berger_laplacian",
    "round_laplacian",
    "lemma_derivative_checks",
    "deformation_field",
    "deformation_basis",
    "lie_derivative_endo",
    "nabla_A0_of_deformation",
    "deformation_report",
]

A0_MATRIX = np.diag([1.0, -3.0, -3.0])
_A0_COLUMNS = [A0_MATRIX[:, i].tolist() for i in range(3)]
A0 = SymEnd3Field.from_constant_matrix(A0_MATRIX, Chirality.LEFT)

# Lie derivatives of A0 along e_2 and e_3 (constant matrices)
LIE_E2_A0 = np.zeros((3, 3))
LIE_E2_A0[0, 2] = LIE_E2_A0[2, 0] = -8.0
LIE_E3_A0 = np.zeros((3, 3))
LIE_E3_A0[0, 1] = LIE_E3_A0[1, 0] = 8.0


def _laplacian(f: ScalarField, points, weights) -> np.ndarray:
    """-(w_1 e1 e1 + w_2 e2 e2 + w_3 e3 e3) f in the left frame."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[:-1])
    for k, w in zip((1, 2, 3), weights):
        second = f.frame_derivative(k, Chirality.LEFT).frame_derivative(k, Chirality.LEFT)
        out = out - w * second(pts)
    return out


def berger_laplacian(f: ScalarField, points) -> np.ndarray:
    """Delta_B f = -(3 e1 e1 + e2 e2 + e3 e3) f (left frame)."""
    return _laplacian(f, points, (3.0, 1.0, 1.0))


def round_laplacian(f: ScalarField, points) -> np.ndarray:
    """Delta f = -(e1 e1 + e2 e2 + e3 e3) f, the round-metric Laplacian."""
    # 1.0 * x is exact, so the unit weights keep the unweighted sum's bits
    return _laplacian(f, points, (1.0, 1.0, 1.0))


def lemma_derivative_checks(k: int, points) -> np.ndarray:
    """The four second-derivative identities of the V_8 quadratics.

    Returns the residuals (e2 e3 Q_k, e3 e2 Q_k, e2 e2 Q_k + 4 Q_k,
    e3 e3 Q_k + 4 Q_k), stacked along the last axis; all vanish on S^3.
    """
    q = harmonic_quadratic(k)
    qv = q(points)

    def dd(i, j):
        return q.frame_derivative(j, Chirality.LEFT).frame_derivative(i, Chirality.LEFT)(points)

    return np.stack(
        [dd(2, 3), dd(3, 2), dd(2, 2) + 4.0 * qv, dd(3, 3) + 4.0 * qv], axis=-1
    )


@dataclass(frozen=True)
class DeformVector:
    """Coordinates of a deformation: x^1 = sum p_k Q_k, plus constants c2, c3."""

    p: tuple
    c2: float = 0.0
    c3: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        if len(self.p) != 3:
            raise ValueError("p must have three components")


def deformation_field(d: DeformVector) -> VectorField3:
    """The solution field x^1 e1 + (-1/2 e3(x^1) + c2) e2 + (1/2 e2(x^1) + c3) e3."""
    x1 = ScalarField.constant(0.0)
    for pk, k in zip(d.p, (1, 2, 3)):
        if pk != 0.0:
            x1 = x1 + pk * harmonic_quadratic(k)
    x2 = (-0.5) * x1.frame_derivative(3, Chirality.LEFT) + ScalarField.constant(d.c2)
    x3 = 0.5 * x1.frame_derivative(2, Chirality.LEFT) + ScalarField.constant(d.c3)
    return VectorField3([x1, x2, x3], Chirality.LEFT)


def deformation_basis() -> list[DeformVector]:
    """The five canonical basis deformations (three V_8 modes, two constants)."""
    return [
        DeformVector((1.0, 0.0, 0.0)),
        DeformVector((0.0, 1.0, 0.0)),
        DeformVector((0.0, 0.0, 1.0)),
        DeformVector((0.0, 0.0, 0.0), c2=1.0),
        DeformVector((0.0, 0.0, 0.0), c3=1.0),
    ]


def lie_derivative_endo(A: SymEnd3Field, Z: VectorField3, points) -> np.ndarray:
    """(L_Z A)(X) = [Z, A(X)] - A([Z, X]) as a frame matrix field.

    Valid whenever Z is a Killing field (the invariant frame fields
    are); brackets are expanded through the structure constants and
    coefficient derivatives.
    """
    if A.chirality is not Z.chirality:
        raise ValueError("chirality mismatch")
    lam = structure_constant(A.chirality)
    m, *dm = A.jet_components(points)
    z, *dz = frame_jet(Z.components, points, Z.chirality)
    out = [None] * 9
    for col in range(3):
        w = m[col::3]  # A(e_col) coefficients
        # [Z, W] for coefficient fields: sum_k (z_k e_k(w_j) - w_k e_k(z_j)) e_j
        #                                + lam * cross(z, w)
        zw = cross_components(z, w)
        # A([Z, e_col]) with [Z, e_col] = -[e_col, Z]
        #   = -(sum_k e_col(z_j)) e_j - lam cross(e_col, z)
        ez = cross_components([float(i == col) for i in range(3)], z)
        bracket_ze = [-dz[col][j] - lam * ez[j] for j in range(3)]
        for j in range(3):
            br1 = dot_components(z, [d[3 * j + col] for d in dm]) - dot_components(w, [d[j] for d in dz])
            out[3 * j + col] = (br1 + lam * zw[j]) - dot_components(m[3 * j : 3 * j + 3], bracket_ze)
    return stack_components(out, 2)


def nabla_A0_of_deformation(d: DeformVector, points) -> np.ndarray:
    """The full frame matrix of nabla^{A0} X for the deformation field X.

    Entry (j, i) is <nabla^{A0}_{e_i} X, e_j>.  For solution fields the
    matrix is symmetric with zero diagonal, zero (2,3)-entry, and
    constant entries (1,2) = -2 c3, (1,3) = 2 c2.
    """
    return _nabla_A0(deformation_field(d), points)[1]


def _nabla_A0(X: VectorField3, pts) -> tuple:
    """The (..., 3) values of X and the (..., 3, 3) matrix of nabla^{A0} X, from one jet."""
    x, *dx = frame_jet(X.components, pts, X.chirality)
    cols = [cov_components(x, dx[i], i + 1, Chirality.LEFT, _A0_COLUMNS[i]) for i in range(3)]
    return stack_components(x), stack_components([c[j] for j in range(3) for c in cols], 2)


def deformation_report(points, tol: float = 1e-10) -> dict:
    """Dimensions and residual summary of the deformation computation.

    Samples the five basis fields at the given points; returns the rank
    of the sampled solution space (expected 5), the rank and span test
    of the image {nabla^{A0} X} against the Lie-derivative plane
    (expected 2), and the worst deviation of nabla^{A0}X from the
    frozen pairing -1/4 (c2 L_{e2}A0 + c3 L_{e3}A0).
    """
    basis = deformation_basis()
    rows = []
    images = []
    pairing_err = 0.0
    for d in basis:
        vals, img = _nabla_A0(deformation_field(d), points)
        rows.append(vals.reshape(-1))
        pred = -0.25 * (d.c2 * LIE_E2_A0 + d.c3 * LIE_E3_A0)
        pairing_err = max(pairing_err, float(np.max(np.abs(img - pred))))
        images.append(img.mean(axis=tuple(range(img.ndim - 2))).reshape(-1))
    sample_matrix = np.stack(rows)
    svals = np.linalg.svd(sample_matrix.T, compute_uv=False)  # tall: same singular values
    solution_rank = int(np.sum(svals > tol * svals[0]))

    image_matrix = np.stack(images)
    isv = np.linalg.svd(image_matrix, compute_uv=False)
    image_rank = int(np.sum(isv > max(tol, 1e-12 * isv[0])))

    # membership of every image in span{L_{e2}A0, L_{e3}A0}: the two share no
    # nonzero entry and each has squared norm 128, so plane @ plane.T = 128 Id
    plane = np.stack([LIE_E2_A0.reshape(-1), LIE_E3_A0.reshape(-1)])
    proj = plane.T @ plane / 128.0
    span_err = max(
        float(np.max(np.abs(img - proj @ img))) for img in images
    )
    return {
        "solution_space_dim": solution_rank,
        "image_span_dim": image_rank,
        "span_membership_error": span_err,
        "pairing_error": pairing_err,
    }
