"""Pointwise exterior algebra and curvature tables in orthonormal frames.

A 2-form, its skew endomorphism, and (through the Hodge star) a vector
are all carried by one stored 3-vector: a skew object with dual vector
s acts as Z -> s x Z, i.e. as the matrix hat(s).  With this convention

    wedge(X, Y)      has dual vector X x Y,
    (X ^ Y) Z        = <X,Z> Y - <Y,Z> X,
    *e_1 = e_2 ^ e_3 (cyclically), orientation (e_1,e_2,e_3) positive,

and the interior product of X with the 2-form dual to s is s x X.
The star is the identity on storage; `hat`/`unhat` convert between the
3-vector and the skew matrix when an endomorphism has to act.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import Chirality

__all__ = [
    "hat",
    "unhat",
    "wedge_endo",
    "hodge_star",
    "structure_constant",
    "gamma_round",
    "levi_civita_round",
    "curvature_round",
    "BergerParams",
    "levi_civita_berger",
    "gamma_berger",
    "gamma_berger_orthonormal",
    "curvature_berger",
    "cov_matrix",
    "cov_vector",
    "divergence_from_jet",
    "d_nabla_A",
    "divergence_A",
]


def hat(v) -> np.ndarray:
    """Skew matrix of the dual vector v: hat(v) Z = v x Z.  Batched."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1] = -v3
    out[..., 1, 0] = v3
    out[..., 0, 2] = v2
    out[..., 2, 0] = -v2
    out[..., 1, 2] = -v1
    out[..., 2, 1] = v1
    return out


def unhat(m) -> np.ndarray:
    """Dual vector of a skew matrix (inverse of hat)."""
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def wedge_endo(x, y) -> np.ndarray:
    """X ^ Y as a skew endomorphism, stored as its dual vector X x Y."""
    return np.cross(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def hodge_star(obj) -> np.ndarray:
    """Hodge star between vectors and 2-forms.

    Both sides are stored as the same 3-vector, so this is the identity
    on storage; it exists to mark the change of interpretation.
    """
    return np.array(obj, dtype=float)


_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS[_i, _j, _k] = 1.0
    _EPS[_j, _i, _k] = -1.0


def structure_constant(chirality: Chirality) -> float:
    """lambda with [e_a, e_b] = lambda e_c for even permutations (a,b,c).

    +2 for the left-invariant frame, -2 for the right-invariant one; the
    test suite verifies both values against measured flow derivatives.
    """
    return 2.0 if chirality is Chirality.LEFT else -2.0


# _GAMMA_ROUND[chirality][a - 1][c, k] = (lambda / 2) eps_{a k c}, C-ordered:
# a transposed view would send every matmul with it down a slower path
_GAMMA_ROUND = {
    chir: np.ascontiguousarray(0.5 * structure_constant(chir) * _EPS.transpose(0, 2, 1)) for chir in Chirality
}
for _table in _GAMMA_ROUND.values():
    _table.flags.writeable = False


def gamma_round(a: int, chirality: Chirality = Chirality.LEFT) -> np.ndarray:
    """Matrix of nabla_{e_a} on the frame: column k holds nabla_{e_a} e_k.

    A read-only view into a table built once at import; a must be 1, 2 or 3."""
    if a not in (1, 2, 3):
        raise ValueError(f"frame index must be 1, 2 or 3, got {a!r}")
    return _GAMMA_ROUND[chirality][a - 1]


def levi_civita_round(a: int, b: int, chirality: Chirality = Chirality.LEFT) -> np.ndarray:
    """nabla_{e_a} e_b for the round metric, as frame coefficients.

    Left frame: nabla_{e_1} e_2 = e_3, nabla_{e_2} e_1 = -e_3, diagonal
    entries zero, and cyclic images thereof.
    """
    if b not in (1, 2, 3):
        raise ValueError(f"frame index must be 1, 2 or 3, got {b!r}")
    return gamma_round(a, chirality)[:, b - 1].copy()


def curvature_round(x, y) -> np.ndarray:
    """R(X,Y) = -X ^ Y on the round sphere, as a dual vector."""
    return -wedge_endo(x, y)


@dataclass(frozen=True)
class BergerParams:
    """Scales of the Berger metric a^2 e_1^2 + b^2 (e_2^2 + e_3^2): scalars, or arrays (one per node)."""

    a: float
    b: float

    def __post_init__(self):
        if np.any(np.less_equal(self.a, 0)) or np.any(np.less_equal(self.b, 0)):
            raise ValueError("Berger parameters must be positive")


def gamma_berger(p: BergerParams) -> list[np.ndarray]:
    """Connection matrices of the Berger metric in the Hopf frame.

    gamma[a][..., :, k] holds the (e_1,e_2,e_3)-coefficients of
    nabla^t_{e_{a+1}} e_{k+1}; the left-invariant bracket table is
    assumed (the Hopf frame is left-invariant).
    """
    r = (p.a * p.a) / (p.b * p.b)
    g1, g2, g3 = np.zeros((3,) + np.shape(r) + (3, 3))
    g1[..., 2, 1] = 2.0 - r  # nabla_{e1} e2 = (2 - a^2/b^2) e3
    g1[..., 1, 2] = r - 2.0
    g2[..., 2, 0] = -r  # nabla_{e2} e1 = -(a^2/b^2) e3
    g2[..., 0, 2] = 1.0
    g3[..., 1, 0] = r
    g3[..., 0, 1] = -1.0
    return [g1, g2, g3]


def levi_civita_berger(p: BergerParams, a: int, b: int) -> np.ndarray:
    """nabla^t_{e_a} e_b in the Hopf frame (unnormalized e_2, e_3)."""
    if a not in (1, 2, 3) or b not in (1, 2, 3):
        raise ValueError(f"frame index must be 1, 2 or 3, got {(a, b)}")
    return gamma_berger(p)[a - 1][:, b - 1].copy()


def gamma_berger_orthonormal(p: BergerParams) -> list[np.ndarray]:
    """Connection matrices in the g_t-orthonormal frame (e_1/a, e_2/b, e_3/b).

    gamma[i][..., :, k] = coefficients of nabla_{f_{i+1}} f_{k+1} in (f_1,f_2,f_3).
    """
    s = np.stack(np.broadcast_arrays(p.a, p.b, p.b), axis=-1)[..., None, None, :]
    # nabla_{f_i} f_k = (1/(s_i s_k)) nabla_{e_i} e_k, re-expressed in f's (e_c = s_c f_c)
    g = np.stack(gamma_berger(p), axis=-3) / (np.swapaxes(s, -1, -3) * s) * np.swapaxes(s, -1, -2)
    return [g[..., i, :, :] for i in range(3)]


def curvature_berger(p: BergerParams, a: int, b: int):
    """Coefficient of R^t(e_a, e_b) on the wedge basis element e_a ^ e_b.

    The printed values: R^t(e_1,e_2) = -(a^2/b^4) e_1^e_2 (same for
    (1,3)) and R^t(e_2,e_3) = ((3a^2-4b^2)/b^4) e_2^e_3, indices raised
    with g_t.  Only frame pairs are supported; array scales give an array.
    """
    pair = tuple(sorted((a, b)))
    a2, b2 = p.a * p.a, p.b * p.b
    if pair == (1, 2) or pair == (1, 3):
        return -a2 / (b2 * b2)
    if pair == (2, 3):
        return (3.0 * a2 - 4.0 * b2) / (b2 * b2)
    raise ValueError("expected a frame pair from {1,2,3}")


def d_nabla_A(A, points, x, y, connection="round", berger: BergerParams | None = None):
    """Twisted exterior derivative (d^nabla A)(X, Y) = (nabla_X A)Y - (nabla_Y A)X.

    A must expose `matrix(points) -> (...,3,3)` and
    `frame_derivative_matrix(k, points) -> (...,3,3)` (coefficients in
    its own invariant frame); X, Y are constant frame coefficient
    vectors.  With connection="berger", the Hopf-frame table for the
    given BergerParams is used and A's chirality must be left.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    M = A.matrix(points)
    if connection == "round":
        gammas = [gamma_round(k, A.chirality) for k in (1, 2, 3)]
    elif connection == "berger":
        if berger is None:
            raise ValueError("berger connection requires BergerParams")
        gammas = gamma_berger(berger)
    else:
        raise ValueError("connection must be 'round' or 'berger'")

    def cov(direction):
        # nabla_{e_dir} A  as a matrix: dA + [Gamma, A]
        out = np.zeros_like(M)
        for k in range(3):
            if direction[k] == 0.0:
                continue
            dM = A.frame_derivative_matrix(k + 1, points)
            G = gammas[k]
            out = out + direction[k] * (dM + G @ M - M @ G)
        return out

    covx = cov(x)
    covy = cov(y)
    return np.einsum("...ij,j->...i", covx, y) - np.einsum("...ij,j->...i", covy, x)


def cov_matrix(M, dMk, k: int, chirality: Chirality = Chirality.LEFT) -> np.ndarray:
    """nabla_{e_k} A as a frame matrix, dA_k + [Gamma_k, A], from the
    matrix M of A and its entrywise e_k-derivative dMk (round metric)."""
    G = gamma_round(k, chirality)
    return dMk + G @ M - M @ G


def cov_vector(w, dwk, k: int, chirality: Chirality = Chirality.LEFT, ak=None) -> np.ndarray:
    """nabla_{e_k} W = dW_k + Gamma_k W for the round metric, from the frame
    coefficients w of W and their e_k-derivatives dwk.  Given ak, the
    coefficients of A(e_k), it is nabla^A_{e_k} W = nabla_{e_k} W + A(e_k) x W,
    the modified connection nabla + *(A(.)).  Batched over leading axes."""
    G = gamma_round(k, chirality)
    if ak is not None:
        G = G + hat(ak)
    return dwk + np.einsum("...ij,...j->...i", G, w)


def divergence_from_jet(M, dM, chirality: Chirality = Chirality.LEFT) -> np.ndarray:
    """delta^nabla A = -sum_k (nabla_{e_k} A)(e_k) from the jet (M, (dM_1, dM_2, dM_3))."""
    out = np.zeros(M.shape[:-2] + (3,))
    for k in range(3):
        out = out - cov_matrix(M, dM[k], k + 1, chirality)[..., :, k]
    return out


def divergence_A(A, points) -> np.ndarray:
    """delta^nabla A = -sum_k (nabla_{e_k} A)(e_k) for the round metric.

    A must expose `jet(points) -> (M, (dM_1, dM_2, dM_3))`; it is taken
    once per call."""
    M, dM = A.jet(points)
    return divergence_from_jet(M, dM, A.chirality)
