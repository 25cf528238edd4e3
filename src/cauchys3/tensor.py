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

The covariant kernel is component-major: a matrix is a row-major 9-tuple
of components (arrays of the batch shape, or floats), a vector a 3-tuple,
as `jet_components` and `frame_jet` give them.  Each Gamma_k has one +-1
in each row and column other than k, so its products are signed adds.
The `*_components` helpers (dot, cross, matvec, matmul, hat, trace) serve
it and the S^2 section of `classify`; each sum in them is written out left
to right from its first term, (a0*b0 + a1*b1) + a2*b2, so a point has the
same bits alone and in any batch, whatever numpy's reductions do.  Every
round-S^3 operator in `cauchy` and `deformation` runs on this format;
`d_nabla_A` keeps the matrix form as the oracle of the flatness residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import Chirality, _check_frame_index

__all__ = [
    "hat",
    "unhat",
    "wedge_endo",
    "hodge_star",
    "structure_constant",
    "gamma_round",
    "BergerParams",
    "gamma_berger",
    "gamma_berger_orthonormal",
    "curvature_berger",
    "cov_entries",
    "cov_components",
    "divergence_components",
    "cross_components",
    "dot_components",
    "matvec_components",
    "matmul_components",
    "hat_components",
    "trace_components",
    "stack_components",
    "d_nabla_A",
    "divergence_A",
]


def hat(v) -> np.ndarray:
    """Skew matrix of the dual vector v: hat(v) Z = v x Z.  Batched."""
    return stack_components(hat_components(np.moveaxis(np.asarray(v, dtype=float), -1, 0)), 2)


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
# a transposed view would send d_nabla_A's matmuls with it down a slower path
_GAMMA_ROUND = {
    chir: np.ascontiguousarray(0.5 * structure_constant(chir) * _EPS.transpose(0, 2, 1)) for chir in Chirality
}
for _table in _GAMMA_ROUND.values():
    _table.flags.writeable = False


def gamma_round(a: int, chirality: Chirality = Chirality.LEFT) -> np.ndarray:
    """Matrix of nabla_{e_a} on the frame: column k holds nabla_{e_a} e_k.

    A read-only view into a table built once at import; a must be 1, 2 or 3."""
    _check_frame_index(a)
    return _GAMMA_ROUND[chirality][a - 1]


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


def d_nabla_A(A, points, x, y):
    """Twisted exterior derivative (d^nabla A)(X, Y) = (nabla_X A)Y - (nabla_Y A)X, round metric.

    A must expose `matrix(points) -> (...,3,3)` and
    `frame_derivative_matrix(k, points) -> (...,3,3)` (coefficients in
    its own invariant frame); X, Y are constant frame coefficient
    vectors.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    M = A.matrix(points)
    gammas = _GAMMA_ROUND[A.chirality]

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


# The covariant kernel.  _ROWS[chirality][k - 1][i] = (l, op): row i of
# Gamma_k holds one nonzero entry, Gamma_k[i, l] = +-1 (lambda/2 = +-1), and
# op adds or subtracts its product; row k is zero (None).
_ROWS = {
    chir: tuple(
        tuple(next(((l, np.add if g[i, l] > 0 else np.subtract) for l in range(3) if g[i, l]), None) for i in range(3))
        for g in table
    )
    for chir, table in _GAMMA_ROUND.items()
}


def cross_components(a, b) -> tuple:
    """a x b for 3-tuples."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def dot_components(a, b):
    """a . b for 3-tuples, as (a0*b0 + a1*b1) + a2*b2."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def matvec_components(m, v) -> tuple:
    """M v for a row-major 9-tuple m and a 3-tuple v, each entry a dot in written order."""
    v0, v1, v2 = v
    return (m[0] * v0 + m[1] * v1 + m[2] * v2, m[3] * v0 + m[4] * v1 + m[5] * v2, m[6] * v0 + m[7] * v1 + m[8] * v2)


def matmul_components(a, b, *more) -> tuple:
    """A B (C ...) for row-major 9-tuples, multiplied left to right, each entry a dot in written order."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    ab = (
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    )  # fmt: skip
    return matmul_components(ab, *more) if more else ab


def hat_components(v) -> tuple:
    """The 9-tuple of hat(v), the matrix of v x ."""
    return (0.0, -v[2], v[1], v[2], 0.0, -v[0], -v[1], v[0], 0.0)


def trace_components(m):
    """tr M for a row-major 9-tuple, as (m00 + m11) + m22."""
    return m[0] + m[4] + m[8]


def cov_entries(m, dm, k: int, chirality: Chirality = Chirality.LEFT, entries=range(9)) -> list:
    """Entries 3i + j of nabla_{e_k} A = dA_k + [Gamma_k, A] (round metric)
    from the 9-tuples m of A and dm of its e_k-derivative, as
    (dm + G m) - m G with each product a dot in written order.  A zero
    product of G is skipped, which moves no bit whenever dm holds no -0,
    as no jet does."""
    rows, out = _ROWS[chirality][k - 1], []
    for i, j in (divmod(e, 3) for e in entries):
        v = dm[3 * i + j]
        if rows[i]:  # + Gamma_k[i, l] A_lj
            v = rows[i][1](v, m[3 * rows[i][0] + j])
        if rows[j]:  # - A_il Gamma_k[l, j] = + Gamma_k[j, l] A_il
            v = rows[j][1](v, m[3 * i + rows[j][0]])
        out.append(v)
    return out


def cov_components(w, dw, k: int, chirality: Chirality = Chirality.LEFT, a=None) -> tuple:
    """nabla_{e_k} W = dW_k + Gamma_k W from the 3-tuples w of W and dw of
    its e_k-derivative; given a = A(e_k), nabla^A_{e_k} W = dW_k + b x W,
    as Gamma_k + hat(a) = hat(b), b = a + (lambda/2) e_k, entry for entry.
    The bits of dW_k + (Gamma_k [+ hat(a)]) W with each row a dot in
    written order whenever dw holds no -0."""
    rows = _ROWS[chirality][k - 1]
    if a is None:
        return tuple(dw[i] if rows[i] is None else rows[i][1](dw[i], w[rows[i][0]]) for i in range(3))
    b = list(a)
    b[k - 1] = a[k - 1] + 0.5 * structure_constant(chirality)
    return tuple(d + c for d, c in zip(dw, cross_components(b, w)))


def divergence_components(m, dm, chirality: Chirality = Chirality.LEFT) -> tuple:
    """delta^nabla A = -sum_k (nabla_{e_k} A)(e_k) from the 9-tuples m of A
    and dm[k] of its e_{k+1}-derivative."""
    c = [cov_entries(m, dm[k], k + 1, chirality, (k, 3 + k, 6 + k)) for k in range(3)]
    return tuple(((0.0 - c[0][i]) - c[1][i]) - c[2][i] for i in range(3))


def stack_components(components, k: int = 1) -> np.ndarray:
    """Components (arrays or floats) as one array with k trailing axes of 3."""
    out = np.empty(np.broadcast_shapes(*map(np.shape, components)) + (len(components),))
    for i, c in enumerate(components):
        out[..., i] = c
    return out.reshape(out.shape[:-1] + (3,) * k)


def divergence_A(A, points) -> np.ndarray:
    """delta^nabla A = -sum_k (nabla_{e_k} A)(e_k) for the round metric.

    A must expose `jet_components(points) -> [m, dm_1, dm_2, dm_3]`, each
    a row-major 9-tuple; it is taken once per call."""
    m, *dm = A.jet_components(points)
    return stack_components(divergence_components(m, dm, A.chirality))
