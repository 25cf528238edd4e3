"""The covariant kernel of `tensor` against the assemblies it replaced.

linearized_residual, nabla^{A0} X and modified_connection each built
Gamma_k (+ hat(A e_k)) and applied it by hand before the kernel existed;
those assemblies, and the loops that built the connection tables, are
copied here as references and must agree with the kernel path bit for bit.

The component-major kernel (`cov_entries`, `cov_components`,
`divergence_components`) replaced the matrix-form `dMk + G @ M - M @ G`,
an einsum with Gamma_k + hat(ak) and the divergence built on them, and the
flatness and Gauss-Codazzi assemblies; the symmetry condition, Xi and the
Lie derivative followed, with `cross_components` and `dot_components` in
place of np.cross and einsum.  Those matrix-form bodies are copied here
too, fed from `matrix`, `frame_derivative_matrix`, `values` and
per-component `frame_derivative`, an evaluation path apart from
`frame_jet`; the kernel must give their bytes, signed zeros included.
"""

import numpy as np
import pytest

from cauchys3.cauchy import (
    FRAME_PAIRS,
    SymEnd3Field,
    VectorField3,
    known_example,
    linearized_residual,
    modified_connection,
    right_family_left_frame,
    symmetry_residual,
    xi_operator,
)
from cauchys3.cauchy import _trace
from cauchys3.deformation import (
    A0,
    A0_MATRIX,
    DeformVector,
    deformation_basis,
    deformation_field,
    lie_derivative_endo,
    nabla_A0_of_deformation,
)
from cauchys3.frame import Chirality, ScalarField, coordinate_field, random_points
from cauchys3.tensor import (
    BergerParams,
    cov_components,
    cov_entries,
    cross_components,
    divergence_A,
    divergence_components,
    dot_components,
    gamma_berger,
    gamma_berger_orthonormal,
    gamma_round,
    hat,
    structure_constant,
    wedge_endo,
)
from cauchys3.cauchy import flatness_residual, flatness_residual_norms, gauss_codazzi_residual, residual_norm

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS[_i, _j, _k] = 1.0
    _EPS[_j, _i, _k] = -1.0


def _ref_gamma_round(a, chirality=Chirality.LEFT):
    lam = structure_constant(chirality)
    g = np.zeros((3, 3))
    for k in range(3):
        for c in range(3):
            g[c, k] = 0.5 * lam * _EPS[a - 1, k, c]
    return g


def _ref_gamma_berger_orthonormal(p):
    scales = np.array([p.a, p.b, p.b])
    gam = gamma_berger(p)
    out = []
    for i in range(3):
        m = np.zeros((3, 3))
        for k in range(3):
            vec_e = gam[i][:, k] / (scales[i] * scales[k])
            m[:, k] = vec_e * scales
        out.append(m)
    return out


def _matrix_jet(A, pts):
    """(M, [dM_1, dM_2, dM_3]) from `matrix` and `frame_derivative_matrix`."""
    return A.matrix(pts), [A.frame_derivative_matrix(k, pts) for k in (1, 2, 3)]


def _vector_jet(X, pts):
    """(x, [dx_1, dx_2, dx_3]) from `values` and each component's `frame_derivative`."""
    d = [np.stack([c.frame_derivative(k, X.chirality)(pts) for c in X.components], axis=-1) for k in (1, 2, 3)]
    return X.values(pts), d


def _ref_linearized_residual(A, Adot, pts, x, y):
    M = A.matrix(pts)
    N, dNs = _matrix_jet(Adot, pts)
    lam = structure_constant(A.chirality)

    def deriv_of_image(k, vec):
        dN = dNs[k - 1]
        ek = np.zeros(3)
        ek[k - 1] = 1.0
        GA = _ref_gamma_round(k, A.chirality) + hat(np.einsum("...ij,j->...i", M, ek))
        w = np.einsum("...ij,j->...i", N, vec)
        return np.einsum("...ij,j->...i", dN, vec) + np.einsum("...ij,...j->...i", GA, w)

    out = np.zeros(N.shape[:-2] + (3,))
    for k in range(3):
        if x[k] != 0.0:
            out = out + x[k] * deriv_of_image(k + 1, y)
        if y[k] != 0.0:
            out = out - y[k] * deriv_of_image(k + 1, x)
    bracket = lam * np.cross(x, y)
    return out - np.einsum("...ij,j->...i", N, bracket)


def _ref_nabla_A0(vals, dX):
    out = np.zeros(vals.shape[:-1] + (3, 3))
    for i in range(3):
        gamma_mod = _ref_gamma_round(i + 1, Chirality.LEFT) + hat(A0_MATRIX[:, i])
        out[..., :, i] = dX[i] + np.einsum("ij,...j->...i", gamma_mod, vals)
    return out


def _ref_modified_connection(A, pts, a, b):
    M = A.matrix(pts)
    base = _ref_gamma_round(a, A.chirality)[:, b - 1]
    ea = np.zeros(3)
    ea[a - 1] = 1.0
    eb = np.zeros(3)
    eb[b - 1] = 1.0
    acol = np.einsum("...ij,j->...i", M, ea)
    return base + np.cross(acol, eb)


def _fd_wrapped(A):
    return SymEnd3Field(
        [[ScalarField.from_callable(A.entries[i][j], fd_step=1e-5) for j in range(3)] for i in range(3)],
        A.chirality,
    )


def _fields():
    quartic = right_family_left_frame()
    return {"left-133": known_example("left-133"), "quartic": quartic, "quartic-fd": _fd_wrapped(quartic)}


_PTS = random_points(60, seed=11)
_SHAPES = (_PTS, _PTS[3], _PTS[:24].reshape(3, 8, 4))


def test_gamma_round_table_matches_loop_and_is_read_only():
    for chirality in Chirality:
        for a in (1, 2, 3):
            g = gamma_round(a, chirality)
            ref = _ref_gamma_round(a, chirality)
            assert g.dtype == ref.dtype and g.tobytes() == ref.tobytes()  # sign bits of zeros too
            assert not g.flags.writeable and g.flags.c_contiguous
            with pytest.raises(ValueError):
                g[0, 0] = 1.0


def test_gamma_berger_orthonormal_matches_loop():
    for p in (BergerParams(1.0, 1.0), BergerParams(0.7, 1.3), BergerParams(2.0, 0.5)):
        for g, ref in zip(gamma_berger_orthonormal(p), _ref_gamma_berger_orthonormal(p), strict=True):
            assert g.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["left-133", "quartic", "quartic-fd"])
def test_linearized_residual_matches_hand_assembly(name):
    fields = _fields()
    A, Adot = fields[name], fields["quartic-fd" if name == "quartic" else "quartic"]
    directions = [tuple(np.eye(3)[i - 1] for i in p) for p in FRAME_PAIRS]
    directions.append((np.array([0.3, -1.1, 0.7]), np.array([1.2, 0.0, -0.4])))
    for pts in _SHAPES:
        for x, y in directions:
            got = linearized_residual(A, Adot, pts, x, y)
            assert np.array_equal(got, _ref_linearized_residual(A, Adot, pts, x, y))
            assert np.array_equal(linearized_residual(Adot, A, pts, x, y), _ref_linearized_residual(Adot, A, pts, x, y))


@pytest.mark.parametrize("name", ["left-133", "quartic", "quartic-fd"])
def test_modified_connection_matches_hand_assembly(name):
    A = _fields()[name]
    for pts in _SHAPES:
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert np.array_equal(modified_connection(A, pts, a, b), _ref_modified_connection(A, pts, a, b))


def test_nabla_A0_matches_hand_assembly():
    ds = deformation_basis() + [DeformVector((0.3, -1.2, 2.0), c2=0.5, c3=-0.25)]
    for pts in _SHAPES:
        for d in ds:
            ref = _ref_nabla_A0(*_vector_jet(deformation_field(d), pts))
            assert np.array_equal(nabla_A0_of_deformation(d, pts), ref)
    # the kernel on a finite-difference vector field
    X = deformation_field(ds[-1])
    Xfd = VectorField3([ScalarField.from_callable(c, fd_step=1e-5) for c in X.components])
    for pts in _SHAPES:
        vals, dX = _vector_jet(Xfd, pts)
        w = np.moveaxis(vals, -1, 0)
        got = [cov_components(w, np.moveaxis(dX[i], -1, 0), i + 1, Chirality.LEFT, A0_MATRIX[:, i]) for i in range(3)]
        assert np.array_equal(np.stack([np.stack(c, axis=-1) for c in got], axis=-1), _ref_nabla_A0(vals, dX))


# -- the matrix-form kernel and its consumers, as they were ------------------


def _ref_cov_matrix(M, dMk, k, chirality=Chirality.LEFT):
    G = _ref_gamma_round(k, chirality)
    return dMk + G @ M - M @ G


def _ref_cov_vector(w, dwk, k, chirality=Chirality.LEFT, ak=None):
    G = _ref_gamma_round(k, chirality)
    if ak is not None:
        G = G + hat(ak)
    return dwk + np.einsum("...ij,...j->...i", G, w)


def _ref_divergence_from_jet(M, dM, chirality=Chirality.LEFT):
    out = np.zeros(M.shape[:-2] + (3,))
    for k in range(3):
        out = out - _ref_cov_matrix(M, dM[k], k + 1, chirality)[..., :, k]
    return out


def _ref_flatness_from_jet(M, dM, chirality, x, y):
    curv = -wedge_endo(x, y)
    covx = np.zeros_like(M)
    covy = np.zeros_like(M)
    for k in range(3):
        if x[k] == 0.0 and y[k] == 0.0:
            continue
        ck = _ref_cov_matrix(M, dM[k], k + 1, chirality)
        if x[k] != 0.0:
            covx = covx + x[k] * ck
        if y[k] != 0.0:
            covy = covy + y[k] * ck
    dvec = np.einsum("...ij,j->...i", covx, y) - np.einsum("...ij,j->...i", covy, x)
    ax = np.einsum("...ij,j->...i", M, x)
    ay = np.einsum("...ij,j->...i", M, y)
    return curv + dvec + np.cross(ax, ay)


def _ref_gauss_codazzi(M, dM, chirality):
    tr = np.trace(M, axis1=-2, axis2=-1)
    tr2 = np.einsum("...ij,...ji->...", M, M)
    scalar = 6.0 - tr**2 + tr2
    vec = _ref_divergence_from_jet(M, dM, chirality)
    for k in range(3):
        vec[..., k] += sum(dM[k][..., i, i] for i in range(3))
    return scalar, vec


def _ref_residual_norm(dual):
    return np.sqrt(2.0) * np.linalg.norm(dual, axis=-1)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _with_zeros(rng, a, signed=True):
    """a with about a third of its entries set to exact zeros, -0 among them if signed."""
    a = a.copy()
    zeros = rng.random(a.shape) < 0.35
    a[zeros] = np.where(rng.random(a.shape) < 0.5, -0.0, 0.0)[zeros] if signed else 0.0
    return a


def _symmetric(rng, shape, signed=True):
    m = rng.normal(size=shape + (3, 3)) * 10.0 ** rng.integers(-3, 4, size=shape + (3, 3))
    m = _with_zeros(rng, m, signed)
    return np.where(np.tri(3, k=-1, dtype=bool), np.swapaxes(m, -1, -2), m)  # copies keep -0


_KERNEL_SHAPES = ((400,), (), (3, 8))


def _rng(salt, chirality, shape):
    return np.random.default_rng([salt, int(chirality is Chirality.LEFT), *shape])


@pytest.mark.parametrize("chirality", list(Chirality))
@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
def test_cov_matrix_kernel_bytes(chirality, shape):
    rng = _rng(0, chirality, shape)
    M = _symmetric(rng, shape)
    general = _with_zeros(rng, rng.normal(size=shape + (3, 3)))
    for k in (1, 2, 3):
        for A in (M, general):
            # the kernel on derivatives that hold no -0, as jets do
            dM = _with_zeros(rng, rng.normal(size=shape + (3, 3)), signed=False)
            m = [A[..., i, j] for i in range(3) for j in range(3)]
            dm = [dM[..., i, j] for i in range(3) for j in range(3)]
            got = cov_entries(m, dm, k, chirality)
            ref = _ref_cov_matrix(A, dM, k, chirality)
            assert all(_same_bytes(got[3 * i + j], ref[..., i, j]) for i in range(3) for j in range(3))


@pytest.mark.parametrize("chirality", list(Chirality))
@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
def test_cov_vector_kernel_bytes(chirality, shape):
    rng = _rng(1, chirality, shape)
    for k in (1, 2, 3):
        for _ in range(3):
            w = _with_zeros(rng, rng.normal(size=shape + (3,)))
            ak = _with_zeros(rng, rng.normal(size=shape + (3,)))
            for a in (None, ak):
                dw = _with_zeros(rng, rng.normal(size=shape + (3,)), signed=False)
                comps = [np.moveaxis(v, -1, 0) for v in (w, dw)]
                got = cov_components(*comps, k, chirality, None if a is None else np.moveaxis(a, -1, 0))
                ref = _ref_cov_vector(w, dw, k, chirality, a)
                assert all(_same_bytes(got[i], ref[..., i]) for i in range(3))


@pytest.mark.parametrize("chirality", list(Chirality))
@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
def test_divergence_kernel_bytes(chirality, shape):
    rng = _rng(2, chirality, shape)
    M = _symmetric(rng, shape)
    dM = [_symmetric(rng, shape, signed=False) for _ in range(3)]
    m = [M[..., i, j] for i in range(3) for j in range(3)]
    dm = [[d[..., i, j] for i in range(3) for j in range(3)] for d in dM]
    got = divergence_components(m, dm, chirality)
    ref = _ref_divergence_from_jet(M, dM, chirality)
    assert all(_same_bytes(got[i], ref[..., i]) for i in range(3))


def _kernel_fields():
    fields = dict(_fields())
    for kind in ("plus-id", "right-133"):
        fields[kind] = known_example(kind)
    return fields


@pytest.mark.parametrize("name", ["left-133", "plus-id", "right-133", "quartic", "quartic-fd"])
def test_consumers_match_matrix_form_bytes(name):
    A = _kernel_fields()[name]
    directions = [tuple(np.eye(3)[i - 1] for i in p) for p in FRAME_PAIRS]
    directions.append((np.array([0.3, -1.1, 0.7]), np.array([1.2, 0.0, -0.4])))
    for pts in _SHAPES:
        M, dM = _matrix_jet(A, pts)
        for x, y in directions:
            assert _same_bytes(flatness_residual(A, pts, x, y), _ref_flatness_from_jet(M, dM, A.chirality, x, y))
        norms = [_ref_residual_norm(_ref_flatness_from_jet(M, dM, A.chirality, *d)) for d in directions[:3]]
        assert _same_bytes(flatness_residual_norms(A, pts), np.stack(norms, axis=-1))
        for d in directions:
            r = _ref_flatness_from_jet(M, dM, A.chirality, *d)
            assert _same_bytes(residual_norm(r), _ref_residual_norm(r))
        for got, ref in zip(gauss_codazzi_residual(A, pts), _ref_gauss_codazzi(M, dM, A.chirality), strict=True):
            assert _same_bytes(got, ref)
        assert _same_bytes(divergence_A(A, pts), _ref_divergence_from_jet(M, dM, A.chirality))


@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
def test_dot_cross_and_trace_kernel_bytes(shape):
    # einsum sums a last axis of 3 from +0 in the order (0, 2, 1), np.trace
    # from +0 in index order: a signed zero tells the orders apart
    rng = np.random.default_rng([3, *shape])
    for _ in range(20):
        M = _with_zeros(rng, rng.normal(size=shape + (3, 3)) * 10.0 ** rng.integers(-8, 9, size=shape + (3, 3)))
        x = _with_zeros(rng, rng.normal(size=shape + (3,)) * 10.0 ** rng.integers(-8, 9, size=shape + (3,)))
        m, xs = [M[..., i, j] for i in range(3) for j in range(3)], [x[..., i] for i in range(3)]
        matvec = np.einsum("...ij,...j->...i", M, x)
        for i in range(3):
            assert _same_bytes(dot_components(m[3 * i : 3 * i + 3], xs), matvec[..., i])
            assert _same_bytes(dot_components(m[3 * i : 3 * i + 3], xs), np.einsum("...j,...j->...", M[..., i, :], x))
        assert _same_bytes(_trace(m), np.trace(M, axis1=-2, axis2=-1))
        crossed = np.cross(M[..., 0, :], x)
        assert all(_same_bytes(c, crossed[..., i]) for i, c in enumerate(cross_components(m[:3], xs)))


# -- the symmetry condition, Xi and the Lie derivative, as they were ----------


def _ref_symmetry_from_jet(M, x, dx, chirality):
    lam = structure_constant(chirality)
    dX = np.zeros_like(x)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        dX[..., c] = dx[a][..., b] - dx[b][..., a] - lam * x[..., c]
    tr = np.trace(M, axis1=-2, axis2=-1)
    w = x * tr[..., None] - np.einsum("...ij,...j->...i", M, x)
    return dX - w


def _ref_symmetry_residual(A, X, pts, B=None):
    x, dx = _vector_jet(X, pts)
    res = _ref_symmetry_from_jet(A.matrix(pts), x, dx, X.chirality)
    if B is not None:
        Bm = B.matrix(pts) if hasattr(B, "matrix") else np.asarray(B, dtype=float)
        for k in range(3):
            ek = np.zeros(3)
            ek[k] = 1.0
            res = res + np.cross(ek, Bm[..., :, k])
    return res


def _ref_xi_operator(A, X, pts):
    M, dAs = _matrix_jet(A, pts)
    vals, dxs = _vector_jet(X, pts)
    first = _ref_symmetry_from_jet(M, vals, dxs, X.chirality)
    tr = np.trace(M, axis1=-2, axis2=-1)
    div = np.zeros(pts.shape[:-1])
    for k, (dx, dA) in enumerate(zip(dxs, dAs)):
        dtr = np.trace(dA, axis1=-2, axis2=-1)
        div = div + (
            dx[..., k] * tr
            + vals[..., k] * dtr
            - np.einsum("...j,...j->...", dA[..., k, :], vals)
            - np.einsum("...j,...j->...", M[..., k, :], dx)
        )
    return first, -div


def _ref_lie_derivative_endo(A, Z, pts):
    lam = structure_constant(A.chirality)
    M, dA = _matrix_jet(A, pts)
    z, dz = _vector_jet(Z, pts)
    out = np.zeros_like(M)
    for col in range(3):
        w = M[..., :, col]
        dw = [dA[k][..., :, col] for k in range(3)]
        br1 = sum(z[..., k, None] * dw[k] for k in range(3))
        br1 = br1 - sum(w[..., k, None] * dz[k] for k in range(3))
        br1 = br1 + lam * np.cross(z, w)
        ecol = np.zeros(3)
        ecol[col] = 1.0
        bracket_ze = -dz[col] - lam * np.cross(ecol, z)
        out[..., :, col] = br1 - np.einsum("...ij,...j->...i", M, bracket_ze)
    return out


def _vector_fields():
    a = [coordinate_field(m) for m in (1, 2, 3, 4)]
    X = deformation_field(DeformVector((0.3, -1.2, 0.7), c2=0.5, c3=-2.0))
    fields = {f"e{k}": VectorField3.frame_vector(k) for k in (1, 2, 3)}
    fields.update(
        deformation=X,
        zero=VectorField3([0.0, 0.0, 0.0]),
        coordinates=VectorField3([a[0], a[1] * -2.0, a[3]]),
        right_e1=VectorField3.frame_vector(1, Chirality.RIGHT),
        right_coordinates=VectorField3([a[2], a[1], 0.0], Chirality.RIGHT),
    )
    for name in ("deformation", "right_coordinates"):
        V = fields[name]
        fields[name + "_fd"] = VectorField3([ScalarField.from_callable(c, fd_step=1e-5) for c in V.components], V.chirality)
    return fields


_SYMMETRY_SHAPES = (_PTS, _PTS[3], _PTS[:24].reshape(4, 6, 4))


@pytest.mark.parametrize("name", ["left-133", "plus-id", "right-133", "A0", "quartic", "quartic-fd"])
def test_symmetry_xi_and_lie_derivative_match_matrix_form_bytes(name):
    A = A0 if name == "A0" else _kernel_fields()[name]
    for X in _vector_fields().values():
        for pts in _SYMMETRY_SHAPES:
            assert _same_bytes(symmetry_residual(A, X, pts), _ref_symmetry_residual(A, X, pts))
            for B in (A, np.arange(9.0).reshape(3, 3) - 4.0):
                assert _same_bytes(symmetry_residual(A, X, pts, B=B), _ref_symmetry_residual(A, X, pts, B=B))
            for got, ref in zip(xi_operator(A, X, pts), _ref_xi_operator(A, X, pts), strict=True):
                assert _same_bytes(got, ref)
            if X.chirality is A.chirality:
                assert _same_bytes(lie_derivative_endo(A, X, pts), _ref_lie_derivative_endo(A, X, pts))
