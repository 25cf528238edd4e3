"""The covariant kernel of `tensor` and its consumers against a per-point reference.

The reference below computes one point at a time in Python floats, with
a vector as a list of 3 and a matrix as nested lists: every sum is
written out left to right from its first term, (a0*b0 + a1*b1) + a2*b2,
and a sum with constant coefficients (directions, frame vectors) skips a
zero one.  It builds the connection tables Gamma_k by its own loop and
imports no helper of the code it checks.  Its inputs come from
`matrix`, `frame_derivative_matrix`, `values` and per-component
`frame_derivative`, an evaluation path apart from `frame_jet`.  The
kernel must give its bytes, signed zeros included, for every point at
every batch shape, so a point's bits do not depend on its batch.

Two things the kernel does that the reference does not: it skips a zero
product of Gamma_k and takes no product of a +-1 coefficient.  Neither
moves a bit where a derivative holds no -0, as no jet does.
"""

import math

import numpy as np
import pytest

from cauchys3.cauchy import (
    FRAME_PAIRS,
    SymEnd3Field,
    VectorField3,
    flatness_residual,
    flatness_residual_norms,
    gauss_codazzi_residual,
    known_example,
    linearized_residual,
    modified_connection,
    residual_norm,
    right_family_left_frame,
    symmetry_residual,
    xi_operator,
)
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
    hat_components,
    matmul_components,
    matvec_components,
    trace_components,
)

# ---------------------------------------------------------------------------
# per-point reference
# ---------------------------------------------------------------------------

R3 = range(3)

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS[_i, _j, _k] = 1.0
    _EPS[_j, _i, _k] = -1.0


def lam_of(chirality):
    """The structure constant: [e_a, e_b] = lam e_c for cyclic (a, b, c)."""
    return 2.0 if chirality is Chirality.LEFT else -2.0


def _ref_gamma_round(a, chirality=Chirality.LEFT):
    lam = lam_of(chirality)
    g = np.zeros((3, 3))
    for k in range(3):
        for c in range(3):
            g[c, k] = 0.5 * lam * _EPS[a - 1, k, c]
    return g


def gammas(chirality):
    """[Gamma_1, Gamma_2, Gamma_3] as nested lists."""
    return [_ref_gamma_round(k, chirality).tolist() for k in (1, 2, 3)]


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def column(m, j):
    return [m[0][j], m[1][j], m[2][j]]


def matvec(m, v):
    return [dot(m[i], v) for i in R3]


def matmul(a, b):
    return [[dot(a[i], column(b, j)) for j in R3] for i in R3]


def trace(m):
    return m[0][0] + m[1][1] + m[2][2]


def hat(v):
    return [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]


def plus(a, b):
    return [[a[i][j] + b[i][j] for j in R3] for i in R3]


def lin(pairs):
    """sum of c * v over the pairs with c != 0, from the first such term; 0.0 if none."""
    terms = [c * v for c, v in pairs if c != 0.0]
    return sum(terms[1:], terms[0]) if terms else 0.0


def pointwise(fn, batch, *arrays):
    """fn at each point of the batch shape, given each array's values there
    as nested lists of Python floats; its results as one array of shape
    batch + theirs."""
    n = math.prod(batch)
    rows = [np.asarray(a, dtype=float).reshape((n,) + np.shape(a)[len(batch) :]).tolist() for a in arrays]
    out = [fn(*args) for args in zip(*rows)]
    return np.array(out, dtype=float).reshape(batch + np.shape(out[0]))


def ref_cov_matrix(M, dMk, G):
    """nabla_{e_k} A = dA_k + Gamma_k A - A Gamma_k."""
    return [[(dMk[i][j] + dot(G[i], column(M, j))) - dot(M[i], column(G, j)) for j in R3] for i in R3]


def ref_cov_vector(w, dw, G, a=None):
    """nabla_{e_k} W = dW_k + Gamma_k W, or with a = A(e_k), dW_k + (Gamma_k + hat(a)) W."""
    g = G if a is None else plus(G, hat(a))
    return [dw[i] + dot(g[i], w) for i in R3]


def ref_divergence(M, dM, gs):
    """delta^nabla A = -sum_k (nabla_{e_k} A)(e_k), as a running difference from +0."""
    c = [ref_cov_matrix(M, dM[k], gs[k]) for k in R3]
    return [((0.0 - c[0][i][0]) - c[1][i][1]) - c[2][i][2] for i in R3]


def ref_flatness(M, dM, gs, x, y):
    """R(X,Y) + *d^nabla A(X,Y) + A(X) ^ A(Y), as a dual vector."""
    cov = [ref_cov_matrix(M, dM[k], gs[k]) for k in R3]
    covx = [[lin((x[k], cov[k][i][j]) for k in R3) for j in R3] for i in R3]
    covy = [[lin((y[k], cov[k][i][j]) for k in R3) for j in R3] for i in R3]
    dvec = [lin(zip(y, covx[i])) - lin(zip(x, covy[i])) for i in R3]
    axy = cross(*([lin(zip(u, M[i])) for i in R3] for u in (x, y)))
    curv = [-c for c in cross(x, y)]  # R(X,Y) = -X ^ Y
    return [(curv[i] + dvec[i]) + axy[i] for i in R3]


def ref_norm(r):
    return math.sqrt(2.0) * math.sqrt(dot(r, r))


def ref_gauss_codazzi_scalar(M):
    tr = trace(M)
    return (6.0 - tr * tr) + trace(matmul(M, M))


def ref_gauss_codazzi_vector(M, dM, gs):
    div = ref_divergence(M, dM, gs)
    return [div[k] + trace(dM[k]) for k in R3]


def ref_linearized(M, N, dN, gs, lam, x, y):
    """nabla^A_X (Adot Y) - nabla^A_Y (Adot X) - Adot([X, Y])."""
    nx, ny = ([lin(zip(u, N[i])) for i in R3] for u in (x, y))
    terms = []
    for k in R3:
        ak = column(M, k)
        if x[k] != 0.0:
            terms.append((x[k], ref_cov_vector(ny, [lin(zip(y, dN[k][i])) for i in R3], gs[k], ak)))
        if y[k] != 0.0:
            terms.append((-y[k], ref_cov_vector(nx, [lin(zip(x, dN[k][i])) for i in R3], gs[k], ak)))
    bracket = [lam * c for c in cross(x, y)]
    return [lin([(c, v[i]) for c, v in terms] + [(-1.0, lin(zip(bracket, N[i])))]) for i in R3]


def ref_symmetry(M, x, dx, lam):
    """dX - *(X tr A - A X), dx[k] the e_{k+1}-derivative of X's components."""
    tr, out = trace(M), [None] * 3
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[c] = ((dx[a][b] - dx[b][a]) - lam * x[c]) - (x[c] * tr - dot(M[c], x))
    return out


def ref_symmetry_with(M, x, dx, B, lam):
    """The symmetry residual plus sum_k e_k ^ B(e_k)."""
    res = ref_symmetry(M, x, dx, lam)
    for k in R3:
        res = [r + c for r, c in zip(res, cross([float(i == k) for i in R3], column(B, k)))]
    return res


def ref_xi_scalar(M, dM, x, dx):
    """delta(X tr A - A X) = -sum_k e_k(x_k tr A - (A x)_k)."""
    tr = trace(M)
    ew = [((dx[k][k] * tr + x[k] * trace(dM[k])) - dot(dM[k][k], x)) - dot(M[k], dx[k]) for k in R3]
    return -(ew[0] + ew[1] + ew[2])


def ref_lie(M, dM, z, dz, lam):
    """(L_Z A)(e_col) = [Z, A e_col] - A([Z, e_col]) for each column."""
    out = [[None] * 3 for _ in R3]
    for col in R3:
        w = column(M, col)
        zw = cross(z, w)
        ez = cross([float(i == col) for i in R3], z)
        bracket_ze = [-dz[col][j] - lam * ez[j] for j in R3]
        for j in R3:
            br1 = dot(z, [dM[k][j][col] for k in R3]) - dot(w, [dz[k][j] for k in R3])
            out[j][col] = (br1 + lam * zw[j]) - dot(M[j], bracket_ze)
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


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
    """(M, dM) from `matrix` and `frame_derivative_matrix`, dM[..., k, :, :] along e_{k+1}."""
    return A.matrix(pts), np.stack([A.frame_derivative_matrix(k, pts) for k in (1, 2, 3)], axis=-3)


def _vector_jet(X, pts):
    """(x, dx) from `values` and each component's `frame_derivative`, dx[..., k, :] along e_{k+1}."""
    d = [np.stack([c.frame_derivative(k, X.chirality)(pts) for c in X.components], axis=-1) for k in (1, 2, 3)]
    return X.values(pts), np.stack(d, axis=-2)


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


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _directions():
    """The frame pairs and one general pair of directions."""
    directions = [tuple(np.eye(3)[i - 1] for i in p) for p in FRAME_PAIRS]
    directions.append((np.array([0.3, -1.1, 0.7]), np.array([1.2, 0.0, -0.4])))
    return [(x.tolist(), y.tolist()) for x, y in directions]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


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
    gs, lam = gammas(A.chirality), lam_of(A.chirality)
    for pts in _SHAPES:
        batch = pts.shape[:-1]
        for x, y in _directions():
            for P, Q in ((A, Adot), (Adot, A)):
                ref = pointwise(
                    lambda M, N, dN: ref_linearized(M, N, dN, gs, lam, x, y), batch, P.matrix(pts), *_matrix_jet(Q, pts)
                )
                assert _same_bytes(linearized_residual(P, Q, pts, x, y), ref)


@pytest.mark.parametrize("name", ["left-133", "quartic", "quartic-fd"])
def test_modified_connection_matches_hand_assembly(name):
    A = _fields()[name]
    gs = gammas(A.chirality)
    for pts in _SHAPES:
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                eb = [float(i == b - 1) for i in R3]
                ref = pointwise(
                    lambda M: [gs[a - 1][i][b - 1] + c for i, c in enumerate(cross(column(M, a - 1), eb))],
                    pts.shape[:-1],
                    A.matrix(pts),
                )
                assert np.array_equal(modified_connection(A, pts, a, b), ref)


def _ref_nabla_A0(x, dx):
    """Column i of nabla^{A0} X is dX_i + (Gamma_{i+1} + hat(A0 e_{i+1})) X."""
    gs, a0 = gammas(Chirality.LEFT), A0_MATRIX.tolist()
    cols = [ref_cov_vector(x, dx[i], gs[i], column(a0, i)) for i in R3]
    return [column(cols, j) for j in R3]


def test_nabla_A0_matches_hand_assembly():
    ds = deformation_basis() + [DeformVector((0.3, -1.2, 2.0), c2=0.5, c3=-0.25)]
    for pts in _SHAPES:
        for d in ds:
            ref = pointwise(_ref_nabla_A0, pts.shape[:-1], *_vector_jet(deformation_field(d), pts))
            assert np.array_equal(nabla_A0_of_deformation(d, pts), ref)
    # the kernel on a finite-difference vector field
    X = deformation_field(ds[-1])
    Xfd = VectorField3([ScalarField.from_callable(c, fd_step=1e-5) for c in X.components])
    for pts in _SHAPES:
        vals, dX = _vector_jet(Xfd, pts)
        w = np.moveaxis(vals, -1, 0)
        got = [
            cov_components(w, np.moveaxis(dX[..., i, :], -1, 0), i + 1, Chirality.LEFT, A0_MATRIX[:, i]) for i in range(3)
        ]
        ref = pointwise(_ref_nabla_A0, pts.shape[:-1], vals, dX)
        assert np.array_equal(np.stack([np.stack(c, axis=-1) for c in got], axis=-1), ref)


# -- the kernel on random entries, signed zeros among them -------------------


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


def _components(a, k=1):
    """The components on the last k axes of a, flat in row-major order."""
    return list(np.moveaxis(a.reshape(a.shape[: a.ndim - k] + (-1,)), -1, 0))


@pytest.mark.parametrize("chirality", list(Chirality))
@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
def test_cov_matrix_kernel_bytes(chirality, shape):
    rng = _rng(0, chirality, shape)
    M = _symmetric(rng, shape)
    general = _with_zeros(rng, rng.normal(size=shape + (3, 3)))
    gs = gammas(chirality)
    for k in (1, 2, 3):
        for A in (M, general):
            # the kernel on derivatives that hold no -0, as jets do
            dM = _with_zeros(rng, rng.normal(size=shape + (3, 3)), signed=False)
            got = cov_entries(_components(A, 2), _components(dM, 2), k, chirality)
            ref = pointwise(lambda m, d: ref_cov_matrix(m, d, gs[k - 1]), shape, A, dM)
            assert all(_same_bytes(got[3 * i + j], ref[..., i, j]) for i in range(3) for j in range(3))


@pytest.mark.parametrize("chirality", list(Chirality))
@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
def test_cov_vector_kernel_bytes(chirality, shape):
    rng = _rng(1, chirality, shape)
    gs = gammas(chirality)
    for k in (1, 2, 3):
        for _ in range(3):
            w = _with_zeros(rng, rng.normal(size=shape + (3,)))
            ak = _with_zeros(rng, rng.normal(size=shape + (3,)))
            dw = _with_zeros(rng, rng.normal(size=shape + (3,)), signed=False)
            got = cov_components(_components(w), _components(dw), k, chirality)
            ref = pointwise(lambda u, d: ref_cov_vector(u, d, gs[k - 1]), shape, w, dw)
            assert all(_same_bytes(got[i], ref[..., i]) for i in range(3))
            dw = _with_zeros(rng, rng.normal(size=shape + (3,)), signed=False)
            got = cov_components(_components(w), _components(dw), k, chirality, _components(ak))
            ref = pointwise(lambda u, d, a: ref_cov_vector(u, d, gs[k - 1], a), shape, w, dw, ak)
            assert all(_same_bytes(got[i], ref[..., i]) for i in range(3))


@pytest.mark.parametrize("chirality", list(Chirality))
@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
def test_divergence_kernel_bytes(chirality, shape):
    rng = _rng(2, chirality, shape)
    M = _symmetric(rng, shape)
    dM = np.stack([_symmetric(rng, shape, signed=False) for _ in range(3)], axis=-3)
    got = divergence_components(_components(M, 2), [_components(dM[..., k, :, :], 2) for k in range(3)], chirality)
    ref = pointwise(lambda m, d: ref_divergence(m, d, gammas(chirality)), shape, M, dM)
    assert all(_same_bytes(got[i], ref[..., i]) for i in range(3))


def _kernel_fields():
    fields = dict(_fields())
    for kind in ("plus-id", "right-133"):
        fields[kind] = known_example(kind)
    return fields


@pytest.mark.parametrize("name", ["left-133", "plus-id", "right-133", "quartic", "quartic-fd"])
def test_consumers_match_matrix_form_bytes(name):
    A = _kernel_fields()[name]
    gs = gammas(A.chirality)
    directions = _directions()
    for pts in _SHAPES:
        batch, jet = pts.shape[:-1], _matrix_jet(A, pts)
        flats = [pointwise(lambda M, dM: ref_flatness(M, dM, gs, x, y), batch, *jet) for x, y in directions]
        for (x, y), ref in zip(directions, flats):
            assert _same_bytes(flatness_residual(A, pts, x, y), ref)
            assert _same_bytes(residual_norm(ref), pointwise(ref_norm, ref.shape[:-1], ref))
        norms = pointwise(lambda M, dM: [ref_norm(ref_flatness(M, dM, gs, *d)) for d in directions[:3]], batch, *jet)
        assert _same_bytes(flatness_residual_norms(A, pts), norms)
        scalar, vec = gauss_codazzi_residual(A, pts)
        assert _same_bytes(scalar, pointwise(ref_gauss_codazzi_scalar, batch, jet[0]))
        assert _same_bytes(vec, pointwise(lambda M, dM: ref_gauss_codazzi_vector(M, dM, gs), batch, *jet))
        assert _same_bytes(divergence_A(A, pts), pointwise(lambda M, dM: ref_divergence(M, dM, gs), batch, *jet))


@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
def test_dot_cross_and_trace_kernel_bytes(shape):
    # the component helpers on arrays against Python floats point by point;
    # signed zeros and spread exponents tell sum orders apart
    rng = np.random.default_rng([3, *shape])

    def draw(*tail):
        return _with_zeros(rng, rng.normal(size=shape + tail) * 10.0 ** rng.integers(-8, 9, size=shape + tail))

    for _ in range(20):
        M, N, x, y = draw(3, 3), draw(3, 3), draw(3), draw(3)
        m, n, xs, ys = _components(M, 2), _components(N, 2), _components(x), _components(y)
        checks = [
            ([dot_components(xs, ys)], lambda u, v: [dot(u, v)], (x, y)),
            (cross_components(xs, ys), cross, (x, y)),
            (matvec_components(m, xs), matvec, (M, x)),
            (matmul_components(m, n), lambda a, b: sum(matmul(a, b), []), (M, N)),
            ([trace_components(m)], lambda a: [trace(a)], (M,)),
            (hat_components(xs), lambda u: sum(hat(u), []), (x,)),
        ]
        for got, ref_fn, args in checks:
            ref = pointwise(ref_fn, shape, *args)
            assert all(_same_bytes(np.broadcast_to(g, shape), ref[..., i]) for i, g in enumerate(got))


# -- the symmetry condition, Xi and the Lie derivative -----------------------


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
    B_const = np.arange(9.0).reshape(3, 3) - 4.0
    for X in _vector_fields().values():
        lam = lam_of(X.chirality)
        for pts in _SYMMETRY_SHAPES:
            batch, (M, dM), (x, dx) = pts.shape[:-1], _matrix_jet(A, pts), _vector_jet(X, pts)
            first = pointwise(lambda m, u, du: ref_symmetry(m, u, du, lam), batch, M, x, dx)
            assert _same_bytes(symmetry_residual(A, X, pts), first)
            for B, Bm in ((A, M), (B_const, np.broadcast_to(B_const, batch + (3, 3)))):
                ref = pointwise(lambda m, u, du, b: ref_symmetry_with(m, u, du, b, lam), batch, M, x, dx, Bm)
                assert _same_bytes(symmetry_residual(A, X, pts, B=B), ref)
            got_first, got_div = xi_operator(A, X, pts)
            assert _same_bytes(got_first, first)
            assert _same_bytes(got_div, pointwise(ref_xi_scalar, batch, M, dM, x, dx))
            if X.chirality is A.chirality:
                ref = pointwise(lambda m, dm, z, dz: ref_lie(m, dm, z, dz, lam), batch, M, dM, x, dx)
                assert _same_bytes(lie_derivative_endo(A, X, pts), ref)
