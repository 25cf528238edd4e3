"""The covariant kernel `tensor.cov_vector` against the assemblies it replaced.

linearized_residual, nabla^{A0} X and modified_connection each built
Gamma_k (+ hat(A e_k)) and applied it by hand before the kernel existed;
those assemblies, and the loops that built the connection tables, are
copied here as references and must agree with the kernel path bit for bit.
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
)
from cauchys3.deformation import (
    A0_MATRIX,
    DeformVector,
    deformation_basis,
    deformation_field,
    nabla_A0_of_deformation,
)
from cauchys3.frame import Chirality, ScalarField, random_points
from cauchys3.tensor import (
    BergerParams,
    cov_vector,
    gamma_berger,
    gamma_berger_orthonormal,
    gamma_round,
    hat,
    structure_constant,
)

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


def _ref_linearized_residual(A, Adot, pts, x, y):
    M = A.matrix(pts)
    N, dNs = Adot.jet(pts)
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
            assert np.array_equal(nabla_A0_of_deformation(d, pts), _ref_nabla_A0(*deformation_field(d).jet(pts)))
    # the kernel on a finite-difference vector field
    X = deformation_field(ds[-1])
    Xfd = VectorField3([ScalarField.from_callable(c, fd_step=1e-5) for c in X.components])
    for pts in _SHAPES:
        vals, dX = Xfd.jet(pts)
        got = np.stack([cov_vector(vals, dX[i], i + 1, ak=A0_MATRIX[:, i]) for i in range(3)], axis=-1)
        assert np.array_equal(got, _ref_nabla_A0(vals, dX))
