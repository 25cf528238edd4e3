import numpy as np

from cauchys3 import deformation
from cauchys3.cauchy import SymEnd3Field, VectorField3, symmetry_residual
from cauchys3.deformation import (
    A0,
    A0_MATRIX,
    LIE_E2_A0,
    LIE_E3_A0,
    DeformVector,
    berger_laplacian,
    deformation_basis,
    deformation_field,
    deformation_report,
    lemma_derivative_checks,
    lie_derivative_endo,
    nabla_A0_of_deformation,
    round_laplacian,
)
from cauchys3.frame import (
    Chirality,
    ScalarField,
    coordinate_field,
    harmonic_quadratic,
    invariant_vector,
    random_points,
)
from cauchys3.polynomial import Poly


def test_berger_laplacian_eigenvalue_8(pts200):
    for k in (1, 2, 3):
        q = harmonic_quadratic(k)
        res = berger_laplacian(q, pts200) - 8.0 * q(pts200)
        assert np.max(np.abs(res)) < 1e-12
    assert np.max(np.abs(berger_laplacian(ScalarField.constant(2.0), pts200))) == 0.0


def test_laplacians_on_linear_coordinate(pts200):
    a1 = coordinate_field(1)
    assert np.max(np.abs(round_laplacian(a1, pts200) - 3.0 * a1(pts200))) < 1e-13
    assert np.max(np.abs(berger_laplacian(a1, pts200) - 5.0 * a1(pts200))) < 1e-13


def test_round_laplacian_on_v8(pts200):
    # e_1 e_1 kills V_8, so the round and Berger Laplacians agree there
    for k in (1, 2, 3):
        q = harmonic_quadratic(k)
        assert np.max(np.abs(round_laplacian(q, pts200) - 8.0 * q(pts200))) < 1e-12


def test_lemma_derivative_identities(pts200):
    for k in (1, 2, 3):
        res = lemma_derivative_checks(k, pts200)
        assert np.max(np.abs(res)) < 1e-10


def test_lemma_derivative_columns_outside_v8(pts200, monkeypatch):
    # a negative control: on V_8 all four identities vanish, so one standing in
    # for another goes unseen; on f = a2^2 each column must be its own identity
    a2 = Poly.coordinate(1, 4)
    monkeypatch.setattr(deformation, "harmonic_quadratic", lambda k: ScalarField(poly=a2 * a2))
    q = pts200

    def dd(i, j):
        # e_i e_j f = 2 (e_i a2)(e_j a2) + 2 a2 (e_i e_j a2), with e_j a2 = (q u_j)_2 and e_i e_j a2 = (q u_i u_j)_2
        qi, qj = invariant_vector(q, i)[:, 1], invariant_vector(q, j)[:, 1]
        return 2.0 * qi * qj + 2.0 * q[:, 1] * invariant_vector(invariant_vector(q, i), j)[:, 1]

    f = q[:, 1] ** 2
    expect = [dd(2, 3), dd(3, 2), dd(2, 2) + 4.0 * f, dd(3, 3) + 4.0 * f]
    # the columns a swap would confuse differ here
    assert np.min([np.max(np.abs(expect[0] - expect[1])), np.max(np.abs(expect[2] - expect[3]))]) > 1.0
    res = lemma_derivative_checks(1, pts200)
    for col in range(4):
        assert np.max(np.abs(res[:, col] - expect[col])) < 1e-12


def _laplacian_field(f: ScalarField, weights=(1.0, 1.0, 1.0)) -> ScalarField:
    """-(w1 e1 e1 + w2 e2 e2 + w3 e3 e3) f as an exact polynomial field."""
    out = None
    for j, w in zip((1, 2, 3), weights):
        piece = f.frame_derivative(j).frame_derivative(j).poly * w
        out = piece if out is None else out + piece
    return ScalarField(poly=-1.0 * out)


def test_round_laplacian_commutes_with_frame(pts200):
    # the frame fields are Killing for the round metric: [Delta, e_k] = 0
    f = ScalarField(poly=harmonic_quadratic(1).poly * coordinate_field(2).poly)
    lap_f = _laplacian_field(f)
    for k in (1, 2, 3):
        lhs = round_laplacian(f.frame_derivative(k), pts200)
        rhs = lap_f.frame_derivative(k)(pts200)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_berger_laplacian_commutes_with_e1_only(pts200):
    # Delta_B commutes with e_1; for e_2, e_3 the commutator is -4(e1 e3 + e3 e1)
    # respectively +4(e1 e2 + e2 e1), nonzero in general
    f = ScalarField(poly=harmonic_quadratic(2).poly * coordinate_field(1).poly)
    lapB_f = _laplacian_field(f, weights=(3.0, 1.0, 1.0))

    comm1 = berger_laplacian(f.frame_derivative(1), pts200) - lapB_f.frame_derivative(1)(
        pts200
    )
    assert np.max(np.abs(comm1)) < 1e-10

    comm2 = berger_laplacian(f.frame_derivative(2), pts200) - lapB_f.frame_derivative(2)(
        pts200
    )
    assert np.max(np.abs(comm2)) > 1e-3  # genuinely fails to commute


def test_deformation_field_examples(pts50):
    X = deformation_field(DeformVector((0.0, 0.0, 0.0), c2=1.0))
    vals = X.values(pts50)
    assert np.allclose(vals, np.array([0.0, 1.0, 0.0]))
    d = DeformVector((1.0, 0.0, 0.0))
    X = deformation_field(d)
    q1 = harmonic_quadratic(1)
    e3q1 = q1.frame_derivative(3, Chirality.LEFT)(pts50)
    assert np.max(np.abs(X.values(pts50)[:, 1] + 0.5 * e3q1)) < 1e-13


def test_deformation_fields_solve_symmetry_equation(pts200, rng):
    # every member of the 5-parameter family satisfies dX + *(A0 X + 5X) = 0
    for _ in range(6):
        d = DeformVector(tuple(rng.normal(size=3)), c2=rng.normal(), c3=rng.normal())
        X = deformation_field(d)
        res = symmetry_residual(A0, X, pts200)
        assert np.max(np.abs(res)) < 1e-10


def test_lie_derivative_displays(pts50):
    e2 = VectorField3.frame_vector(2)
    e3 = VectorField3.frame_vector(3)
    e1 = VectorField3.frame_vector(1)
    L2 = lie_derivative_endo(A0, e2, pts50)
    L3 = lie_derivative_endo(A0, e3, pts50)
    L1 = lie_derivative_endo(A0, e1, pts50)
    assert np.max(np.abs(L2 - LIE_E2_A0)) < 1e-13
    assert np.max(np.abs(L3 - LIE_E3_A0)) < 1e-13
    assert np.max(np.abs(L1)) < 1e-13


def test_lie_derivative_right_invariant_field_along_e1(pts50):
    # right-invariant tensors are invariant under the flow of left fields
    from cauchys3.cauchy import right_family_left_frame

    A = right_family_left_frame()
    e1 = VectorField3.frame_vector(1)
    L = lie_derivative_endo(A, e1, pts50)
    assert np.max(np.abs(L)) < 1e-12


def test_nabla_A0_structure(pts200, rng):
    # symmetric, zero diagonal, zero (2,3) entry, constant off-diagonal block
    for _ in range(5):
        d = DeformVector(tuple(rng.normal(size=3)), c2=rng.normal(), c3=rng.normal())
        M = nabla_A0_of_deformation(d, pts200[:100])
        assert np.max(np.abs(M - np.swapaxes(M, -1, -2))) < 1e-10
        for i in range(3):
            assert np.max(np.abs(M[..., i, i])) < 1e-10
        assert np.max(np.abs(M[..., 1, 2])) < 1e-10
        pred = -0.25 * (d.c2 * LIE_E2_A0 + d.c3 * LIE_E3_A0)
        assert np.max(np.abs(M - pred)) < 1e-10


def test_pure_v8_modes_map_to_zero(pts50):
    for k in range(3):
        p = [0.0, 0.0, 0.0]
        p[k] = 1.0
        M = nabla_A0_of_deformation(DeformVector(tuple(p)), pts50)
        assert np.max(np.abs(M)) < 1e-12


def test_constants_map_into_lie_span(pts50):
    M = nabla_A0_of_deformation(DeformVector((0.0, 0.0, 0.0), c2=0.7, c3=-1.3), pts50)
    target = -0.25 * (0.7 * LIE_E2_A0 + (-1.3) * LIE_E3_A0)
    assert np.max(np.abs(M - target)) < 1e-12


def test_component_laplacians_on_solution_fields(pts200, rng):
    # on the solution family the round Laplacian couples the components:
    # Delta x^2 = -4 e_3(x^1) and Delta x^3 = 4 e_2(x^1)
    for _ in range(4):
        d = DeformVector(tuple(rng.normal(size=3)), c2=rng.normal(), c3=rng.normal())
        X = deformation_field(d)
        x1, x2, x3 = X.components
        lhs2 = round_laplacian(x2, pts200)
        rhs2 = -4.0 * x1.frame_derivative(3, Chirality.LEFT)(pts200)
        assert np.max(np.abs(lhs2 - rhs2)) < 1e-10
        lhs3 = round_laplacian(x3, pts200)
        rhs3 = 4.0 * x1.frame_derivative(2, Chirality.LEFT)(pts200)
        assert np.max(np.abs(lhs3 - rhs3)) < 1e-10


def test_deformation_report_dimensions(pts200):
    rep = deformation_report(pts200)
    assert rep["solution_space_dim"] == 5
    assert rep["image_span_dim"] == 2
    assert rep["span_membership_error"] < 1e-10
    assert rep["pairing_error"] < 1e-10


def test_deformation_report_dimensions_at_2000_points():
    # the sample matrix is (5, 6000); its rank comes from the tall transpose
    rep = deformation_report(random_points(2000, seed=1))
    assert rep["solution_space_dim"] == 5
    assert rep["image_span_dim"] == 2


def test_linearized_residual_of_image_fields(pts200):
    # Adot = nabla^{A0} X solves the linearized equation for every basis d
    from cauchys3.cauchy import FRAME_PAIRS, linearized_residual

    for d in deformation_basis():
        img = nabla_A0_of_deformation(d, pts200[:1])[0]
        Adot = SymEnd3Field.from_constant_matrix(0.5 * (img + img.T))
        worst = max(
            float(np.max(np.abs(linearized_residual(A0, Adot, pts200, pair=p))))
            for p in FRAME_PAIRS
        )
        assert worst < 1e-8


def test_a0_matrix():
    assert np.allclose(A0_MATRIX, np.diag([1.0, -3.0, -3.0]))
    assert np.allclose(A0.matrix(np.array([[1.0, 0, 0, 0]]))[0], A0_MATRIX)
