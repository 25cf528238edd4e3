import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchys3.frame import (
    Chirality,
    ScalarField,
    UnitQuaternion,
    coordinate_field,
    flow,
    harmonic_quadratic,
    invariant_vector,
    quat_mul,
    random_points,
)

I = np.array([0.0, 1, 0, 0])
J = np.array([0.0, 0, 1, 0])
K = np.array([0.0, 0, 0, 1])
ONE = np.array([1.0, 0, 0, 0])


def hopf_project(q) -> np.ndarray:
    """Hopf projection q -> (1/2) q i conj(q), returned as its (i,j,k) part.

    The image lies on the 2-sphere of radius 1/2; the real part is zero.
    Invariant under q -> q*exp(i theta).
    """
    q = np.asarray(q, dtype=float)
    conj = q * np.array([1.0, -1.0, -1.0, -1.0])
    return 0.5 * quat_mul(quat_mul(q, I), conj)[..., 1:]


def test_quaternion_table():
    assert np.allclose(quat_mul(I, J), K)
    assert np.allclose(quat_mul(I, I), -ONE)
    assert np.allclose(quat_mul(J, K), I)
    q = random_points(1, seed=0)[0]
    assert np.allclose(quat_mul(ONE, q), q)


unit_quats = st.builds(
    lambda v: np.array(v) / np.linalg.norm(v),
    st.lists(
        st.floats(min_value=-1, max_value=1).filter(lambda x: abs(x) > 1e-3),
        min_size=4,
        max_size=4,
    ).filter(lambda v: np.linalg.norm(v) > 1e-2),
)


@given(p=unit_quats, q=unit_quats, r=unit_quats)
@settings(max_examples=60, deadline=None)
def test_quaternion_group_laws(p, q, r):
    # unit norm preserved, associativity, conjugate inverts
    prod = quat_mul(p, q)
    assert abs(np.linalg.norm(prod) - 1) < 1e-12
    assert np.allclose(quat_mul(quat_mul(p, q), r), quat_mul(p, quat_mul(q, r)), atol=1e-12)
    conj = p * np.array([1.0, -1, -1, -1])
    assert np.allclose(quat_mul(p, conj), ONE, atol=1e-12)


def test_unit_quaternion_validation():
    UnitQuaternion(ONE)
    with pytest.raises(ValueError):
        UnitQuaternion(2 * ONE)
    q = UnitQuaternion(2 * ONE, normalize=True)
    assert np.allclose(q.q, ONE)


def test_invariant_vector_values():
    assert np.allclose(invariant_vector(ONE, 1, Chirality.LEFT), I)
    # j * i = -k  (left field e_1 at q = j)
    assert np.allclose(invariant_vector(J, 1, Chirality.LEFT), -K)
    assert np.allclose(invariant_vector(J, 1, Chirality.RIGHT), quat_mul(I, J))


def test_invariant_vector_orthonormal(pts200):
    for c in Chirality:
        for k in (1, 2, 3):
            v = invariant_vector(pts200, k, c)
            assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1)) < 1e-12
            assert np.max(np.abs(np.sum(v * pts200, axis=1))) < 1e-12


def test_invariant_vector_matches_flow_derivative(pts200):
    # central finite difference of the flow, h = 1e-6, agreement 1e-9
    h = 1e-6
    for c in Chirality:
        for k in (1, 2, 3):
            plus = flow(pts200, k, h, c).q
            minus = flow(pts200, k, -h, c).q
            fd = (plus - minus) / (2 * h)
            assert np.max(np.abs(fd - invariant_vector(pts200, k, c))) < 1e-9


def test_flow_examples():
    got = flow(ONE, 1, np.pi / 2, Chirality.LEFT)
    assert np.allclose(got.q, I, atol=1e-15)
    q = random_points(5, seed=3)
    assert np.allclose(flow(q, 2, 0.0, Chirality.LEFT).q, q)
    # group property
    a = flow(flow(q, 3, 0.4), 3, 0.25).q
    b = flow(q, 3, 0.65).q
    assert np.max(np.abs(a - b)) < 1e-12


def test_directional_derivative_linear_coordinate(pts200):
    f = coordinate_field(1)  # a1
    a2 = coordinate_field(2)(pts200)
    val = f.frame_derivative(1, Chirality.LEFT)(pts200)
    assert np.max(np.abs(val + a2)) < 1e-14

    const = ScalarField.constant(3.5)
    for d in (const.frame_derivative(1), const.frame_derivative(3).frame_derivative(2)):
        assert np.max(np.abs(d(pts200))) == 0.0


# Nested central second differences have a float64 roundoff floor of
# eps/(4 h^2) ~ 1e-6 at the default h = 1e-5, so the FD-mode bracket
# tolerance is pinned at 1e-5 (measured worst ~3e-6 on the quadratics).
@pytest.mark.parametrize("mode,tol", [("exact", 1e-12), ("fd", 1e-5)])
def test_bracket_identity_left(pts200, mode, tol):
    # [e_a, e_b] f = 2 e_c f for even permutations, left frame
    poly = harmonic_quadratic(2)
    f = poly if mode == "exact" else ScalarField.from_callable(poly, fd_step=1e-5)
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        # e_a e_b f = e_a (e_b f)
        lhs = f.frame_derivative(b).frame_derivative(a)(pts200) - f.frame_derivative(a).frame_derivative(b)(pts200)
        rhs = 2.0 * f.frame_derivative(c)(pts200)
        assert np.max(np.abs(lhs - rhs)) < tol


@pytest.mark.parametrize("mode,tol", [("exact", 1e-12), ("fd", 1e-5)])
def test_bracket_identity_right_measured(pts200, mode, tol):
    # measured structure constants of the right-invariant frame: the sign flips
    poly = harmonic_quadratic(3)
    f = poly if mode == "exact" else ScalarField.from_callable(poly, fd_step=1e-5)
    R = Chirality.RIGHT
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        lhs = f.frame_derivative(b, R).frame_derivative(a, R)(pts200) - (
            f.frame_derivative(a, R).frame_derivative(b, R)(pts200)
        )
        rhs = -2.0 * f.frame_derivative(c, R)(pts200)
        assert np.max(np.abs(lhs - rhs)) < tol


def test_fd_second_order_convergence(pts50):
    # halving h cuts the central-difference error by ~4 on a smooth field
    poly = harmonic_quadratic(1).poly * harmonic_quadratic(2).poly  # quartic
    exact = ScalarField(poly=poly)
    ref = exact.frame_derivative(2)(pts50)
    errs = []
    for h in (1e-2, 5e-3):
        fd = ScalarField.from_callable(exact, fd_step=h)
        errs.append(np.max(np.abs(fd.frame_derivative(2)(pts50) - ref)))
    factor = errs[0] / errs[1]
    assert 3.5 <= factor <= 4.5


def test_fd_word_length_limit(pts50):
    f = ScalarField.from_callable(lambda a: a[..., 0] ** 3, fd_step=1e-4)
    f.frame_derivative(2).frame_derivative(1)(pts50)  # two is fine
    with pytest.raises(ValueError, match="at most two derivatives"):
        f.frame_derivative(3).frame_derivative(2).frame_derivative(1)


def test_hopf_projection(pts200, rng):
    assert np.allclose(hopf_project(ONE), [0.5, 0, 0])
    # fiber invariance under q -> q e^{i theta}
    thetas = rng.uniform(0, 2 * np.pi, size=100)
    base = hopf_project(pts200[:100])
    moved = hopf_project(flow(pts200[:100], 1, thetas, Chirality.LEFT).q)
    assert np.max(np.abs(base - moved)) < 1e-12
    # radius 1/2
    assert np.max(np.abs(np.linalg.norm(base, axis=1) - 0.5)) < 1e-12
    # first component of 2 * projection is the first harmonic quadratic
    q1 = harmonic_quadratic(1)(pts200)
    assert np.max(np.abs(2 * hopf_project(pts200)[:, 0] - q1)) < 1e-13


def test_harmonic_quadratics(pts200):
    assert harmonic_quadratic(1)(ONE) == 1.0
    assert harmonic_quadratic(2)(ONE) == 0.0
    for k in (1, 2, 3):
        d = harmonic_quadratic(k).frame_derivative(1)(pts200)
        assert np.max(np.abs(d)) < 1e-13


def test_tangent_vec():
    # sum_k c_k e_k at q, in either invariant frame
    q = UnitQuaternion(random_points(1, seed=8)[0])
    c = np.array([1.0, -2.0, 0.5])
    for chirality in Chirality:
        amb = sum(c[k - 1] * invariant_vector(q, k, chirality) for k in (1, 2, 3))
        assert abs(np.dot(amb, q.q)) < 1e-12  # tangent to the sphere
        assert abs(np.linalg.norm(amb) - np.linalg.norm(c)) < 1e-12  # frame is orthonormal


def test_random_points_deterministic():
    assert np.array_equal(random_points(10, seed=5), random_points(10, seed=5))
    assert not np.array_equal(random_points(10, seed=5), random_points(10, seed=6))
    assert np.max(np.abs(np.linalg.norm(random_points(10, seed=5), axis=1) - 1)) < 1e-15
