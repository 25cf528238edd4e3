import numpy as np
import pytest

from cauchys3.cauchy import (
    FRAME_PAIRS,
    SymEnd3Field,
    VectorField3,
    definiteness_check,
    flatness_residual,
    flatness_residual_norms,
    gauss_codazzi_residual,
    known_example,
    linearized_residual,
    modified_connection,
    right_family_left_frame,
    symmetry_residual,
    xi_operator,
)
from cauchys3.deformation import A0, DeformVector, deformation_field
from cauchys3.exprspec import parse_field_spec
from cauchys3.frame import Chirality, ScalarField, frame_jet, harmonic_quadratic, random_points
from cauchys3.tensor import gamma_round, hodge_star, wedge_endo

E1, E2, E3 = np.eye(3)


@pytest.fixture(scope="module")
def pts500():
    return random_points(500, seed=11)


def test_known_families_are_flat(pts500, rng):
    # residual vanishes at 500 random (q, X, Y), not only frame pairs
    for kind in ("plus-id", "minus-id", "left-133", "right-133"):
        A = known_example(kind)
        xs = rng.normal(size=(500, 3))
        ys = rng.normal(size=(500, 3))
        worst = 0.0
        for i in range(0, 500, 100):  # batches of identical (X, Y) per chunk
            x, y = xs[i], ys[i]
            res = flatness_residual(A, pts500[i : i + 100], x=x, y=y)
            worst = max(worst, float(np.max(np.abs(res))))
        assert worst < 1e-12, kind


def test_right_family_in_left_frame_is_flat(pts500):
    A = right_family_left_frame()
    assert float(np.max(flatness_residual_norms(A, pts500))) < 1e-12


def test_left_family_in_right_frame_is_flat(pts500):
    # the mirror construction: diag(1,-3,-3) with axis the left field e_1,
    # re-expressed with position-dependent coefficients in the right frame;
    # exercises the right-frame derivative and connection machinery on a
    # nonconstant field
    from cauchys3.frame import FRAME_MATRICES
    from cauchys3.polynomial import Poly

    L = FRAME_MATRICES[(Chirality.LEFT, 1)]  # ambient matrix of q -> q*i
    cos = []
    for k in (1, 2, 3):
        R = FRAME_MATRICES[(Chirality.RIGHT, k)]
        M = L.T @ R
        p = Poly(4, {})
        for m in range(4):
            for n in range(4):
                if M[m, n] != 0.0:
                    e = [0, 0, 0, 0]
                    e[m] += 1
                    e[n] += 1
                    p = p + Poly(4, {tuple(e): M[m, n]})
        cos.append(p)
    entries = [
        [
            ScalarField(
                poly=Poly.constant(-3.0 if i == j else 0.0, 4) + 4.0 * (cos[i] * cos[j])
            )
            for j in range(3)
        ]
        for i in range(3)
    ]
    A = SymEnd3Field(entries, Chirality.RIGHT)
    assert float(np.max(flatness_residual_norms(A, pts500))) < 1e-12
    s, v = gauss_codazzi_residual(A, pts500[:100])
    assert np.max(np.abs(s)) < 1e-11 and np.max(np.abs(v)) < 1e-11


def test_scaled_identity_residual(pts500):
    A = SymEnd3Field.identity(2.0)
    for x, y in ((E1, E2), (E2, E3), (np.array([1.0, 2.0, 0.5]), np.array([0.0, 1.0, -1.0]))):
        res = flatness_residual(A, pts500[:50], x=x, y=y)
        assert np.max(np.abs(res - 3.0 * wedge_endo(x, y))) < 1e-12


def test_flatness_bilinear_antisymmetric(pts500, rng):
    A = right_family_left_frame()  # genuinely position-dependent
    pts = pts500[:30]
    for _ in range(10):
        x, y, z = rng.normal(size=(3, 3))
        s, t = rng.normal(size=2)
        lhs = flatness_residual(A, pts, x=s * x + t * z, y=y)
        rhs = s * flatness_residual(A, pts, x=x, y=y) + t * flatness_residual(A, pts, x=z, y=y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        anti = flatness_residual(A, pts, x=y, y=x)
        assert np.max(np.abs(anti + flatness_residual(A, pts, x=x, y=y))) < 1e-12


def test_frame_freedom(pts500, rng):
    # conjugating a constant solution by a constant orthogonal matrix keeps it flat
    for _ in range(6):
        m = rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(m)
        A = known_example("left-133", rotation=q)
        assert float(np.max(flatness_residual_norms(A, pts500[:100]))) < 1e-12
        B = known_example("plus-id", rotation=q)
        assert np.allclose(B.matrix(pts500[:1])[0], np.eye(3))
    with pytest.raises(ValueError):
        known_example("left-133", rotation=np.diag([1.0, 2.0, 1.0]))


def test_gauss_codazzi(pts500):
    s, v = gauss_codazzi_residual(known_example("plus-id"), pts500)
    assert np.max(np.abs(s)) < 1e-12 and np.max(np.abs(v)) < 1e-12
    s, v = gauss_codazzi_residual(A0, pts500)
    assert np.max(np.abs(s)) < 1e-12 and np.max(np.abs(v)) < 1e-12
    s, v = gauss_codazzi_residual(SymEnd3Field.identity(0.0), pts500)
    assert np.allclose(s, 6.0) and np.max(np.abs(v)) < 1e-12


def test_gauss_codazzi_implied_by_flatness(pts500):
    # every family with vanishing flatness residual also satisfies the constraints
    for A in (
        known_example("plus-id"),
        known_example("minus-id"),
        A0,
        known_example("right-133"),
        right_family_left_frame(),
    ):
        assert float(np.max(flatness_residual_norms(A, pts500))) < 1e-12
        s, v = gauss_codazzi_residual(A, pts500)
        assert np.max(np.abs(s)) < 1e-11
        assert np.max(np.abs(v)) < 1e-11


def test_modified_connection(pts500):
    pts = pts500[:20]
    zero = SymEnd3Field.identity(0.0)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            got = modified_connection(zero, pts, a, b)
            assert np.max(np.abs(got - gamma_round(a)[:, b - 1])) < 1e-15
    ident = SymEnd3Field.identity()
    got = modified_connection(ident, pts, 1, 2)
    assert np.max(np.abs(got - 2 * E3)) < 1e-15
    # metric compatibility: <nabla^A_{e_a} e_b, e_c> is skew in (b, c)
    A = right_family_left_frame()
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for c in (1, 2, 3):
                vb = modified_connection(A, pts, a, b)[..., c - 1]
                vc = modified_connection(A, pts, a, c)[..., b - 1]
                assert np.max(np.abs(vb + vc)) < 1e-12


def test_linearized_residual_on_lie_derivatives(pts500):
    from cauchys3.deformation import LIE_E2_A0, LIE_E3_A0

    pts = pts500[:200]
    for L in (LIE_E2_A0, LIE_E3_A0):
        Adot = SymEnd3Field.from_constant_matrix(L)
        for pair in FRAME_PAIRS:
            val = linearized_residual(A0, Adot, pts, pair=pair)
            assert np.max(np.abs(val)) < 1e-12
    zero = SymEnd3Field.identity(0.0)
    assert np.max(np.abs(linearized_residual(A0, zero, pts, pair=(1, 2)))) == 0.0
    # trace directions are excluded: Adot = Id is not an infinitesimal deformation
    Adot = SymEnd3Field.identity()
    worst = max(
        float(np.max(np.abs(linearized_residual(A0, Adot, pts, pair=p)))) for p in FRAME_PAIRS
    )
    assert worst > 1e-2


def test_linearized_residual_is_t_derivative(pts500, rng):
    # *(d^{nabla^A} Adot) equals the finite-difference t-derivative of the
    # flatness residual along A0 + t Adot (step 1e-6, tolerance 1e-6)
    pts = pts500[:25]
    h = 1e-6
    for _ in range(8):
        m = rng.normal(size=(3, 3))
        Adot = SymEnd3Field.from_constant_matrix(0.5 * (m + m.T))
        for pair in FRAME_PAIRS:
            lin = hodge_star(linearized_residual(A0, Adot, pts, pair=pair))
            plus = flatness_residual(A0 + h * Adot, pts, pair=pair)
            minus = flatness_residual(A0 + (-h) * Adot, pts, pair=pair)
            fd = (plus - minus) / (2 * h)
            assert np.max(np.abs(lin - fd)) < 1e-6


def test_linearized_residual_fd_with_varying_coefficients(pts500):
    # same consistency with a position-dependent Adot (quadratic entries)
    zero = ScalarField.constant(0.0)
    q2 = harmonic_quadratic(2)
    q3 = harmonic_quadratic(3)
    Adot = SymEnd3Field([[q2, q3, zero], [q3, zero, q2], [zero, q2, q3]])
    pts = pts500[:25]
    h = 1e-6
    for pair in FRAME_PAIRS:
        lin = hodge_star(linearized_residual(A0, Adot, pts, pair=pair))
        plus = flatness_residual(A0 + h * Adot, pts, pair=pair)
        minus = flatness_residual(A0 + (-h) * Adot, pts, pair=pair)
        fd = (plus - minus) / (2 * h)
        assert np.max(np.abs(lin - fd)) < 1e-6


def test_flatness_matches_d_nabla_assembly(pts500, rng):
    # coherence of the two public code paths: R + *(d^nabla A) + A^A
    # assembled from tensor.d_nabla_A equals flatness_residual
    from cauchys3.tensor import d_nabla_A

    A = right_family_left_frame()
    pts = pts500[:30]
    M = A.matrix(pts)
    for _ in range(5):
        x, y = rng.normal(size=(2, 3))
        d = d_nabla_A(A, pts, x, y)
        ax = np.einsum("...ij,j->...i", M, x)
        ay = np.einsum("...ij,j->...i", M, y)
        assembled = -np.cross(x, y) + d + np.cross(ax, ay)  # R(X,Y) = -X ^ Y
        direct = flatness_residual(A, pts, x=x, y=y)
        assert np.max(np.abs(assembled - direct)) < 1e-12


def test_symmetry_residual(pts500):
    pts = pts500[:100]
    X = deformation_field(DeformVector((0.4, -1.0, 0.2), c2=0.3, c3=-0.7))
    res = symmetry_residual(A0, X, pts)
    assert np.max(np.abs(res)) < 1e-12

    zero = VectorField3([0.0, 0.0, 0.0])
    assert np.max(np.abs(symmetry_residual(A0, zero, pts))) == 0.0

    # A = A0, X = e1, B = 0: d e1 + *(A0 e1 + 5 e1) = 4 *e1
    e1 = VectorField3.frame_vector(1)
    res = symmetry_residual(A0, e1, pts)
    assert np.max(np.abs(res - 4.0 * E1)) < 1e-13


def test_symmetry_residual_matches_definition(pts500, rng):
    # vanishing residual <=> d^{nabla^A} X + B symmetric; check the link for B = 0
    # via the skew part of nabla^{A0} X on a known solution field
    from cauchys3.deformation import nabla_A0_of_deformation

    d = DeformVector((1.0, 0.5, -0.3), c2=0.2, c3=0.9)
    pts = pts500[:50]
    M = nabla_A0_of_deformation(d, pts)
    skew = M - np.swapaxes(M, -1, -2)
    assert np.max(np.abs(skew)) < 1e-12


def test_symmetry_residual_with_B(pts500):
    # a constant endomorphism-valued correction shifts the residual by
    # sum_k e_k ^ B(e_k)
    pts = pts500[:10]
    X = VectorField3.frame_vector(2)
    B = SymEnd3Field.from_constant_matrix(np.diag([1.0, 2.0, 3.0]))
    base = symmetry_residual(A0, X, pts)
    shifted = symmetry_residual(A0, X, pts, B=B)
    # sum_k e_k ^ (B e_k) = 0 for symmetric B; use a skew via raw matrix instead
    assert np.max(np.abs(shifted - base)) < 1e-14
    Braw = np.zeros((3, 3))
    Braw[0, 1] = 1.0  # B(e_2) = e_1
    shifted = symmetry_residual(A0, X, pts, B=Braw)
    expect = base + np.cross(E2, E1)
    assert np.max(np.abs(shifted - expect)) < 1e-14


def test_xi_operator(pts500):
    pts = pts500[:100]
    ident = SymEnd3Field.identity()
    e1 = VectorField3.frame_vector(1)
    first, second = xi_operator(ident, e1, pts)
    assert np.max(np.abs(first - (-4.0) * E1)) < 1e-13
    assert np.max(np.abs(second)) < 1e-13

    zero = VectorField3([0.0, 0.0, 0.0])
    first, second = xi_operator(ident, zero, pts)
    assert np.max(np.abs(first)) == 0.0 and np.max(np.abs(second)) == 0.0

    # kernel fields of the deformation module satisfy the first equation
    X = deformation_field(DeformVector((0.0, 1.0, 0.0), c2=-0.5, c3=0.25))
    first, _ = xi_operator(A0, X, pts)
    assert np.max(np.abs(first)) < 1e-12


def test_xi_divergence_against_ambient_fd_oracle(pts500):
    # independent check of the codifferential: the surface divergence of
    # W = X tr A - A X computed from ambient finite differences of the
    # field's R^4 representation, div W = sum_k <D_{e_k} W_amb, e_k>
    from cauchys3.frame import flow, invariant_vector

    A = right_family_left_frame()
    X = VectorField3([harmonic_quadratic(1), ScalarField.constant(0.5), harmonic_quadratic(3)])
    pts = pts500[:20]

    def w_coeffs(p):
        M = A.matrix(p)
        v = X.values(p)
        tr = np.trace(M, axis1=-2, axis2=-1)
        return v * tr[..., None] - np.einsum("...ij,...j->...i", M, v)

    def w_ambient(p):
        co = w_coeffs(p)
        frame = np.stack([invariant_vector(p, k) for k in (1, 2, 3)], axis=-2)
        return np.einsum("...k,...km->...m", co, frame)

    h = 1e-6
    div_fd = np.zeros(pts.shape[0])
    for k in (1, 2, 3):
        plus = w_ambient(flow(pts, k, h))
        minus = w_ambient(flow(pts, k, -h))
        dk = (plus - minus) / (2 * h)
        div_fd += np.einsum("...m,...m->...", dk, invariant_vector(pts, k))
    _, second = xi_operator(A, X, pts)
    assert np.max(np.abs(second + div_fd)) < 1e-7  # delta = -div


def test_definiteness_check():
    ok, sign = definiteness_check(np.diag([1.0, 1.0, 1.0]))
    assert ok and sign == -1  # Id - 3 Id = -2 Id is negative definite
    ok, sign = definiteness_check(np.diag([1.0, -3.0, -3.0]))
    assert ok and sign == 1  # diag(6, 2, 2)
    ok, sign = definiteness_check(np.diag([1.0, -1.0, 0.0]))
    assert not ok and sign is None


def _definiteness_by_eigenvalues(B):
    """Oracle: the eigenvalues of B, their pair-product sum and the shifted eigenvalues."""
    lam = np.linalg.eigvalsh(B)
    if lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2] <= 0:
        return False, None
    shifted = lam - lam.sum()
    return True, 1 if np.all(shifted > 0) else -1


def test_definiteness_check_matches_eigenvalue_oracle():
    rng = np.random.default_rng(20211)
    signs = set()
    for _ in range(500):
        m = rng.normal(size=(3, 3))
        B = m + m.T
        expected = _definiteness_by_eigenvalues(B)
        assert definiteness_check(B) == expected
        signs.add(expected[1])
    assert signs == {None, 1, -1}  # every branch was drawn


@pytest.mark.parametrize("B", [np.eye(2), np.eye(4)])
def test_definiteness_check_rejects_non_3x3(B):
    with pytest.raises(ValueError):
        definiteness_check(B)


def test_evaluation_is_order_independent(pts500, rng):
    # pointwise purity: permuting the sample permutes the residuals
    A = right_family_left_frame()
    pts = pts500[:64]
    perm = rng.permutation(len(pts))
    base = flatness_residual_norms(A, pts)
    shuffled = flatness_residual_norms(A, pts[perm])
    assert np.array_equal(base[perm], shuffled)


def test_symend_field_is_symmetric(pts500):
    q1 = harmonic_quadratic(1)
    zero = ScalarField.constant(0.0)
    A = SymEnd3Field(
        [[q1, harmonic_quadratic(2), zero], [harmonic_quadratic(2), q1, zero], [zero, zero, q1]]
    )
    M = A.matrix(pts500[:40])
    assert np.max(np.abs(M - np.swapaxes(M, -1, -2))) == 0.0


def test_symend_field_rejects_mismatched_lower_triangle(pts500):
    q1, q2 = harmonic_quadratic(1), harmonic_quadratic(2)
    f = ScalarField.from_callable(q1, fd_step=1e-5)
    bad = [
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[q1, q2, 0.0], [0.0, q1, 0.0], [0.0, 0.0, q1]],
        [[1.0, f, 0.0], [ScalarField.from_callable(lambda p: q1(p), fd_step=1e-5), 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, f, 0.0], [ScalarField.from_callable(q1, fd_step=1e-4), 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, q1, 0.0], [ScalarField.from_callable(q1), 1.0, 0.0], [0.0, 0.0, 1.0]],
    ]
    for entries in bad:
        with pytest.raises(ValueError, match="not symmetric"):
            SymEnd3Field(entries)
    # a constant matrix may differ from its transpose by rounding only, not by 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        SymEnd3Field.from_constant_matrix([[1.0, 1.0, 0.0], [1.000001, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # equal by value, by terms, or by callable and step
    same = [
        [[1, 2, 3], [2.0, 5, 6], [3, 6, 9]],
        [[q1, q2, 0.0], [q2 * 1.0, q1, 0.0], [ScalarField.constant(0.0), 0.0, q1]],
        [[1.0, f, 0.0], [ScalarField.from_callable(q1, fd_step=1e-5), 1.0, 0.0], [0.0, 0.0, 1.0]],
    ]
    for entries in same:
        M = SymEnd3Field(entries).matrix(pts500[:5])
        assert np.array_equal(M, np.swapaxes(M, -1, -2))
    # sums and multiples of finite-difference fields stay constructible
    Afd = SymEnd3Field([[ScalarField.from_callable(q1), f, 0.0], [f, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal((Afd + 2.0 * Afd).matrix(pts500[:5]), 3.0 * Afd.matrix(pts500[:5]))


def test_fd_mode_field_tolerance(pts500):
    # the same solution with coefficients behind finite differences
    # (h = 1e-5) stays flat to the FD-mode default tolerance 1e-6
    exact = right_family_left_frame()
    fd_entries = [
        [
            ScalarField.from_callable(exact.entries[i][j], fd_step=1e-5)
            for j in range(3)
        ]
        for i in range(3)
    ]
    Afd = SymEnd3Field(fd_entries)
    norms = flatness_residual_norms(Afd, pts500[:60])
    assert float(np.max(norms)) < 1e-6
    # and well below: only first derivatives enter the residual
    assert float(np.max(norms)) < 1e-8


README_SPEC = "sym(a1*a2 - a3^2, a4, a1*a3, 1 + a2^3, a4*a1, -a1)"


def _fd_wrapped(exact):
    entries = [
        [ScalarField.from_callable(exact.entries[i][j], fd_step=1e-5) for j in range(3)]
        for i in range(3)
    ]
    return SymEnd3Field(entries, exact.chirality)


def _per_entry(A, pts, k=None):
    """The matrix (k None) or its e_k-derivative, one ScalarField at a time."""
    out = np.zeros(pts.shape[:-1] + (3, 3))
    for i in range(3):
        for j in range(3):
            f = A.entries[i][j] if k is None else A.entries[i][j].frame_derivative(k, A.chirality)
            out[..., i, j] = f(pts)
    return out


def _assert_entries_equal(m, M):
    """The row-major 9-tuple m holds the entries of the (..., 3, 3) array M."""
    assert len(m) == 9
    for i in range(3):
        for j in range(3):
            assert np.array_equal(m[3 * i + j], M[..., i, j])


@pytest.mark.parametrize("name", ["rotated-left-133", "quartic", "readme-spec", "quartic-fd"])
def test_jet_matches_per_entry_evaluation_bit_for_bit(name, pts500, rng):
    if name == "rotated-left-133":
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        A = known_example("left-133", rotation=q)
    elif name == "quartic":
        A = right_family_left_frame()
    elif name == "readme-spec":
        A = parse_field_spec(README_SPEC)
    else:
        A = _fd_wrapped(right_family_left_frame())
    for pts in (pts500[:120], pts500[7], pts500[:24].reshape(4, 6, 4)):
        m, *dm = A.jet_components(pts)
        _assert_entries_equal(m, _per_entry(A, pts))
        _assert_entries_equal(m, A.matrix(pts))
        assert len(dm) == 3
        for k in (1, 2, 3):
            _assert_entries_equal(dm[k - 1], _per_entry(A, pts, k))
            _assert_entries_equal(dm[k - 1], A.frame_derivative_matrix(k, pts))


def test_fd_jet_shares_one_flow_pair_per_direction(pts500, monkeypatch):
    import cauchys3.frame as frame_module

    calls = []
    flow = frame_module.flow

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return flow(*args, **kwargs)

    monkeypatch.setattr(frame_module, "flow", counted)
    A = _fd_wrapped(right_family_left_frame())
    A.jet_components(pts500[:40])
    assert len(calls) == 6  # was 36: two flows for each of 6 entries x 3 directions
    assert sorted(calls) == sorted((k, s * 1e-5) for k in (1, 2, 3) for s in (1.0, -1.0))
    # a second step gets its own flows; exact entries need none
    calls.clear()
    exact = right_family_left_frame()
    mixed = SymEnd3Field(
        [
            [ScalarField.from_callable(exact.entries[0][0], fd_step=1e-4), exact.entries[0][1], exact.entries[0][2]],
            [exact.entries[0][1], ScalarField.from_callable(exact.entries[1][1], fd_step=1e-5), exact.entries[1][2]],
            [exact.entries[0][2], exact.entries[1][2], 2.0],
        ]
    )
    pts = pts500[:40]
    m, *dm = mixed.jet_components(pts)
    assert len(calls) == 12
    _assert_entries_equal(m, _per_entry(mixed, pts))
    for k in (1, 2, 3):
        _assert_entries_equal(dm[k - 1], _per_entry(mixed, pts, k))


def test_jet_rejects_third_fd_derivative(pts500):
    f = ScalarField.from_callable(lambda p: p[..., 0]).frame_derivative(1).frame_derivative(2)
    with pytest.raises(ValueError):
        SymEnd3Field([[f, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]).jet_components(pts500[:5])


@pytest.mark.parametrize("mode", ["exact", "fd"])
def test_vector_jet_symmetry_and_xi_match_per_field_evaluation(mode, pts500):
    X = deformation_field(DeformVector((0.3, -1.2, 0.7), c2=0.5, c3=-2.0))
    if mode == "fd":
        X = VectorField3([ScalarField.from_callable(c, fd_step=1e-5) for c in X.components])
    A = right_family_left_frame()
    pts = pts500[:50]
    x, *dx = (np.stack(vals, axis=-1) for vals in frame_jet(X.components, pts, X.chirality))
    assert np.array_equal(x, X.values(pts))
    d = [np.stack([c.frame_derivative(k)(pts) for c in X.components], axis=-1) for k in (1, 2, 3)]
    for k in range(3):
        assert np.array_equal(dx[k], d[k])
    # dX - *(X tr A - A X), assembled point by point in Python floats from the
    # per-field values, every sum left to right: (a0*b0 + a1*b1) + a2*b2
    expected = []
    for M, u, du in zip(A.matrix(pts).tolist(), x.tolist(), np.stack(d, axis=-2).tolist()):
        tr = M[0][0] + M[1][1] + M[2][2]
        row = [None] * 3
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            au = M[c][0] * u[0] + M[c][1] * u[1] + M[c][2] * u[2]
            row[c] = ((du[a][b] - du[b][a]) - 2.0 * u[c]) - (u[c] * tr - au)
        expected.append(row)
    expected = np.array(expected)
    assert np.array_equal(symmetry_residual(A, X, pts), expected)
    assert np.array_equal(xi_operator(A, X, pts)[0], expected)
