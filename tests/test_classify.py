import numpy as np
import pytest

from cauchys3.cauchy import (
    SymEnd3Field,
    flatness_residual_norms,
    known_example,
    right_family_left_frame,
)
from cauchys3.classify import (
    HopfReducedData,
    S2EndField,
    _constant_frame_newton,
    codazzi_divfree_equiv,
    constant_frame_residual,
    constant_frame_solutions,
    constant_frame_solutions_bruteforce,
    hopf_reduce,
    hopf_reduction_residual,
    random_s2_points,
    s2_identity_field,
    s2_rigidity_residual,
    special_case_residual,
    tangent_basis,
)
from cauchys3.frame import Chirality, ScalarField, coordinate_field
from cauchys3.polynomial import Poly
from cauchys3.tensor import gamma_round

EXPECTED_SOLUTIONS = {
    (1.0, 1.0, 1.0),
    (-1.0, -1.0, -1.0),
    (1.0, -3.0, -3.0),
    (-3.0, 1.0, -3.0),
    (-3.0, -3.0, 1.0),
}


# ---------------------------------------------------------------------------
# constant-frame system
# ---------------------------------------------------------------------------


def test_constant_frame_residual_examples():
    assert np.allclose(constant_frame_residual((1, 1, 1)), 0)
    assert np.allclose(constant_frame_residual((1, -3, -3)), 0)
    assert np.allclose(constant_frame_residual((0, 0, 0)), [-1, -1, -1])


def test_constant_frame_solutions_case_split():
    assert constant_frame_solutions() == EXPECTED_SOLUTIONS


def test_constant_frame_solutions_bruteforce_oracle():
    # grid + Newton refinement finds exactly the same set
    assert constant_frame_solutions_bruteforce() == EXPECTED_SOLUTIONS


def _newton_seed_loop(grid, span):
    """Reference oracle: one Newton loop per seed, on Python floats.

    Returns every seed's final iterate, its converged flag and how often
    the 3x3 solve raised LinAlgError.
    """
    from itertools import product

    def residual(a, b, c):
        return np.array(
            [(a + 1) * (b + 1) - 2 * (c + 1), (b + 1) * (c + 1) - 2 * (a + 1), (a + 1) * (c + 1) - 2 * (b + 1)]
        )

    def jacobian(a, b, c):
        return np.array([[b + 1, a + 1, -2.0], [-2.0, c + 1, b + 1], [c + 1, -2.0, a + 1]])

    finals, flags, singular = [], [], 0
    for seed in product(np.linspace(-span, span, grid), repeat=3):
        v = np.array(seed, dtype=float)
        ok = False
        for _ in range(60):
            a, b, c = (float(x) for x in v)
            f = residual(a, b, c)
            if np.max(np.abs(f)) < 1e-12:
                ok = True
                break
            try:
                step = np.linalg.solve(jacobian(a, b, c), f)
            except np.linalg.LinAlgError:
                singular += 1
                break
            if not np.all(np.isfinite(step)) or np.max(np.abs(step)) > 1e3:
                break
            v = v - step
        finals.append(v)
        flags.append(ok)
    return np.array(finals), np.array(flags), singular


@pytest.mark.parametrize("grid, span", [(9, 5.0), (13, 6.0)])
def test_batched_newton_matches_seed_loop(grid, span):
    # the batched oracle retires each seed exactly where the loop stops it
    ref_v, ref_ok, singular = _newton_seed_loop(grid, span)
    v, ok = _constant_frame_newton(grid, span)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(v, ref_v)
    ref_roots = {tuple(np.round(r, 9) + 0.0) for r in ref_v[ref_ok]}
    assert constant_frame_solutions_bruteforce(grid, span) == ref_roots
    assert singular > 0  # so the batch's fallback for singular Jacobians runs


@pytest.mark.parametrize("grid, span", [(0, 6.0), (13, float("nan")), (13, 0.0)])
def test_bruteforce_rejects_degenerate_input(grid, span):
    # an empty grid would return an empty root set and prove nothing
    with pytest.raises(ValueError):
        constant_frame_solutions_bruteforce(grid, span)


def test_sign_enumeration_oracle():
    # brute force over {-2, 2}^3 shifts with even negativity, plus the
    # all-(-1) solution, reproduces the set
    from itertools import product

    found = {(-1.0, -1.0, -1.0)}
    for signs in product((2.0, -2.0), repeat=3):
        triple = tuple(s - 1.0 for s in signs)
        if np.max(np.abs(constant_frame_residual(triple))) < 1e-14:
            found.add(triple)
    assert found == EXPECTED_SOLUTIONS


def test_no_three_distinct_eigenvalues():
    for sol in constant_frame_solutions():
        assert len(set(sol)) <= 2


def test_cyclic_system_equals_unfactored_form(rng):
    # (a+1)(b+1) - 2(c+1) = (a + b - 2c) - (1 - ab): the factored system is
    # the diagonal flatness system as first written
    for _ in range(20):
        a, b, c = rng.normal(size=3)
        lhs = constant_frame_residual((a, b, c))
        rhs = np.array(
            [
                (a + b - 2 * c) - (1 - a * b),
                (b + c - 2 * a) - (1 - b * c),
                (c + a - 2 * b) - (1 - c * a),
            ]
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_submersion_vertical_part_identity():
    # nabla_U V = nabla-bar_U V + g(V, J U) xi for horizontal frame fields:
    # the vertical parts of the round table match g(V, J U)
    from cauchys3.tensor import levi_civita_round

    jmat = np.array([[0.0, -1.0], [1.0, 0.0]])  # J on (e2, e3)
    for i, u in ((2, 0), (3, 1)):
        for j, v in ((2, 0), (3, 1)):
            vert = levi_civita_round(i, j)[0]
            ju = jmat @ np.eye(2)[u]
            assert vert == ju @ np.eye(2)[v]


def test_solutions_are_flat(pts200):
    for sol in constant_frame_solutions():
        A = SymEnd3Field.from_constant_matrix(np.diag(sol), Chirality.LEFT)
        assert float(np.max(flatness_residual_norms(A, pts200))) < 1e-10
    # mirrored right-invariant triples
    for sol in constant_frame_solutions():
        if sol in ((1.0, 1.0, 1.0), (-1.0, -1.0, -1.0)):
            continue
        B = SymEnd3Field.from_constant_matrix(-np.diag(sol), Chirality.RIGHT)
        assert float(np.max(flatness_residual_norms(B, pts200))) < 1e-10


# ---------------------------------------------------------------------------
# Hopf reduction
# ---------------------------------------------------------------------------


def _reductions_of_known_families():
    return [
        ("plus-id", known_example("plus-id")),
        ("minus-id", known_example("minus-id")),
        ("left-133", known_example("left-133")),
        ("right-133", right_family_left_frame()),
    ]


def test_sd_residuals_vanish_on_known_families(pts200):
    for name, A in _reductions_of_known_families():
        h = hopf_reduce(A)
        res = hopf_reduction_residual(h, pts200)
        assert np.max(res) < 1e-10, name


def test_right_family_reduction_has_nonzero_v(pts200):
    h = hopf_reduce(right_family_left_frame())
    v = np.stack([c(pts200) for c in h.v], axis=-1)
    assert np.max(np.abs(v)) > 1.0  # the full four-equation system is exercised


def test_sd_zero_field_controls(pts50):
    zero = ScalarField.constant(0.0)
    h = HopfReducedData(f=zero, v=(zero, zero), B=((zero, zero), (zero, zero)))
    res = hopf_reduction_residual(h, pts50)
    per_eq = np.max(res, axis=0)
    assert per_eq[0] < 1e-15  # (B+1)Jv - df = 0 for the zero field
    assert per_eq[1] >= 0.5  # (f-1)J(B+1) has J-scale entries
    assert abs(per_eq[2] - 1.0) < 1e-15  # 2 - det(Id) = 1
    assert per_eq[3] < 1e-15


# The helper-based residual this package shipped before the jet: every
# field, derivative field and twisted field evaluated on its own.  Kept
# as an oracle for the jet-based hopf_reduction_residual.
_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _ref_gradient(f, pts):
    return np.stack([f.frame_derivative(2)(pts), f.frame_derivative(3)(pts)], axis=-1)


def _ref_horizontal_cov(G, wvals, pts):
    full = np.zeros(pts.shape[:-1] + (3,))
    full[..., 1:] = wvals
    return np.einsum("ij,...j->...i", G, full)


def _ref_nabla_v(h, pts):
    vvals = np.stack([c(pts) for c in h.v], axis=-1)
    out = np.zeros(pts.shape[:-1] + (2, 2))
    for i in range(2):
        dv = np.stack([c.frame_derivative(i + 2)(pts) for c in h.v], axis=-1)
        out[..., :, i] = dv + _ref_horizontal_cov(gamma_round(i + 2), vvals, pts)[..., 1:]
    return out


def _ref_div(fields, pts):
    div = np.zeros(pts.shape[:-1])
    wvals = np.stack([c(pts) for c in fields], axis=-1)
    for i in range(2):
        dw = fields[i].frame_derivative(i + 2)(pts)
        div = div + dw + _ref_horizontal_cov(gamma_round(i + 2), wvals, pts)[..., i + 1]
    return div


def _ref_delta_endo(fields, pts):
    Chat = np.zeros(pts.shape[:-1] + (3, 3))
    for i in range(2):
        for j in range(2):
            Chat[..., i + 1, j + 1] = fields[i][j](pts)
    delta = np.zeros(pts.shape[:-1] + (2,))
    for i in range(2):
        G = gamma_round(i + 2)
        dC = np.zeros(pts.shape[:-1] + (3, 3))
        for a in range(2):
            for b in range(2):
                dC[..., a + 1, b + 1] = fields[a][b].frame_derivative(i + 2)(pts)
        delta = delta - (dC + G @ Chat - Chat @ G)[..., 1:, i + 1]
    return delta


def _reference_hopf_residual(h, pts):
    f = h.f(pts)
    v = np.stack([c(pts) for c in h.v], axis=-1)
    B = np.zeros(pts.shape[:-1] + (2, 2))
    for i in range(2):
        for j in range(2):
            B[..., i, j] = h.B[i][j](pts)
    Bp1 = B + np.eye(2)
    jv = np.einsum("ij,...j->...i", _J2, v)
    r1 = np.einsum("...ij,...j->...i", Bp1, jv) - _ref_gradient(h.f, pts)
    outer = np.einsum("...i,...j->...ij", jv, v)
    r2 = (f - 1.0)[..., None, None] * np.einsum("ij,...jk->...ik", _J2, Bp1) - _ref_nabla_v(h, pts) - outer
    dstar = -_ref_div((-h.v[1], h.v[0]), pts)
    det = Bp1[..., 0, 0] * Bp1[..., 1, 1] - Bp1[..., 0, 1] * Bp1[..., 1, 0]
    r3 = 2.0 * (1.0 + f) - det - dstar
    bj = [
        [h.B[a][1] * _J2[1, 0] + h.B[a][0] * _J2[0, 0], h.B[a][0] * _J2[0, 1] + h.B[a][1] * _J2[1, 1]]
        for a in range(2)
    ]
    rhs4 = np.einsum("ij,...j->...i", _J2, np.einsum("...ij,...j->...i", B + 3.0 * np.eye(2), jv))
    r4 = _ref_delta_endo(bj, pts) - rhs4
    return np.stack(
        [
            np.max(np.abs(r1), axis=-1),
            np.max(np.abs(r2), axis=(-2, -1)),
            np.abs(r3),
            np.max(np.abs(r4), axis=-1),
        ],
        axis=-1,
    )


def _fd_wrapped(A):
    return SymEnd3Field(
        [[ScalarField.from_callable(A.entries[i][j], fd_step=1e-5) for j in range(3)] for i in range(3)],
        A.chirality,
    )


def _hopf_reference_case(name):
    if name == "zero":
        zero = ScalarField.constant(0.0)
        return HopfReducedData(f=zero, v=(zero, zero), B=((zero, zero), (zero, zero)))
    if name == "quartic-fd":
        return hopf_reduce(_fd_wrapped(right_family_left_frame()))
    if name == "noninvariant":  # every residual is nonzero somewhere
        a = [coordinate_field(m) for m in (1, 2, 3, 4)]
        A = SymEnd3Field(
            [[a[0], a[1] * 0.5, a[2]], [a[1] * 0.5, a[3], a[0] * 2.0], [a[2], a[0] * 2.0, 1.5]]
        )
        return hopf_reduce(A, check_invariance=False)
    return hopf_reduce(dict(_reductions_of_known_families())[name])


@pytest.mark.parametrize(
    "name", ["plus-id", "minus-id", "left-133", "right-133", "zero", "quartic-fd", "noninvariant"]
)
def test_hopf_residual_matches_reference_bit_for_bit(name, pts200):
    h = _hopf_reference_case(name)
    for pts in (pts200[:60], pts200[3], pts200[:24].reshape(4, 6, 4)):
        res = hopf_reduction_residual(h, pts)
        ref = _reference_hopf_residual(h, pts)
        assert res.dtype == ref.dtype and np.array_equal(res, ref), name
    if name == "noninvariant":
        assert np.all(np.max(_reference_hopf_residual(h, pts200), axis=0) > 0.1)


def test_special_case_rejects_asymmetric_block(pts50):
    with pytest.raises(ValueError):
        special_case_residual(1.0, np.array([[1.0, 0.5], [0.0, 1.0]]), pts50)


def test_special_case_rejects_asymmetric_field_block(pts50):
    f = coordinate_field(2)
    with pytest.raises(ValueError, match="B must be symmetric"):
        special_case_residual(f, [[f, coordinate_field(1)], [ScalarField.constant(5.0), f]], pts50)
    with pytest.raises(ValueError, match="B must be symmetric"):
        special_case_residual(f, [[f, coordinate_field(1)], [coordinate_field(3), f]], pts50)
    # an equal lower entry, as the same field or as equal terms, is accepted
    a1 = coordinate_field(1)
    same = special_case_residual(f, [[f, a1], [a1, f]], pts50)
    assert np.array_equal(same, special_case_residual(f, [[f, a1], [coordinate_field(1), f]], pts50))


def test_hopf_data_rejects_asymmetric_block():
    zero = ScalarField.constant(0.0)
    with pytest.raises(ValueError, match="B must be symmetric"):
        HopfReducedData(f=zero, v=(zero, zero), B=((zero, coordinate_field(1)), (zero, zero)))
    with pytest.raises(ValueError, match="B must be symmetric"):
        HopfReducedData(f=zero, v=(zero, zero), B=((zero, 0.5), (0.0, zero)))
    fd = ScalarField.from_callable(lambda p: p[..., 0])
    with pytest.raises(ValueError, match="B must be symmetric"):
        HopfReducedData(f=zero, v=(zero, zero), B=((zero, fd), (ScalarField.from_callable(lambda p: p[..., 0]), zero)))
    HopfReducedData(f=zero, v=(zero, zero), B=((zero, fd), (fd, zero)))
    HopfReducedData(f=zero, v=(zero, zero), B=((zero, 0.5), (0.5, zero)))


def test_hopf_reduce_rejects_noninvariant_fields():
    a1 = coordinate_field(1)
    zero = ScalarField.constant(0.0)
    one = ScalarField.constant(1.0)
    A = SymEnd3Field([[a1, zero, zero], [zero, one, zero], [zero, zero, one]])
    with pytest.raises(ValueError):
        hopf_reduce(A)


def test_hopf_reduce_requires_left_chirality():
    with pytest.raises(ValueError):
        hopf_reduce(known_example("right-133"))


def test_special_case_residuals(pts50):
    # f=1, B=Id corresponds to A = Id: det(2 Id) = 4 = 2(1+1)
    res = special_case_residual(1.0, np.eye(2), pts50)
    assert np.max(res) < 1e-14
    # f=1, B=-3 Id corresponds to A = xi@xi - 3P
    res = special_case_residual(1.0, -3.0 * np.eye(2), pts50)
    assert np.max(res) < 1e-14
    # f=0, B=0: second equation 2 - det(Id) = 1
    res = special_case_residual(0.0, np.zeros((2, 2)), pts50)
    per_eq = np.max(res, axis=0)
    assert per_eq[0] >= 0.5 and abs(per_eq[1] - 1.0) < 1e-15 and per_eq[2] < 1e-15


def test_minus_id_special_case(pts50):
    res = special_case_residual(-1.0, -np.eye(2), pts50)
    assert np.max(res) < 1e-14


# ---------------------------------------------------------------------------
# S^2 calculus
# ---------------------------------------------------------------------------


def test_tangent_basis_orthonormal():
    pts = random_s2_points(50, seed=9)
    for p in pts:
        x, jx = tangent_basis(p)
        gram = np.array([[x @ x, x @ jx], [jx @ x, jx @ jx]])
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12
        assert abs(x @ p) < 1e-12 and abs(jx @ p) < 1e-12
        # J = p x . : rotation by +pi/2
        assert np.allclose(np.cross(p, x), jx)
        assert np.allclose(np.cross(p, jx), -x)


def test_rigidity_residual_plus_minus_id():
    pts = random_s2_points(60, seed=1)
    for sign in (1.0, -1.0):
        U = S2EndField.from_constant(sign * np.eye(3))
        for p in pts:
            det_res, div_res = s2_rigidity_residual(U, p)
            assert abs(det_res) < 1e-12
            assert np.max(np.abs(div_res)) < 1e-12


def _random_poly_matrix(rng, symmetric=True, degree1=True):
    co = rng.normal(size=(3, 3, 4))

    def entry(i, j):
        c = 0.5 * (co[i, j] + co[j, i]) if symmetric else co[i, j]
        p = Poly.constant(c[0], 3)
        for m in range(3):
            p = p + c[m + 1] * Poly.coordinate(m, 3)
        return p

    return [[entry(i, j) for j in range(3)] for i in range(3)]


def test_perturbation_scaling_generic(rng):
    # affine perturbations: both residuals scale linearly in epsilon
    pts = random_s2_points(30, seed=3)
    mats = _random_poly_matrix(rng)
    results = {}
    for eps in (1e-2, 1e-3):
        pert = [
            [
                (Poly.constant(1.0, 3) if i == j else Poly.constant(0.0, 3))
                + eps * mats[i][j]
                for j in range(3)
            ]
            for i in range(3)
        ]
        U = S2EndField.from_polynomial_matrix(pert)
        dmax = vmax = 0.0
        for p in pts:
            det_res, div_res = s2_rigidity_residual(U, p)
            dmax = max(dmax, abs(det_res))
            vmax = max(vmax, float(np.max(np.abs(div_res))))
        results[eps] = (dmax, vmax)
    det_ratio = results[1e-2][0] / results[1e-3][0]
    div_ratio = results[1e-2][1] / results[1e-3][1]
    assert 8.0 < det_ratio < 12.0
    assert 8.0 < div_ratio < 12.0


def test_perturbation_scaling_tangentially_traceless(rng):
    # with a tangentially traceless direction the determinant residual is
    # exactly quadratic: det(Id + eps S) - 1 = eps^2 det_2(S) <= 0
    pts = random_s2_points(20, seed=13)
    mats = _random_poly_matrix(rng)
    px = [Poly.coordinate(m, 3) for m in range(3)]

    # S_tt = P M P - (1/2) tr(P M P) P, built polynomially
    def proj_entry(i, j):
        delta = Poly.constant(1.0 if i == j else 0.0, 3)
        return delta - px[i] * px[j]

    PMP = [
        [
            sum(
                (
                    proj_entry(i, a) * mats[a][b] * proj_entry(b, j)
                    for a in range(3)
                    for b in range(3)
                ),
                Poly.constant(0.0, 3),
            )
            for j in range(3)
        ]
        for i in range(3)
    ]
    tr = sum((PMP[i][i] for i in range(3)), Poly.constant(0.0, 3))
    Stt = [
        [PMP[i][j] - 0.5 * tr * proj_entry(i, j) for j in range(3)] for i in range(3)
    ]
    dets = {}
    for eps in (1e-2, 1e-3):
        pert = [
            [
                (Poly.constant(1.0, 3) if i == j else Poly.constant(0.0, 3))
                + eps * Stt[i][j]
                for j in range(3)
            ]
            for i in range(3)
        ]
        U = S2EndField.from_polynomial_matrix(pert)
        worst = 0.0
        signs = []
        for p in pts:
            det_res, _ = s2_rigidity_residual(U, p)
            worst = max(worst, abs(det_res))
            signs.append(det_res <= 1e-15)
        dets[eps] = worst
        assert all(signs)  # det(Id + eps S) - 1 = eps^2 det S <= 0
    ratio = dets[1e-2] / dets[1e-3]
    assert 80.0 < ratio < 120.0


@pytest.mark.parametrize("mode", ["exact", "fd"])
def test_codazzi_divfree_equivalence(rng, mode):
    pts = random_s2_points(100, seed=17)
    mats = _random_poly_matrix(rng)
    S = S2EndField.from_polynomial_matrix(mats)
    if mode == "fd":
        S = S2EndField(func=S.raw, fd_step=1e-5)
    tol = 1e-12 if mode == "exact" else 1e-6
    worst = 0.0
    for p in pts:
        lhs, rhs = codazzi_divfree_equiv(S, p)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < tol


def test_codazzi_equivalence_identity_parallel():
    # S = Id is parallel: both sides vanish (the Liebmann umbilical case)
    pts = random_s2_points(20, seed=23)
    for sign in (1.0, -1.0):
        U = S2EndField.from_constant(sign * np.eye(3))
        for p in pts:
            lhs, rhs = codazzi_divfree_equiv(U, p)
            assert np.max(np.abs(lhs)) < 1e-13
            assert np.max(np.abs(rhs)) < 1e-13


def test_s2_identity_field_values():
    pts = random_s2_points(10, seed=2)
    U = s2_identity_field()
    for p in pts:
        val = U.value(p)
        x, jx = tangent_basis(p)
        assert np.allclose(val @ x, x) and np.allclose(val @ jx, jx)
        assert np.max(np.abs(val @ p)) < 1e-14
