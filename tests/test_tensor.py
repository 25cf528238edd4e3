import numpy as np
import pytest

from cauchys3.cauchy import (
    SymEnd3Field,
    VectorField3,
    flatness_residual,
    known_example,
    linearized_residual,
    modified_connection,
    right_family_left_frame,
)
from cauchys3.frame import Chirality, ScalarField, coordinate_field, flow, invariant_vector, random_points
from cauchys3.tensor import (
    BergerParams,
    curvature_berger,
    d_nabla_A,
    divergence_A,
    gamma_berger,
    gamma_berger_orthonormal,
    gamma_round,
    hat,
    hodge_star,
    unhat,
    wedge_endo,
)

E1, E2, E3 = np.eye(3)


def test_wedge_endomorphism_convention():
    # (e1 ^ e2) e2 = -e1, (X ^ Y) Z = <X,Z> Y - <Y,Z> X
    w = hat(wedge_endo(E1, E2))
    assert np.allclose(w @ E2, -E1)
    assert np.allclose(w @ E3, 0)
    assert np.allclose(wedge_endo(E2, E2), 0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y, z = rng.normal(size=(3, 3))
        lhs = hat(wedge_endo(x, y)) @ z
        rhs = (x @ z) * y - (y @ z) * x
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_hodge_star_identities(rng):
    # *e1 = e2 ^ e3 and the contraction identities
    assert np.allclose(hodge_star(E1), wedge_endo(E2, E3))
    for _ in range(100):
        x, y = rng.normal(size=(2, 3))
        # X _| *Y = -*(X ^ Y); X contracted into the 2-form with dual vector s is s x X
        assert np.allclose(np.cross(hodge_star(y), x), -hodge_star(wedge_endo(x, y)))
        # X ^ *alpha = -*(X _| alpha), alpha a 2-form (dual vector a)
        a = rng.normal(size=3)
        lhs = wedge_endo(x, hodge_star(a))  # X ^ (*alpha) as a 2-form
        rhs = -hodge_star(np.cross(a, x))
        assert np.allclose(lhs, rhs, atol=1e-12)
    # involution on storage
    v = rng.normal(size=3)
    assert np.allclose(hodge_star(hodge_star(v)), v)
    assert np.allclose(unhat(hat(v)), v)


@pytest.mark.parametrize("bad", [0, 4, -1])
def test_frame_index_outside_one_to_three_is_rejected(bad):
    # every entry point that reads a frame index, each index slot; without
    # the check, 0 and -1 wrap to e_3 or give a zero vector and 4 a zero field
    A, pts = known_example("left-133"), random_points(3, seed=4)
    fd = ScalarField.from_callable(coordinate_field(1), fd_step=1e-4)
    calls = [
        lambda: modified_connection(A, pts, bad, 1),
        lambda: modified_connection(A, pts, 1, bad),
        lambda: flatness_residual(A, pts, pair=(bad, 2)),
        lambda: flatness_residual(A, pts, pair=(1, bad)),
        lambda: linearized_residual(A, A, pts, pair=(bad, 2)),
        lambda: VectorField3.frame_vector(bad),
        lambda: coordinate_field(1).frame_derivative(bad),
        lambda: fd.frame_derivative(bad),
    ]
    for chir in Chirality:
        calls += [
            lambda chir=chir: gamma_round(bad, chir),
            lambda chir=chir: flow(pts, bad, 0.1, chir),
            lambda chir=chir: invariant_vector(pts, bad, chir),
        ]
    for call in calls:
        with pytest.raises(ValueError, match="frame index must be 1, 2 or 3"):
            call()
    for a in (1, 2, 3):
        assert gamma_round(a).shape == (3, 3)


@pytest.mark.parametrize("x,y,pair", [(E1, E2, (1, 2)), (None, None, None), (E1, None, None), (None, E2, (1, 2))])
def test_frame_directions_need_exactly_one_of_pair_and_xy(x, y, pair):
    A, pts = known_example("left-133"), random_points(3, seed=4)
    for call in (
        lambda: flatness_residual(A, pts, x=x, y=y, pair=pair),
        lambda: linearized_residual(A, A, pts, x=x, y=y, pair=pair),
    ):
        with pytest.raises(ValueError, match="exactly one of pair"):
            call()


def test_levi_civita_round_table():
    # nabla_{e_a} e_b is column b - 1 of gamma_round(a)
    assert np.allclose(gamma_round(1)[:, 1], E3)
    assert np.allclose(gamma_round(2)[:, 1], 0)
    assert np.allclose(gamma_round(3)[:, 0], E2)
    assert np.allclose(gamma_round(2)[:, 0], -E3)
    # right frame: nabla_{e_a} e_b = (lambda/2)[e_a,e_b] with lambda = -2
    assert np.allclose(gamma_round(1, Chirality.RIGHT)[:, 1], -E3)


def _round_curvature_bruteforce(x, y, lam=2.0):
    """R(X,Y) = [Gam(X), Gam(Y)] - Gam([X,Y]) for constant-coefficient fields."""
    chir = Chirality.LEFT if lam > 0 else Chirality.RIGHT

    def gam(v):
        return sum(v[k] * gamma_round(k + 1, chir) for k in range(3))

    bracket = lam * np.cross(x, y)
    return gam(x) @ gam(y) - gam(y) @ gam(x) - gam(bracket)


def curvature_round(x, y):
    """R(X,Y) = -X ^ Y on the round sphere, as a dual vector (the curvature `cauchy._flatness` uses)."""
    return -np.cross(x, y)


def test_curvature_round(rng):
    assert np.allclose(hat(curvature_round(E1, E2)) @ E2, E1)
    assert np.allclose(curvature_round(E2, E2), 0)
    # brute-force commutator oracle, both chiralities
    for lam in (2.0, -2.0):
        for _ in range(50):
            x, y = rng.normal(size=(2, 3))
            oracle = _round_curvature_bruteforce(x, y, lam)
            assert np.allclose(hat(curvature_round(x, y)), oracle, atol=1e-12)
    # first Bianchi identity: cyclic sum of R(X,Y)Z vanishes
    for _ in range(30):
        x, y, z = rng.normal(size=(3, 3))
        total = (
            hat(curvature_round(x, y)) @ z
            + hat(curvature_round(y, z)) @ x
            + hat(curvature_round(z, x)) @ y
        )
        assert np.max(np.abs(total)) < 1e-12


def test_levi_civita_berger_table():
    # nabla^t_{e_a} e_b in the Hopf frame is column b - 1 of gamma_berger(p)[a - 1]
    gam = gamma_berger(BergerParams(1.0, 1.0))
    assert np.allclose(gam[0][:, 1], E3)  # reduces to the round table
    p = BergerParams(1.5, 0.8)
    gam = gamma_berger(p)
    r = p.a**2 / p.b**2
    assert np.allclose(gam[0][:, 1], (2 - r) * E3)
    assert np.allclose(gam[1][:, 0], -r * E3)
    assert np.allclose(gam[2][:, 0], r * E2)
    assert np.allclose(gam[1][:, 2], E1)
    for a in (1, 2, 3):
        assert np.allclose(gam[a - 1][:, a - 1], 0)


def test_berger_metric_compatibility():
    # in the g_t-orthonormal frame the connection matrices must be skew
    for p in (BergerParams(1.0, 1.0), BergerParams(0.7, 1.9), BergerParams(2.2, 0.4)):
        for g in gamma_berger_orthonormal(p):
            assert np.max(np.abs(g + g.T)) < 1e-12


def test_berger_torsion_free():
    # nabla_{e_a} e_b - nabla_{e_b} e_a = [e_a, e_b] = 2 e_c (Hopf frame)
    p = BergerParams(1.3, 0.6)
    gam = gamma_berger(p)
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        diff = gam[a - 1][:, b - 1] - gam[b - 1][:, a - 1]
        expect = 2.0 * np.eye(3)[c - 1]
        assert np.allclose(diff, expect)


def _berger_curvature_bruteforce(p, a, b):
    """Commutator curvature in the Hopf frame from the connection table."""
    gam = gamma_berger(p)

    def nab(i, vec):
        return gam[i - 1] @ vec

    ea = np.eye(3)[a - 1]
    eb = np.eye(3)[b - 1]
    c = ({1, 2, 3} - {a, b}).pop()
    bracket_coeff = 2.0 if (a, b, c) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -2.0
    R = np.zeros((3, 3))
    for k in (1, 2, 3):
        ek = np.eye(3)[k - 1]
        val = nab(a, nab(b, ek)) - nab(b, nab(a, ek)) - bracket_coeff * nab(c, ek)
        R[:, k - 1] = val
    return R


def test_curvature_berger_printed_coefficients():
    p = BergerParams(1.0, 1.0)
    assert curvature_berger(p, 2, 3) == pytest.approx(-1.0)
    p = BergerParams(1.0, 2.0)
    assert curvature_berger(p, 1, 2) == pytest.approx(-1.0 / 16.0)

    # oracle: the 2-form coefficient is g_t(R(e_a,e_b) e_a, e_b) / (|e_a|^2 |e_b|^2)
    for p in (BergerParams(1.0, 1.0), BergerParams(1.4, 0.7), BergerParams(0.5, 2.1)):
        gt = np.diag([p.a**2, p.b**2, p.b**2])
        for a, b in ((1, 2), (1, 3), (2, 3)):
            R = _berger_curvature_bruteforce(p, a, b)
            ea = np.eye(3)[a - 1]
            eb = np.eye(3)[b - 1]
            coeff = (R @ ea) @ gt @ eb / (gt[a - 1, a - 1] * gt[b - 1, b - 1])
            assert coeff == pytest.approx(curvature_berger(p, a, b), abs=1e-12)


def test_d_nabla_parallel_identity(pts50):
    A = SymEnd3Field.identity()
    for x, y in ((E1, E2), (E1, E3), (E2, E3)):
        val = d_nabla_A(A, pts50, x, y)
        assert np.max(np.abs(val)) < 1e-14


def test_d_nabla_berger_weingarten():
    # W = diag(-adot/a, -bdot/b, -bdot/b); (d^nabla W)(e2,e3) = 2(adot/a - bdot/b) e1
    a, b, adot, bdot = 0.9, 1.2, -0.5625, 2.75  # reduced system at (0.9, 1.2)
    gam = gamma_berger(BergerParams(a, b))
    W = np.diag([-adot / a, -bdot / b, -bdot / b])

    def d_nabla(x, y):
        # W is constant, so nabla_{e_k} W = [Gamma_k, W]; (nabla_X W)Y - (nabla_Y W)X
        def cov(u):
            return sum(u[k] * (gam[k] @ W - W @ gam[k]) for k in range(3))

        return cov(x) @ y - cov(y) @ x

    val23 = d_nabla(E2, E3)
    expect = 2 * (adot / a - bdot / b) * E1
    assert np.max(np.abs(val23 - expect)) < 1e-12
    val12 = d_nabla(E1, E2)
    expect12 = (a**2 / b**2) * (bdot / b - adot / a) * E3
    assert np.max(np.abs(val12 - expect12)) < 1e-12
    # antisymmetry
    anti = d_nabla(E3, E2)
    assert np.max(np.abs(val23 + anti)) < 1e-14


def test_divergence(pts200):
    assert np.max(np.abs(divergence_A(SymEnd3Field.identity(), pts200))) < 1e-14
    A0 = SymEnd3Field.from_constant_matrix(np.diag([1.0, -3.0, -3.0]))
    assert np.max(np.abs(divergence_A(A0, pts200))) < 1e-14
    # FD cross-check of the constant-coefficient divergence on a nonconstant field
    from cauchys3.frame import ScalarField, harmonic_quadratic

    q1 = harmonic_quadratic(1)
    Apoly = SymEnd3Field(
        [
            [q1, ScalarField.constant(0.0), ScalarField.constant(0.0)],
            [ScalarField.constant(0.0), ScalarField.constant(1.0), ScalarField.constant(0.0)],
            [ScalarField.constant(0.0), ScalarField.constant(0.0), ScalarField.constant(1.0)],
        ]
    )
    Afd = SymEnd3Field(
        [
            [
                ScalarField.from_callable(q1, fd_step=1e-5),
                ScalarField.constant(0.0),
                ScalarField.constant(0.0),
            ],
            [ScalarField.constant(0.0), ScalarField.constant(1.0), ScalarField.constant(0.0)],
            [ScalarField.constant(0.0), ScalarField.constant(0.0), ScalarField.constant(1.0)],
        ]
    )
    pts = pts200[:40]
    assert np.max(np.abs(divergence_A(Apoly, pts) - divergence_A(Afd, pts))) < 1e-8


def _divergence_by_assembly(A, pts):
    """delta^nabla A from `matrix` and one `frame_derivative_matrix` per direction."""
    M = A.matrix(pts)
    out = np.zeros(M.shape[:-2] + (3,))
    for k in range(3):
        G = gamma_round(k + 1, A.chirality)
        out = out - (A.frame_derivative_matrix(k + 1, pts) + G @ M - M @ G)[..., :, k]
    return out


@pytest.mark.parametrize("mode", ["exact", "fd"])
def test_divergence_matches_assembly_bit_for_bit(mode, pts200):
    A = right_family_left_frame()
    if mode == "fd":
        A = SymEnd3Field(
            [[ScalarField.from_callable(A.entries[i][j], fd_step=1e-5) for j in range(3)] for i in range(3)]
        )
    for pts in (pts200[:80], pts200[5], pts200[:24].reshape(3, 8, 4)):
        got = divergence_A(A, pts)
        assert np.array_equal(got, _divergence_by_assembly(A, pts))
    # the quartic field is a solution with constant trace: delta^nabla A = 0
    assert float(np.max(np.abs(got))) < (1e-6 if mode == "fd" else 1e-12)
