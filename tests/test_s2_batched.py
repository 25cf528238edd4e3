"""The S^2 calculus against an independent per-point reference.

The reference below computes one point at a time in Python floats, with
3x3 matrices as nested lists: the entries by `Poly.__call__` at that
point, every sum as (a0*b0 + a1*b1) + a2*b2 and every norm as the sqrt
of one, the fixed order the kernels promise.  It imports no helper of
the code it checks.  The kernels must return its bits for each point
alone and at every batch shape.
"""

import math

import numpy as np
import pytest

from cauchys3 import classify as cls
from cauchys3.polynomial import Poly

# ---------------------------------------------------------------------------
# per-point reference
# ---------------------------------------------------------------------------

R3 = range(3)


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def matvec(m, v):
    return [dot(m[i], v) for i in R3]


def matmul(a, b):
    return [[dot(a[i], [b[0][j], b[1][j], b[2][j]]) for j in R3] for i in R3]


def combine(f, *ms):
    return [[f(*(m[i][j] for m in ms)) for j in R3] for i in R3]


def hat(v):
    return [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]


def normalize(p):
    n = math.sqrt(dot(p, p))
    return [c / n for c in p]


def projector(p):
    return [[float(i == j) - p[i] * p[j] for j in R3] for i in R3]


def projector_derivative(p, x):
    return [[-x[i] * p[j] - p[i] * x[j] for j in R3] for i in R3]


def project(q, m):
    proj = projector(q)
    return matmul(matmul(proj, m), proj)


def ref_tangent_basis(p):
    helper = [0.0, 0.0, 0.0]
    helper[int(np.argmin(np.abs(p)))] = 1.0
    x = normalize(cross(p, helper))
    return x, cross(p, x)


class RefField:
    """P M P on S^2 with M a 3x3 array of polynomials or a callable."""

    def __init__(self, mats=None, func=None, fd_step=1e-5):
        self.mats = mats
        self.func = func
        self.fd_step = fd_step
        self.grads = None if mats is None else [[e.gradient() for e in row] for row in mats]

    def raw(self, p):
        """M at points (..., 3), entry by entry."""
        p = np.asarray(p, dtype=float)
        if self.mats is None:
            return np.asarray(self.func(p), dtype=float)
        out = np.zeros(p.shape[:-1] + (3, 3))
        for i in R3:
            for j in R3:
                out[..., i, j] = self.mats[i][j](p)
        return out

    def raw_at(self, q):
        return self.raw(np.array(q)).tolist()

    def value(self, p):
        n = normalize(p)
        return project(n, self.raw_at(n))

    def local(self, p, x):
        """Tangential value at p and its derivative along x."""
        if self.mats is None:
            h = self.fd_step
            plus = self.value(normalize([a + h * b for a, b in zip(p, x)]))
            minus = self.value(normalize([a - h * b for a, b in zip(p, x)]))
            return self.value(p), combine(lambda a, b: (a - b) / (2.0 * h), plus, minus)
        proj, dproj = projector(p), projector_derivative(p, x)
        M = self.raw_at(p)
        dM = [[dot([float(g(np.array(p))) for g in self.grads[i][j]], x) for j in R3] for i in R3]
        terms = (matmul(matmul(dproj, M), proj), matmul(matmul(proj, dM), proj), matmul(matmul(proj, M), dproj))
        return self.value(p), combine(lambda a, b, c: a + b + c, *terms)


def ref_covariant_endo(U, p, x, y):
    """(nabla-bar_x U)(y) = P (D_x U) y - U P (D_x P) y."""
    Uv, dU = U.local(p, x)
    a = matvec(projector(p), matvec(dU, y))
    b = matvec(Uv, matvec(projector(p), matvec(projector_derivative(p, x), y)))
    return [u - v for u, v in zip(a, b)]


def ref_delta_endo(U, p):
    x, jx = ref_tangent_basis(p)
    a, b = ref_covariant_endo(U, p, x, x), ref_covariant_endo(U, p, jx, jx)
    return [-(u + v) for u, v in zip(a, b)]


def ref_rigidity(U, p):
    x, jx = ref_tangent_basis(p)
    Uv = U.value(p)
    m = [[dot(u, matvec(Uv, v)) for v in (x, jx)] for u in (x, jx)]
    delta = ref_delta_endo(U, p)
    return m[0][0] * m[1][1] - m[0][1] * m[1][0] - 1.0, [dot(delta, x), dot(delta, jx)]


def ref_codazzi_fd(S, p):
    x, jx = ref_tangent_basis(p)
    a, b = ref_covariant_endo(S, p, x, jx), ref_covariant_endo(S, p, jx, x)
    lhs = matvec(hat(p), [u - v for u, v in zip(a, b)])
    JSJ = RefField(
        func=lambda q: np.array(matmul(matmul(hat(q.tolist()), S.value(q.tolist())), hat(q.tolist()))),
        fd_step=S.fd_step,
    )
    return lhs, [-c for c in ref_delta_endo(JSJ, p)]


# ---------------------------------------------------------------------------
# fields and points
# ---------------------------------------------------------------------------

SEEDS = (1, 7919, 110)
N = 100
SHAPES = [(N,), (4, 25)]  # plus the per-point loop


def _perturbation(seed):
    """A seeded symmetric matrix of linear polynomials, as `rigidity` draws it."""
    coeffs = np.random.default_rng(seed + 1).normal(size=(3, 3, 4))

    def entry(i, j):
        c = 0.5 * (coeffs[i, j] + coeffs[j, i])
        return sum((c[m + 1] * Poly.coordinate(m, 3) for m in range(3)), Poly.constant(c[0], 3))

    return [[entry(i, j) for j in range(3)] for i in range(3)]


def _rigidity_fields(seed):
    S = _perturbation(seed)
    one, zero = Poly.constant(1.0, 3), Poly.constant(0.0, 3)
    fields = {"plus-id": [[one if i == j else zero for j in range(3)] for i in range(3)]}
    fields["minus-id"] = [[-e for e in row] for row in fields["plus-id"]]
    for eps in (1e-2, 1e-3):
        fields[f"eps={eps:g}"] = [[fields["plus-id"][i][j] + eps * S[i][j] for j in range(3)] for i in range(3)]
    return fields


_CACHE = {}


def _reference(seed):
    """Per-point reference residuals at 100 points drawn with `seed`, computed once."""
    if seed not in _CACHE:
        pts = cls.random_s2_points(N, seed=seed)
        rig = {}
        for name, mats in _rigidity_fields(seed).items():
            U = RefField(mats)
            res = [ref_rigidity(U, p) for p in pts.tolist()]
            rig[name] = (np.array([r[0] for r in res]), np.array([r[1] for r in res]))
        S_fd = RefField(func=RefField(_perturbation(seed)).raw)
        cod = [ref_codazzi_fd(S_fd, p) for p in pts.tolist()]
        _CACHE[seed] = pts, rig, (np.array([c[0] for c in cod]), np.array([c[1] for c in cod]))
    return _CACHE[seed]


def _per_point(fn, pts):
    out = [fn(p) for p in pts]
    return tuple(np.array([o[k] for o in out]) for k in range(2))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_tangent_basis_bits(seed):
    pts = cls.random_s2_points(N, seed=seed)
    want = [np.array(v) for v in zip(*(ref_tangent_basis(p) for p in pts.tolist()))]
    for got in (
        [np.array(v) for v in zip(*(cls.tangent_basis(p) for p in pts))],
        cls.tangent_basis(pts),
        [v.reshape(N, 3) for v in cls.tangent_basis(pts.reshape(4, 25, 3))],
    ):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_and_value_bits(seed):
    pts = cls.random_s2_points(N, seed=seed)
    mats = _perturbation(seed)
    ref, new = RefField(mats), cls.S2EndField.from_polynomial_matrix(mats)
    want_raw = np.array([ref.raw(p) for p in pts])
    want_value = np.array([ref.value(p) for p in pts.tolist()])
    for shape in SHAPES:
        p = pts.reshape(shape + (3,))
        assert np.array_equal(new.raw(p).reshape(N, 3, 3), want_raw)
        assert np.array_equal(new.value(p).reshape(N, 3, 3), want_value)
    assert np.array_equal(np.array([new.raw(p) for p in pts]), want_raw)


@pytest.mark.parametrize("field", ["plus-id", "minus-id", "eps=0.01", "eps=0.001"])
@pytest.mark.parametrize("seed", SEEDS)
def test_rigidity_residual_bits(seed, field):
    pts, rig, _ = _reference(seed)
    want_det, want_div = rig[field]
    U = cls.S2EndField.from_polynomial_matrix(_rigidity_fields(seed)[field])
    one = cls.s2_rigidity_residual(U, pts[0])
    assert isinstance(one[0], float) and one[1].shape == (2,)
    det, div = _per_point(lambda p: cls.s2_rigidity_residual(U, p), pts)
    assert np.array_equal(det, want_det) and np.array_equal(div, want_div)
    for shape in SHAPES:
        det, div = cls.s2_rigidity_residual(U, pts.reshape(shape + (3,)))
        assert det.shape == shape and div.shape == shape + (2,)
        assert np.array_equal(det.reshape(N), want_det)
        assert np.array_equal(div.reshape(N, 2), want_div)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_codazzi_bits(seed):
    pts, _, (want_lhs, want_rhs) = _reference(seed)
    S = cls.S2EndField(func=cls.S2EndField.from_polynomial_matrix(_perturbation(seed)).raw)
    lhs, rhs = _per_point(lambda p: cls.codazzi_divfree_equiv(S, p), pts)
    assert np.array_equal(lhs, want_lhs) and np.array_equal(rhs, want_rhs)
    for shape in SHAPES:
        lhs, rhs = cls.codazzi_divfree_equiv(S, pts.reshape(shape + (3,)))
        assert lhs.shape == rhs.shape == shape + (3,)
        assert np.array_equal(lhs.reshape(N, 3), want_lhs)
        assert np.array_equal(rhs.reshape(N, 3), want_rhs)


def test_fd_codazzi_makes_one_func_call():
    calls = []
    exact = cls.S2EndField.from_polynomial_matrix(_perturbation(1))

    def func(q):
        calls.append(q.shape)
        return exact.raw(q)

    cls.codazzi_divfree_equiv(cls.S2EndField(func=func), cls.random_s2_points(7, seed=1))
    # p +- h X, p +- h JX and p, and their renormalisations for J S J
    assert calls == [(7, 2, 5, 3)]


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_codazzi_same_bits_at_every_shape(seed):
    pts = cls.random_s2_points(N, seed=seed)
    S = cls.S2EndField.from_polynomial_matrix(_perturbation(seed))
    lhs, rhs = _per_point(lambda p: cls.codazzi_divfree_equiv(S, p), pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    for shape in SHAPES:
        got = cls.codazzi_divfree_equiv(S, pts.reshape(shape + (3,)))
        assert np.array_equal(got[0].reshape(N, 3), lhs) and np.array_equal(got[1].reshape(N, 3), rhs)



def test_zero_point_is_rejected():
    # alone (Python floats) and inside a batch (arrays): one ValueError,
    # not a ZeroDivisionError or a NaN with a warning
    exact = cls.S2EndField.from_polynomial_matrix(_perturbation(1))
    calls = [
        cls.tangent_basis,
        exact.value,
        lambda p: cls.s2_rigidity_residual(exact, p),
        lambda p: cls.codazzi_divfree_equiv(exact, p),
        lambda p: cls.codazzi_divfree_equiv(cls.S2EndField(func=exact.raw), p),
    ]
    batch = cls.random_s2_points(4, seed=2)
    batch[2] = 0.0
    for p in (np.zeros(3), batch, batch.reshape(2, 2, 3)):
        for call in calls:
            with pytest.raises(ValueError, match="S² point must be nonzero"):
                call(p)
