"""The batched S^2 calculus against the per-point reference.

The reference below is the per-point form of the S^2 kernels: entry by
entry `Poly.__call__` at one point, `np.outer`, `np.linalg.norm` and
one 3x3 product at a time.  It does not call the code it checks.  The
batched kernels must return its bits at every batch shape.
"""

import numpy as np
import pytest

from cauchys3 import classify as cls
from cauchys3.polynomial import Poly
from cauchys3.tensor import hat

# ---------------------------------------------------------------------------
# per-point reference
# ---------------------------------------------------------------------------


def ref_tangent_basis(p):
    p = np.asarray(p, dtype=float)
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(p)))] = 1.0
    x = np.cross(p, helper)
    x = x / np.linalg.norm(x)
    return x, np.cross(p, x)


def ref_normalize(p):
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


class RefField:
    """P M P on S^2 with M a 3x3 array of polynomials or a callable."""

    def __init__(self, mats=None, func=None, fd_step=1e-5):
        self.mats = mats
        self.func = func
        self.fd_step = fd_step
        self.grads = None if mats is None else [[e.gradient() for e in row] for row in mats]

    def raw(self, p):
        p = np.asarray(p, dtype=float)
        if self.mats is not None:
            out = np.zeros(p.shape[:-1] + (3, 3))
            for i in range(3):
                for j in range(3):
                    out[..., i, j] = self.mats[i][j](p)
            return out
        return np.asarray(self.func(p), dtype=float)

    def value(self, p):
        p = ref_normalize(np.asarray(p, dtype=float))
        proj = np.eye(3) - np.einsum("...i,...j->...ij", p, p)
        return proj @ self.raw(p) @ proj

    def directional(self, p, x):
        if self.mats is not None:
            proj = np.eye(3) - np.outer(p, p)
            dproj = -np.outer(x, p) - np.outer(p, x)
            M = self.raw(p)
            dM = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    g = self.grads[i][j]
                    dM[i, j] = sum(g[m](p) * x[m] for m in range(3))
            return dproj @ M @ proj + proj @ dM @ proj + proj @ M @ dproj
        h = self.fd_step
        plus = self.value(ref_normalize(p + h * x))
        minus = self.value(ref_normalize(p - h * x))
        return (plus - minus) / (2.0 * h)


def ref_covariant_endo(U, p, x, y):
    proj = np.eye(3) - np.outer(p, p)
    dproj = -np.outer(x, p) - np.outer(p, x)
    dU = U.directional(p, x)
    return proj @ (dU @ y) - U.value(p) @ (proj @ (dproj @ y))


def ref_delta_endo(U, p):
    x, jx = ref_tangent_basis(p)
    return -(ref_covariant_endo(U, p, x, x) + ref_covariant_endo(U, p, jx, jx))


def ref_det_tangent(U, p):
    x, jx = ref_tangent_basis(p)
    Uv = U.value(p)
    m = np.array([[x @ Uv @ x, x @ Uv @ jx], [jx @ Uv @ x, jx @ Uv @ jx]])
    return float(np.linalg.det(m))


def ref_rigidity(U, p):
    x, jx = ref_tangent_basis(p)
    delta = ref_delta_endo(U, p)
    return ref_det_tangent(U, p) - 1.0, np.array([delta @ x, delta @ jx])


def ref_codazzi_fd(S, p):
    x, jx = ref_tangent_basis(p)
    d_codazzi = ref_covariant_endo(S, p, x, jx) - ref_covariant_endo(S, p, jx, x)
    lhs = hat(p) @ d_codazzi
    JSJ = RefField(
        func=lambda q: np.einsum("...ij,...jk,...kl->...il", hat(q), S.value(q), hat(q)),
        fd_step=S.fd_step,
    )
    return lhs, -ref_delta_endo(JSJ, p)


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
            res = [ref_rigidity(U, p) for p in pts]
            rig[name] = (np.array([r[0] for r in res]), np.array([r[1] for r in res]))
        S_fd = RefField(func=RefField(_perturbation(seed)).raw)
        cod = [ref_codazzi_fd(S_fd, p) for p in pts]
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
    want = [np.array(v) for v in zip(*(ref_tangent_basis(p) for p in pts))]
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
    want_value = np.array([ref.value(p) for p in pts])
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

