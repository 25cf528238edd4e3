"""Quaternion model of the round 3-sphere and its invariant frames.

S^3 is the group of unit quaternions; a point, or a batch of points, is
a plain (..., 4) float array of ambient coordinates (a1, a2, a3, a4).
The left-invariant frame (e_1, e_2, e_3) consists of the fields
q -> q*i, q*j, q*k; the right-invariant frame of q -> i*q, j*q, k*q.
Both are orthonormal for the round metric, so the flow of e_k through q
is the great circle cos(s) q + sin(s) e_k(q).  Scalar fields carry
either an exact ambient polynomial (frame derivatives are then exact,
to any order) or a plain callable differentiated by central finite
differences along those flows.
"""

from __future__ import annotations

import enum

import numpy as np

from .polynomial import Poly, evaluate

__all__ = [
    "Chirality",
    "ScalarField",
    "quat_mul",
    "invariant_vector",
    "flow",
    "frame_jet",
    "harmonic_quadratic",
    "random_points",
    "coordinate_field",
]


class Chirality(enum.Enum):
    """Which invariant frame a quantity refers to."""

    LEFT = "left"
    RIGHT = "right"


def quat_mul(p, q):
    """Hamilton product of quaternions as (...,4) arrays, broadcasting."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    w1, x1, y1, z1 = np.moveaxis(p, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def _check_frame_index(*ks) -> None:
    """ValueError unless every k is 1, 2 or 3."""
    for k in ks:
        if k not in (1, 2, 3):
            raise ValueError(f"frame index must be 1, 2 or 3, got {k!r}")


# imaginary units i, j, k as ambient 4-vectors, indexed 1..3
_IM = {
    1: np.array([0.0, 1.0, 0.0, 0.0]),
    2: np.array([0.0, 0.0, 1.0, 0.0]),
    3: np.array([0.0, 0.0, 0.0, 1.0]),
}


def random_points(n: int, seed: int = 0) -> np.ndarray:
    """n seeded uniform points on S^3: normalized standard Gaussians, (n,4)."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 4))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def invariant_vector(q, k: int, chirality: Chirality = Chirality.LEFT) -> np.ndarray:
    """Value of the invariant frame field e_k at q, as an ambient 4-vector.

    Left: q*u_k.  Right: u_k*q.  Unit length and orthogonal to q.
    """
    _check_frame_index(k)
    u = _IM[k]
    if chirality is Chirality.LEFT:
        return quat_mul(q, u)
    return quat_mul(u, q)


def flow(q, k: int, s, chirality: Chirality = Chirality.LEFT) -> np.ndarray:
    """Flow of the invariant field e_k for time s: the great circle
    cos(s) q + sin(s) e_k(q), renormalized; s may be an array of times."""
    q, s = np.asarray(q, dtype=float), np.asarray(s, dtype=float)[..., None]
    prod = np.cos(s) * q + np.sin(s) * invariant_vector(q, k, chirality)
    return prod / np.linalg.norm(prod, axis=-1, keepdims=True)


# Ambient matrices of the linear maps q -> q*u_k (left frame) and
# q -> u_k*q (right frame); columns are images of the standard basis.
def _mul_matrix(k: int, chirality: Chirality) -> np.ndarray:
    return np.stack([invariant_vector(e, k, chirality) for e in np.eye(4)], axis=1)


FRAME_MATRICES = {
    (c, k): _mul_matrix(k, c) for c in Chirality for k in (1, 2, 3)
}


def _fd_step(h) -> float:
    """A finite-difference step as a float; ValueError unless it is a positive finite number."""
    h = float(h)
    if not 0.0 < h < np.inf:  # False for NaN
        raise ValueError(f"fd_step must be a positive finite number, got {h}")
    return h


class ScalarField:
    """A real function on S^3 with a declared derivative mode.

    Exact-polynomial mode stores an ambient polynomial; frame
    derivatives are then new polynomials (the frame fields are linear in
    ambient coordinates), exact to machine precision at any order.
    Finite-difference mode wraps a callable and differentiates along the
    flows with a central scheme of step h; at most two derivatives.

    Fields are immutable; derivative fields are memoized per (index,
    chirality), and the memo is idempotent, so concurrent evaluation
    remains deterministic.
    """

    __slots__ = ("poly", "func", "fd_step", "_fd_depth", "_dcache")

    def __init__(self, poly=None, func=None, fd_step: float = 1e-5, _fd_depth: int = 0):
        if (poly is None) == (func is None):
            raise ValueError("provide exactly one of poly / func")
        if poly is not None and poly.nvars != 4:
            raise ValueError("ambient polynomials live in 4 variables")
        self.poly = poly
        self.func = func
        self.fd_step = _fd_step(fd_step)
        self._fd_depth = _fd_depth
        self._dcache = {}

    # -- constructors -------------------------------------------------
    @classmethod
    def from_callable(cls, func, fd_step: float = 1e-5) -> "ScalarField":
        return cls(func=func, fd_step=fd_step)

    @classmethod
    def constant(cls, value: float) -> "ScalarField":
        return cls(poly=Poly.constant(value, 4))

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.poly is not None:
            return self.poly(pts)
        return np.asarray(self.func(pts), dtype=float)

    # -- arithmetic (used to build fields like A + t*Adot) -------------
    def __add__(self, other):
        if np.isscalar(other):
            other = ScalarField.constant(float(other))
        if self.poly is not None and other.poly is not None:
            return ScalarField(poly=self.poly + other.poly)
        h = min(self.fd_step, other.fd_step)
        d = max(self._fd_depth, other._fd_depth)
        return ScalarField(
            func=lambda pts, f=self, g=other: f(pts) + g(pts), fd_step=h, _fd_depth=d
        )

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            raise TypeError("ScalarField multiplication only by scalars")
        if self.poly is not None:
            return ScalarField(poly=self.poly * float(scalar))
        return ScalarField(
            func=lambda pts, f=self, c=float(scalar): c * f(pts),
            fd_step=self.fd_step,
            _fd_depth=self._fd_depth,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        if np.isscalar(other):
            other = ScalarField.constant(float(other))
        return self + (-other)

    # -- derivatives ---------------------------------------------------
    def frame_derivative(self, k: int, chirality: Chirality = Chirality.LEFT) -> "ScalarField":
        """The field e_k f (chirality selects the frame)."""
        key = (k, chirality)
        cached = self._dcache.get(key)
        if cached is not None:
            return cached
        _check_frame_index(k)
        if self.poly is not None:
            out = ScalarField(poly=self.poly.derive_along_linear(FRAME_MATRICES[(chirality, k)]))
        else:
            if self._fd_depth >= 2:
                raise ValueError("finite-difference mode supports at most two derivatives")
            h = self.fd_step

            def d(pts, f=self, k=k, c=chirality, h=h):
                return _central_difference(f, flow(pts, k, h, c), flow(pts, k, -h, c), h)

            out = ScalarField(func=d, fd_step=h, _fd_depth=self._fd_depth + 1)
        self._dcache[key] = out
        return out


def _central_difference(f: ScalarField, plus, minus, h: float) -> np.ndarray:
    """(f(plus) - f(minus)) / 2h: the one finite-difference formula."""
    return (f(plus) - f(minus)) / (2.0 * h)


def frame_jet(fields, points, chirality: Chirality = Chirality.LEFT) -> list:
    """Values of `fields` at points and of their e_1, e_2, e_3 derivatives.

    Returns four lists (values, e_1 f, e_2 f, e_3 f), one array per
    field.  Exact fields and their derivative polynomials share one
    power table.  Finite-difference fields share their flowed points:
    flow(points, k, +-h) is computed once per direction k and step h,
    and each field's derivative is formed from it by the same central
    difference that `ScalarField.frame_derivative` uses, so every array
    is bit-identical to evaluating the derivative field on its own.
    """
    pts = np.asarray(points, dtype=float)
    out = [[None] * len(fields) for _ in range(4)]
    exact = [i for i, f in enumerate(fields) if f.poly is not None]
    slots = [(k, i) for k in range(4) for i in exact]
    polys = [fields[i].frame_derivative(k, chirality).poly if k else fields[i].poly for k, i in slots]
    for (k, i), val in zip(slots, evaluate(polys, pts)):
        out[k][i] = val
    flows = {}
    for i, f in enumerate(fields):
        if f.poly is not None:
            continue
        if f._fd_depth >= 2:
            raise ValueError("finite-difference mode supports at most two derivatives")
        out[0][i] = f(pts)
        h = f.fd_step
        for k in (1, 2, 3):
            if (k, h) not in flows:
                flows[k, h] = (flow(pts, k, h, chirality), flow(pts, k, -h, chirality))
            out[k][i] = _central_difference(f, *flows[k, h], h)
    return out


def coordinate_field(m: int) -> ScalarField:
    """The ambient coordinate a_m (m = 1..4) restricted to S^3, exact mode."""
    return ScalarField(poly=Poly.coordinate(m - 1, 4))


def harmonic_quadratic(k: int) -> ScalarField:
    """The k-th degree-2 harmonic polynomial spanning V_8, exact mode.

    Q_1 = a1^2 + a2^2 - a3^2 - a4^2,  Q_2 = a1 a4 + a2 a3,
    Q_3 = a1 a3 - a2 a4.  All are pullbacks through the Hopf map of
    linear functions on the base and are annihilated by e_1.
    """
    a = [Poly.coordinate(i, 4) for i in range(4)]
    if k == 1:
        p = a[0] * a[0] + a[1] * a[1] - a[2] * a[2] - a[3] * a[3]
    elif k == 2:
        p = a[0] * a[3] + a[1] * a[2]
    elif k == 3:
        p = a[0] * a[2] - a[1] * a[3]
    else:
        raise ValueError("k must be 1, 2 or 3")
    return ScalarField(poly=p)
