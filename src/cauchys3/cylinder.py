"""Generalized cylinder over S^3 with Berger slices, and its 4D geometry.

The slice family g_t = a(t)^2 e_1^2 + b(t)^2 (e_2^2 + e_3^2) on
S^3 x I solves the flatness equation slice-by-slice exactly when

    adot = -a^2/b^2,    bdot = a/b + 2,    a(0) = b(0) = 1,

which conserves (1/(ab))(b/a + 1) = 2 and is solved in closed form by
a = sqrt(s/(2s-1)), b = sqrt(s(2s-1)) with s = a b > 1/2.  The 4D
metric dt^2 + g_t is Ricci-flat along this orbit and is a negative-
parameter continuation of the Euclidean Taub-NUT family, with a genuine
curvature singularity as s -> 1/2.  `integrate` follows the orbit with a
Dormand-Prince 5(4) pair at fixed tolerances, on the state (a, b) as two
Python floats, projecting each accepted step onto the conserved level set.

Curvature conventions: the orthonormal coframe is
(dt, a eta_1, b eta_2, b eta_3); closed-form Ricci and sectional
curvature expressions below were derived once via Cartan structure
equations and are pinned by three oracles in the test suite (flat cone,
round cylinder, symbolic rederivation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import BergerParams, curvature_berger, gamma_berger_orthonormal, wedge_endo

__all__ = [
    "reduced_rhs",
    "second_derivatives",
    "full_system_residual",
    "conserved_quantity",
    "closed_form",
    "t_of_s",
    "boundary_distance_exact",
    "CylinderState",
    "CylinderProfile",
    "SingularityReached",
    "integrate",
    "weingarten",
    "slice_residual",
    "metric_4d",
    "metric_4d_u",
    "taub_nut_coeffs",
    "ricci_4d",
    "ricci_4d_state",
    "sectional_curvatures",
    "curvature_blowup_probe",
    "trajectory_rows",
]

S_MIN = 0.5


def _rhs(a, b) -> tuple:
    return -(a * a) / (b * b), a / b + 2.0


def reduced_rhs(a: float, b: float) -> tuple:
    """(adot, bdot) = (-a^2/b^2, a/b + 2).  Requires a, b > 0."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    return _rhs(a, b)


def second_derivatives(a, b) -> tuple:
    """(addot, bddot) from differentiating the reduced system analytically.

    Scalars or arrays of node values; requires a, b > 0."""
    if np.any(np.less_equal(a, 0)) or np.any(np.less_equal(b, 0)):
        raise ValueError("a and b must be positive")
    ad, bd = _rhs(a, b)
    b2 = b * b
    return -2.0 * a * ad / b2 + 2.0 * (a * a) * bd / (b2 * b), ad / b - a * bd / b2


def full_system_residual(a: float, b: float, adot: float, bdot: float) -> tuple:
    """The two equations of the second-order slice system.

    E1 = -a^2/b^4 - adot/b^2 + a bdot/b^3 + adot bdot/(a b)
    E2 = (3a^2 - 4b^2)/b^4 + 2 adot/b^2 - 2 a bdot/b^3 + (bdot/b)^2
    """
    e1 = -(a**2) / b**4 - adot / b**2 + a * bdot / b**3 + adot * bdot / (a * b)
    e2 = (3 * a**2 - 4 * b**2) / b**4 + 2 * adot / b**2 - 2 * a * bdot / b**3 + (bdot / b) ** 2
    return e1, e2


def conserved_quantity(a: float, b: float) -> float:
    """(1/(ab)) (b/a + 1); equals 2 along the orbit through a = b = 1."""
    return (1.0 / (a * b)) * (b / a + 1.0)


def closed_form(s) -> tuple:
    """(alpha, beta) = (sqrt(s/(2s-1)), sqrt(s(2s-1))) for s > 1/2."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= S_MIN):
        raise ValueError("closed form requires s > 1/2")
    return np.sqrt(s / (2 * s - 1)), np.sqrt(s * (2 * s - 1))


def _t_antiderivative(s):
    # (sqrt(s^2 - s/2) - arccosh(4s - 1)/4) / sqrt(2), with s^2 - s/2 as s (s - 1/2)
    return (np.sqrt(s * (s - 0.5)) - 0.25 * np.arccosh(4.0 * s - 1.0)) / np.sqrt(2.0)


def t_of_s(s):
    """t(s) = integral_1^s sqrt((2u-1)/(4u)) du (so t(1) = 0), in closed form.
    A scalar gives a float, an array an array; every s must exceed 1/2."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= S_MIN):
        raise ValueError("t_of_s requires s > 1/2")
    t = _t_antiderivative(s) - _t_antiderivative(1.0)
    return float(t) if t.ndim == 0 else t


def boundary_distance_exact() -> float:
    """(sqrt(2) - ln(1 + sqrt(2))) / (2 sqrt(2)), about 0.1884."""
    r2 = np.sqrt(2.0)
    return (r2 - np.log(1.0 + r2)) / (2.0 * r2)


@dataclass(frozen=True)
class CylinderState:
    """A point on a profile: time and Berger scales (both positive)."""

    t: float
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("scales must stay positive")

    @property
    def s(self) -> float:
        return self.a * self.b


class SingularityReached(Exception):
    """Raised when a backward integration hits the s -> 1/2 boundary."""

    def __init__(self, state: "CylinderState"):
        self.state = state
        super().__init__(
            f"curvature singularity boundary reached at t = {state.t:.9f} (s = {state.s:.9f})"
        )


# Dormand-Prince 5(4) coefficients; _DP_A[i] weighs the slopes that stage i + 2 is built from
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

# step control: the tolerances, the s at which a backward run stops, the step cap
RTOL, ATOL = 1e-10, 1e-12
S_STOP = S_MIN + 1e-6
MAX_STEPS = 200_000


def _combine(a: float, b: float, h: float, weights, slopes) -> tuple:
    """(a, b) + h sum_j weights[j] slopes[j]; sums from 0 in index order, zero weights kept."""
    sa = sb = 0.0
    for w, (ka, kb) in zip(weights, slopes):
        sa += w * ka
        sb += w * kb
    return a + h * sa, b + h * sb


def _dp_step(a: float, b: float, h: float) -> tuple:
    """One Dormand-Prince step of size h from (a, b): the fifth-order state
    and the larger of its two components' scaled error estimates.  A stage
    state with a or b <= 0 raises ValueError (from `reduced_rhs`)."""
    slopes = [reduced_rhs(a, b)]
    for weights in _DP_A:
        slopes.append(reduced_rhs(*_combine(a, b, h, weights, slopes)))
    a5, b5 = _combine(a, b, h, _DP_B5, slopes)
    a4, b4 = _combine(a, b, h, _DP_B4, slopes)
    ea = abs(a5 - a4) / (ATOL + RTOL * max(abs(a), abs(a5)))
    eb = abs(b5 - b4) / (ATOL + RTOL * max(abs(b), abs(b5)))
    # a NaN in either component is the error, so that it rejects the step
    return a5, b5, ea if ea > eb or ea != ea else eb


def _project_conserved(a: float, b: float) -> tuple:
    """Orthogonal Newton projection onto 2 a^2 b - a - b = 0."""
    for _ in range(3):
        F = 2 * a * a * b - a - b
        ga, gb = 4 * a * b - 1.0, 2 * a * a - 1.0
        gg = ga * ga + gb * gb
        a, b = a - F * ga / gg, b - F * gb / gg
    return a, b


@dataclass
class CylinderProfile:
    """Dense integration output with quintic Hermite interpolation.

    Node arrays hold (t, a, b, adot, bdot); the reduced system is
    enforced at every node (derivatives recomputed from the projected
    state), and second derivatives come from differentiating it
    analytically, which makes the interpolant O(h^6)-accurate.  Also
    records the largest per-step conserved-quantity deviation seen
    before projection and whether the singularity event fired.
    """

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    adot: np.ndarray
    bdot: np.ndarray
    max_drift: float
    singularity: bool = False
    steps: int = 0
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._order = np.argsort(self.t)

    def __call__(self, tq):
        """Interpolated (a, b) at times tq (quintic Hermite per interval)."""
        tq = np.asarray(tq, dtype=float)
        ts = self.t[self._order]
        if np.any(tq < ts[0] - 1e-12) or np.any(tq > ts[-1] + 1e-12):
            raise ValueError("query time outside the integrated range")
        idx = np.clip(np.searchsorted(ts, tq) - 1, 0, len(ts) - 2)
        add, bdd = second_derivatives(self.a, self.b)
        out = []
        for comp, dcomp, ddcomp in ((self.a, self.adot, add), (self.b, self.bdot, bdd)):
            y = comp[self._order]
            dy = dcomp[self._order]
            ddy = ddcomp[self._order]
            h = ts[idx + 1] - ts[idx]
            u = np.where(h > 0, (tq - ts[idx]) / np.where(h == 0, 1.0, h), 0.0)
            u2, u3, u4, u5 = u**2, u**3, u**4, u**5
            h0 = 1 - 10 * u3 + 15 * u4 - 6 * u5
            h1 = u - 6 * u3 + 8 * u4 - 3 * u5
            h2 = 0.5 * u2 - 1.5 * u3 + 1.5 * u4 - 0.5 * u5
            h3 = 10 * u3 - 15 * u4 + 6 * u5
            h4 = -4 * u3 + 7 * u4 - 3 * u5
            h5 = 0.5 * u3 - u4 + 0.5 * u5
            out.append(
                h0 * y[idx]
                + h * h1 * dy[idx]
                + h**2 * h2 * ddy[idx]
                + h3 * y[idx + 1]
                + h * h4 * dy[idx + 1]
                + h**2 * h5 * ddy[idx + 1]
            )
        return out[0], out[1]


def integrate(t_end: float | None = None, s_end: float | None = None) -> CylinderProfile:
    """Integrate the reduced system from (t, a, b) = (0, 1, 1).

    Exactly one of t_end (signed) / s_end must be given; s_end < 1 runs
    backward.  Every accepted step is projected back onto the conserved
    level set.  A backward run that would cross s = S_STOP terminates
    with `singularity` set, holding the boundary state as its last node.
    A forward run whose state overflows floating point raises OverflowError.
    """
    if (t_end is None) == (s_end is None):
        raise ValueError("give exactly one of t_end / s_end")
    if s_end is not None:
        if s_end <= S_MIN:
            raise ValueError("s_end must exceed 1/2")
        backward = s_end < 1.0
    else:
        backward = t_end < 0.0
    direction = -1.0 if backward else 1.0

    t, a, b = 0.0, 1.0, 1.0
    nodes = [(0.0, 1.0, 1.0, -1.0, 3.0)]
    h = 1e-3 * direction
    max_drift = 0.0
    singular = False

    # a NaN distance to the end does not end the run
    while len(nodes) <= MAX_STEPS and not (
        (t_end - t if s_end is None else s_end - a * b) * direction <= 1e-15
    ):
        if abs(h) < 1e-15:
            # step-size underflow: a backward run drove into the boundary faster
            # than the s-event caught it; a forward run meets no singularity, so
            # its state has left floating-point range
            if not backward:
                raise OverflowError(f"the state overflowed near t = {t:.6g}")
            raise SingularityReached(CylinderState(t, a, b))
        if t_end is not None and abs(h) > abs(t_end - t):
            h = t_end - t
        try:
            a5, b5, err = _dp_step(a, b, h)
        except ValueError:  # stepped past positivity; shrink
            h *= 0.25
            continue
        if err <= 1.0:
            crossed_stop = backward and a5 * b5 < S_STOP
            crossed_end = s_end is not None and (s_end - a5 * b5) * direction <= 0
            if crossed_stop or crossed_end:
                target = S_STOP if crossed_stop else s_end
                # secant refinement of h so the step lands on s = target
                for _ in range(80):
                    s0, s1 = a * b, a5 * b5
                    if abs(s1 - target) < 1e-13 or s1 == s0:
                        break
                    h *= (target - s0) / (s1 - s0)
                    a5, b5, err = _dp_step(a, b, h)
            t += h
            max_drift = max(max_drift, abs(conserved_quantity(a5, b5) - 2.0))
            a, b = _project_conserved(a5, b5)
            nodes.append((t, a, b, *reduced_rhs(a, b)))
            if crossed_stop or crossed_end:
                singular = crossed_stop
                break
        h *= min(5.0, max(0.2, 0.9 * (1.0 / max(err, 1e-12)) ** 0.2))

    ts, as_, bs, ads, bds = (np.array(column) for column in zip(*nodes))
    return CylinderProfile(ts, as_, bs, ads, bds, max_drift, singular, len(nodes) - 1)


def weingarten(a, b, adot, bdot) -> np.ndarray:
    """Shape operator of a slice: diag(-adot/a, -bdot/b, -bdot/b), shape (..., 3, 3)."""
    w1, w2 = np.broadcast_arrays(-adot / a, -bdot / b)
    out = np.zeros(w1.shape + (3, 3))
    out[..., 0, 0], out[..., 1, 1], out[..., 2, 2] = w1, w2, w2
    return out


def slice_residual(a, b, adot, bdot, pair=None) -> np.ndarray:
    """Flatness residual of the slice, in the g_t-orthonormal frame.

    For a frame pair (i, j) returns the dual 3-vector of

        R^t(f_i, f_j) + *d^{nabla^t} A_t(f_i, f_j) + A_t(f_i) ^ A_t(f_j)

    where (f_1,f_2,f_3) = (e_1/a, e_2/b, e_3/b) and A_t is the
    Weingarten map.  Without `pair`, the three pair residuals are
    stacked into shape (..., 3, 3).  Scalars or arrays of node values.
    All vanish on reduced-system states.
    """
    p = BergerParams(a, b)
    W = weingarten(a, b, adot, bdot)  # diagonal in both frames
    gammas = gamma_berger_orthonormal(p)
    fs = np.eye(3)

    def one(i, j):
        fi, fj = fs[i - 1], fs[j - 1]
        # the tabulated curvature coefficient transfers unchanged to the
        # orthonormal wedge basis: R^t(f_i,f_j) = coef * f_i ^ f_j
        curv = np.multiply.outer(curvature_berger(p, i, j), wedge_endo(fi, fj))
        # W is constant on the slice: (nabla_f W)(g) = [Gamma_f, W] g
        gi, gj = gammas[i - 1], gammas[j - 1]
        dW = (gi @ W - W @ gi) @ fj - (gj @ W - W @ gj) @ fi
        return curv + dW + np.cross(W @ fi, W @ fj)

    if pair is not None:
        return one(*pair)
    return np.stack([one(1, 2), one(1, 3), one(2, 3)], axis=-2)


def metric_4d(s: float, r: float = 1.0) -> tuple:
    """Coefficients of (ds^2, eta_1^2, eta_2^2, eta_3^2) for radius r.

    ((2s-1)/(4s) r^2, r^2 s/(2s-1), r^2 s(2s-1), r^2 s(2s-1)); the slice
    metric a^2 eta_1^2 + b^2(eta_2^2+eta_3^2) in the variable s = a b.
    """
    if s <= S_MIN:
        raise ValueError("metric requires s > 1/2")
    if r <= 0:
        raise ValueError("radius must be positive")
    c0 = (2 * s - 1) / (4 * s) * r**2
    c1 = r**2 * s / (2 * s - 1)
    c2 = r**2 * s * (2 * s - 1)
    return c0, c1, c2, c2


def metric_4d_u(u: float, r: float = 1.0) -> tuple:
    """The same metric in the variable u = r s: coefficients of
    (du^2, eta_1^2, eta_2^2, eta_3^2) = ((2u-r)/(4u), r^2 u/(2u-r), u(2u-r), u(2u-r))."""
    if u <= r / 2:
        raise ValueError("metric requires u > r/2")
    c0 = (2 * u - r) / (4 * u)
    c1 = r**2 * u / (2 * u - r)
    c2 = u * (2 * u - r)
    return c0, c1, c2, c2


def taub_nut_coeffs(a_param: float, b_param: float, s: float) -> tuple:
    """Euclidean Taub-NUT coefficients of (ds^2, eta_1^2, eta_2^2, eta_3^2):

    ((as+b)/s) (1, 4 b^2 s^2/(as+b)^2, 4 s^2, 4 s^2)

    Positive parameters give the regular family; b = -r < 0 with a = 2
    reproduces (4x) the cylinder metric in the variable u = r s.
    """
    w = (a_param * s + b_param) / s
    denom = a_param * s + b_param
    if denom == 0:
        raise ValueError("as + b vanishes: outside the metric's domain")
    c1 = w * 4.0 * b_param**2 * s**2 / denom**2
    c2 = w * 4.0 * s**2
    return w, c1, c2, c2


def ricci_4d(a, b, adot, bdot, addot, bddot) -> np.ndarray:
    """Ricci tensor of dt^2 + a^2 eta_1^2 + b^2(eta_2^2 + eta_3^2), shape (..., 4, 4).

    Components in the orthonormal coframe (dt, a eta_1, b eta_2,
    b eta_3); diagonal:

      R00 = -addot/a - 2 bddot/b
      R11 = -addot/a - 2 adot bdot/(a b) + 2 a^2/b^4
      R22 = R33 = -bddot/b - (bdot/b)^2 - adot bdot/(a b) + 4/b^2 - 2 a^2/b^4
    """
    a2, b2, q = a * a, b * b, bdot / b
    b4 = b2 * b2
    r00 = -addot / a - 2 * bddot / b
    r11 = -addot / a - 2 * adot * bdot / (a * b) + 2 * a2 / b4
    r22 = -bddot / b - q * q - adot * bdot / (a * b) + 4 / b2 - 2 * a2 / b4
    diagonal = np.stack(np.broadcast_arrays(r00, r11, r22, r22), axis=-1)
    out = np.zeros(diagonal.shape + (4,))
    out[..., range(4), range(4)] = diagonal
    return out


def ricci_4d_state(a: float, b: float) -> np.ndarray:
    """Ricci at reduced-system states: derivatives from the system itself."""
    add, bdd = second_derivatives(a, b)
    return ricci_4d(a, b, *_rhs(a, b), add, bdd)


def sectional_curvatures(a, b, adot, bdot, addot, bddot) -> np.ndarray:
    """Sectional curvatures of the six frame planes, order
    (01, 02, 03, 12, 13, 23) in the orthonormal frame, shape (..., 6).

      K01 = -addot/a,  K02 = K03 = -bddot/b,
      K12 = K13 = a^2/b^4 - adot bdot/(a b),
      K23 = 4/b^2 - 3 a^2/b^4 - (bdot/b)^2.
    """
    k01 = -addot / a
    k02 = -bddot / b
    a2, b2, q = a * a, b * b, bdot / b
    b4 = b2 * b2
    k12 = a2 / b4 - adot * bdot / (a * b)
    k23 = 4 / b2 - 3 * a2 / b4 - q * q
    return np.stack(np.broadcast_arrays(k01, k02, k02, k12, k12, k23), axis=-1)


def curvature_blowup_probe(s_values) -> np.ndarray:
    """Max |sectional curvature| over frame planes at each s > 1/2.

    On the orbit the frame-plane sectionals are -8, 4, 4, 4, 4, -8 over
    (2s-1)^3, so this is 8/(2s-1)^3, free of the cancellation that
    `sectional_curvatures` suffers at large s."""
    s = np.asarray(s_values, dtype=float)
    if np.any(s <= S_MIN):
        raise ValueError("the probe requires s > 1/2")
    u = 2.0 * s - 1.0
    return 8.0 / (u * u * u)


def trajectory_rows(profile: CylinderProfile) -> list:
    """Per-node export rows: t, s, a, b, adot, bdot, conserved,
    slice_residual_max, ricci_norm (Frobenius).

    Near the s -> 1/2 boundary the curvature terms grow like
    (2s-1)^{-3} and the zero residuals are dominated by rounding of the
    huge cancelling terms, so scale-relative columns (residual divided
    by 1 + max |sectional|) are exported alongside the absolute ones.
    """
    order = np.argsort(profile.t)
    t, a, b, ad, bd = (v[order] for v in (profile.t, profile.a, profile.b, profile.adot, profile.bdot))
    add, bdd = second_derivatives(a, b)
    res = np.max(np.abs(slice_residual(a, b, ad, bd)), axis=(-2, -1))
    # the Frobenius norm of the diagonal Ricci tensor, its squares added in index order
    r = np.diagonal(ricci_4d(a, b, ad, bd, add, bdd), axis1=-2, axis2=-1)
    ric = np.sqrt(r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1] + r[:, 2] * r[:, 2] + r[:, 3] * r[:, 3])
    scale = 1.0 + np.max(np.abs(sectional_curvatures(a, b, ad, bd, add, bdd)), axis=-1)
    names = ("t", "s", "a", "b", "adot", "bdot", "conserved", "slice_residual_max", "ricci_norm")
    names += ("slice_residual_rel", "ricci_norm_rel")
    columns = (t, a * b, a, b, ad, bd, conserved_quantity(a, b), res, ric, res / scale, ric / scale)
    return [dict(zip(names, row)) for row in zip(*(c.tolist() for c in columns))]
