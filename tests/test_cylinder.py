import numpy as np
import pytest
from scipy.integrate import quad

from cauchys3 import cylinder as cyl
from cauchys3.cauchy import known_example

SQRT2 = np.sqrt(2.0)
BOUNDARY = (SQRT2 - np.log(1.0 + SQRT2)) / (2.0 * SQRT2)


def boundary_distance_quadrature() -> float:
    """integral_{1/2}^1 sqrt((2s-1)/(4s)) ds by adaptive quadrature: the
    independent oracle for `cylinder.boundary_distance_exact`."""
    val, _ = quad(lambda s: np.sqrt((2 * s - 1) / (4 * s)), 0.5, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


# ---------------------------------------------------------------------------
# right-hand side, conserved quantity, closed form
# ---------------------------------------------------------------------------


def test_reduced_rhs_examples():
    assert cyl.reduced_rhs(1.0, 1.0) == (-1.0, 3.0)
    with pytest.raises(ValueError):
        cyl.reduced_rhs(-1.0, 1.0)
    # adot tends to -1/2 from below along a -> 1/sqrt(2), b large
    ad, _ = cyl.reduced_rhs(1 / SQRT2 * (1 + 1e-9), 1e4)
    assert -1e-8 < ad < 0


def test_reduced_rhs_consistent_with_closed_form_chain_rule():
    # d/dt of the closed form through (phi^{-1})' = sqrt((2s-1)/(4s))
    for s in (0.7, 1.0, 2.0, 5.0):
        a, b = cyl.closed_form(s)
        dts = np.sqrt((2 * s - 1) / (4 * s))
        h = 1e-7
        ap, bp = cyl.closed_form(s + h)
        am, bm = cyl.closed_form(s - h)
        da_ds = (ap - am) / (2 * h)
        db_ds = (bp - bm) / (2 * h)
        ad, bd = cyl.reduced_rhs(a, b)
        assert abs(da_ds / dts - ad) < 1e-6
        assert abs(db_ds / dts - bd) < 1e-6


def test_full_system_residual():
    assert np.allclose(cyl.full_system_residual(1, 1, -1, 3), (0.0, 0.0))
    assert np.allclose(cyl.full_system_residual(1, 1, 0, 0), (-1.0, -1.0))
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.uniform(0.3, 3.0, size=2)
        ad, bd = cyl.reduced_rhs(a, b)
        e1, e2 = cyl.full_system_residual(a, b, ad, bd)
        scale = 1.0 + a**2 / b**4  # term size; the residual is pure rounding
        assert abs(e1) < 1e-14 * scale and abs(e2) < 1e-14 * scale


def test_conserved_quantity():
    assert cyl.conserved_quantity(1.0, 1.0) == 2.0
    assert cyl.conserved_quantity(1.0, 2.0) == pytest.approx(1.5)
    for s in (0.6, 1.0, 5.0):
        a, b = cyl.closed_form(s)
        assert abs(cyl.conserved_quantity(a, b) - 2.0) < 1e-12


def test_closed_form():
    a, b = cyl.closed_form(1.0)
    assert a == 1.0 and b == 1.0
    for s in (0.6, 2.0, 10.0):
        a, b = cyl.closed_form(s)
        assert abs(a * b - s) < 1e-12
    a, b = cyl.closed_form(0.5 + 1e-9)
    assert a > 1e4 and b < 1e-4  # vertical direction explodes, horizontal collapses
    with pytest.raises(ValueError):
        cyl.closed_form(0.5)


# ---------------------------------------------------------------------------
# the time variable
# ---------------------------------------------------------------------------


def test_t_of_s():
    assert cyl.t_of_s(1.0) == 0.0
    # dt/ds at s = 1 is 1/2
    d = (cyl.t_of_s(1.0 + 1e-6) - cyl.t_of_s(1.0 - 1e-6)) / 2e-6
    assert abs(d - 0.5) < 1e-9


def test_boundary_distance():
    assert abs(boundary_distance_quadrature() - BOUNDARY) < 1e-8
    assert abs(cyl.boundary_distance_exact() - BOUNDARY) < 1e-15
    assert abs(BOUNDARY - 0.1884) < 1e-4  # the printed approximation


def test_closed_antiderivative_matches_quadrature():
    # (1/sqrt2)[ s sqrt(1 - 1/(2s)) - (1/4) ln(4s - 1 + sqrt(16 s^2 - 8 s)) ]
    def F(s):
        return (1 / SQRT2) * (
            s * np.sqrt(1 - 1 / (2 * s)) - 0.25 * np.log(4 * s - 1 + np.sqrt(16 * s**2 - 8 * s))
        )

    dt_ds = lambda u: np.sqrt((2 * u - 1) / (4 * u))
    for s in (0.7, 1.3, 2.0, 6.0):
        by_quadrature, _ = quad(dt_ds, 1.0, s, epsabs=1e-14, epsrel=1e-13, limit=200)
        assert abs((F(s) - F(1.0)) - by_quadrature) < 1e-10
        assert abs(cyl.t_of_s(s) - by_quadrature) < 1e-10


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def forward_profile():
    return cyl.integrate(t_end=3.0)


@pytest.fixture(scope="module")
def backward_profile():
    return cyl.integrate(t_end=-1.0)


def test_forward_monotonicities(forward_profile):
    p = forward_profile
    order = np.argsort(p.t)
    a, b = p.a[order], p.b[order]
    assert np.all(np.diff(a) < 0)  # a decreasing
    assert np.all(np.diff(b) > 0)  # b increasing
    assert np.all(np.diff(a * b) > 0)  # s increasing


def test_node_invariants(forward_profile):
    p = forward_profile
    # b/a = 2ab - 1 at every node
    assert np.max(np.abs(p.b / p.a - (2 * p.a * p.b - 1))) < 1e-12
    # reduced system enforced at the nodes
    for a, b, ad, bd in zip(p.a, p.b, p.adot, p.bdot):
        ra, rb = cyl.reduced_rhs(a, b)
        assert ad == ra and bd == rb
    assert p.max_drift < 1e-9  # pre-projection, entire run (< 1e-9 per unit t)


def test_product_growth_rate(forward_profile):
    # (ab)' = 2a along the orbit; finite differences of the node data
    p = forward_profile
    order = np.argsort(p.t)
    t, s, a = p.t[order], (p.a * p.b)[order], p.a[order]
    mid_rate = np.diff(s) / np.diff(t)
    mid_a = 0.5 * (a[1:] + a[:-1])
    assert np.max(np.abs(mid_rate - 2 * mid_a)) < 5e-3  # second-order midpoint


def test_integrated_matches_closed_form(forward_profile):
    p = forward_profile
    al, be = cyl.closed_form(p.a * p.b)
    assert np.max(np.abs(p.a - al)) < 1e-8
    assert np.max(np.abs(p.b - be)) < 1e-8


def test_time_parameterization_matches_quadrature(forward_profile):
    p = forward_profile
    order = np.argsort(p.t)
    for i in order[:: max(1, len(order) // 8)]:
        assert abs(cyl.t_of_s(p.a[i] * p.b[i]) - p.t[i]) < 1e-8


def test_full_system_on_accepted_steps(forward_profile):
    p = forward_profile
    worst = max(
        np.max(np.abs(cyl.full_system_residual(a, b, ad, bd)))
        for a, b, ad, bd in zip(p.a, p.b, p.adot, p.bdot)
    )
    assert worst < 1e-10


def test_backward_reaches_singularity(backward_profile):
    p = backward_profile
    assert p.singularity
    s_final = p.a[-1] * p.b[-1]
    assert abs(s_final - (0.5 + 1e-6)) < 1e-10
    assert abs(abs(p.t[-1]) - BOUNDARY) < 2e-4
    # and in fact to much higher accuracy (the s-offset correction is ~1e-9)
    assert abs(abs(p.t[-1]) - BOUNDARY) < 1e-6


def test_interpolation(forward_profile):
    p = forward_profile
    tq = np.linspace(0.0, 3.0, 40)
    a, b = p(tq)
    s = a * b
    al, be = cyl.closed_form(s)
    assert np.max(np.abs(a - al)) < 1e-8
    assert np.max(np.abs(b - be)) < 1e-8
    with pytest.raises(ValueError):
        p(3.5)


def test_integrate_argument_validation():
    with pytest.raises(ValueError):
        cyl.integrate()
    with pytest.raises(ValueError):
        cyl.integrate(t_end=1.0, s_end=2.0)
    with pytest.raises(ValueError):
        cyl.integrate(s_end=0.4)


def test_integrate_to_s_target():
    prof = cyl.integrate(s_end=2.0)
    assert abs(prof.a[-1] * prof.b[-1] - 2.0) < 1e-10
    prof = cyl.integrate(s_end=0.8)
    assert abs(prof.a[-1] * prof.b[-1] - 0.8) < 1e-10
    assert not prof.singularity


# ---------------------------------------------------------------------------
# Weingarten map and slice residual
# ---------------------------------------------------------------------------


def test_weingarten():
    W = cyl.weingarten(1.0, 1.0, -1.0, 3.0)
    assert np.allclose(W, np.diag([1.0, -3.0, -3.0]))
    assert np.allclose(W, known_example("left-133").matrix(np.array([1.0, 0, 0, 0])))
    # flat cone a = b = 1 - t at t = 0: the shape operator of the unit sphere
    W = cyl.weingarten(1.0, 1.0, -1.0, -1.0)
    assert np.allclose(W, np.eye(3))


def test_weingarten_trace_continuity(forward_profile):
    p = forward_profile
    order = np.argsort(p.t)
    traces = [
        np.trace(cyl.weingarten(p.a[i], p.b[i], p.adot[i], p.bdot[i])) for i in order
    ]
    # -(adot/a) - 2 bdot/b along the orbit, continuous: no jumps between nodes
    assert np.max(np.abs(np.diff(traces))) < 0.5


def test_slice_residual_at_t0():
    res = cyl.slice_residual(1.0, 1.0, -1.0, 3.0)
    assert np.max(np.abs(res)) < 1e-14


def test_slice_residual_along_orbit(forward_profile):
    p = forward_profile
    worst = max(
        np.max(np.abs(cyl.slice_residual(a, b, ad, bd)))
        for a, b, ad, bd in zip(p.a, p.b, p.adot, p.bdot)
    )
    assert worst < 1e-9


def test_slice_residual_on_and_off_shell():
    # Any state fed with the reduced right-hand side zeroes the slice
    # equations, conserved quantity or not: both factorizations of the
    # slice system vanish identically under adot = -a^2/b^2, bdot = a/b+2.
    # (States off the C = 2 level set are the positive-parameter Taub-NUT
    # orbits, which are solutions in their own right.)
    ad, bd = cyl.reduced_rhs(1.0, 2.0)
    res = cyl.slice_residual(1.0, 2.0, ad, bd)
    assert np.max(np.abs(res)) < 1e-14
    # a genuinely off-shell state is detected
    res = cyl.slice_residual(1.0, 1.0, 0.0, 0.0)
    assert np.max(np.abs(res)) > 0.5
    res = cyl.slice_residual(1.0, 2.0, ad + 0.3, bd)
    assert np.max(np.abs(res)) > 1e-2


def test_slice_residual_single_pair():
    res23 = cyl.slice_residual(1.0, 1.0, -1.0, 3.0, pair=(2, 3))
    assert res23.shape == (3,)
    assert np.max(np.abs(res23)) < 1e-14


# ---------------------------------------------------------------------------
# 4D metric, Taub-NUT comparison
# ---------------------------------------------------------------------------


def test_metric_4d_values():
    assert np.allclose(cyl.metric_4d(1.0, 1.0), (0.25, 1.0, 1.0, 1.0))
    c = cyl.metric_4d(0.5 + 1e-9, 1.0)
    assert c[1] > 1e8 and c[2] < 1e-8  # eta_1 explodes, eta_2 collapses
    with pytest.raises(ValueError):
        cyl.metric_4d(0.4, 1.0)


def test_metric_4d_u_reproduces_s_form():
    for r in (0.7, 1.0, 2.5):
        for s in (0.8, 1.0, 3.0):
            cs = cyl.metric_4d(s, r)
            cu = cyl.metric_4d_u(r * s, r)
            # du = r ds, so the ds^2 coefficient picks up r^2
            assert abs(cs[0] - r**2 * cu[0]) < 1e-12
            assert abs(cs[1] - cu[1]) < 1e-12
            assert abs(cs[2] - cu[2]) < 1e-12


def test_taub_nut_values():
    c = cyl.taub_nut_coeffs(2.0, 1.0, 1.0)
    assert c[0] == pytest.approx(3.0)
    assert c[1] == pytest.approx(4.0 / 3.0)
    assert c[2] == pytest.approx(12.0)
    # b = 0 degenerates the fiber direction
    c = cyl.taub_nut_coeffs(2.0, 0.0, 1.0)
    assert c[1] == 0.0


def test_taub_nut_negative_parameter_is_cylinder_metric():
    # a = 2, b = -r: exactly 4x the cylinder metric in the variable u = r s
    for r in (0.5, 1.0, 1.7):
        for u in (0.8 * r, 1.1 * r, 4.0 * r):
            if u <= r / 2:
                continue
            tn = np.array(cyl.taub_nut_coeffs(2.0, -r, u))
            m4 = np.array(cyl.metric_4d_u(u, r))
            assert np.max(np.abs(tn - 4.0 * m4)) < 1e-12


# ---------------------------------------------------------------------------
# Ricci tensor: controls, orbit, oracles
# ---------------------------------------------------------------------------


def test_ricci_flat_cone_exact():
    # a = b = 1 - t is Euclidean R^4 in polar form
    for t in (0.0, 0.3, 0.7):
        r = 1.0 - t
        R = cyl.ricci_4d(r, r, -1.0, -1.0, 0.0, 0.0)
        assert np.max(np.abs(R)) < 1e-12


def test_ricci_round_cylinder_nonzero():
    R = cyl.ricci_4d(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert np.allclose(R, np.diag([0.0, 2.0, 2.0, 2.0]))


def test_ricci_flat_along_orbit(forward_profile):
    p = forward_profile
    for tq in np.linspace(0.0, 3.0, 20):
        a, b = p(tq)
        R = cyl.ricci_4d_state(a, b)
        assert np.linalg.norm(R) < 1e-8
    for s in (1.0, 1.5, 4.0):
        a, b = cyl.closed_form(s)
        assert np.linalg.norm(cyl.ricci_4d_state(a, b)) < 1e-12


def test_positive_parameter_taub_nut_is_ricci_flat():
    # independent control: the standard (positive-parameter) Taub-NUT metric
    # with a=2, b=1 is also of the cylinder form, with
    # g_TN/4 = ((2s+1)/(4s)) ds^2 + s/(2s+1) eta1^2 + s(2s+1)(eta2^2+eta3^2);
    # the frozen Ricci formulas must vanish on that profile too
    a_ = lambda s: np.sqrt(s / (2 * s + 1))
    b_ = lambda s: np.sqrt(s * (2 * s + 1))
    tau = lambda s: np.sqrt((2 * s + 1) / (4 * s))  # dt/ds
    h = 1e-5

    def dds(f, s):
        return (f(s + h) - f(s - h)) / (2 * h)

    for s0 in (0.5, 1.0, 3.0):
        adot = lambda s: dds(a_, s) / tau(s)
        bdot = lambda s: dds(b_, s) / tau(s)
        ad, bd = adot(s0), bdot(s0)
        add = dds(adot, s0) / tau(s0)
        bdd = dds(bdot, s0) / tau(s0)
        R = cyl.ricci_4d(a_(s0), b_(s0), ad, bd, add, bdd)
        assert np.max(np.abs(R)) < 1e-4  # FD-limited, decisive against O(1)


def test_ricci_against_symbolic_rederivation():
    sympy = pytest.importorskip("sympy")
    sp = sympy
    t = sp.symbols("t")
    a = sp.Function("a", positive=True)(t)
    b = sp.Function("b", positive=True)(t)
    A = a.diff(t) / a
    B = b.diff(t) / b
    p = 2 / a
    m = 2 * a / b**2
    Z = [sp.Integer(0)] * 4

    def vec(*pairs):
        v = list(Z)
        for idx, c in pairs:
            v[idx] = c
        return v

    nabla = [[list(Z) for _ in range(4)] for _ in range(4)]
    nabla[1][0] = vec((1, A))
    nabla[2][0] = vec((2, B))
    nabla[3][0] = vec((3, B))
    nabla[1][1] = vec((0, -A))
    nabla[2][2] = vec((0, -B))
    nabla[3][3] = vec((0, -B))
    nabla[1][2] = vec((3, p - m / 2))
    nabla[2][1] = vec((3, -m / 2))
    nabla[2][3] = vec((1, m / 2))
    nabla[3][2] = vec((1, -m / 2))
    nabla[3][1] = vec((2, m / 2))
    nabla[1][3] = vec((2, m / 2 - p))
    brackets = {
        (0, 1): vec((1, -A)),
        (0, 2): vec((2, -B)),
        (0, 3): vec((3, -B)),
        (1, 2): vec((3, p)),
        (2, 3): vec((1, m)),
        (3, 1): vec((2, p)),
    }

    def bracket(i, j):
        if (i, j) in brackets:
            return brackets[(i, j)]
        if (j, i) in brackets:
            return [-c for c in brackets[(j, i)]]
        return list(Z)

    def nabla_dir(i, v):
        out = list(Z)
        for k in range(4):
            if v[k] == 0:
                continue
            if i == 0:
                out[k] += sp.diff(v[k], t)
            else:
                for l in range(4):
                    out[l] += v[k] * nabla[i][k][l]
        return out

    def nabla_vec(u, v):
        out = list(Z)
        for i in range(4):
            if u[i] == 0:
                continue
            piece = nabla_dir(i, v)
            for l in range(4):
                out[l] += u[i] * piece[l]
        return out

    def basis(i):
        v = list(Z)
        v[i] = sp.Integer(1)
        return v

    def riemann(i, j, k):
        t1 = nabla_dir(i, nabla_dir(j, basis(k)))
        t2 = nabla_dir(j, nabla_dir(i, basis(k)))
        t3 = nabla_vec(bracket(i, j), basis(k))
        return [sp.simplify(t1[l] - t2[l] - t3[l]) for l in range(4)]

    ric = sp.zeros(4, 4)
    for j in range(4):
        for k in range(4):
            ric[j, k] = sp.simplify(sum(riemann(i, j, k)[i] for i in range(4)))
    order = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    sec_sym = {key: sp.simplify(riemann(key[0], key[1], key[1])[key[0]]) for key in order}

    # compare against the frozen closed forms at two generic states
    rng = np.random.default_rng(31)
    for _ in range(2):
        av, bv, adv, bdv, addv, bddv = rng.uniform(0.4, 2.5, size=6)
        subs = [
            (a.diff(t, 2), addv),
            (b.diff(t, 2), bddv),
            (a.diff(t), adv),
            (b.diff(t), bdv),
            (a, av),
            (b, bv),
        ]
        sym = np.array(
            [[float(ric[j, k].subs(subs)) for k in range(4)] for j in range(4)]
        )
        frozen = cyl.ricci_4d(av, bv, adv, bdv, addv, bddv)
        assert np.max(np.abs(sym - frozen)) < 1e-10
        frozen_secs = cyl.sectional_curvatures(av, bv, adv, bdv, addv, bddv)
        for n, key in enumerate(order):
            assert abs(float(sec_sym[key].subs(subs)) - frozen_secs[n]) < 1e-10


# coordinate-chart finite-difference Ricci oracle -----------------------------


def _chart(x):
    n2 = x @ x
    return np.array([1 - n2, 2 * x[0], 2 * x[1], 2 * x[2]]) / (1 + n2)


def _metric_coords(tt, x, prof):
    from cauchys3.frame import invariant_vector

    q = _chart(x)
    h = 1e-6
    J = np.zeros((4, 3))
    for i in range(3):
        dx = np.zeros(3)
        dx[i] = h
        J[:, i] = (_chart(x + dx) - _chart(x - dx)) / (2 * h)
    eta = np.stack([invariant_vector(q, k) for k in (1, 2, 3)]) @ J
    a, b = prof(tt)
    g3 = a**2 * np.outer(eta[0], eta[0]) + b**2 * (
        np.outer(eta[1], eta[1]) + np.outer(eta[2], eta[2])
    )
    g = np.zeros((4, 4))
    g[0, 0] = 1.0
    g[1:, 1:] = g3
    return g


def _ricci_fd_coords(tt, x, prof, h=2e-4):
    def gfun(z):
        return _metric_coords(z[0], z[1:], prof)

    z0 = np.concatenate([[tt], x])

    def christoffel(z):
        g = gfun(z)
        gi = np.linalg.inv(g)
        dgs = []
        for mu in range(4):
            dz = np.zeros(4)
            dz[mu] = h
            dgs.append((gfun(z + dz) - gfun(z - dz)) / (2 * h))
        gam = np.zeros((4, 4, 4))
        for l in range(4):
            for mm in range(4):
                for nn in range(4):
                    s = 0.0
                    for r in range(4):
                        s += gi[l, r] * (dgs[mm][nn, r] + dgs[nn][mm, r] - dgs[r][mm, nn])
                    gam[l, mm, nn] = 0.5 * s
        return gam

    G0 = christoffel(z0)
    dG = []
    for mu in range(4):
        dz = np.zeros(4)
        dz[mu] = h
        dG.append((christoffel(z0 + dz) - christoffel(z0 - dz)) / (2 * h))
    ric = np.zeros((4, 4))
    for nn in range(4):
        for ss in range(4):
            val = 0.0
            for mm in range(4):
                val += dG[mm][mm, nn, ss] - dG[ss][mm, nn, mm]
                for l in range(4):
                    val += G0[mm, mm, l] * G0[l, nn, ss] - G0[mm, ss, l] * G0[l, nn, mm]
            ric[nn, ss] = val
    return ric


def _frame_change(tt, x, prof):
    from cauchys3.frame import invariant_vector

    q = _chart(x)
    h = 1e-6
    J = np.zeros((4, 3))
    for i in range(3):
        dx = np.zeros(3)
        dx[i] = h
        J[:, i] = (_chart(x + dx) - _chart(x - dx)) / (2 * h)
    a, b = prof(tt)
    F = np.zeros((4, 4))
    F[0, 0] = 1.0
    for k in (1, 2, 3):
        ek = invariant_vector(q, k)
        v, *_ = np.linalg.lstsq(J, ek, rcond=None)
        F[k, 1:] = v / (a if k == 1 else b)
    return F


@pytest.mark.slow
def test_ricci_against_coordinate_fd_oracle():
    x0 = np.array([0.21, -0.33, 0.15])
    # flat cone: coordinate-chart FD Ricci must vanish
    cone = lambda tt: (1.0 - tt, 1.0 - tt)
    R = _ricci_fd_coords(0.05, x0, cone)
    assert np.max(np.abs(R)) < 5e-3

    # generic state: FD oracle agrees with the frozen closed forms
    def gen(tt):
        return 1 + 0.2 * tt + 0.3 * tt**2, 1 - 0.1 * tt + 0.05 * tt**2

    tt0 = 0.07
    a0, b0 = gen(tt0)
    ad, bd = 0.2 + 0.6 * tt0, -0.1 + 0.1 * tt0
    add, bdd = 0.6, 0.1
    Rfd = _ricci_fd_coords(tt0, x0, gen)
    F = _frame_change(tt0, x0, gen)
    Rframe = F @ Rfd @ F.T
    frozen = cyl.ricci_4d(a0, b0, ad, bd, add, bdd)
    assert np.max(np.abs(Rframe - frozen)) < 5e-3

    # an orbit state: the oracle confirms Ricci-flatness end to end, with
    # the profile given in closed form through s(t) (bracketed root find)
    from scipy.optimize import brentq

    t0 = cyl.t_of_s(1.4)

    def orbit(tt):
        s = brentq(lambda sv: cyl.t_of_s(sv) - (t0 + tt), 0.6, 3.0, xtol=1e-14)
        return cyl.closed_form(s)

    R = _ricci_fd_coords(0.0, x0, orbit)
    assert np.max(np.abs(R)) < 5e-3


# ---------------------------------------------------------------------------
# curvature blow-up probe
# ---------------------------------------------------------------------------


def test_blowup_probe_monotone():
    svals = [0.9, 0.7, 0.6, 0.55, 0.51]
    norms = cyl.curvature_blowup_probe(svals)
    assert np.all(np.diff(norms) > 0)
    assert norms[-1] / norms[0] > 10.0


def test_blowup_probe_closed_form():
    # on the orbit the frame-plane sectionals are -8, 4, 4, 4, 4, -8 over
    # (2s-1)^3, so the probe equals 8/(2s-1)^3
    svals = np.array([0.9, 0.7, 0.6, 0.55, 0.51, 1.0])
    norms = cyl.curvature_blowup_probe(svals)
    assert np.max(np.abs(norms - 8.0 / (2 * svals - 1) ** 3)) < 1e-6
    assert np.isfinite(norms[-1]) and norms[-1] == pytest.approx(8.0)


def test_trajectory_rows(forward_profile):
    rows = cyl.trajectory_rows(forward_profile)
    assert rows[0]["t"] == 0.0
    assert {"t", "s", "a", "b", "adot", "bdot", "conserved", "slice_residual_max", "ricci_norm"} <= set(
        rows[0]
    )
    assert max(abs(r["conserved"] - 2.0) for r in rows) < 1e-12
    assert max(r["slice_residual_rel"] for r in rows) < 1e-9
    assert max(r["ricci_norm_rel"] for r in rows) < 1e-8
