"""The array-valued cylinder layer against the per-node loops it replaced.

The `_loop_*` functions are the earlier per-node implementations, kept
as oracles: scalar Python arithmetic node by node, the slice residual
assembled pair by pair from the Berger tables of `cauchys3.tensor`.
The batched functions must reproduce them bit for bit (`np.array_equal`),
column by column, because the CLI prints these numbers.  Powers are
products (b^4 as (b b)(b b)) on both sides, so the scalar and the
batched forms agree by construction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cauchys3 import cylinder as cyl
from cauchys3.tensor import BergerParams, curvature_berger, gamma_berger, gamma_berger_orthonormal, wedge_endo

# ---------------------------------------------------------------------------
# the per-node oracles
# ---------------------------------------------------------------------------


def _loop_rhs(a, b):
    return -(a * a) / (b * b), a / b + 2.0


def _loop_second_derivatives(a, b):
    ad, bd = _loop_rhs(a, b)
    b2 = b * b
    add = -2.0 * a * ad / b2 + 2.0 * (a * a) * bd / (b2 * b)
    bdd = ad / b - a * bd / b2
    return add, bdd


def _loop_slice_residual(a, b, adot, bdot, pair=None):
    p = BergerParams(a, b)
    W = np.diag([-adot / a, -bdot / b, -bdot / b])
    gammas = gamma_berger_orthonormal(p)

    def one(i, j):
        fi = np.zeros(3)
        fi[i - 1] = 1.0
        fj = np.zeros(3)
        fj[j - 1] = 1.0
        curv = curvature_berger(p, i, j) * wedge_endo(fi, fj)
        gi, gj = gammas[i - 1], gammas[j - 1]
        dW = (gi @ W - W @ gi) @ fj - (gj @ W - W @ gj) @ fi
        return curv + dW + np.cross(W @ fi, W @ fj)

    if pair is not None:
        return one(*pair)
    return np.stack([one(1, 2), one(1, 3), one(2, 3)])


def _loop_ricci_4d(a, b, adot, bdot, addot, bddot):
    b4 = (b * b) * (b * b)
    r00 = -addot / a - 2 * bddot / b
    r11 = -addot / a - 2 * adot * bdot / (a * b) + 2 * (a * a) / b4
    r22 = -bddot / b - (bdot / b) * (bdot / b) - adot * bdot / (a * b) + 4 / (b * b) - 2 * (a * a) / b4
    return np.diag([r00, r11, r22, r22])


def _loop_sectional_curvatures(a, b, adot, bdot, addot, bddot):
    b4 = (b * b) * (b * b)
    k01 = -addot / a
    k02 = -bddot / b
    k12 = (a * a) / b4 - adot * bdot / (a * b)
    k23 = 4 / (b * b) - 3 * (a * a) / b4 - (bdot / b) * (bdot / b)
    return np.array([k01, k02, k02, k12, k12, k23])


def _loop_probe(s_values):
    return np.array([8.0 / ((2.0 * s - 1.0) * (2.0 * s - 1.0) * (2.0 * s - 1.0)) for s in np.asarray(s_values).tolist()])


def _sectional_probe(s_values):
    # the probe's independent oracle: every sectional curvature on the orbit
    out = []
    for s in np.asarray(s_values, dtype=float):
        a, b = cyl.closed_form(s)
        ad, bd = _loop_rhs(a, b)
        add, bdd = _loop_second_derivatives(a, b)
        out.append(float(np.max(np.abs(_loop_sectional_curvatures(a, b, ad, bd, add, bdd)))))
    return np.array(out)


def _loop_trajectory_rows(profile):
    rows = []
    for i in np.argsort(profile.t):
        a, b = float(profile.a[i]), float(profile.b[i])
        ad, bd = float(profile.adot[i]), float(profile.bdot[i])
        add, bdd = _loop_second_derivatives(a, b)
        res = float(np.max(np.abs(_loop_slice_residual(a, b, ad, bd))))
        r = np.diag(_loop_ricci_4d(a, b, ad, bd, add, bdd)).tolist()
        ric = math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2] + r[3] * r[3])
        scale = 1.0 + float(np.max(np.abs(_loop_sectional_curvatures(a, b, ad, bd, add, bdd))))
        rows.append(
            {
                "t": float(profile.t[i]),
                "s": a * b,
                "a": a,
                "b": b,
                "adot": ad,
                "bdot": bd,
                "conserved": (1.0 / (a * b)) * (b / a + 1.0),
                "slice_residual_max": res,
                "ricci_norm": ric,
                "slice_residual_rel": res / scale,
                "ricci_norm_rel": ric / scale,
            }
        )
    return rows


def _loop_interpolate(profile, tq):
    tq = np.asarray(tq, dtype=float)
    order = np.argsort(profile.t)
    ts = profile.t[order]
    idx = np.clip(np.searchsorted(ts, tq) - 1, 0, len(ts) - 2)
    second = np.array([_loop_second_derivatives(a, b) for a, b in zip(profile.a, profile.b)])
    out = []
    for comp, dcomp, ddcomp in ((profile.a, profile.adot, second[:, 0]), (profile.b, profile.bdot, second[:, 1])):
        y, dy, ddy = comp[order], dcomp[order], ddcomp[order]
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


# ---------------------------------------------------------------------------
# the export, the interpolant and the probe
# ---------------------------------------------------------------------------

RUNS = {"to-singularity": {"t_end": -10.0}, "t_end=3": {"t_end": 3.0}, "s_end=0.6": {"s_end": 0.6}}


@pytest.fixture(scope="module", params=list(RUNS))
def profile(request):
    return cyl.integrate(**RUNS[request.param])


def test_trajectory_rows_match_the_per_node_loop_bit_for_bit(profile):
    rows = cyl.trajectory_rows(profile)
    expected = _loop_trajectory_rows(profile)
    assert [list(r) for r in rows] == [list(r) for r in expected]  # same keys, same order
    for key in expected[0]:
        assert np.array_equal([r[key] for r in rows], [r[key] for r in expected]), key
    assert all(type(v) is float for r in rows for v in r.values())


def test_trajectory_rows_match_the_per_node_loop_off_shell():
    # random nodes off the orbit: no column is rounding noise around zero
    rng = np.random.default_rng(17)
    n = 500
    a, b = rng.uniform(0.3, 3.0, (2, n))
    prof = cyl.CylinderProfile(rng.permutation(n) * 0.01, a, b, *rng.normal(size=(2, n)), max_drift=0.0)
    rows = cyl.trajectory_rows(prof)
    expected = _loop_trajectory_rows(prof)
    for key in expected[0]:
        assert np.array_equal([r[key] for r in rows], [r[key] for r in expected]), key


def test_interpolant_matches_the_per_node_loop_bit_for_bit(profile):
    tq = np.linspace(profile.t.min(), profile.t.max(), 997)
    a, b = profile(tq)
    a_loop, b_loop = _loop_interpolate(profile, tq)
    assert np.array_equal(a, a_loop) and np.array_equal(b, b_loop)


@pytest.mark.parametrize("n", [10, 10_000])
def test_probe_matches_the_per_node_loop_bit_for_bit(n):
    s = np.linspace(0.9, 0.51, n)
    assert np.array_equal(cyl.curvature_blowup_probe(s), _loop_probe(s))


@given(s=st.floats(0.5, 10.0, exclude_min=True))
@settings(max_examples=200, deadline=None)
def test_probe_is_the_largest_sectional_curvature(s):
    assert math.isclose(cyl.curvature_blowup_probe([s])[0], _sectional_probe([s])[0], rel_tol=1e-12)


def test_probe_on_random_values_and_on_no_values():
    s = np.random.default_rng(11).uniform(0.5 + 1e-7, 40.0, 3000)
    assert np.array_equal(cyl.curvature_blowup_probe(s), _loop_probe(s))
    assert cyl.curvature_blowup_probe([]).shape == (0,)
    with pytest.raises(ValueError):
        cyl.curvature_blowup_probe([0.9, 0.5])


# ---------------------------------------------------------------------------
# the batched kernels off the orbit, and their scalar forms
# ---------------------------------------------------------------------------


def test_batched_kernels_match_the_scalar_loop_off_shell():
    rng = np.random.default_rng(5)
    n = 1500
    a, b = rng.uniform(0.2, 3.0, (2, n))
    ad, bd, add, bdd = rng.normal(size=(4, n)) * np.exp(rng.normal(size=(4, n)))
    add_b, bdd_b = cyl.second_derivatives(a, b)
    res = cyl.slice_residual(a, b, ad, bd)
    ric = cyl.ricci_4d(a, b, ad, bd, add, bdd)
    sec = cyl.sectional_curvatures(a, b, ad, bd, add, bdd)
    assert res.shape == (n, 3, 3) and ric.shape == (n, 4, 4) and sec.shape == (n, 6)
    pairs = [(1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)]
    by_pair = {p: cyl.slice_residual(a, b, ad, bd, pair=p) for p in pairs}
    for i in range(n):
        x = [float(v[i]) for v in (a, b, ad, bd, add, bdd)]
        assert np.array_equal((add_b[i], bdd_b[i]), _loop_second_derivatives(x[0], x[1]))
        assert np.array_equal(res[i], _loop_slice_residual(*x[:4]))
        assert np.array_equal(ric[i], _loop_ricci_4d(*x))
        assert np.array_equal(sec[i], _loop_sectional_curvatures(*x))
        for p in pairs:
            assert np.array_equal(by_pair[p][i], _loop_slice_residual(*x[:4], pair=p))


def test_ricci_at_states_takes_arrays():
    a, b = cyl.closed_form(np.linspace(0.6, 4.0, 40))
    batched = cyl.ricci_4d_state(a, b)
    for i in range(len(a)):
        x, y = float(a[i]), float(b[i])
        ad, bd = _loop_rhs(x, y)
        assert np.array_equal(batched[i], _loop_ricci_4d(x, y, ad, bd, *_loop_second_derivatives(x, y)))
        assert np.array_equal(batched[i], cyl.ricci_4d_state(x, y))
    with pytest.raises(ValueError):
        cyl.ricci_4d_state(np.array([1.0, -1.0]), np.array([1.0, 1.0]))


def test_scalar_calls_keep_their_shapes():
    state = (1.0, 2.0, 0.3, -0.7)
    add, bdd = cyl.second_derivatives(1.0, 2.0)
    assert isinstance(add, float) and isinstance(bdd, float)
    assert (add, bdd) == _loop_second_derivatives(1.0, 2.0)
    assert np.array_equal(cyl.slice_residual(*state), _loop_slice_residual(*state))
    assert cyl.slice_residual(*state).shape == (3, 3)
    assert cyl.slice_residual(*state, pair=(2, 3)).shape == (3,)
    assert np.array_equal(cyl.ricci_4d(*state, add, bdd), _loop_ricci_4d(*state, add, bdd))
    assert cyl.ricci_4d(*state, add, bdd).shape == (4, 4)
    assert np.array_equal(cyl.sectional_curvatures(*state, add, bdd), _loop_sectional_curvatures(*state, add, bdd))
    assert cyl.sectional_curvatures(*state, add, bdd).shape == (6,)


def test_batched_kernels_reject_non_positive_scales():
    for a, b in ((np.array([1.0, 0.0]), np.array([1.0, 1.0])), (1.0, -2.0)):
        with pytest.raises(ValueError):
            cyl.second_derivatives(a, b)
        with pytest.raises(ValueError):
            cyl.slice_residual(a, b, 0.0, 0.0)
    with pytest.raises(ValueError):
        cyl.slice_residual(1.0, 1.0, -1.0, 3.0, pair=(2, 2))
    with pytest.raises(ValueError):
        cyl.reduced_rhs(0.0, 1.0)


def test_berger_tables_on_arrays_match_the_scalar_tables():
    # the slice residual batches through these: one table per node, same bits
    rng = np.random.default_rng(23)
    a, b = rng.uniform(0.2, 3.0, (2, 4, 50))
    batched = BergerParams(a, b)
    tables = gamma_berger(batched), gamma_berger_orthonormal(batched)
    curv = {pair: curvature_berger(batched, *pair) for pair in ((1, 2), (1, 3), (2, 3))}
    assert all(g.shape == (4, 50, 3, 3) for table in tables for g in table)
    for idx in np.ndindex(a.shape):
        p = BergerParams(float(a[idx]), float(b[idx]))
        for table, scalar in zip(tables, (gamma_berger(p), gamma_berger_orthonormal(p)), strict=True):
            for g, ref in zip(table, scalar, strict=True):
                assert ref.shape == (3, 3) and np.array_equal(g[idx], ref)
        for pair, value in curv.items():
            assert value[idx] == curvature_berger(p, *pair)
    with pytest.raises(ValueError):
        BergerParams(a, np.where(b > 1.0, b, 0.0))


# ---------------------------------------------------------------------------
# t(s) in closed form, on arrays
# ---------------------------------------------------------------------------


def _quadrature_t(s):
    val, _ = quad(lambda u: np.sqrt((2 * u - 1) / (4 * u)), 1.0, s, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def test_t_of_s_on_arrays_matches_quadrature():
    s = np.array([0.5000001, 0.51, 0.7, 0.99, 1.0, 1.3, 2.0, 6.0, 150.0, 1e4])
    t = cyl.t_of_s(s)
    assert isinstance(t, np.ndarray) and t.shape == s.shape
    for si, ti in zip(s, t):
        assert abs(ti - _quadrature_t(si)) <= 1e-12 * max(1.0, abs(ti))
    grid = cyl.t_of_s(s.reshape(2, 5))
    assert grid.shape == (2, 5) and np.array_equal(grid.ravel(), t)


def test_t_of_s_scalar_is_a_float_equal_to_the_array_entry():
    s = np.array([0.6, 1.0, 3.0])
    t = cyl.t_of_s(s)
    for si, ti in zip(s, t):
        value = cyl.t_of_s(float(si))
        assert type(value) is float and value == ti
    assert cyl.t_of_s(1.0) == 0.0
    assert np.all(np.diff(cyl.t_of_s(np.linspace(0.51, 5.0, 50))) > 0)


def test_t_of_s_rejects_any_s_at_or_below_one_half():
    for bad in (np.array([0.7, 0.5, 2.0]), np.array([[1.0, 0.2]]), [0.4], 0.5, -1.0):
        with pytest.raises(ValueError):
            cyl.t_of_s(bad)


def test_t_of_s_reaches_the_boundary_distance():
    assert abs(-cyl.t_of_s(0.5 + 1e-15) - cyl.boundary_distance_exact()) < 1e-7
