import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchys3 import polynomial
from cauchys3.polynomial import _PLANS, Poly, _plan, evaluate

coeff = st.floats(min_value=-4, max_value=4, allow_nan=False)
pt_coord = st.floats(min_value=-1.25, max_value=1.25, allow_nan=False)
exponent = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)
poly4 = st.dictionaries(exponent, coeff, min_size=0, max_size=5).map(
    lambda terms: Poly(4, terms)
)
points = st.lists(
    st.tuples(pt_coord, pt_coord, pt_coord, pt_coord), min_size=1, max_size=4
).map(np.array)


@given(p=poly4, q=poly4, pts=points)
@settings(max_examples=60, deadline=None)
def test_ring_operations_match_pointwise(p, q, pts):
    scale = 1.0 + np.max(np.abs(p(pts))) + np.max(np.abs(q(pts)))
    assert np.allclose((p + q)(pts), p(pts) + q(pts), atol=1e-12 * scale)
    assert np.allclose((p - q)(pts), p(pts) - q(pts), atol=1e-12 * scale)
    assert np.allclose((p * q)(pts), p(pts) * q(pts), atol=1e-12 * scale**2)
    assert np.allclose((2.5 * p)(pts), 2.5 * p(pts), atol=1e-12 * scale)


@given(p=poly4, pts=points)
@settings(max_examples=40, deadline=None)
def test_partial_derivative_matches_fd(p, pts):
    h = 1e-6
    scale = 1.0 + sum(abs(c) for c in p.terms.values())
    for m in range(4):
        shift = np.zeros(4)
        shift[m] = h
        fd = (p(pts + shift) - p(pts - shift)) / (2 * h)
        assert np.allclose(p.partial(m)(pts), fd, atol=1e-7 * scale)


@given(p=poly4, q=poly4)
@settings(max_examples=40, deadline=None)
def test_leibniz_rule_along_linear_field(p, q):
    rng = np.random.default_rng(1)
    M = rng.normal(size=(4, 4))
    pts = rng.normal(size=(5, 4))
    lhs = (p * q).derive_along_linear(M)(pts)
    rhs = (p.derive_along_linear(M) * q)(pts) + (p * q.derive_along_linear(M))(pts)
    scale = 1.0 + np.max(np.abs(lhs))
    assert np.allclose(lhs, rhs, atol=1e-8 * scale)


def test_constructors_and_repr():
    c = Poly.constant(3.0, 4)
    assert c(np.zeros(4)) == 3.0 and c.degree == 0
    x2 = Poly.coordinate(1, 4)
    assert x2(np.array([0.0, 7.0, 0, 0])) == 7.0
    lin = Poly.linear([1.0, -1.0, 0.0, 2.0], 4)
    assert lin(np.array([1.0, 2.0, 3.0, 4.0])) == 1 - 2 + 8
    assert not Poly(4, {}).terms
    assert "x1" in repr(x2)


def test_power():
    p = Poly.coordinate(0, 3) + 1.0
    pts = np.array([[2.0, 0, 0]])
    assert (p**3)(pts)[0] == 27.0
    assert (p**0)(pts)[0] == 1.0


# -- the evaluation kernel against the direct formula ------------------


def reference_eval(p, points):
    """Python floats, point by point: x^k by the chain x^(k-1) * x, each
    monomial the product of its factors in variable order, and the terms
    added to 0.0 one by one in term order (a loop, not sum(), which may
    compensate).  Independent of `evaluate`."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[:-1])
    width = max((max(e) for e in p.terms), default=0) + 1
    for idx in np.ndindex(out.shape):
        powers = []
        for x in pts[idx].tolist():
            chain = [1.0]
            for _ in range(1, width):
                chain.append(chain[-1] * x)
            powers.append(chain)
        acc = 0.0
        for exps, c in p.terms.items():
            m = powers[0][exps[0]]
            for v in range(1, len(exps)):
                m = m * powers[v][exps[v]]
            acc = acc + c * m
        out[idx] = acc
    return out


def random_poly(rng, nvars, max_terms=40, max_exp=5):
    nterms = int(rng.integers(0, max_terms + 1))
    terms = {
        tuple(int(k) for k in rng.integers(0, max_exp + 1, size=nvars)): float(rng.normal())
        for _ in range(nterms)
    }
    return Poly(nvars, terms)


def point_batches(rng, nvars):
    scale = rng.choice([1e-3, 1.0, 1.25, 40.0])
    return [
        scale * rng.normal(size=(nvars,)),
        scale * rng.normal(size=(int(rng.integers(1, 300)), nvars)),
        scale * rng.normal(size=(3, int(rng.integers(1, 40)), nvars)),
    ]


def assert_bitwise(got, ref):
    assert np.shape(got) == np.shape(ref)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("nvars", [3, 4])
def test_call_matches_reference_bit_for_bit(nvars):
    rng = np.random.default_rng(100 + nvars)
    for _ in range(80):
        p = random_poly(rng, nvars)
        for pts in point_batches(rng, nvars):
            assert_bitwise(p(pts), reference_eval(p, pts))


@pytest.mark.parametrize("nvars", [3, 4])
def test_shared_table_matches_reference_bit_for_bit(nvars):
    # polynomials of different widths against one table as wide as the
    # widest of them
    rng = np.random.default_rng(200 + nvars)
    for _ in range(20):
        polys = [random_poly(rng, nvars, max_exp=int(rng.integers(0, 6))) for _ in range(6)]
        for pts in point_batches(rng, nvars):
            for got, p in zip(evaluate(polys, pts), polys):
                assert_bitwise(got, reference_eval(p, pts))


@pytest.fixture(scope="module")
def lone_points():
    """Nine polynomials, 4103 points and each point's values evaluated alone."""
    rng = np.random.default_rng(31)
    polys = [random_poly(rng, 4) for _ in range(8)] + [Poly(4, {})]
    pts = rng.normal(size=(4103, 4))
    alone = np.array([evaluate(polys, x) for x in pts])
    for p, col in zip(polys[:2], alone.T):
        assert_bitwise(col[:50], reference_eval(p, pts[:50]))
    return polys, pts, alone


@pytest.mark.parametrize("block, n", [(1, 120), (7, 120), (4096, 4103)])
def test_point_bits_do_not_depend_on_batch(monkeypatch, lone_points, block, n):
    # a point alone, and at every position of an (n, d) and an (a, b, d)
    # batch cut into blocks of 1, 7 or 4096 rows, gets the same bits
    polys, pts, alone = lone_points
    pts, alone = pts[:n], alone[:n]
    monkeypatch.setattr(polynomial, "_BLOCK", block)
    assert_bitwise(np.stack(evaluate(polys, pts), axis=-1), alone)
    assert_bitwise(np.stack(evaluate(polys, pts[5:]), axis=-1), alone[5:])
    m = n // 8
    grid = pts[: 8 * m].reshape(8, m, 4)
    assert_bitwise(np.stack(evaluate(polys, grid), axis=-1), alone[: 8 * m].reshape(8, m, -1))
    assert_bitwise(polys[0](grid[3:, 1:]), alone[: 8 * m, 0].reshape(8, m)[3:, 1:])


def test_zero_and_constant_polynomials():
    rng = np.random.default_rng(5)
    for nvars in (3, 4):
        zero = Poly(nvars, {})
        const = Poly.constant(-2.75, nvars)
        for pts in point_batches(rng, nvars):
            assert_bitwise(zero(pts), reference_eval(zero, pts))
            assert_bitwise(const(pts), reference_eval(const, pts))
            assert np.all(const(pts) == -2.75) and np.all(zero(pts) == 0.0)
            shared = evaluate([zero, const, zero], pts)
            assert_bitwise(shared[0], zero(pts))
            assert_bitwise(shared[1], const(pts))
    assert evaluate([], np.zeros((2, 4))) == []


def test_evaluation_rejects_wrong_variable_count():
    with pytest.raises(ValueError):
        Poly.coordinate(0, 4)(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        evaluate([Poly.coordinate(0, 3), Poly.coordinate(0, 4)], np.zeros(4))


# -- the plan cache ----------------------------------------------------


def test_same_list_evaluates_to_the_same_bits():
    rng = np.random.default_rng(11)
    polys = [random_poly(rng, 3) for _ in range(5)]
    pts = rng.normal(size=(40, 3))
    first = evaluate(polys, pts)
    hits = _plan.cache_info().hits
    for got, again, p in zip(first, evaluate(list(polys), pts), polys):
        assert_bitwise(again, got)
        assert_bitwise(got, reference_eval(p, pts))
    assert _plan.cache_info().hits == hits + 1


def test_swapped_polynomial_gets_its_own_plan():
    rng = np.random.default_rng(12)
    polys = [random_poly(rng, 4, max_terms=10) for _ in range(4)]
    pts = rng.normal(size=(7, 4))
    evaluate(polys, pts)
    swapped = polys[:2] + [random_poly(rng, 4, max_terms=10)] + polys[3:]
    misses = _plan.cache_info().misses
    for got, p in zip(evaluate(swapped, pts), swapped):
        assert_bitwise(got, reference_eval(p, pts))
    assert _plan.cache_info().misses == misses + 1
    # equal terms in a new object are a new key too
    twin = Poly(4, polys[0].terms)
    assert_bitwise(evaluate([twin] + polys[1:], pts)[0], reference_eval(polys[0], pts))


def test_permuted_columns_of_the_whole_table():
    # q has every monomial of the table, in another order than the table
    p = Poly(3, {(0, 0, 0): 0.3, (2, 0, 1): -1.7, (0, 1, 0): 0.9, (1, 1, 1): 2.3})
    q = Poly(3, {(1, 1, 1): 0.5, (0, 1, 0): -2.0, (2, 0, 1): 1.1, (0, 0, 0): 1.25})
    rng = np.random.default_rng(13)
    for pts in point_batches(rng, 3):
        for got, r in zip(evaluate([p, q], pts), [p, q]):
            assert_bitwise(got, reference_eval(r, pts))


def test_plan_cache_is_bounded():
    pts = np.ones(3)
    for k in range(_PLANS + 10):
        assert evaluate([Poly.constant(float(k), 3)], pts)[0] == k
    assert _plan.cache_info().currsize <= _PLANS
