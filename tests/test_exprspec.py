import numpy as np
import pytest

from cauchys3.exprspec import MAX_DEGREE, ParseError, parse_field_spec, parse_poly_expr
from cauchys3.frame import random_points


def test_parse_constants_and_coordinates():
    p = parse_poly_expr("3")
    assert p(np.array([0.0, 0, 0, 1])) == 3.0
    p = parse_poly_expr("a1")
    assert p(np.array([0.25, 0, 0, 0])) == 0.25
    p = parse_poly_expr("a4^2")
    assert p(np.array([0.0, 0, 0, 0.5])) == 0.25


def test_parse_arithmetic():
    pts = random_points(20, seed=3)
    p = parse_poly_expr("a1^2 + a2^2 - a3^2 - a4^2")
    expected = pts[:, 0] ** 2 + pts[:, 1] ** 2 - pts[:, 2] ** 2 - pts[:, 3] ** 2
    assert np.max(np.abs(p(pts) - expected)) < 1e-15
    p = parse_poly_expr("-2*(a1 + a2)*(a1 - a2) + 1.5")
    expected = -2 * (pts[:, 0] ** 2 - pts[:, 1] ** 2) + 1.5
    assert np.max(np.abs(p(pts) - expected)) < 1e-14


def test_parse_errors():
    for bad in ("a5", "diag(1,2)", "sym(1,2,3)", "1 +* 2", "foo(1,2,3)", "diag(2,,2)", "(1"):
        with pytest.raises(ParseError):
            if bad.startswith(("diag", "sym", "foo")):
                parse_field_spec(bad)
            else:
                parse_poly_expr(bad)


def test_parse_field_specs():
    pts = random_points(10, seed=1)
    A = parse_field_spec("diag(2, 2, 2)")
    assert np.allclose(A.matrix(pts), 2 * np.eye(3))
    A = parse_field_spec("builtin:left-133")
    assert np.allclose(A.matrix(pts[:1])[0], np.diag([1.0, -3.0, -3.0]))
    A = parse_field_spec("sym(a1, 0, 0, a2, 0, a3)")
    M = A.matrix(pts)
    assert np.allclose(M[:, 0, 0], pts[:, 0])
    assert np.allclose(M[:, 1, 1], pts[:, 1])
    assert np.allclose(M[:, 2, 2], pts[:, 2])
    assert np.max(np.abs(M - np.swapaxes(M, 1, 2))) == 0.0
    with pytest.raises(ParseError):
        parse_field_spec("builtin:unknown")


@pytest.mark.parametrize(
    "text,value", [("1e-3", 0.001), ("2.5E+2", 250.0), (".5e1", 5.0), ("3E2", 300.0), ("7.e-1", 0.7)]
)
def test_parse_exponent_notation(text, value):
    p = parse_poly_expr(text)
    assert p(np.array([0.0, 0, 0, 1])) == value
    q = parse_poly_expr(f"{text}*a1 - a2")
    assert q(np.array([1.0, 0.5, 0, 0])) == value - 0.5


@pytest.mark.parametrize("bad", ["1e", "1e+", "2.5E-", "1ea1", "e3"])
def test_parse_incomplete_exponent_rejected(bad):
    with pytest.raises(ParseError):
        parse_poly_expr(bad)


def test_field_spec_with_exponent_notation():
    pts = random_points(5, seed=2)
    A = parse_field_spec("diag(1e-3,1,1)")
    assert np.array_equal(A.matrix(pts), parse_field_spec("diag(0.001,1,1)").matrix(pts))


@pytest.mark.parametrize("bad", ["a1^1e9", "a1^1e400", "a1^17", "a1^9*a2^9", "(a1^2)^9", "2^17"])
def test_degree_above_bound_rejected_before_expansion(bad):
    with pytest.raises(ParseError, match="exponent|degree"):
        parse_poly_expr(bad)
    with pytest.raises(ParseError):
        parse_field_spec(f"diag({bad},1,1)")


def test_degree_at_bound_accepted():
    assert MAX_DEGREE == 16
    pts = random_points(5, seed=4)
    assert np.array_equal(parse_poly_expr("a1^16")(pts), parse_poly_expr("a1^8*a1^8")(pts))
    assert parse_poly_expr("(a1 + a2)^16").degree == 16
    assert parse_poly_expr("a1^8*a2^8").degree == 16


@pytest.mark.parametrize(
    "bad", ["1e400", "9" * 400, "1e400*0", "1e200*1e200", "1e200*a1*1e200", "1e308+1e308", "(1e200*a1)^2"]
)
def test_non_finite_coefficient_rejected(bad):
    with pytest.raises(ParseError, match="not finite"):
        parse_poly_expr(bad)
    assert parse_poly_expr("1e308*a1 + 1e-308").degree == 1  # large and tiny finite numbers stay


@pytest.mark.parametrize("bad", ["(" * 1000 + "a1" + ")" * 1000, "-" * 1000 + "a1", "+" * 1000 + "a1"])
def test_nesting_beyond_the_recursion_limit_rejected(bad):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_poly_expr(bad)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_field_spec(f"diag({bad},1,1)")
    assert parse_poly_expr("(" * 100 + "-" * 100 + "a1" + ")" * 100).degree == 1  # shallow nesting stays
