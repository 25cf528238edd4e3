"""Mini-language for specifying endomorphism fields on the command line.

Accepted forms:

    builtin:<name>              one of plus-id, minus-id, left-133, right-133
    diag(E1, E2, E3)            diagonal entries in the left-invariant frame
    sym(E11, E12, E13, E22, E23, E33)   upper triangle, row-major

where each entry E is a polynomial expression in the ambient
coordinates a1..a4: numbers (decimal, with an optional exponent as in
1e-3), + - *, unary minus, integer ^, and parentheses.  No general
function calls.  An exponent above MAX_DEGREE, or a power or product
of degree above it, is a ParseError, raised before it is expanded.  So
is a number or a coefficient that is not finite (1e400, 1e200*1e200),
and nesting deeper than the interpreter's recursion limit.
"""

from __future__ import annotations

import math
import re

from .cauchy import KNOWN_KINDS, SymEnd3Field, known_example
from .frame import Chirality, ScalarField
from .polynomial import Poly

__all__ = ["MAX_DEGREE", "ParseError", "parse_field_spec", "parse_poly_expr"]

MAX_DEGREE = 16


class ParseError(ValueError):
    """Raised on any syntactic problem in a field specification."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)|(?P<coord>a[1-4])|(?P<op>[()+\-*^,]))"
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.group("num"):
            tokens.append(("num", float(m.group("num"))))
        elif m.group("coord"):
            tokens.append(("coord", int(m.group("coord")[1])))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


def _check_degree(degree: int):
    if degree > MAX_DEGREE:
        raise ParseError(f"polynomial degree {degree} exceeds {MAX_DEGREE}")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}")

    def expr(self) -> Poly:
        out = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> Poly:
        out = self.factor()
        while self.peek() == ("op", "*"):
            self.next()
            rhs = self.factor()
            _check_degree(out.degree + rhs.degree)
            out = out * rhs
        return out

    def factor(self) -> Poly:
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.factor()
            return inner if val == "+" else -inner
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            kind, val = self.next()
            if kind != "num" or val > MAX_DEGREE or val != int(val):
                raise ParseError(f"exponent must be an integer from 0 to {MAX_DEGREE}")
            _check_degree(base.degree * int(val))
            return base ** int(val)
        return base

    def atom(self) -> Poly:
        kind, val = self.next()
        if kind == "num":
            if not math.isfinite(val):
                raise ParseError(f"a number is not finite: {val}")
            return Poly.constant(val, 4)
        if kind == "coord":
            return Poly.coordinate(val - 1, 4)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}")


def parse_poly_expr(text: str) -> Poly:
    """Parse a single polynomial expression in a1..a4."""
    p = _Parser(_tokenize(text))
    try:
        out = p.expr()
    except RecursionError:  # the parser recurses once per parenthesis or sign
        raise ParseError("expression nested too deeply") from None
    if p.peek()[0] != "end":
        raise ParseError(f"trailing input after expression: {p.peek()[1]!r}")
    if not all(math.isfinite(c) for c in out.terms.values()):
        raise ParseError("a coefficient is not finite: it overflows")
    return out


def _split_args(text: str) -> list:
    """Split a comma-separated argument list at depth zero."""
    args, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    args.append("".join(cur))
    return args


def parse_field_spec(spec: str) -> SymEnd3Field:
    """Parse a full field specification into a SymEnd3Field."""
    spec = spec.strip()
    if spec.startswith("builtin:"):
        name = spec[len("builtin:") :].strip()
        if name not in KNOWN_KINDS:
            raise ParseError(f"unknown builtin {name!r}; expected one of {KNOWN_KINDS}")
        return known_example(name)
    m = re.fullmatch(r"(diag|sym)\s*\((.*)\)\s*", spec, flags=re.S)
    if m is None:
        raise ParseError(
            "field spec must be 'builtin:<name>', 'diag(...)' or 'sym(...)'"
        )
    head, body = m.group(1), m.group(2)
    args = _split_args(body)
    want = 3 if head == "diag" else 6
    if len(args) != want:
        raise ParseError(f"{head} expects {want} entries, got {len(args)}")
    polys = [parse_poly_expr(a) for a in args]
    fields = [ScalarField(poly=p) for p in polys]
    zero = ScalarField.constant(0.0)
    if head == "diag":
        entries = [
            [fields[0], zero, zero],
            [zero, fields[1], zero],
            [zero, zero, fields[2]],
        ]
    else:
        e11, e12, e13, e22, e23, e33 = fields
        entries = [[e11, e12, e13], [e12, e22, e23], [e13, e23, e33]]
    return SymEnd3Field(entries, Chirality.LEFT)
