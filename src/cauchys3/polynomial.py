"""Sparse real polynomials in ambient Euclidean coordinates.

These back the exact derivative mode: every scalar quantity that has an
ambient polynomial representative is stored as a :class:`Poly`, and
directional derivatives along linear vector fields map polynomials to
polynomials, so iterated frame derivatives stay exact.

All evaluation runs on one kernel.  A point batch becomes a single
power table ``x_v ** k`` (every variable v, every k up to the largest
exponent in use), computed once with ``np.power``.  Each monomial is
gathered from that table and multiplied out over the variables in
variable order; a polynomial is the contiguous array of its monomials
times its coefficient vector.  :func:`evaluate` runs any number of
polynomials against one table and forms each distinct monomial once;
``Poly.__call__`` runs the same kernel for a single polynomial.  The
values are bit-identical to evaluating ``prod(x ** exps) @ coefs`` one
polynomial at a time at the same point shape, while ``pow`` is called
once per (point, variable, power) instead of once per (point, term,
variable).

The bits of a point's value can depend on the batch it is in.  A lone
point of shape (nvars,) reduces its terms with one dot product (BLAS
ddot); a batch of shape (n, nvars) reduces them with one matrix-vector
product (gemv), which can round differently.  Points of shape
(..., 1, nvars) are batches of one, so each reduces by ddot and keeps
the bits it has when evaluated alone.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

__all__ = ["Poly", "power_table", "evaluate"]

# exponent columns 0..width-1, shaped to broadcast against (..., 1, nvars)
_COLUMNS: dict[int, np.ndarray] = {}

# (table index, width) by (nvars, exponent sequence).  Polynomials
# rebuilt per point (gradients, constants) repeat a few exponent
# sequences, so compiling them costs about as much as reading their
# coefficients.
_INDEX: dict[tuple, tuple] = {}
_INDEX_CAP = 4096


def _exponent_column(width: int) -> np.ndarray:
    col = _COLUMNS.get(width)
    if col is None:
        col = _COLUMNS[width] = np.arange(width, dtype=float)[:, None]
    return col


def _table_index(exponents: tuple, nvars: int) -> tuple:
    """(index, width) for a sequence of exponent tuples.

    Row v of the index holds the table positions e_v * nvars + v of the
    monomials' factors in variable v: shape (nvars, monomials).
    """
    key = (nvars, exponents)
    hit = _INDEX.get(key)
    if hit is None:
        if len(_INDEX) >= _INDEX_CAP:
            _INDEX.clear()
        exps = np.fromiter(chain.from_iterable(exponents), np.intp, len(exponents) * nvars)
        index = (exps.reshape(len(exponents), nvars) * nvars + np.arange(nvars)).T
        index.flags.writeable = False
        hit = _INDEX[key] = (index, max(map(max, exponents), default=0) + 1)
    return hit


def power_table(points, width: int) -> np.ndarray:
    """Powers x_v ** k for 0 <= k < width, flattened over (k, v).

    points has shape (..., nvars); the result has shape
    (..., width * nvars) with x_v ** k at index k * nvars + v, so a
    monomial's table positions do not depend on the width.
    """
    pts = np.asarray(points, dtype=float)
    table = np.power(pts[..., None, :], _exponent_column(width))
    return table.reshape(pts.shape[:-1] + (width * pts.shape[-1],))


def _monomials(table, index) -> np.ndarray:
    """Every monomial of the index at every point: (..., monomials).

    Each is the product of its factors over the variables, in variable
    order, exactly as np.prod multiplies them.
    """
    return np.multiply.reduce(table.take(index, axis=-1), axis=-2)


def _combine(mono, coefs) -> np.ndarray:
    """sum_t coefs[t] * mono[..., t].  The monomial array reaches the
    matrix-vector product contiguous, as np.prod leaves it, so BLAS adds
    the terms in the same order."""
    return np.ascontiguousarray(mono) @ coefs


def evaluate(polys, points) -> list:
    """Evaluate every polynomial in `polys` at points (..., nvars).

    One power table serves them all, and a monomial that several of them
    share is formed once.  Returns one array of shape (...) per
    polynomial, bit-identical to calling each polynomial on its own.
    """
    polys = list(polys)
    if not polys:
        return []
    pts = np.asarray(points, dtype=float)
    columns: dict[tuple, int] = {}
    for p in polys:
        p._check_points(pts)
        for e in p.terms:
            columns.setdefault(e, len(columns))
    index, width = _table_index(tuple(columns), polys[0].nvars)
    mono = _monomials(power_table(pts, width), index)
    out = []
    for p in polys:
        if not p.terms:
            out.append(np.zeros(pts.shape[:-1]))
            continue
        cols = np.fromiter(map(columns.__getitem__, p.terms), np.intp, len(p.terms))
        out.append(_combine(mono.take(cols, axis=-1), p._compile()[1]))
    return out


class Poly:
    """Polynomial in ``nvars`` variables, stored as a monomial dict.

    Keys are exponent tuples of length ``nvars``; values are float
    coefficients.  Instances are treated as immutable: all operations
    return new polynomials.
    """

    __slots__ = ("nvars", "terms", "_index", "_coefs", "_width")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = int(nvars)
        clean: dict[tuple, float] = {}
        if terms:
            for e, c in terms.items():
                e = tuple(int(x) for x in e)
                if len(e) != self.nvars:
                    raise ValueError(f"exponent tuple {e} has wrong length")
                c = float(c)
                if c != 0.0:
                    clean[e] = clean.get(e, 0.0) + c
        self.terms = {e: c for e, c in clean.items() if c != 0.0}
        self._index = None
        self._coefs = None
        self._width = None

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, value: float, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def coordinate(cls, index: int, nvars: int) -> "Poly":
        """The linear monomial x_index (0-based)."""
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): 1.0})

    @classmethod
    def linear(cls, coeffs, nvars: int) -> "Poly":
        """sum_i coeffs[i] * x_i."""
        terms = {}
        for i, c in enumerate(coeffs):
            if c != 0.0:
                e = [0] * nvars
                e[i] = 1
                terms[tuple(e)] = float(c)
        return cls(nvars, terms)

    # -- algebra ------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other):
        if np.isscalar(other):
            other = Poly.constant(float(other), self.nvars)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return Poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if np.isscalar(other):
            other = Poly.constant(float(other), self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return Poly(self.nvars, {e: c * float(other) for e, c in self.terms.items()})
        self._check(other)
        terms: dict[tuple, float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0.0) + c1 * c2
        return Poly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0 or n != int(n):
            raise ValueError("only nonnegative integer powers")
        out = Poly.constant(1.0, self.nvars)
        for _ in range(int(n)):
            out = out * self
        return out

    # -- calculus -----------------------------------------------------
    def partial(self, index: int) -> "Poly":
        """Partial derivative with respect to x_index."""
        terms: dict[tuple, float] = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            e2 = list(e)
            e2[index] = k - 1
            e2 = tuple(e2)
            terms[e2] = terms.get(e2, 0.0) + c * k
        return Poly(self.nvars, terms)

    def derive_along_linear(self, matrix) -> "Poly":
        """Directional derivative along the linear vector field x -> M x.

        Returns sum_m (dP/dx_m) * (M x)_m, again a polynomial.
        """
        M = np.asarray(matrix, dtype=float)
        out = Poly(self.nvars, {})
        for m in range(self.nvars):
            pm = self.partial(m)
            if not pm.terms:
                continue
            row = Poly.linear(M[m], self.nvars)
            out = out + pm * row
        return out

    def gradient(self) -> list["Poly"]:
        return [self.partial(i) for i in range(self.nvars)]

    # -- evaluation ---------------------------------------------------
    def _compile(self):
        """(table index, coefficients, table width), built once."""
        if self._coefs is None:
            self._index, self._width = _table_index(tuple(self.terms), self.nvars)
            self._coefs = np.fromiter(self.terms.values(), float, len(self.terms))
        return self._index, self._coefs, self._width

    def _check_points(self, pts):
        if pts.shape[-1] != self.nvars:
            raise ValueError(f"points must have last dimension {self.nvars}")

    def __call__(self, points):
        """Evaluate at points of shape (..., nvars).  Returns shape (...)."""
        pts = np.asarray(points, dtype=float)
        self._check_points(pts)
        if not self.terms:
            return np.zeros(pts.shape[:-1])
        index, coefs, width = self._compile()
        return _combine(_monomials(power_table(pts, width), index), coefs)

    # -- misc ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k
            )
            bits.append(f"{c:g}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"
