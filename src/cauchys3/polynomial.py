"""Sparse real polynomials in ambient Euclidean coordinates.

These back the exact derivative mode: every scalar quantity that has an
ambient polynomial representative is stored as a :class:`Poly`, and
directional derivatives along linear vector fields map polynomials to
polynomials, so iterated frame derivatives stay exact.

All evaluation runs through :func:`evaluate`; ``Poly.__call__`` is
``evaluate`` of a one-polynomial list.  A list is compiled once into a
plan: the distinct monomials of all its polynomials, their positions in
the power table, and each polynomial's monomial columns and coefficient
vector.  Plans are kept by the list's polynomials themselves (``Poly``
compares by identity and is immutable), in one cache of ``_PLANS``
lists.  A point batch becomes a single power table ``x_v ** k`` (every
variable v, every k up to the largest exponent in use), computed once
with ``np.power``.  Each distinct monomial is gathered from that table
and multiplied out over the variables in variable order; a polynomial
is the contiguous array of its monomials times its coefficient vector.
The values are bit-identical to evaluating ``prod(x ** exps) @ coefs``
one polynomial at a time at the same point shape, while ``pow`` is
called once per (point, variable, power) instead of once per (point,
term, variable).

The bits of a point's value can depend on the batch it is in.  A lone
point of shape (nvars,) reduces its terms with one dot product (BLAS
ddot); a batch of shape (n, nvars) reduces them with one matrix-vector
product (gemv), which can round differently.  Points of shape
(..., 1, nvars) are batches of one, so each reduces by ddot and keeps
the bits it has when evaluated alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["Poly", "power_table", "evaluate"]

# polynomial lists whose plans are kept.  A plan keeps its polynomials
# alive, and callers that build fresh fields per call (deformation_report)
# would otherwise hold every call's polynomials.
_PLANS = 64


@lru_cache(maxsize=_PLANS)
def _plan(polys: tuple) -> tuple:
    """(nvars, index, width, parts) for a tuple of polynomials.

    Row v of the index holds the table positions e_v * nvars + v of the
    distinct monomials' factors in variable v: shape (nvars, monomials).
    parts holds, per polynomial, its monomial columns (None where they
    are the whole table in order) and its coefficient vector.
    """
    nvars = polys[0].nvars
    columns: dict[tuple, int] = {}
    for p in polys:
        if p.nvars != nvars:
            raise ValueError("polynomials over different variable counts")
        for e in p.terms:
            columns.setdefault(e, len(columns))
    exps = np.array(list(columns), dtype=np.intp).reshape(len(columns), nvars)
    index = (exps * nvars + np.arange(nvars)).T
    parts = []
    for p in polys:
        cols = np.fromiter(map(columns.__getitem__, p.terms), np.intp, len(p.terms))
        if np.array_equal(cols, np.arange(len(columns))):
            cols = None
        parts.append((cols, np.fromiter(p.terms.values(), float, len(p.terms))))
    return nvars, index, int(exps.max(initial=0)) + 1, parts


def power_table(points, width: int) -> np.ndarray:
    """Powers x_v ** k for 0 <= k < width, flattened over (k, v).

    points has shape (..., nvars); the result has shape
    (..., width * nvars) with x_v ** k at index k * nvars + v, so a
    monomial's table positions do not depend on the width.
    """
    pts = np.asarray(points, dtype=float)
    table = np.power(pts[..., None, :], np.arange(width, dtype=float)[:, None])
    return table.reshape(pts.shape[:-1] + (width * pts.shape[-1],))


def _combine(mono, cols, coefs) -> np.ndarray:
    """sum_t coefs[t] * mono[..., cols[t]], over all of mono where cols
    is None.  The monomial array reaches the matrix-vector product
    contiguous, as np.prod leaves it, so BLAS adds the terms in the same
    order."""
    if cols is not None:
        mono = mono.take(cols, axis=-1)
    return np.ascontiguousarray(mono) @ coefs


def evaluate(polys, points) -> list:
    """Evaluate every polynomial in `polys` at points (..., nvars).

    One power table serves them all, and a monomial that several of them
    share is formed once.  Returns one array of shape (...) per
    polynomial, bit-identical to evaluating each polynomial on its own.
    """
    polys = tuple(polys)
    if not polys:
        return []
    pts = np.asarray(points, dtype=float)
    nvars, index, width, parts = _plan(polys)
    if pts.shape[-1] != nvars:
        raise ValueError(f"points must have last dimension {nvars}")
    # each monomial is the product of its factors in variable order, as np.prod multiplies them
    mono = np.multiply.reduce(power_table(pts, width).take(index, axis=-1), axis=-2)
    return [_combine(mono, cols, coefs) if coefs.size else np.zeros(pts.shape[:-1]) for cols, coefs in parts]


class Poly:
    """Polynomial in ``nvars`` variables, stored as a monomial dict.

    Keys are exponent tuples of length ``nvars``; values are float
    coefficients.  Instances are treated as immutable, which the cached
    evaluation plans rely on: all operations return new polynomials.
    """

    __slots__ = ("nvars", "terms")

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
    def __call__(self, points):
        """Evaluate at points of shape (..., nvars).  Returns shape (...)."""
        return evaluate((self,), points)[0]

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
