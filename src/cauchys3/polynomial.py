"""Sparse real polynomials in ambient Euclidean coordinates.

These back the exact derivative mode: every scalar quantity that has an
ambient polynomial representative is stored as a :class:`Poly`, and
directional derivatives along linear vector fields map polynomials to
polynomials, so iterated frame derivatives stay exact.

All evaluation runs through :func:`evaluate`; ``Poly.__call__`` is
``evaluate`` of a one-polynomial list.  A list is compiled once into a
plan: the distinct monomials of all its polynomials, their positions in
the power table, and the terms of the polynomials taken term index by
term index.  Plans are kept by the list's polynomials themselves
(``Poly`` compares by identity and is immutable), in one cache of
``_PLANS`` lists.

Every value is formed in one fixed order, whatever the batch:

- powers by a product chain, x^k = x^(k-1) * x;
- each distinct monomial as the product of its factors in variable
  order, formed once for all the polynomials that share it;
- each polynomial as ((0 + c_0 m_0) + c_1 m_1) + ..., its terms in
  their order in ``Poly.terms``.

The points are taken in blocks of ``_BLOCK`` rows, and every step is an
elementwise numpy operation on a (monomial, point) layout: no step sums
across points, and none calls BLAS, so a point's value has the same
bits alone, at any position of any batch, and under any SIMD or BLAS
kernel.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["Poly", "evaluate"]

# polynomial lists whose plans are kept.  A plan keeps its polynomials
# alive, and callers that build fresh fields per call (deformation_report)
# would otherwise hold every call's polynomials.
_PLANS = 64

# points per block, which bounds the temporaries (monomials by points)
_BLOCK = 4096


@lru_cache(maxsize=_PLANS)
def _plan(polys: tuple) -> tuple:
    """(nvars, width, index, steps, rank) for a tuple of polynomials.

    Row v of the index holds the rows e_v * nvars + v of the distinct
    monomials' factors x_v ** e_v in the power table, which holds
    x_v ** k at row k * nvars + v: shape (nvars, monomials).
    The polynomials get rows ranked by term count, most terms first
    (stably; rank[i] is polynomial i's row), so the polynomials that
    have a term t are the first k rows.  steps[t] is (k, those terms'
    monomial columns, their coefficients as a column).
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
    order = sorted(range(len(polys)), key=lambda i: -len(polys[i].terms))
    terms = [list(polys[i].terms.items()) for i in order]
    steps = []
    for t in range(len(terms[0])):
        live = [ts[t] for ts in terms if len(ts) > t]
        cols = np.array([columns[e] for e, _ in live], dtype=np.intp)
        steps.append((len(live), cols, np.array([c for _, c in live]).reshape(-1, 1)))
    rank = np.argsort(order).tolist()
    return nvars, int(exps.max(initial=0)) + 1, index, steps, rank


def evaluate(polys, points) -> list:
    """Evaluate every polynomial in `polys` at points (..., nvars).

    One power table serves them all, and a monomial that several of them
    share is formed once.  Returns one value of shape (...) per
    polynomial, in the fixed order of the module docstring.
    """
    polys = tuple(polys)
    if not polys:
        return []
    pts = np.asarray(points, dtype=float)
    nvars, width, index, steps, rank = _plan(polys)
    if pts.shape[-1] != nvars:
        raise ValueError(f"points must have last dimension {nvars}")
    rows = pts.reshape(-1, nvars)
    out = np.zeros((len(polys), len(rows)))
    for start in range(0, len(rows), _BLOCK):
        x = rows[start : start + _BLOCK].T
        table = np.empty((width,) + x.shape)  # x_v ** k at [k, v], by the chain x^k = x * x^(k-1)
        table[0] = 1.0
        table[1:] = x
        for k in range(2, width):
            np.multiply(table[k], table[k - 1], out=table[k])
        table = table.reshape(width * nvars, -1)
        mono = table.take(index[0], axis=0)
        for v in range(1, nvars):
            mono *= table.take(index[v], axis=0)
        acc = out[:, start : start + _BLOCK]
        for k, cols, coefs in steps:
            terms = mono.take(cols, axis=0)
            terms *= coefs
            head = acc[:k]
            head += terms
    vals = list(out.reshape((len(polys),) + pts.shape[:-1]))
    return [vals[r] for r in rank]


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
