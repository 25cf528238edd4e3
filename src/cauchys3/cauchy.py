"""Candidate Cauchy endomorphisms and the flat-connection residual.

A symmetric endomorphism field A on S^3 solves the central equation
when

    R(X,Y) + *d^nabla A(X,Y) + A(X) ^ A(Y) = 0   for all X, Y,

equivalently when the modified connection nabla^A = nabla + *(A(.)) is
flat.  This module evaluates that residual, the contracted
Gauss-Codazzi constraints, the known constant-frame solution families,
and the operators appearing in the linearized problem.
"""

from __future__ import annotations

import numpy as np

from .frame import Chirality, ScalarField, _as_array, _check_frame_index, frame_jet
from .polynomial import evaluate
from .tensor import cov_components, cov_entries, cross_components, divergence_components, dot_components
from .tensor import stack_components, structure_constant, trace_components, wedge_endo

__all__ = [
    "SymEnd3Field",
    "VectorField3",
    "KNOWN_KINDS",
    "known_example",
    "modified_connection",
    "flatness_residual",
    "flatness_residual_norms",
    "residual_norm",
    "gauss_codazzi_residual",
    "linearized_residual",
    "symmetry_residual",
    "xi_operator",
    "definiteness_check",
    "FRAME_PAIRS",
]

# the three independent frame pairs; bilinearity makes them sufficient
FRAME_PAIRS = ((1, 2), (1, 3), (2, 3))

# the six independent entries of a symmetric 3x3 matrix
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _full(u) -> tuple:
    """The row-major 9-tuple of the symmetric matrix with upper entries u."""
    return (u[0], u[1], u[2], u[1], u[3], u[4], u[2], u[4], u[5])


def _field_values(fields, pts) -> list:
    """Values of ScalarFields at pts.  Exact fields share one power table;
    a finite-difference field among them sends every field through its
    own evaluation."""
    if all(f.poly is not None for f in fields):
        return evaluate([f.poly for f in fields], pts)
    return [f(pts) for f in fields]


def _coerce_entry(value) -> ScalarField:
    if isinstance(value, ScalarField):
        return value
    if np.isscalar(value):
        return ScalarField.constant(float(value))
    raise TypeError("matrix entries must be ScalarFields or numbers")


def _same_entry(f: ScalarField, g: ScalarField) -> bool:
    """Exact fields by their terms (numbers are constant fields, so by
    value), finite-difference fields by their callable and step."""
    if f.poly is not None or g.poly is not None:
        return f.poly is not None and g.poly is not None and f.poly.terms == g.poly.terms
    return f.func is g.func and f.fd_step == g.fd_step


class SymEnd3Field:
    """Symmetric endomorphism field in an invariant orthonormal frame.

    Stores the six independent coefficient fields; entry (i, j) is the
    component <A e_j, e_i> in the frame of the declared chirality.
    """

    def __init__(self, entries, chirality: Chirality = Chirality.LEFT):
        """entries: 3x3 nested sequence of ScalarFields / numbers.

        Each lower entry must equal its upper one (see `_same_entry`),
        else ValueError; the field then stores the upper entry in both.
        """
        e = [[_coerce_entry(entries[i][j]) for j in range(3)] for i in range(3)]
        for i, j in _UPPER:
            if not _same_entry(e[i][j], e[j][i]):
                raise ValueError(f"entry ({j + 1},{i + 1}) differs from entry ({i + 1},{j + 1}): not symmetric")
            e[j][i] = e[i][j]
        self.entries = e
        self.chirality = chirality

    # -- constructors --------------------------------------------------
    @classmethod
    def from_constant_matrix(cls, m, chirality: Chirality = Chirality.LEFT) -> "SymEnd3Field":
        """A constant field; m may differ from its transpose by rounding only."""
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3) or not np.allclose(m, m.T, rtol=0.0, atol=1e-14 * max(1.0, np.max(np.abs(m)))):
            raise ValueError("expected a symmetric 3x3 matrix")
        sym = 0.5 * (m + m.T)
        return cls([[sym[i, j] for j in range(3)] for i in range(3)], chirality)

    @classmethod
    def identity(cls, scale: float = 1.0, chirality: Chirality = Chirality.LEFT):
        return cls.from_constant_matrix(scale * np.eye(3), chirality)

    # -- evaluation -----------------------------------------------------
    def _upper_fields(self, k: int = 0) -> list:
        """The six independent entries, or their e_k-derivatives for k > 0."""
        fields = [self.entries[i][j] for i, j in _UPPER]
        if k:
            fields = [f.frame_derivative(k, self.chirality) for f in fields]
        return fields

    def entry_values(self, points) -> tuple:
        """The row-major 9-tuple of the entries' values at points."""
        return _full(_field_values(self._upper_fields(), _as_array(points)))

    def matrix(self, points) -> np.ndarray:
        return stack_components(self.entry_values(points), 2)

    def frame_derivative_matrix(self, k: int, points) -> np.ndarray:
        """Entrywise e_k-derivative (same chirality as the frame)."""
        return stack_components(_full(_field_values(self._upper_fields(k), _as_array(points))), 2)

    def jet_components(self, points) -> list:
        """[m, dm_1, dm_2, dm_3]: the row-major 9-tuples of the entries and
        of their e_1, e_2, e_3-derivatives, from one `frame_jet` call (one
        power table for exact entries, one flow pair per direction for
        finite-difference ones)."""
        return [_full(vals) for vals in frame_jet(self._upper_fields(), _as_array(points), self.chirality)]

    # -- linear structure (for curves A + t Adot) ------------------------
    def _from_upper(self, fields) -> "SymEnd3Field":
        """The field with the six given upper entries, mirrored; a
        finite-difference entry is one object in both triangles."""
        e = [[None] * 3 for _ in range(3)]
        for (i, j), f in zip(_UPPER, fields):
            e[i][j] = e[j][i] = f
        return SymEnd3Field(e, self.chirality)

    def __add__(self, other: "SymEnd3Field") -> "SymEnd3Field":
        if self.chirality is not other.chirality:
            raise ValueError("chirality mismatch")
        return self._from_upper(f + g for f, g in zip(self._upper_fields(), other._upper_fields()))

    def __mul__(self, scalar) -> "SymEnd3Field":
        return self._from_upper(f * scalar for f in self._upper_fields())

    __rmul__ = __mul__


class VectorField3:
    """Vector field with coefficient fields in an invariant frame."""

    def __init__(self, components, chirality: Chirality = Chirality.LEFT):
        self.components = [_coerce_entry(c) for c in components]
        if len(self.components) != 3:
            raise ValueError("expected three components")
        self.chirality = chirality

    @classmethod
    def frame_vector(cls, k: int, chirality: Chirality = Chirality.LEFT) -> "VectorField3":
        _check_frame_index(k)
        return cls([1.0 if i == k - 1 else 0.0 for i in range(3)], chirality)

    def values(self, points) -> np.ndarray:
        pts = _as_array(points)
        return np.stack(_field_values(self.components, pts), axis=-1)


# -- known solution families -------------------------------------------

KNOWN_KINDS = ("plus-id", "minus-id", "left-133", "right-133")

_KIND_DATA = {
    "plus-id": (np.diag([1.0, 1.0, 1.0]), Chirality.LEFT),
    "minus-id": (np.diag([-1.0, -1.0, -1.0]), Chirality.LEFT),
    "left-133": (np.diag([1.0, -3.0, -3.0]), Chirality.LEFT),
    "right-133": (np.diag([-1.0, 3.0, 3.0]), Chirality.RIGHT),
}


def right_family_left_frame() -> SymEnd3Field:
    """The right-invariant solution with eigenvalues (-1,3,3), written in
    the left-invariant frame.

    A = 3 Id - 4 xi' (x) xi' with xi' = i*q the right-invariant unit
    field; the coefficients <xi', e_a><xi', e_b> are exact quartic
    polynomials.  Useful for the Hopf reduction, which is taken with
    respect to the left field e_1 (the flow of e_1 is a right
    translation, so right-invariant tensors are e_1-invariant).
    """
    from .frame import FRAME_MATRICES
    from .polynomial import Poly

    L = FRAME_MATRICES[(Chirality.RIGHT, 1)]  # ambient matrix of q -> i*q
    cos = []
    for k in (1, 2, 3):
        R = FRAME_MATRICES[(Chirality.LEFT, k)]
        M = L.T @ R  # co_k(a) = (L a) . (R a) = a^T (L^T R) a
        p = Poly(4, {})
        for m in range(4):
            for n in range(4):
                if M[m, n] != 0.0:
                    e = [0, 0, 0, 0]
                    e[m] += 1
                    e[n] += 1
                    p = p + Poly(4, {tuple(e): M[m, n]})
        cos.append(p)
    entries = [
        [
            ScalarField(
                poly=(Poly.constant(3.0 if i == j else 0.0, 4)) - 4.0 * (cos[i] * cos[j])
            )
            for j in range(3)
        ]
        for i in range(3)
    ]
    return SymEnd3Field(entries, Chirality.LEFT)


def known_example(kind: str, rotation=None) -> SymEnd3Field:
    """One of the four known families, optionally frame-rotated.

    kind 'left-133' is the field with eigenvalues (1,-3,-3) constant in
    the left-invariant frame (eigenvalue 1 on e_1); 'right-133' the
    right-invariant field with eigenvalues (-1,3,3).  `rotation`
    conjugates the coefficient matrix by a constant orthogonal matrix
    (frame freedom).
    """
    if kind not in _KIND_DATA:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KNOWN_KINDS}")
    diag, chir = _KIND_DATA[kind]
    if rotation is None:
        m = diag
    else:
        r = np.asarray(rotation, dtype=float)
        if r.shape != (3, 3) or np.max(np.abs(r.T @ r - np.eye(3))) > 1e-10:
            raise ValueError("rotation must be a 3x3 orthogonal matrix")
        m = r @ diag @ r.T
    return SymEnd3Field.from_constant_matrix(m, chir)


# -- connection and residuals -------------------------------------------


def _frame_directions(x, y, pair):
    if (x is None, y is None) != (pair is not None, pair is not None):
        raise ValueError("pass exactly one of pair and (x, y)")
    if pair is not None:
        _check_frame_index(*pair)
        x = np.eye(3)[pair[0] - 1]
        y = np.eye(3)[pair[1] - 1]
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def _lin(terms):
    """sum of c * v over (c, v) with constant c != 0, left to right from the
    first such term (0.0 if none): a zero c is skipped, and c == +-1 takes
    no product, as -1 * v is -v exactly."""
    out = None
    for c, v in terms:
        if c != 0.0:
            t = v if c == 1.0 or c == -1.0 else c * v
            if out is None:
                out = -t if c == -1.0 else t
            else:
                out = out - t if c == -1.0 else out + t
    return 0.0 if out is None else out


def _apply(m, x) -> list:
    """M X for a 9-tuple m and a constant x, each entry by `_lin`."""
    return [_lin(zip(x, m[3 * i : 3 * i + 3])) for i in range(3)]


def modified_connection(A: SymEnd3Field, points, a: int, b: int) -> np.ndarray:
    """nabla^A_{e_a} e_b = nabla_{e_a} e_b + (*A(e_a))(e_b), frame coefficients."""
    _check_frame_index(a, b)
    m = A.entry_values(points)
    eb = [float(i == b - 1) for i in range(3)]  # a constant field: its derivatives vanish
    return stack_components(cov_components(eb, (0.0, 0.0, 0.0), a, A.chirality, m[a - 1 :: 3]))


def flatness_residual(A: SymEnd3Field, points, x=None, y=None, pair=None) -> np.ndarray:
    """Residual R(X,Y) + *d^nabla A(X,Y) + A(X)^A(Y) as a dual 3-vector.

    X, Y are constant frame-coefficient vectors (or pass pair=(a,b) for
    frame pairs).  Zero for all pairs exactly when A solves the central
    equation at the sampled points.
    """
    m, *dm = A.jet_components(points)
    return stack_components(_flatness(m, dm, A.chirality, *_frame_directions(x, y, pair)))


def _flatness(m, dm, chirality, x, y) -> list:
    """The residual's components from the 9-tuples of A and its frame
    derivatives, every sum by `_lin`; an entry of nabla_{e_k} A is formed
    only where a nonzero x_k and y_j reach it."""

    def cov(u, e):  # entry e of nabla_U A = sum_k u_k nabla_{e_k} A
        return _lin((u[k], cov_entries(m, dm[k], k + 1, chirality, (e,))[0]) for k in range(3) if u[k])

    def applied(u, v, i):  # ((nabla_U A) V)_i
        return _lin((v[j], cov(u, 3 * i + j)) for j in range(3) if v[j])

    curv = -wedge_endo(x, y)  # R(X,Y) dual vector
    axy = cross_components(_apply(m, x), _apply(m, y))  # A(X) x A(Y)
    out = []
    for i in range(3):
        r = applied(x, y, i) - applied(y, x, i)
        out.append((curv[i] + r if curv[i] else r) + axy[i])  # -0 + r is r
    return out


_SQRT2 = np.sqrt(2.0)


def _norm(r):
    """sqrt(2) |r| for a 3-tuple r, as sqrt(2) * sqrt(r . r)."""
    return _SQRT2 * np.sqrt(dot_components(r, r))


def residual_norm(dual) -> np.ndarray:
    """Frobenius norm of the skew endomorphism with the given dual vector."""
    return _norm(np.moveaxis(np.asarray(dual, dtype=float), -1, 0))


def flatness_residual_norms(A: SymEnd3Field, points) -> np.ndarray:
    """Frobenius residual norms over the three frame pairs: shape (...,3)."""
    m, *dm = A.jet_components(points)
    return stack_components(
        [_norm(_flatness(m, dm, A.chirality, *_frame_directions(None, None, p))) for p in FRAME_PAIRS]
    )


def gauss_codazzi_residual(A: SymEnd3Field, points):
    """(6 - tr(A)^2 + tr(A^2),  delta^nabla A + d tr A) on the round sphere."""
    m, *dm = A.jet_components(points)
    tr = trace_components(m)
    # tr(A^2) = sum_i (row i of A) . (column i of A)
    sq = [dot_components(m[3 * i : 3 * i + 3], m[i::3]) for i in range(3)]
    scalar = 6.0 - tr * tr + (sq[0] + sq[1] + sq[2])  # tr**2 would call pow() on one point
    div = divergence_components(m, dm, A.chirality)  # delta^nabla A
    # d tr A = sum_k e_k(tr A) e_k
    return scalar, stack_components([div[k] + trace_components(dm[k]) for k in range(3)])


def linearized_residual(A: SymEnd3Field, Adot: SymEnd3Field, points, x=None, y=None, pair=None):
    """(d^{nabla^A} Adot)(X, Y): the linearization of the flatness residual.

    The intrinsic twisted exterior derivative of the 1-form Adot,

        nabla^A_X (Adot Y) - nabla^A_Y (Adot X) - Adot([X, Y]),

    is used: nabla^A carries torsion Abar(X)Y - Abar(Y)X, so this
    differs from (nabla^A_X Adot)Y - (nabla^A_Y Adot)X by Adot(torsion).
    The intrinsic form is the differential of the flat complex: it
    vanishes on nabla^A-exact deformations, and its Hodge dual is the
    t-derivative at 0 of flatness_residual along A + t Adot.
    """
    if A.chirality is not Adot.chirality:
        raise ValueError("A and Adot must share a frame chirality")
    x, y = _frame_directions(x, y, pair)
    pts = _as_array(points)
    m = A.entry_values(pts)
    n, *dn = Adot.jet_components(pts)
    nx, ny = _apply(n, x), _apply(n, y)
    terms = []
    for k in range(3):
        # nabla^A_{e_k} of the coefficient fields q -> Adot(q) y and Adot(q) x
        ak = m[k :: 3]
        if x[k] != 0.0:
            terms.append((x[k], cov_components(ny, _apply(dn[k], y), k + 1, A.chirality, ak)))
        if y[k] != 0.0:
            terms.append((-y[k], cov_components(nx, _apply(dn[k], x), k + 1, A.chirality, ak)))
    nb = _apply(n, structure_constant(A.chirality) * np.cross(x, y))  # Adot([X, Y])
    return stack_components([_lin([(c, v[i]) for c, v in terms] + [(-1.0, nb[i])]) for i in range(3)])


def _symmetry(m, x, dx, chirality: Chirality) -> list:
    """dX - *(X tr A - A X) from the 9-tuple m of A and the jet (x, dx) of X.

    Component c of dX (cyclic pair (a,b,c)) is
    e_a(x_b) - e_b(x_a) - lambda x_c, with lambda the structure constant
    of X's frame.
    """
    lam, tr = structure_constant(chirality), trace_components(m)
    out = [None] * 3
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[c] = (dx[a][b] - dx[b][a] - lam * x[c]) - (x[c] * tr - dot_components(m[3 * c : 3 * c + 3], x))
    return out


def symmetry_residual(A: SymEnd3Field, X: VectorField3, points, B=None) -> np.ndarray:
    """Left side of the symmetry condition, as a dual 3-vector:

    dX - *(X tr A - A X) + sum_k e_k ^ B(e_k),   B optional (matrix field).

    Vanishes exactly when d^{nabla^A} X + B is a symmetric endomorphism.
    """
    pts = _as_array(points)
    x, *dx = frame_jet(X.components, pts, X.chirality)
    res = _symmetry(A.entry_values(pts), x, dx, X.chirality)
    if B is not None:
        Bm = B.matrix(pts) if hasattr(B, "matrix") else np.asarray(B, dtype=float)
        for k in range(3):  # + e_k x B(e_k)
            res = [r + c for r, c in zip(res, cross_components(np.eye(3)[k], np.moveaxis(Bm[..., :, k], -1, 0)))]
    return stack_components(res)


def xi_operator(A: SymEnd3Field, X: VectorField3, points):
    """Xi(X) = (dX - *(X tr A - A X), delta(X tr A - A X)).

    The first component is returned as a dual 3-vector, the second as a
    scalar.  In the invariant frame the codifferential of a 1-form w is
    -sum_k e_k(w_k) (the frame is divergence-free).
    """
    pts = _as_array(points)
    m, *dm = A.jet_components(pts)
    x, *dx = frame_jet(X.components, pts, X.chirality)
    tr = trace_components(m)
    # W_k = x_k tr A - (A x)_k; e_k W_k by the product rule
    ew = [
        ((dx[k][k] * tr + x[k] * trace_components(dm[k])) - dot_components(dm[k][3 * k : 3 * k + 3], x))
        - dot_components(m[3 * k : 3 * k + 3], dx[k])
        for k in range(3)
    ]
    return stack_components(_symmetry(m, x, dx, X.chirality)), -(ew[0] + ew[1] + ew[2])


def definiteness_check(B):
    """Test the pairwise-eigenvalue-sum criterion on a symmetric 3x3 matrix.

    Returns (is_definite, sign): is_definite is True when
    s2 = l1 l2 + l1 l3 + l2 l3 = ((tr B)^2 - tr(B^2)) / 2 > 0, which forces
    B - tr(B) Id to be definite; sign is +1 / -1 for positive / negative
    definite (None otherwise).  Its eigenvalues are -(l_j + l_k), and when
    s2 > 0 every pair sum has the sign of tr B, since
    (l1 + l2)(l1 + l3) = l1^2 + s2.  Raises ValueError unless B is 3x3.
    """
    B = np.asarray(B, dtype=float)
    if B.shape != (3, 3):
        raise ValueError(f"need a 3x3 matrix, got shape {B.shape}")
    S = 0.5 * (B + B.T)
    tr = float(np.trace(S))
    if 0.5 * (tr * tr - float(np.sum(S * S))) <= 0:
        return False, None
    return True, 1 if tr < 0 else -1
