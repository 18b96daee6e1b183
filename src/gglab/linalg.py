"""Exact linear algebra over a Field: RREF, nullspace, solving, subspaces.

Row-reduced echelon form is the canonical form everywhere: two subspaces
are equal iff their reduced bases are identical arrays.  Every reduction
goes through ``rref``, which hands F_p matrices to ``_purerref.rref_mod``
and rational ones to ``_purerref.rref_frac``.
"""

from __future__ import annotations

import numpy as np

from . import _purerref
from .fields import Field


def rref(field: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (a fresh matrix) and its pivot columns."""
    if mat.ndim != 2:
        raise ValueError("rref expects a matrix")
    if field.modular:
        work = np.asarray(mat % field.p, dtype=np.int64)
        return work, _purerref.rref_mod(work, field.p)
    work = mat.astype(object, copy=True)
    pivots = _purerref.rref_frac(work)
    return work, pivots


def row_space(field: Field, mat: np.ndarray) -> np.ndarray:
    """Canonical basis of the row space: RREF with zero rows dropped."""
    r, pivots = rref(field, mat)
    return r[: len(pivots)]


def rank(field: Field, mat: np.ndarray) -> int:
    return len(rref(field, mat)[1])


def nullspace(field: Field, mat: np.ndarray) -> np.ndarray:
    """Canonical (RREF) basis of {x | mat @ x = 0}, one row per basis vector.

    One elimination, of the matrix with its columns reversed.  Let r be
    that RREF, with pivot columns q_i.  For each free column c of it, the
    kernel vector with a 1 at c, 0 at every other free column, and
    -r[i, c] at each q_i, is nonzero at q_i only when q_i < c, since row i
    is zero before q_i.  Mapped back, column j going to n - 1 - j, the
    vector leads with its 1 at its own free column n - 1 - c, and every
    other vector of the basis is 0 there.  Taken in order of that column,
    the vectors are therefore in RREF, which is unique: the canonical
    basis, with no second elimination.
    """
    n = mat.shape[1]
    r, pivots = rref(field, mat[:, ::-1])
    rows = r[: len(pivots)].tolist()
    p, taken = field.p, set(pivots)
    basis = []
    for c in reversed(range(n)):
        if c in taken:
            continue
        vec = [0] * n
        vec[n - 1 - c] = field.one
        for q, row in zip(pivots, rows):
            if q > c:
                break
            if row[c]:
                vec[n - 1 - q] = (-row[c]) % p if field.modular else -row[c]
        basis.append(vec)
    return np.array(basis, dtype=field.dtype).reshape(len(basis), n)


def matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return field.reduce(np.dot(a, b))


def sylvester(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrices of X -> a[s] X - X b[s]^T on row-major flattened X, over s.

    Row (x, j) and column (y, l) of matrix s hold a[s, x, y] where j = l,
    minus b[s, j, l] where x = y: kron(a[s], I) - kron(I, b[s]), built by
    index assignment.
    """
    k, m, _ = a.shape
    n = b.shape[1]
    op = field.zeros((k, m, n, m, n))
    op[:, :, np.arange(n), :, np.arange(n)] = a
    op[:, np.arange(m), :, np.arange(m), :] -= b
    return field.reduce(op.reshape(k, m * n, m * n))


def solve(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of a @ x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    m, n = a.shape
    aug = field.zeros((m, n + 1))
    aug[:, :n] = field.reduce(a)
    aug[:, n] = field.reduce(b)
    r, pivots = rref(field, aug)
    if n in pivots:
        return None
    x = field.zeros(n)
    for i, c in enumerate(pivots):
        x[c] = r[i, n]
    return x


class Subspace:
    """A linear subspace of F^n in canonical (RREF) basis form.

    ``pivots`` are the pivot columns of ``basis``, one per row.  Only
    ``__init__`` sets ``basis``, so ``key`` is computed once, on first use.
    """

    __slots__ = ("field", "ambient", "basis", "pivots", "_key")

    def __init__(self, field: Field, ambient: int, basis: np.ndarray):
        basis = np.asarray(basis)
        if basis.size == 0:
            basis = field.zeros((0, ambient))
        self.field = field
        self.ambient = ambient
        reduced, self.pivots = rref(field, basis)
        self.basis = reduced[: len(self.pivots)]
        self._key = None

    @classmethod
    def from_rref(
        cls, field: Field, basis: np.ndarray, pivots: list[int] | None = None, key: tuple | None = None
    ) -> "Subspace":
        """The subspace of a basis that is already canonical: RREF rows,
        none zero, with their pivot columns (by default each row's first
        nonzero column) and, if the caller has built it, its ``key``.
        Nothing is re-reduced, so the caller vouches for the form."""
        if pivots is None:
            pivots = np.argmax(basis != 0, axis=1).tolist()
        s = cls.__new__(cls)
        s.field, s.ambient, s.basis, s.pivots, s._key = field, basis.shape[1], basis, list(pivots), key
        return s

    def from_coords(self, coeffs: np.ndarray) -> "Subspace":
        """The subspace of the vectors coeffs @ basis, for coefficient rows
        ``coeffs`` that are already canonical (RREF, none zero), such as a
        nullspace.  The product is canonical too, so nothing is re-reduced.

        Let the basis rows b_j have pivots p_1 < ... < p_m, and row i of
        ``coeffs`` its pivot at q_i.  Row i of the product is
        sum_j coeffs[i, j] b_j.  Before column p_{q_i} it is zero, since
        coeffs[i, j] = 0 for j < q_i and b_j is zero before p_j >= p_{q_i}
        for j >= q_i.  At a pivot column p_{q_l} only b_{q_l} is nonzero,
        with a 1, so the entry is coeffs[i, q_l], which is 1 for l = i and 0
        otherwise.  So row i leads with a 1 at p_{q_i}, these columns
        increase with i, and every other row is zero there: the product is
        in RREF with pivots p_{q_i}."""
        if coeffs.size == 0:
            return Subspace.zero(self.field, self.ambient)
        pivots = [self.pivots[q] for q in np.argmax(coeffs != 0, axis=1)]
        return Subspace.from_rref(self.field, self.field.reduce(np.dot(coeffs, self.basis)), pivots)

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, field.eye(ambient))

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, field.zeros((0, ambient)))

    @classmethod
    def span(cls, field: Field, vectors) -> "Subspace":
        mat = np.array(vectors) if not isinstance(vectors, np.ndarray) else vectors
        if mat.ndim == 1:
            mat = mat.reshape(1, -1)
        return cls(field, mat.shape[1], mat)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v: np.ndarray) -> bool:
        return self.coords(v) is not None

    def coords(self, v: np.ndarray) -> np.ndarray | None:
        """Coefficients of v over the basis rows, or None if v is outside."""
        c = self.coords_rows(v.reshape(1, -1))
        return None if c is None else c[0]

    def coords_rows(self, vs: np.ndarray) -> np.ndarray | None:
        """Coefficients of every row of vs, or None if some row is outside.

        Row i of the RREF basis is the only one with a nonzero entry (a 1)
        at pivot column i, so the only candidate coefficients are the
        entries at the pivots; the rows lie in the span iff they reproduce
        them.
        """
        c = self.field.reduce(vs[:, self.pivots])
        if np.any(self.field.reduce(vs - np.dot(c, self.basis)) != 0):
            return None
        return c

    def contains_space(self, other: "Subspace") -> bool:
        return self.coords_rows(other.basis) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.dim == other.dim
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self):
        return hash(self.key())

    def key(self) -> tuple:
        """Hashable canonical key (used for dedup and deterministic sorting)."""
        if self._key is None:
            if self.field.modular:  # the RREF entries are already ints in 0..p-1
                self._key = tuple(map(tuple, self.basis.tolist()))
            else:
                self._key = tuple(tuple(self.field.scalar_json(x) for x in row) for row in self.basis)
        return self._key

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.field, self.ambient, np.vstack([self.basis, other.basis]))

    def to_json(self) -> list:
        return self.field.matrix_json(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

