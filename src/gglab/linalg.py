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
    """Canonical (RREF) basis of {x | mat @ x = 0}, one row per basis vector."""
    m, n = mat.shape
    r, pivots = rref(field, mat)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = field.zeros((len(free), n))
    for k, c in enumerate(free):
        basis[k, c] = field.one
        for i, pc in enumerate(pivots):
            basis[k, pc] = -r[i, c]
    return row_space(field, field.reduce(basis))


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


def residual(field: Field, a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    return field.reduce(np.dot(a, x) - b)


class Subspace:
    """A linear subspace of F^n in canonical (RREF) basis form.

    ``pivots`` are the pivot columns of ``basis``, one per row.  ``flags``
    carry certified structural facts (is_subalgebra, is_ideal,
    is_unital_ideal); they are set only after an explicit product check.
    """

    __slots__ = ("field", "ambient", "basis", "pivots", "flags")

    def __init__(self, field: Field, ambient: int, basis: np.ndarray, flags: dict | None = None):
        basis = np.asarray(basis)
        if basis.size == 0:
            basis = field.zeros((0, ambient))
        self.field = field
        self.ambient = ambient
        reduced, self.pivots = rref(field, basis)
        self.basis = reduced[: len(self.pivots)]
        self.flags = dict(flags or {})

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
        return tuple(tuple(self.field.scalar_json(x) for x in row) for row in self.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.field, self.ambient, np.vstack([self.basis, other.basis]))

    def intersection(self, other: "Subspace") -> "Subspace":
        # rows of the combined nullspace give coefficients (a | b) with
        # a @ self.basis = -b @ other.basis
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        stacked = np.vstack([self.basis, other.basis]).T
        ns = nullspace(self.field, stacked)
        if ns.shape[0] == 0:
            return Subspace.zero(self.field, self.ambient)
        vecs = matmul(self.field, ns[:, : self.dim], self.basis)
        return Subspace(self.field, self.ambient, vecs)

    def to_json(self) -> list:
        return self.field.matrix_json(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def all_subspaces(field: Field, n: int):
    """Yield every subspace of F_p^n as a canonical basis matrix.

    Enumerates RREF matrices directly: choose pivot columns, then fill
    the free entries.  Prime fields only; the count explodes quickly so
    callers cap n.
    """
    from itertools import combinations, product

    if not field.modular:
        raise ValueError("exhaustive subspace enumeration needs a finite field")
    p = field.p
    yield field.zeros((0, n))
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            pivset = set(pivots)
            free_cells = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivset
            ]
            for fill in product(range(p), repeat=len(free_cells)):
                mat = field.zeros((k, n))
                for r, c in zip(range(k), pivots):
                    mat[r, c] = 1
                for (r, c), v in zip(free_cells, fill):
                    mat[r, c] = v
                yield mat
