"""Finite-dimensional associative unital algebras via structure constants.

Elements are coefficient vectors over the scalar field; multiplication
is the bilinear extension of the structure-constant table
c[i][j][k] = coefficient of b_k in b_i * b_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .fields import Field
from .linalg import Subspace


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class Algebra:
    field: Field
    labels: tuple[str, ...]
    table: np.ndarray  # shape (n, n, n)
    unit: np.ndarray  # coefficient vector of 1_R

    @property
    def dim(self) -> int:
        return len(self.labels)

    def products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """All products x*y for rows x of xs and y of ys, shape (len(xs), len(ys), n).

        Two contractions with the structure-constant table, each reduced:
        first the rows of x*b_j for every x, then the combinations by y.
        """
        n = self.dim
        left = self.field.reduce(np.dot(xs, self.table.reshape(n, n * n))).reshape(len(xs), n, n)
        return self.field.reduce(np.matmul(ys, left))

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise AlgebraError("dimension mismatch")
        return self.products(x[None], y[None])[0, 0]

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x*y acting on column vectors."""
        n = self.dim
        m = np.dot(x, self.table.reshape(n, n * n)).reshape(n, n)
        return self.field.reduce(m.T)

    def right_mult(self, y: np.ndarray) -> np.ndarray:
        """Matrix of x -> x*y acting on column vectors."""
        n = self.dim
        tt = np.transpose(self.table, (1, 0, 2)).reshape(n, n * n)
        m = np.dot(y, tt).reshape(n, n)
        return self.field.reduce(m.T)

    def basis_vector(self, i: int) -> np.ndarray:
        v = self.field.zeros(self.dim)
        v[i] = self.field.one
        return v

    def basis_vectors(self) -> list[np.ndarray]:
        return [self.basis_vector(i) for i in range(self.dim)]

    @cached_property
    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)



def validate_algebra(field: Field, labels, table, unit) -> Algebra:
    """Certify associativity and the unit laws on all basis triples."""
    n = len(labels)
    if len(set(labels)) != n:
        raise AlgebraError("duplicate basis labels")
    table = np.asarray(table)
    if table.shape != (n, n, n):
        raise AlgebraError(f"structure constants have shape {table.shape}, want {(n, n, n)}")
    table = field.reduce(table.astype(field.dtype, copy=True))
    unit = field.reduce(np.asarray(unit).astype(field.dtype, copy=True))
    if unit.shape != (n,):
        raise AlgebraError("unit vector has wrong length")
    alg = Algebra(field=field, labels=tuple(labels), table=table, unit=unit)

    # associativity on basis triples: (bi bj) bk == bi (bj bk)
    nn = n * n
    flat = table.reshape(nn, n)
    left = field.reduce(np.dot(flat, table.reshape(n, nn))).reshape(n, n, n, n)
    # right[i,j,k,l] = sum_m c[j,k,m] c[i,m,l]
    mid = np.transpose(table, (1, 0, 2)).reshape(n, nn)  # mid[m,(i,l)] = c[i,m,l]
    right = field.reduce(
        np.dot(table.reshape(nn, n), mid).reshape(n, n, n, n).transpose(2, 0, 1, 3)
    )
    if not np.array_equal(left, right):
        idx = np.argwhere(left != right)[0]
        i, j, k = (int(x) for x in idx[:3])
        raise AlgebraError(
            f"associativity fails at triple ({labels[i]},{labels[j]},{labels[k]})"
        )
    # column i of left_mult(unit) is 1*b_i, of right_mult(unit) b_i*1
    eye = field.eye(n)
    left_ok = np.all(alg.left_mult(unit) == eye, axis=0)
    right_ok = np.all(alg.right_mult(unit) == eye, axis=0)
    for i in range(n):
        if not left_ok[i]:
            raise AlgebraError(f"unit law fails: 1*{labels[i]} != {labels[i]}")
        if not right_ok[i]:
            raise AlgebraError(f"unit law fails: {labels[i]}*1 != {labels[i]}")
    return alg


def center(alg: Algebra) -> Subspace:
    """{z | z b_i = b_i z for all i}, certified commutative unital subalgebra."""
    sub = commutant(alg, alg.full_space, alg.full_space)
    sub.flags["is_subalgebra"] = _is_mult_closed(alg, sub)
    return sub


def commutant(alg: Algebra, s1: Subspace, s2: Subspace) -> Subspace:
    """V_{S2}(S1): elements of S2 commuting with every basis element of S1."""
    if s1.dim == 0:
        return s2
    if s2.dim == 0:
        return s2
    # row (a, k), column j: coordinate k of s_a t_j - t_j s_a
    diff = alg.products(s1.basis, s2.basis) - alg.products(s2.basis, s1.basis).transpose(1, 0, 2)
    stacked = alg.field.reduce(diff.transpose(0, 2, 1).reshape(s1.dim * alg.dim, s2.dim))
    coeffs = linalg.nullspace(alg.field, stacked)
    if coeffs.shape[0] == 0:
        return Subspace.zero(alg.field, alg.dim)
    return Subspace(alg.field, alg.dim, linalg.matmul(alg.field, coeffs, s2.basis))


def product_rows(alg: Algebra, a: Subspace, b: Subspace) -> np.ndarray:
    """Every product xy of basis rows x of a and y of b, one per row."""
    return alg.products(a.basis, b.basis).reshape(a.dim * b.dim, alg.dim)


def product_space(alg: Algebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of all products xy, x in a, y in b."""
    return Subspace(alg.field, alg.dim, product_rows(alg, a, b))


def _is_mult_closed(alg: Algebra, sub: Subspace) -> bool:
    return sub.coords_rows(product_rows(alg, sub, sub)) is not None


def is_unital_subalgebra(alg: Algebra, sub: Subspace) -> bool:
    return sub.contains(alg.unit) and _is_mult_closed(alg, sub)


def subalgebra_generated(alg: Algebra, seed, include_unit: bool = True) -> Subspace:
    """Least (unital) subalgebra containing the seed vectors."""
    vecs = list(seed.basis) if isinstance(seed, Subspace) else [np.asarray(v) for v in seed]
    if include_unit:
        vecs = [alg.unit] + vecs
    cur = Subspace.span(alg.field, vecs) if vecs else Subspace.zero(alg.field, alg.dim)
    while True:
        prods = product_rows(alg, cur, cur)
        if cur.coords_rows(prods) is not None:
            cur.flags["is_subalgebra"] = True
            return cur
        cur = Subspace(alg.field, alg.dim, np.vstack([cur.basis, prods]))


def subspace_algebra(alg: Algebra, sub: Subspace, unit_vec: np.ndarray, labels=None) -> tuple[Algebra, np.ndarray]:
    """A closed subspace with its own unit, as a standalone Algebra.

    Returns (algebra on sub's basis, embedding matrix rows -> ambient).
    """
    k = sub.dim
    table = sub.coords_rows(product_rows(alg, sub, sub))
    if table is None:
        raise AlgebraError("subspace is not closed under multiplication")
    table = table.reshape(k, k, k)
    unit_coords = sub.coords(unit_vec)
    if unit_coords is None:
        raise AlgebraError("designated unit lies outside the subspace")
    if labels is None:
        labels = [f"s{i}" for i in range(k)]
    small = validate_algebra(alg.field, labels, table, unit_coords)
    return small, sub.basis.copy()
